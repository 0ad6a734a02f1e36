"""Worker-process entry point for the sharded solve service.

One worker is simply a :class:`~repro.service.server.SolveServer` — the
full single-process stack (HTTP front-end, solver thread, two-tier result
cache) — bound to an ephemeral loopback port and owned by a
:class:`~repro.service.router.RouterServer` parent.  The router speaks
plain HTTP to it, which keeps the shard protocol identical to the public
one: every worker is independently curl-able, and the differential tests
can compare a worker's bytes against the single-process path directly.

Launch (:func:`launch`): a worker is a plain subprocess running
:data:`BOOTSTRAP` (``python -c``), never a ``fork`` of the router, which
may itself live on a thread inside a test harness or bench runner, where
forking is a deadlock lottery.  The router writes two pickles to the
child's stdin, the way the ``spawn`` start method does: first its
*preparation data* (``sys.path``, ``sys.argv``, working directory, main
module), then :func:`worker_main`'s arguments, including the config.
The bootstrap imports only the standard library until it has applied
the first, so a router whose ``sys.path`` was changed in-process still
launches workers.  It keeps spawn's main-module rule: a ``__main__`` the
router ran from a file is re-imported as ``__mp_main__`` (a launcher that
installs hooks at import time installs them in every worker too), and a
package's ``__main__.py`` (``python -m repro``) is not re-run.

The handshake is one JSON message on a pipe the router passes with
``pass_fds``: the child binds first, then writes ``{"port": ..., "pid":
...}`` (or ``{"error": ...}`` if startup failed) and closes its end.
Everything after that happens over HTTP.

Lifecycle: the worker serves until SIGTERM/SIGINT, or until its stdin
reaches EOF, then drains — stops accepting, answers every request its
listener already accepted — and exits 0.  The router holds the write end
of that pipe for the worker's whole life, so EOF arrives when the router
closes it or dies, however it dies: a SIGKILLed router leaves no worker
behind.  A worker killed hard (SIGKILL, OOM) is detected by the router's
supervisor and respawned; its shard of the key space re-routes to ring
successors in the meantime.
"""

from __future__ import annotations

import asyncio
import json
import mmap
import os
import pickle
import signal
import subprocess
import sys
from typing import Any, Mapping

__all__ = ["BOOTSTRAP", "launch", "worker_main"]

#: The program every worker process runs.  As in spawn's own bootstrap,
#: the process counts as inheriting while the main module re-imports, so
#: a main module that starts a fleet outside its ``__main__`` guard fails
#: in the worker instead of launching workers of its own.
BOOTSTRAP = (
    "import pickle, sys\n"
    "from multiprocessing import process, spawn\n"
    "process.current_process()._inheriting = True\n"
    "spawn.prepare(pickle.load(sys.stdin.buffer))\n"
    "del process.current_process()._inheriting\n"
    "from repro.service.worker import worker_main\n"
    "worker_main(*pickle.load(sys.stdin.buffer))\n"
)


def launch(
    worker_id: int, config: Mapping[str, Any], report_fd: int, tally_fd: int | None
) -> subprocess.Popen:
    """Start one worker process and hand it its arguments on stdin.

    ``report_fd`` (the handshake pipe's write end) and ``tally_fd`` (the
    fault tally file, when faults are armed) are passed to the child
    under the same numbers.  The returned process's ``stdin`` stays
    open: closing it tells the worker to drain and exit.
    """
    from multiprocessing import spawn

    prep = spawn.get_preparation_data(f"repro-worker-{worker_id}")
    # An AuthenticationString refuses to pickle, and no worker
    # authenticates to the router.
    del prep["authkey"]
    process = subprocess.Popen(
        [sys.executable, "-c", BOOTSTRAP],
        stdin=subprocess.PIPE,
        pass_fds=(report_fd,) if tally_fd is None else (report_fd, tally_fd),
    )
    args = (worker_id, report_fd, tally_fd, dict(config))
    try:
        process.stdin.write(pickle.dumps(prep) + pickle.dumps(args))
        process.stdin.flush()
    except BrokenPipeError:
        pass  # the child died before reading; its handshake pipe says so
    return process


def _report(report_fd: int, message: Mapping[str, Any]) -> None:
    with open(report_fd, "wb") as pipe:
        pipe.write(json.dumps(message).encode())


async def _serve(worker_id: int, report_fd: int, config: Mapping[str, Any], tally) -> None:
    from ..obs import configure_logging, set_identity
    from .faults import FaultInjector
    from .server import SolveServer

    config = dict(config)
    # Observability config rides in the worker config: every span this
    # process records is stamped worker=<id>, and the structured-log sink
    # matches the parent's --log-format/--log-file (workers append to one
    # file; whole-line writes interleave cleanly).
    set_identity(worker_id)
    log_format = config.pop("log_format", None)
    log_file = config.pop("log_file", None)
    if log_format is not None or log_file is not None:
        configure_logging(log_format, log_file, stream=sys.stderr if log_file is None else None)
    # A chaos plan rides inside the (picklable) worker config as a plain
    # dict; each worker builds its own injector scoped to its id, so a
    # spec with "worker": K fires only in worker K.
    plan = config.pop("fault_plan", None)
    faults = FaultInjector(plan, worker=worker_id) if plan is not None else None
    if faults is not None:
        faults.tally = tally
    server = SolveServer(faults=faults, **config)
    try:
        bound = await server.start("127.0.0.1", 0)
    except BaseException as exc:
        _report(report_fd, {"error": f"{type(exc).__name__}: {exc}"})
        server.close()
        raise SystemExit(1)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        # The router's graceful drain sends SIGTERM; an interactive Ctrl-C
        # delivers SIGINT to the whole process group.  Either way: drain.
        loop.add_signal_handler(sig, stop.set)

    def stdin_readable() -> None:
        if not os.read(0, 4096):  # EOF: the router closed the pipe or died
            loop.remove_reader(0)
            stop.set()

    loop.add_reader(0, stdin_readable)
    _report(report_fd, {"port": server.port, "pid": os.getpid()})
    try:
        await stop.wait()
    finally:
        await server.drain(bound)


def worker_main(
    worker_id: int, report_fd: int, tally_fd: int | None, config: Mapping[str, Any]
) -> None:
    """Run one solve worker until told to drain; the bootstrap's target.

    ``report_fd`` is the write end of the handshake pipe; ``config`` is
    the :class:`~repro.service.server.SolveServer` constructor kwargs
    (every worker of one fleet gets the same config, so a shared
    ``cache_dir`` becomes the fleet's common L2 cache tier).
    ``tally_fd``, passed when faults are armed, is the worker handle's
    8-byte fault count file, which this process maps and its fault
    injector adds to.
    """
    tally = None
    if tally_fd is not None:
        tally = memoryview(mmap.mmap(tally_fd, 8)).cast("q")
        os.close(tally_fd)
    asyncio.run(_serve(worker_id, report_fd, config, tally))
