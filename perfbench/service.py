"""The server under test as a subprocess, probed from outside.

:class:`ServerProcess` launches ``repro serve --port 0`` (or the traced
launcher), waits for ``/healthz``, and tears the whole process tree down
again.  CPU time and peak RSS come from ``/proc`` for the serve process
and every descendant (router, workers, multiprocessing helpers), so no
number depends on the program reporting on itself.

:func:`drive` is the closed-loop client: ``clients`` threads, each with
one keep-alive connection, each sending its next request only after the
previous answer arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Answer", "ServerProcess", "cpu_seconds", "drive", "http_json",
    "peak_rss_mb", "post", "process_tree", "trace_id",
]

_READY = re.compile(r"serving on http://([^:\s]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Longest a launch may take before it counts as a failure.
START_TIMEOUT_S = 60.0
#: Longest a graceful drain may take before the tree is killed.
STOP_TIMEOUT_S = 30.0


def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ")".
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    children = _children_map()
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def _alive(pid: int) -> bool:
    """Running and not a zombie (a zombie has ended; only its entry remains)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_seconds(pids: list[int]) -> float:
    """Summed user+system CPU of ``pids`` (all their threads), in seconds."""
    ticks = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MB."""
    kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            kb += int(match.group(1))
    return kb / 1024.0


def http_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body)
    finally:
        conn.close()


class ServerProcess:
    """One ``repro serve`` process tree, launched from a checkout.

    ``entry`` is the argv prefix that reaches the ``repro`` CLI: the
    package itself, or the traced launcher.  Output goes to files under
    ``workdir`` (a pipe nobody drains could stall the server).
    """

    def __init__(self, root: Path, workdir: Path, workers: int, entry: list[str], env=None):
        self.root = root
        self.workdir = workdir
        self.workers = workers
        self.entry = entry
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), **(env or {})}
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: list[int] = []

    def start(self) -> None:
        """Launch and return once ``/healthz`` answers ``ok``."""
        tag = f"{len(list(self.workdir.glob('server-*.out')))}"
        out_path = self.workdir / f"server-{tag}.out"
        with open(out_path, "wb") as out, open(self.workdir / f"server-{tag}.err", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *self.entry, "serve", "--port", "0",
                 "--workers", str(self.workers)],
                cwd=self.root,
                env=self.env,
                stdout=out,
                stderr=err,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            match = _READY.search(out_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start (see {out_path.name})")
            time.sleep(0.002)
        while http_json(self.host, self.port, "/healthz").get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)
        self.pids = process_tree(self.proc.pid)

    def metrics(self) -> dict:
        return http_json(self.host, self.port, "/metrics")

    def stop(self) -> list[int]:
        """Drain gracefully (SIGTERM) and wait for the whole tree to end.

        Returns the pids still alive afterwards — each one an error; they
        are killed before returning, so nothing outlives the benchmark.
        """
        proc = self.proc
        if proc is None:
            return []
        self.proc = None
        pids = sorted(set(self.pids) | set(process_tree(proc.pid)))
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = [p for p in pids if _alive(p)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return survivors


@dataclass
class Answer:
    index: int
    status: int  # 0 = no HTTP answer (connection failure)
    cache: str
    latency_s: float
    #: Completion time, seconds after the window opened.
    done_s: float
    body: bytes


def trace_id(index: int) -> str:
    """A client-chosen trace id per measured request, so traced spans from
    every server process can be joined back to the request that caused
    them."""
    return f"{index:016x}"


def post(conn: http.client.HTTPConnection, body: bytes, trace: str):
    conn.request(
        "POST",
        "/solve",
        body=body,
        headers={"Content-Type": "application/json", "X-Repro-Trace": trace},
    )
    response = conn.getresponse()
    return response.status, response.getheader("X-Repro-Cache", ""), response.read()


def drive(
    host: str,
    port: int,
    bodies: list[bytes],
    clients: int,
    seconds: float,
    start: float,
) -> list[Answer]:
    """Closed-loop traffic over ``bodies`` in order for ``seconds`` from
    ``start`` (a ``perf_counter`` time); returns the answers by index."""
    answers: list[Answer] = []
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    deadline = start + seconds

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        local: list[Answer] = []
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    break
                trace = f"{trace_id(index)};{index:016x};default"
                t0 = time.perf_counter()
                try:
                    status, cache, payload = post(conn, bodies[index], trace)
                except (OSError, http.client.HTTPException):
                    status, cache, payload = 0, "", b""
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60)
                t1 = time.perf_counter()
                local.append(Answer(index, status, cache, t1 - t0, t1 - start, payload))
        finally:
            conn.close()
            with lock:
                answers.extend(local)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    answers.sort(key=lambda a: a.index)
    return answers
