"""Consistent-hash router: the sharded front-end of the solve service.

``repro serve --workers N`` puts this in front of N worker processes
(each a full :class:`~repro.service.server.SolveServer`, see
:mod:`repro.service.worker`).  The public protocol is not re-implemented
here: :class:`RouterServer` shares the solo server's request pipeline
(:class:`~repro.service.server.HttpServerBase` — parse, key, coalesce,
dispatch) and supplies only the fleet's *dispatch stage*.  Every
``/solve`` and ``/portfolio`` body is resolved to its canonical
content-addressed ``result_key`` — the *same* resolution the worker
performs — and the key is consistent-hashed over a :class:`HashRing` of
workers.  Key affinity is the whole game: one key always lands on one
worker, so that worker's in-memory LRU is an effective L1 cache and its
in-flight coalescing still collapses concurrent identical misses, even
though the fleet shares nothing but a disk-spill directory (the L2 tier).
The shared coalescer runs at the front door too, so a worker respawn
storm or a hot key never multiplies into duplicate solves downstream.

Failure handling is ring-shaped, and it distinguishes *dead* from
*slow*.  A connection-level failure (refused, reset, truncated response)
marks the worker dead, removes it from the ring, and retries the request
on the key's ring successor — an accepted request is never dropped just
because its shard died mid-solve.  A per-request timeout
(``request_timeout``, off by default) instead means the worker is merely
slow: the router retries the *same* worker with seeded exponential
backoff + jitter up to ``retries`` times, and only then walks to the
successor — without de-ringing a worker that is still computing.  Every
failover logs one structured line (``repro.service.router`` logger) with
the worker id and the classified reason.  A supervisor task respawns
dead workers (bounded by ``max_restarts``), splices them back into the
ring, and re-rings live workers that transient connection faults
wrongly benched; ``/healthz`` reports ``degraded`` while the fleet is
short-handed and ``ok`` again after recovery, with the restart count
alongside.  A worker's error answer reaches the client as the same error
(status, ``{"error": ...}`` body, ``Retry-After`` on a 503).

For chaos testing, a :class:`~repro.service.faults.FaultPlan` passed as
``fault_plan`` arms deterministic injection seams on both sides of the
wire: the router's client send/recv and worker spawn (this module), and
the worker's pre/post-solve, cache-spill, and queue-drain seams (the
plan is forwarded inside ``worker_config``).

Sessions ride the same ring.  The front door's session registry holds
each session's solve defaults and step count; the router mirrors the
session on the worker that owns the affinity key ``session|{id}`` and
forwards every ``POST /session/{id}/step`` there — so one session's
stream of near-duplicate instances keeps hitting one worker's L1 and
neighbor index (the warm-start locality story).  Each forwarded step
carries the session's defaults, so when the owning worker dies
mid-session the ring successor rebuilds the session from the step body
itself — failover loses zero steps, and ``DELETE`` still reports every
step because the router counts them.

``/metrics`` aggregates the fleet — the workers' own queue/cache blocks,
summed field by field, keep the single-process document shape, with
per-worker detail nested under ``"workers"`` and router-level counters
under ``"router"`` (in Prometheus form: the same metric names with a
``worker="i"`` label).

:func:`build_server` is the one place that picks between the solo server
and a fleet for a worker count.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import logging
import mmap
import os
import random
import select
import subprocess
import tempfile
import threading
import time
from http import HTTPStatus
from typing import Any, Iterable, Mapping

from ..core.errors import InvalidInstanceError
from ..obs import get_logger
from ..obs.spans import span
from ..obs.trace import TRACE_HEADER, current_trace
from .faults import FaultInjector, FaultPlan
from .server import (
    HttpServerBase,
    SolveServer,
    _BadRequest,
    parse_json_body,
    prometheus_samples,
    resolve_portfolio_request,
    resolve_solve_request,
)
from .worker import launch

__all__ = ["HashRing", "WorkerHandle", "RouterServer", "build_server"]

#: Stdlib logger name the structured events fall back to when no explicit
#: sink is configured (``repro serve --log-format/--log-file``); kept so
#: embedding applications and caplog keep seeing router events here.
LOG_NAME = "repro.service.router"

# Retained for callers that attach handlers to the router's logger.
log = logging.getLogger(LOG_NAME)


def _event(event: str, **fields) -> None:
    """One structured line per failover / rejoin / respawn decision —
    every operational event goes through the obs logger (single path)."""
    get_logger().event(event, logger=LOG_NAME, **fields)

#: Virtual nodes per worker: enough to spread the key space within a few
#: percent of even at N <= 16 workers while keeping ring edits cheap.
DEFAULT_REPLICAS = 64


class HashRing:
    """Consistent hashing over a small set of nodes with virtual replicas.

    Each node owns ``replicas`` pseudo-random points on a 64-bit circle
    (SHA-256 of ``"{node}#{i}"``); a key routes to the first node point at
    or after its own hash, wrapping around.  Adding or removing one node
    therefore only moves the keys in that node's arcs — the property that
    keeps per-worker L1 caches warm across fleet changes.
    """

    def __init__(self, nodes: Iterable[Any] = (), replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._points: list[tuple[int, Any]] = []
        self._hashes: list[int] = []
        self._nodes: set[Any] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add(self, node: Any) -> None:
        """Splice a node's replica points into the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._points.extend((self._hash(f"{node}#{i}"), node) for i in range(self._replicas))
        self._rebuild()

    def remove(self, node: Any) -> None:
        """Drop a node's points; its arcs fall to ring successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]
        self._hashes = [h for h, _ in self._points]

    def __contains__(self, node: Any) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def node_for(self, key: str) -> Any | None:
        """The node owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._hashes, self._hash(key)) % len(self._points)
        return self._points[index][1]

    def preference(self, key: str) -> list[Any]:
        """Every node in ring order starting at ``key``'s owner.

        The failover order: index 0 is the primary, the rest are the
        successors a router walks when shards die faster than the
        supervisor revives them.
        """
        if not self._points:
            return []
        start = bisect.bisect_right(self._hashes, self._hash(key)) % len(self._points)
        seen: list[Any] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self._nodes):
                    break
        return seen


class WorkerHandle:
    """One worker process: spawn, liveness, restart accounting.

    Each spawn is a plain subprocess started by
    :func:`~repro.service.worker.launch`, never a ``fork`` — the router
    may run on a thread inside a larger process (tests, benches), where
    ``fork`` would snapshot foreign locks in unknown states.  The handle
    keeps the worker's stdin pipe open for the worker's whole life, and
    the worker drains and exits when that pipe reaches EOF, so a router
    that dies — even by SIGKILL — leaves no solver process behind.

    With ``faults`` armed, ``faults_fired`` is an 8-byte counter in an
    unlinked temporary file that every spawn of this worker maps too: its
    fault injector adds each fault it fires before the fault acts, so the
    count survives a crash (the one that caused it included) and the
    respawn carries on from it.  :meth:`close` releases it with the fleet.
    """

    def __init__(
        self,
        worker_id: int,
        config: Mapping[str, Any],
        faults: FaultInjector | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.config = dict(config)
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.restarts = 0
        self._faults = faults
        self._closed = False
        # Orders launches against shutdown() and close(): no launch
        # starts after the handle closed, or passes a closed tally file.
        self._lock = threading.Lock()
        self._tally_file = None
        self.faults_fired: memoryview | None = None
        if faults is not None:
            self._tally_file = tempfile.TemporaryFile()
            self._tally_file.truncate(8)
            tally = mmap.mmap(self._tally_file.fileno(), 8)
            self.faults_fired = memoryview(tally).cast("q")

    def spawn(self, timeout: float = 60.0) -> "WorkerHandle":
        """Start the process and wait for its bind handshake (blocking —
        callers run this in an executor to keep the event loop free)."""
        if self._faults is not None:
            # The worker.spawn seam: an injected `error` makes this
            # attempt fail exactly like a child that died during startup.
            self._faults.fire_sync("worker.spawn", worker=self.worker_id)
        report, report_w = os.pipe()
        try:
            try:
                with self._lock:
                    if self._closed:
                        raise RuntimeError(
                            f"worker {self.worker_id} was shut down during spawn"
                        )
                    tally = self._tally_file
                    process = launch(
                        self.worker_id,
                        self.config,
                        report_w,
                        None if tally is None else tally.fileno(),
                    )
            finally:
                os.close(report_w)  # the child's copy is the only writer left
            message = _read_report(report, timeout)
        finally:
            os.close(report)
        if message is None:
            _stop(process, 5)
            raise RuntimeError(
                f"worker {self.worker_id} did not report its port within {timeout}s"
            )
        if not message:
            # Child died before the handshake (import error, OOM, ...).
            _stop(process, 5)
            raise RuntimeError(
                f"worker {self.worker_id} died during startup"
                f" (exit code {process.returncode})"
            )
        message = json.loads(message)
        if "error" in message:
            _stop(process, 5)
            raise RuntimeError(f"worker {self.worker_id} failed to start: {message['error']}")
        with self._lock:
            closed = self._closed
            if not closed:
                previous, self.process = self.process, process
                self.port = message["port"]
        if closed:
            # shutdown() raced this spawn (SIGTERM mid-respawn): reap the
            # fresh child instead of leaking it past the fleet teardown.
            _stop(process, 5)
            raise RuntimeError(f"worker {self.worker_id} was shut down during spawn")
        if previous is not None:
            _stop(previous, 5)  # the dead predecessor: close its stdin pipe
        return self

    def alive(self) -> bool:
        process = self.process
        return process is not None and process.poll() is None

    def shutdown(self, timeout: float = 10.0) -> None:
        """Terminate (SIGTERM → the worker's graceful drain) and reap;
        escalate to SIGKILL only past ``timeout``."""
        with self._lock:
            self._closed = True
            process, self.process = self.process, None
        if process is not None:
            _stop(process, timeout)

    def close(self) -> None:
        """Shut the worker down hard and release the fault tally."""
        self.shutdown(timeout=2)
        with self._lock:
            tally_file, self._tally_file = self._tally_file, None
            if tally_file is not None:
                tally = self.faults_fired.obj
                self.faults_fired.release()
                tally.close()
                tally_file.close()


def _read_report(fd: int, timeout: float) -> bytes | None:
    """What a child wrote to its handshake pipe (``b""`` if it died
    first), or ``None`` if nothing happened within ``timeout`` seconds.
    The child closes the pipe right after its one write."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    if not poller.poll(timeout * 1e3):
        return None
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


def _stop(process: subprocess.Popen, timeout: float) -> None:
    """SIGTERM ``process`` if it still runs, reap it (SIGKILL past
    ``timeout``), then close its stdin pipe."""
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
        process.kill()
        process.wait()
    process.stdin.close()


class _WorkerClient:
    """Minimal async HTTP/1.1 client for one worker, with keep-alive reuse.

    Holds a small pool of idle loopback connections; a request that fails
    on a pooled connection is retried once on a fresh one (the worker may
    simply have closed an idle socket), and only a fresh-connection
    failure propagates — that is the router's signal the worker is gone.
    """

    MAX_IDLE = 32

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: int | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._worker_id = worker_id
        self._faults = faults
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        if self._faults is not None:
            for spec in self._faults.check("router.send", worker=self._worker_id):
                if spec.kind == "slow":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind == "conn_reset":
                    raise ConnectionResetError(
                        f"injected connection reset at router.send"
                        f" (worker {self._worker_id})"
                    )
        while self._idle:
            conn = self._idle.pop()
            try:
                return await self._round_trip(conn, method, path, body, headers)
            except asyncio.CancelledError:
                # A wait_for timeout cancels us mid-round-trip; the popped
                # connection is half-used and must not return to the pool.
                self._discard(conn)
                raise
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                self._discard(conn)
        conn = await asyncio.open_connection(self._host, self._port)
        try:
            return await self._round_trip(conn, method, path, body, headers)
        except BaseException:
            self._discard(conn)
            raise

    async def _round_trip(
        self,
        conn,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ):
        reader, writer = conn
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            f"{extra}\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("worker closed the connection")
        parts = status_line.split(None, 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(headers.get("content-length", "0")))
        if self._faults is not None:
            for spec in self._faults.check("router.recv", worker=self._worker_id):
                if spec.kind == "slow":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind == "conn_reset":
                    self._discard(conn)
                    raise ConnectionResetError(
                        f"injected connection reset at router.recv"
                        f" (worker {self._worker_id})"
                    )
                elif spec.kind == "truncate":
                    # The bytes a half-written response would have left us.
                    self._discard(conn)
                    raise asyncio.IncompleteReadError(
                        payload[: len(payload) // 2], len(payload)
                    )
        if headers.get("connection", "keep-alive").lower() == "close":
            self._discard(conn)
        elif len(self._idle) < self.MAX_IDLE:
            self._idle.append(conn)
        else:
            self._discard(conn)
        return status, headers, payload

    @staticmethod
    def _discard(conn) -> None:
        try:
            conn[1].close()
        except Exception:  # pragma: no cover - transport already dead
            pass

    def close(self) -> None:
        while self._idle:
            self._discard(self._idle.pop())


class RouterServer(HttpServerBase):
    """The fleet front-end: N worker processes behind one listener.

    ``worker_config`` is the per-worker
    :class:`~repro.service.server.SolveServer` constructor kwargs.  Point
    every worker at one ``cache_dir`` to give the fleet a shared L2 cache
    tier under the key-affine per-worker L1s.

    The public protocol — routes, handlers, coalescing, the session
    registry — is :class:`~repro.service.server.HttpServerBase`'s, so
    clients and the load generator cannot tell one worker from eight.
    This class is only the fleet's dispatch stage: the hash ring, the
    worker processes and their loopback clients, forwarding with
    failover, the supervisor, and fleet-wide aggregation.
    """

    #: The front-door hop's root span (vs the worker's ``server.request``).
    SPAN_ROOT = "router.request"

    #: Drain events share the failover and respawn events' logger.
    LOGGER = LOG_NAME

    #: How long a request keeps walking the ring before giving up with 503.
    FAILOVER_TIMEOUT_S = 10.0

    #: Supervisor poll interval — the respawn detection latency bound.
    SUPERVISE_INTERVAL_S = 0.25

    def __init__(
        self,
        *,
        workers: int = 2,
        worker_config: Mapping[str, Any] | None = None,
        max_restarts: int = 5,
        request_timeout: float | None = None,
        retries: int = 2,
        backoff_ms: float = 50.0,
        fault_plan: "FaultPlan | Mapping[str, Any] | None" = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        if request_timeout is not None and request_timeout <= 0:
            raise InvalidInstanceError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if retries < 0:
            raise InvalidInstanceError(f"retries must be >= 0, got {retries}")
        if backoff_ms < 0:
            raise InvalidInstanceError(f"backoff_ms must be >= 0, got {backoff_ms}")
        self.n_workers = int(workers)
        self.worker_config = dict(worker_config or {})
        self.max_restarts = int(max_restarts)
        self.request_timeout = None if request_timeout is None else float(request_timeout)
        self.retries = int(retries)
        self.backoff_s = float(backoff_ms) / 1e3
        plan = FaultPlan.from_dict(fault_plan) if fault_plan is not None else None
        # The router keeps one injector for its own seams (client send/
        # recv, worker spawn) and forwards the plan dict to every worker,
        # where a second, worker-scoped injector drives the in-process
        # seams.  The plan's seed also fixes the retry jitter, so a chaos
        # run's backoff schedule replays exactly.
        self.faults = FaultInjector(plan) if plan is not None else None
        if plan is not None:
            self.worker_config.setdefault("fault_plan", plan.to_dict())
        self._retry_rng = random.Random(plan.seed if plan is not None else 0)
        self._handles: dict[int, WorkerHandle] = {}
        self._clients: dict[int, _WorkerClient] = {}
        self._ring = HashRing()
        self._retries = 0
        self._request_retries = 0
        self._respawns_inflight: set[int] = set()
        self._supervisor: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def _before_bind(self) -> None:
        """Spawn the whole fleet (in parallel) before accepting traffic."""
        loop = asyncio.get_running_loop()
        handles = [
            WorkerHandle(i, self.worker_config, faults=self.faults)
            for i in range(self.n_workers)
        ]
        try:
            await asyncio.gather(
                *(loop.run_in_executor(None, handle.spawn) for handle in handles)
            )
        except BaseException:
            for handle in handles:
                handle.close()
            raise
        for handle in handles:
            self._handles[handle.worker_id] = handle
            self._clients[handle.worker_id] = self._make_client(handle)
            self._ring.add(handle.worker_id)
        self._supervisor = loop.create_task(self._supervise())

    def _make_client(self, handle: WorkerHandle) -> _WorkerClient:
        return _WorkerClient(
            "127.0.0.1", handle.port, worker_id=handle.worker_id, faults=self.faults
        )

    async def _supervise(self) -> None:
        """Detect dead workers, respawn them, splice them back in."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.SUPERVISE_INTERVAL_S)
            for worker_id, handle in self._handles.items():
                if worker_id in self._respawns_inflight:
                    continue
                if handle.alive():
                    if worker_id not in self._ring:
                        # A transient connection fault (e.g. an injected
                        # reset) benched a worker whose process is fine —
                        # the liveness probe puts it back in rotation.
                        self._ring.add(worker_id)
                        _event("rejoin", worker=worker_id, reason="alive")
                    continue
                self._mark_dead(worker_id)
                if handle.restarts >= self.max_restarts:
                    continue
                handle.restarts += 1
                self._respawns_inflight.add(worker_id)
                try:
                    await loop.run_in_executor(None, handle.spawn)
                except Exception as exc:
                    # Spawn failed; the next tick retries (up to the cap).
                    _event(
                        "respawn_failed",
                        worker=worker_id,
                        attempt=handle.restarts,
                        error=str(exc),
                    )
                    continue
                finally:
                    self._respawns_inflight.discard(worker_id)
                self._clients[worker_id] = self._make_client(handle)
                self._ring.add(worker_id)
                _event(
                    "respawn",
                    worker=worker_id,
                    restarts=handle.restarts,
                    port=handle.port,
                )

    def _mark_dead(self, worker_id: int) -> None:
        """Take a worker out of rotation (idempotent, loop-thread only)."""
        self._ring.remove(worker_id)
        client = self._clients.get(worker_id)
        if client is not None:
            client.close()

    async def _drain_dispatch(self, timeout: float) -> None:
        """SIGTERM every worker (each drains its own queue) and reap."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            self._supervisor = None
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, handle.shutdown, timeout)
                for handle in self._handles.values()
            )
        )

    def close(self) -> None:
        """Tear the fleet down hard (idempotent; safe off the loop).

        The graceful path is :meth:`drain`; this is the unconditional
        cleanup behind ``finally:`` blocks and test harness exits.  The
        pooled worker connections close here too; their sockets are
        released once the loop runs again (a closed loop leaves them to
        the garbage collector).  So do the workers' fault tallies.
        """
        if self._closed:
            return
        self._closed = True
        supervisor = self._supervisor
        if supervisor is not None:
            self._supervisor = None
            try:
                supervisor.cancel()
            except RuntimeError:
                # Called after the event loop already closed (harness
                # teardown); the task died with the loop.
                pass
        for client in self._clients.values():
            client.close()
        for handle in self._handles.values():
            handle.close()

    # -- routing ----------------------------------------------------------

    @staticmethod
    def _failure_reason(exc: BaseException) -> str:
        """Classify one transport failure for the structured failover log."""
        if isinstance(exc, ConnectionRefusedError):
            return "connection-refused"
        if isinstance(exc, ConnectionResetError):
            return "connection-reset"
        if isinstance(exc, asyncio.IncompleteReadError):
            return "truncated-response"
        return type(exc).__name__

    async def _forward(self, key: str, path: str, body: bytes):
        """Send one request to ``key``'s shard, failing over around the ring.

        Returns ``(status, headers, payload)`` from the first worker that
        answers.  Failures are classified, not pooled:

        * a **connection-level** failure (refused, reset, truncated
          response — the worker process is gone or its socket is broken)
          marks the worker dead, logs the reason, and walks to the ring
          successor immediately;
        * a **timeout** (``request_timeout`` elapsed — the worker is
          alive but slow, possibly mid-solve) retries the *same* worker
          up to ``retries`` times with seeded exponential backoff +
          jitter, then steps to the successor for this request only —
          the slow worker stays in the ring.

        Only an empty ring (or unbroken timeouts) past the failover
        deadline surfaces as 503.
        """
        # Propagate the ambient trace to the owning worker: the worker's
        # front door adopts it, so one trace id spans both hops.
        ctx = current_trace()
        trace_headers = (
            {TRACE_HEADER: ctx.child().header_value()} if ctx is not None else None
        )
        deadline = time.monotonic() + self.FAILOVER_TIMEOUT_S
        timed_out: set[int] = set()
        while True:
            order = self._ring.preference(key)
            if not order:
                if time.monotonic() >= deadline:
                    raise _BadRequest(
                        HTTPStatus.SERVICE_UNAVAILABLE, "no workers available"
                    )
                # The supervisor may be mid-respawn; give it a beat.
                await asyncio.sleep(0.05)
                continue
            candidates = [w for w in order if w not in timed_out]
            if not candidates:
                # Every live worker exhausted its timeout budget for this
                # request; start a fresh pass rather than 503 a fleet
                # that is merely slow.
                timed_out.clear()
                candidates = order
            worker_id = candidates[0]
            client = self._clients[worker_id]
            attempt = 0
            while True:
                try:
                    with span("router.forward", worker=str(worker_id)):
                        if self.request_timeout is not None:
                            return await asyncio.wait_for(
                                client.request("POST", path, body, trace_headers),
                                self.request_timeout,
                            )
                        return await client.request("POST", path, body, trace_headers)
                except asyncio.TimeoutError:
                    # NB: must precede the OSError family — TimeoutError
                    # is an OSError subclass on 3.11+.
                    self._request_retries += 1
                    if time.monotonic() >= deadline:
                        raise _BadRequest(
                            HTTPStatus.SERVICE_UNAVAILABLE,
                            f"worker {worker_id} timed out past the failover deadline",
                        )
                    if attempt >= self.retries:
                        self._retries += 1
                        timed_out.add(worker_id)
                        _event(
                            "failover",
                            worker=worker_id,
                            reason="timeout",
                            path=path,
                            attempts=attempt + 1,
                        )
                        break
                    delay = self.backoff_s * (2**attempt) * (0.5 + self._retry_rng.random())
                    attempt += 1
                    await asyncio.sleep(delay)
                except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                    self._retries += 1
                    self._mark_dead(worker_id)
                    _event(
                        "failover",
                        worker=worker_id,
                        reason=self._failure_reason(exc),
                        path=path,
                        error=str(exc),
                    )
                    if time.monotonic() >= deadline:
                        raise _BadRequest(
                            HTTPStatus.SERVICE_UNAVAILABLE,
                            f"worker {worker_id} unavailable: {exc}",
                        )
                    break

    # -- the dispatch stage -------------------------------------------------
    #
    # The front door parses and keys with *this* module's names
    # (parse_json_body, resolve_solve_request), inside the router.route
    # span: the service benchmark times the router's hop through exactly
    # these attributes.

    def _resolve_solve(self, body: bytes):
        with span("router.route"):
            return resolve_solve_request(parse_json_body(body))

    def _resolve_portfolio(self, body: bytes):
        with span("router.route"):
            return resolve_portfolio_request(parse_json_body(body))

    async def _relay(self, key: str, path: str, body: bytes) -> tuple[bytes, str]:
        """Forward to ``key``'s shard; a worker's error answer is re-raised
        as the same error, so the client sees the status, the body and the
        headers (``Retry-After`` on a 503) the worker's own front door
        would have sent."""
        status, headers, payload = await self._forward(key, path, body)
        if status != 200:
            raise _BadRequest(HTTPStatus(status), json.loads(payload)["error"])
        return payload, headers.get("x-repro-cache", "miss")

    async def _dispatch_solve(self, request, body: bytes) -> tuple[bytes, str]:
        return await self._relay(request[0], "/solve", body)

    async def _dispatch_portfolio(self, request, body: bytes) -> tuple[bytes, str]:
        return await self._relay(request[0], "/portfolio", body)

    @staticmethod
    def _session_key(session_id: str) -> str:
        """The ring affinity key of one session: every create/step/delete
        of the session routes to the same worker (until it dies)."""
        return f"session|{session_id}"

    async def _dispatch_step(
        self, session_id: str, data: dict[str, Any]
    ) -> tuple[bytes, str]:
        # Steps skip the front-door coalescer: distinct steps of one
        # session are distinct solves that merely share an affinity key.
        return await self._relay(
            self._session_key(session_id),
            f"/session/{session_id}/step",
            json.dumps(data).encode("utf-8"),
        )

    async def _session_opened(self, session_id: str, data: dict[str, Any]) -> None:
        # Mirror the session on its owner under the id the client will
        # step it by.
        await self._relay(
            self._session_key(session_id),
            "/session",
            json.dumps({**data, "id": session_id}).encode("utf-8"),
        )

    async def _session_closed(self, session_id: str) -> None:
        """Drop the owner's mirror: one attempt, because the soft state
        dies with the worker anyway."""
        owner = self._ring.node_for(self._session_key(session_id))
        if owner is None:
            return
        try:
            await self._clients[owner].request("DELETE", f"/session/{session_id}")
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass

    def _fleet_counts(self) -> dict[str, int]:
        alive = sum(1 for handle in self._handles.values() if handle.alive())
        return {
            "total": self.n_workers,
            "alive": alive,
            "restarts": sum(handle.restarts for handle in self._handles.values()),
        }

    def _health(self) -> dict[str, Any]:
        counts = self._fleet_counts()
        return {
            "status": "ok" if counts["alive"] == counts["total"] else "degraded",
            "workers": counts,
        }

    async def _from_workers(self, path: str) -> dict[str, Any]:
        """``GET path`` from every live worker concurrently: worker id ->
        decoded JSON body (unreachable or failing workers are left out)."""
        order = sorted(
            worker_id
            for worker_id, handle in self._handles.items()
            if handle.alive() and worker_id in self._ring
        )

        async def fetch(worker_id: int):
            try:
                status, _headers, payload = await self._clients[worker_id].request(
                    "GET", path
                )
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                return None
            if status != 200:
                return None
            try:
                return json.loads(payload)
            except json.JSONDecodeError:
                return None

        docs = await asyncio.gather(*(fetch(worker_id) for worker_id in order))
        return {
            str(worker_id): doc for worker_id, doc in zip(order, docs) if doc is not None
        }

    async def _peer_spans(self, trace_id: str) -> list[dict[str, Any]]:
        docs = await self._from_workers(f"/debug/trace/{trace_id}")
        return [span for doc in docs.values() for span in doc.get("spans", [])]

    @staticmethod
    def _aggregate(workers: dict[str, dict]) -> tuple[dict, dict]:
        """Sum the workers' own queue/cache blocks into the single-process
        document shape: every field sums (``max_bytes`` is the fleet's
        budget) except ``max_batch``, which maxes, and the ratios
        ``mean_batch`` and ``hit_rate``, which are recomputed from the sums."""
        queue: dict[str, float] = {}
        cache: dict[str, float] = {}
        for snap in workers.values():
            for total, block in ((queue, snap["queue"]), (cache, snap["cache"])):
                for field, value in block.items():
                    total[field] = total.get(field, 0) + value
        if workers:
            queue["max_batch"] = max(snap["queue"]["max_batch"] for snap in workers.values())
            batches, lookups = queue["batches"], cache["hits"] + cache["misses"]
            queue["mean_batch"] = queue["completed"] / batches if batches else 0.0
            cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        return queue, cache

    async def _snapshot(self, snapshot: dict[str, Any]) -> None:
        workers = await self._from_workers("/metrics")
        snapshot["queue"], snapshot["cache"] = self._aggregate(workers)
        snapshot["router"] = {
            "workers": self._fleet_counts(),
            "retries": self._retries,
            "request_retries": self._request_retries,
            "sessions": snapshot["sessions"],
        }
        if self.faults is not None:
            # Read from the handles, not the live workers' /metrics: a
            # crashed worker's faults stay in the fleet total.
            snapshot["router"]["faults_injected"] = self.faults.fired + sum(
                handle.faults_fired[0] for handle in self._handles.values()
            )
        snapshot["workers"] = workers

    def _prometheus(self, snapshot: dict[str, Any]) -> list:
        samples = prometheus_samples(snapshot)
        counts = snapshot["router"]["workers"]
        samples.append(("repro_workers_total", {}, float(counts["total"])))
        samples.append(("repro_workers_alive", {}, float(counts["alive"])))
        samples.append(("repro_worker_restarts_total", {}, float(counts["restarts"])))
        samples.append(("repro_router_retries_total", {}, float(self._retries)))
        samples.append(("repro_retries_total", {}, float(self._request_retries)))
        if self.faults is not None:
            samples.append((
                "repro_faults_injected_total",
                {"scope": "fleet"},
                float(snapshot["router"]["faults_injected"]),
            ))
        for worker_id, snap in snapshot["workers"].items():
            samples.extend(prometheus_samples(snap, labels={"worker": worker_id}))
        # Stable output: group samples by metric name so each # TYPE
        # header precedes all of its series, fleet and per-worker.
        rank: dict[str, int] = {}
        for name, _, _ in samples:
            rank.setdefault(name, len(rank))
        samples.sort(key=lambda s: (rank[s[0]], str(s[1])))
        return samples


def build_server(
    workers: int = 1,
    worker_config: Mapping[str, Any] | None = None,
    *,
    fault_plan: "FaultPlan | Mapping[str, Any] | None" = None,
    **fleet: Any,
) -> HttpServerBase:
    """The solve service for ``workers``: the one place that picks solo or
    fleet.

    ``workers == 1`` is a single :class:`SolveServer` built from
    ``worker_config``; more is a :class:`RouterServer` over that many
    worker processes, each built from ``worker_config``.  ``fault_plan``
    is armed on whichever topology is built (the solo server's seams, or
    both sides of the fleet's wire).  ``fleet`` holds the
    :class:`RouterServer`-only kwargs (``request_timeout``, ``retries``,
    ``backoff_ms``, ``max_restarts``), which one process has no use for.
    """
    config = dict(worker_config or {})
    if workers == 1:
        return SolveServer(faults=fault_plan, **config)
    return RouterServer(
        workers=workers, worker_config=config, fault_plan=fault_plan, **fleet
    )
