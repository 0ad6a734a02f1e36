"""Load generator for the solve service: closed- and open-loop clients.

Three traffic modes:

* **closed loop** — ``concurrency`` workers each issue their next request
  the moment the previous response lands.  Measures saturation
  throughput: the offered load adapts to the service rate, so the result
  is "how fast can this server go".
* **open loop** — requests fire at *scheduled* arrival times drawn from a
  :mod:`repro.sim.stream` source (by default the same seeded
  :func:`~repro.sim.stream.poisson_stream` the online simulator replays),
  regardless of whether earlier responses returned.  Measures behaviour
  under a fixed offered rate: latency inflates and lateness accumulates
  when the service falls behind — exactly what closed loops hide.
* **session** — each of ``sessions`` threads opens a long-lived ``POST
  /session`` and replays a seeded :func:`~repro.sim.stream.poisson_stream`
  through it as a sequence of growing-prefix instances (every step = the
  previous instance plus the newly arrived tasks), stepping as fast as
  responses land.  This is the online-workload mode: against a
  ``warm_delta``-enabled server most steps should come back ``X-Repro-
  Cache: warm`` (counted separately as ``warm_hits``).

All modes reuse ``http.client`` over keep-alive connections, record
per-request latency, count cache hits via the server's ``X-Repro-Cache``
header, and summarise into a :class:`LoadResult` (p50/p95/p99 and a
log-scaled latency histogram the CLI renders).  Every response also
carries an ``X-Repro-Trace`` id; the generator keeps the id alongside
each latency sample and, after the run, pulls the span breakdown of the
three slowest requests from the server's ``/debug/trace/{id}`` ring so a
load report ends with "here is where the tail spent its time".

Payloads come from :func:`solve_payloads`: ``distinct`` seeded instances
cycled across ``requests`` posts, so ``distinct=1`` measures the pure
cache hot path and ``distinct=requests`` the cold solve path.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence
from urllib.parse import urlsplit

from ..core.errors import InvalidInstanceError

__all__ = [
    "LoadResult",
    "solve_payloads",
    "session_step_bodies",
    "arrival_offsets",
    "run_closed_loop",
    "run_open_loop",
    "run_session_loop",
    "sweep_workers",
]


# ----------------------------------------------------------------------
# payloads and arrivals
# ----------------------------------------------------------------------

def solve_payloads(
    distinct: int,
    *,
    n_rects: int = 12,
    seed: int = 0,
    algorithm: str | None = None,
    params: dict | None = None,
) -> list[bytes]:
    """``distinct`` seeded ``POST /solve`` bodies (deterministic per seed).

    Instances are plain power-law workloads (the bench suite's staple);
    the request cycle repeats them, so a run with ``distinct <``
    ``requests`` exercises the content-addressed cache on every repeat.
    """
    import numpy as np

    from ..core.instance import StripPackingInstance
    from ..core.serialize import instance_to_dict
    from ..workloads.random_rects import powerlaw_rects

    if distinct < 1:
        raise InvalidInstanceError(f"distinct must be >= 1, got {distinct}")
    if n_rects < 1:
        raise InvalidInstanceError(f"n_rects must be >= 1, got {n_rects}")
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(distinct):
        body: dict = {
            "instance": instance_to_dict(StripPackingInstance(powerlaw_rects(n_rects, rng)))
        }
        if algorithm is not None:
            body["algorithm"] = algorithm
        if params is not None:
            body["params"] = params
        payloads.append(json.dumps(body).encode("utf-8"))
    return payloads


def session_step_bodies(
    sessions: int,
    steps: int,
    *,
    base_rects: int = 20,
    step_rects: int = 2,
    K: int = 6,
    rate: float = 4.0,
    seed: int = 0,
) -> list[list[bytes]]:
    """Per-session growing-prefix step bodies replaying a Poisson stream.

    Each session draws its own seeded
    :func:`~repro.sim.stream.poisson_stream`; step ``j`` is the release
    instance over the first ``base_rects + j * step_rects`` arrivals.
    Consecutive steps therefore differ by an add-only rect delta — the
    exact shape :func:`repro.engine.warmstart.repair_placement` repairs —
    so a session replay is the canonical warm-start workload.
    """
    import numpy as np

    from ..core.instance import ReleaseInstance
    from ..core.serialize import instance_to_dict
    from ..sim.stream import poisson_stream

    if sessions < 1:
        raise InvalidInstanceError(f"sessions must be >= 1, got {sessions}")
    if steps < 1:
        raise InvalidInstanceError(f"steps must be >= 1, got {steps}")
    if base_rects < 1:
        raise InvalidInstanceError(f"base_rects must be >= 1, got {base_rects}")
    if step_rects < 0:
        raise InvalidInstanceError(f"step_rects must be >= 0, got {step_rects}")
    total = base_rects + (steps - 1) * step_rects
    out: list[list[bytes]] = []
    for s in range(sessions):
        stream = poisson_stream(K, np.random.default_rng(seed + s), rate=rate)
        tasks = list(itertools.islice(iter(stream), total))
        bodies = []
        for j in range(steps):
            prefix = tasks[: base_rects + j * step_rects]
            instance = ReleaseInstance(prefix, K)
            bodies.append(json.dumps({"instance": instance_to_dict(instance)}).encode("utf-8"))
        out.append(bodies)
    return out


def arrival_offsets(n: int, *, rate: float = 100.0, seed: int = 0, stream=None) -> list[float]:
    """The first ``n`` arrival times (seconds from start) of a task stream.

    ``stream`` defaults to the simulator's seeded
    :func:`~repro.sim.stream.poisson_stream` at ``rate`` arrivals/s — the
    open-loop generator and the online simulator draw from the same
    traffic model, so a simulated arrival trace and a load test are
    directly comparable.  Any :class:`~repro.sim.stream.TaskStream` whose
    releases are in seconds works.
    """
    if n < 1:
        raise InvalidInstanceError(f"n must be >= 1, got {n}")
    if stream is None:
        import numpy as np

        from ..sim.stream import poisson_stream

        if rate <= 0:
            raise InvalidInstanceError(f"rate must be positive, got {rate!r}")
        stream = poisson_stream(4, np.random.default_rng(seed), rate=rate)
    return [task.release for task in itertools.islice(iter(stream), n)]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load run: counts, wall time, latency distribution."""

    mode: str
    requests: int
    ok: int
    errors: int
    cache_hits: int
    duration_s: float
    latencies_s: tuple[float, ...]
    lateness_s: tuple[float, ...] = ()
    status_counts: dict = field(default_factory=dict)
    warm_hits: int = 0
    #: Span breakdowns of the slowest traced requests (slowest first):
    #: ``{"trace", "latency_ms", "spans": [...]}`` per entry.
    slow_traces: tuple = ()

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall time."""
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        """The ``q``-percentile request latency, in milliseconds."""
        from ..bench.runner import percentile

        if not self.latencies_s:
            return 0.0
        return percentile(list(self.latencies_s), q) * 1e3

    @property
    def max_lateness_s(self) -> float:
        """Worst dispatch lag behind the open-loop schedule (0 for closed)."""
        return max(self.lateness_s, default=0.0)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {q: self.latency_ms(q) for q in (50.0, 95.0, 99.0)},
            "max_lateness_s": self.max_lateness_s,
            "status_counts": dict(self.status_counts),
            "warm_hits": self.warm_hits,
            "slow_traces": [dict(entry) for entry in self.slow_traces],
        }

    def summary_lines(self) -> list[str]:
        hit = f"{self.cache_hits}/{self.requests}" if self.requests else "0/0"
        lines = [
            f"mode = {self.mode}: {self.ok} ok, {self.errors} errors "
            f"in {self.duration_s:.3f}s ({self.throughput_rps:.1f} req/s)",
            f"latency p50/p95/p99 = {self.latency_ms(50):.2f}/"
            f"{self.latency_ms(95):.2f}/{self.latency_ms(99):.2f} ms, "
            f"cache hits = {hit}",
        ]
        if self.mode == "open":
            lines.append(f"max dispatch lateness = {self.max_lateness_s * 1e3:.2f} ms")
        if self.mode == "session":
            warm = f"{self.warm_hits}/{self.requests}" if self.requests else "0/0"
            lines.append(f"warm starts = {warm}")
        for entry in self.slow_traces:
            phases = ", ".join(
                f"{span['name']}={span['duration_s'] * 1e3:.2f}ms"
                for span in entry.get("spans", ())
            )
            lines.append(
                f"slow trace {entry['trace']}: {entry['latency_ms']:.2f} ms"
                + (f" ({phases})" if phases else "")
            )
        return lines

    def histogram_lines(self, width: int = 40) -> list[str]:
        """Doubling latency buckets from 0.1 ms, bars scaled to ``width``."""
        if not self.latencies_s:
            return ["(no samples)"]
        edges = [0.0001]
        while edges[-1] < max(self.latencies_s):
            edges.append(edges[-1] * 2)
        counts = [0] * len(edges)
        for lat in self.latencies_s:
            for i, edge in enumerate(edges):
                if lat <= edge:
                    counts[i] += 1
                    break
        peak = max(counts)
        lines = []
        for edge, count in zip(edges, counts):
            if count == 0 and not lines:
                continue  # skip leading empty buckets
            bar = "#" * max(1 if count else 0, round(width * count / peak))
            lines.append(f"<= {edge * 1e3:8.1f} ms  {count:6d}  {bar}")
        return lines


# ----------------------------------------------------------------------
# the two loops
# ----------------------------------------------------------------------

def _parse_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http") or not parts.hostname:
        raise InvalidInstanceError(f"loadgen needs a plain http:// URL, got {url!r}")
    return parts.hostname, parts.port or 80


class _Recorder:
    """Shared, locked accumulation of per-request outcomes."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.traced: list[tuple[float, str]] = []
        self.status_counts: dict[str, int] = {}
        self.ok = 0
        self.errors = 0
        self.cache_hits = 0
        self.warm_hits = 0

    def record(self, status: int, latency_s: float, cache_header: str | None,
               lateness_s: float | None = None, trace_id: str | None = None) -> None:
        with self.lock:
            self.latencies.append(latency_s)
            if trace_id:
                self.traced.append((latency_s, trace_id))
            key = str(status)
            self.status_counts[key] = self.status_counts.get(key, 0) + 1
            if status == 200:
                self.ok += 1
            else:
                self.errors += 1
            if cache_header in ("hit", "coalesced"):
                # Both mean "no dedicated solve ran for this request".
                self.cache_hits += 1
            elif cache_header == "warm":
                # A dedicated (but repair-only) solve ran: count separately.
                self.warm_hits += 1
            if lateness_s is not None:
                self.lateness.append(lateness_s)


def _trace_of(response) -> str | None:
    """The trace id from an ``X-Repro-Trace: <id>;<span>;<tenant>`` header."""
    header = response.getheader("X-Repro-Trace")
    if not header:
        return None
    return header.split(";", 1)[0] or None


def _post_one(
    conn: http.client.HTTPConnection, payload: bytes
) -> tuple[int, str | None, str | None]:
    conn.request(
        "POST", "/solve", body=payload, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    response.read()  # drain so the keep-alive connection is reusable
    return response.status, response.getheader("X-Repro-Cache"), _trace_of(response)


def _slow_traces(
    host: str, port: int, recorder: _Recorder, *, top: int = 3, timeout: float = 10.0
) -> tuple:
    """Span breakdowns for the ``top`` slowest traced requests.

    Best-effort by design: the run's samples are already complete, so a
    server that has shut down, trimmed its span ring, or never traced
    simply yields fewer (or zero) entries rather than an error.
    """
    slowest = sorted(recorder.traced, key=lambda pair: pair[0], reverse=True)[:top]
    if not slowest:
        return ()
    entries = []
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        for latency_s, trace_id in slowest:
            spans: list = []
            try:
                conn.request("GET", f"/debug/trace/{trace_id}")
                response = conn.getresponse()
                raw = response.read()
                if response.status == 200:
                    spans = json.loads(raw).get("spans", [])
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
            entries.append(
                {
                    "trace": trace_id,
                    "latency_ms": latency_s * 1e3,
                    "spans": spans,
                }
            )
    finally:
        conn.close()
    return tuple(entries)


def run_closed_loop(
    url: str,
    payloads: Sequence[bytes],
    *,
    requests: int,
    concurrency: int = 4,
    timeout: float = 30.0,
) -> LoadResult:
    """``concurrency`` workers, each firing its next request on response."""
    if requests < 1:
        raise InvalidInstanceError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise InvalidInstanceError(f"concurrency must be >= 1, got {concurrency}")
    if not payloads:
        raise InvalidInstanceError("payloads must be non-empty")
    host, port = _parse_url(url)
    recorder = _Recorder()
    counter = itertools.count()

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                i = next(counter)
                if i >= requests:
                    break
                t0 = time.perf_counter()
                try:
                    status, cache, trace = _post_one(conn, payloads[i % len(payloads)])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                    recorder.record(599, time.perf_counter() - t0, None)
                    continue
                recorder.record(status, time.perf_counter() - t0, cache, trace_id=trace)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - started
    return LoadResult(
        mode="closed",
        requests=len(recorder.latencies),
        ok=recorder.ok,
        errors=recorder.errors,
        cache_hits=recorder.cache_hits,
        duration_s=duration,
        latencies_s=tuple(recorder.latencies),
        status_counts=recorder.status_counts,
        warm_hits=recorder.warm_hits,
        slow_traces=_slow_traces(host, port, recorder, timeout=timeout),
    )


def run_open_loop(
    url: str,
    payloads: Sequence[bytes],
    *,
    requests: int,
    rate: float = 100.0,
    seed: int = 0,
    stream=None,
    max_workers: int = 32,
    timeout: float = 30.0,
) -> LoadResult:
    """Fire requests at scheduled stream arrivals, independent of responses.

    A pool of ``max_workers`` keep-alive connections serves the schedule;
    per-request *lateness* (actual dispatch minus scheduled time) is
    recorded, so overload shows up as growing lateness rather than as the
    silently shrinking offered rate a closed loop would produce.
    """
    if requests < 1:
        raise InvalidInstanceError(f"requests must be >= 1, got {requests}")
    if max_workers < 1:
        raise InvalidInstanceError(f"max_workers must be >= 1, got {max_workers}")
    if not payloads:
        raise InvalidInstanceError("payloads must be non-empty")
    host, port = _parse_url(url)
    offsets = arrival_offsets(requests, rate=rate, seed=seed, stream=stream)
    recorder = _Recorder()
    schedule: list[tuple[float, bytes]] = [
        (offset, payloads[i % len(payloads)]) for i, offset in enumerate(offsets)
    ]
    position = itertools.count()
    started = time.perf_counter()

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                i = next(position)
                if i >= len(schedule):
                    break
                offset, payload = schedule[i]
                now = time.perf_counter() - started
                if offset > now:
                    time.sleep(offset - now)
                lateness = max(0.0, (time.perf_counter() - started) - offset)
                t0 = time.perf_counter()
                try:
                    status, cache, trace = _post_one(conn, payload)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                    recorder.record(599, time.perf_counter() - t0, None, lateness)
                    continue
                recorder.record(
                    status, time.perf_counter() - t0, cache, lateness, trace_id=trace
                )
        finally:
            conn.close()

    workers = min(max_workers, requests)
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - started
    return LoadResult(
        mode="open",
        requests=len(recorder.latencies),
        ok=recorder.ok,
        errors=recorder.errors,
        cache_hits=recorder.cache_hits,
        duration_s=duration,
        latencies_s=tuple(recorder.latencies),
        lateness_s=tuple(recorder.lateness),
        status_counts=recorder.status_counts,
        warm_hits=recorder.warm_hits,
        slow_traces=_slow_traces(host, port, recorder, timeout=timeout),
    )


def run_session_loop(
    url: str,
    *,
    sessions: int = 4,
    steps: int = 8,
    base_rects: int = 20,
    step_rects: int = 2,
    seed: int = 0,
    algorithm: str | None = None,
    params: dict | None = None,
    timeout: float = 30.0,
) -> LoadResult:
    """One thread per session: create, replay a stream step by step, delete.

    Only the ``/session/{id}/step`` posts are recorded as samples — the
    create/delete envelope is bookkeeping, not the workload.  A failed
    create is recorded as one error sample and the session is abandoned;
    a step whose connection dies is recorded as a synthetic ``599`` and
    the loop reconnects and continues (the server's session registry is
    soft state, so a retried step on a fresh connection still lands).
    """
    if sessions < 1:
        raise InvalidInstanceError(f"sessions must be >= 1, got {sessions}")
    if steps < 1:
        raise InvalidInstanceError(f"steps must be >= 1, got {steps}")
    host, port = _parse_url(url)
    per_session = session_step_bodies(
        sessions, steps, base_rects=base_rects, step_rects=step_rects, seed=seed
    )
    create_body: dict = {}
    if algorithm is not None:
        create_body["algorithm"] = algorithm
    if params is not None:
        create_body["params"] = params
    create_payload = json.dumps(create_body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    recorder = _Recorder()

    def worker(bodies: list[bytes]) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/session", body=create_payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                if response.status != 200:
                    recorder.record(response.status, time.perf_counter() - t0, None)
                    return
                sid = json.loads(raw)["session"]["id"]
            except (OSError, http.client.HTTPException, KeyError, ValueError):
                recorder.record(599, time.perf_counter() - t0, None)
                return
            path = f"/session/{sid}/step"
            for payload in bodies:
                t0 = time.perf_counter()
                try:
                    conn.request("POST", path, body=payload, headers=headers)
                    response = conn.getresponse()
                    response.read()
                    status, cache = response.status, response.getheader("X-Repro-Cache")
                    trace = _trace_of(response)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                    recorder.record(599, time.perf_counter() - t0, None)
                    continue
                recorder.record(status, time.perf_counter() - t0, cache, trace_id=trace)
            try:
                conn.request("DELETE", f"/session/{sid}", headers=headers)
                conn.getresponse().read()
            except (OSError, http.client.HTTPException):
                pass  # teardown is best-effort; the run's samples are complete
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(bodies,), daemon=True)
        for bodies in per_session
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - started
    return LoadResult(
        mode="session",
        requests=len(recorder.latencies),
        ok=recorder.ok,
        errors=recorder.errors,
        cache_hits=recorder.cache_hits,
        duration_s=duration,
        latencies_s=tuple(recorder.latencies),
        status_counts=recorder.status_counts,
        warm_hits=recorder.warm_hits,
        slow_traces=_slow_traces(host, port, recorder, timeout=timeout),
    )


# ----------------------------------------------------------------------
# worker-count sweeps
# ----------------------------------------------------------------------

def sweep_workers(
    counts: Sequence[int],
    payloads: Sequence[bytes],
    *,
    requests: int,
    concurrency: int = 4,
    worker_config: dict | None = None,
    router_config: dict | None = None,
) -> list[tuple[int, LoadResult]]:
    """Closed-loop load against a fresh in-process fleet per worker count.

    The scaling-curve primitive behind ``repro loadtest --workers-sweep``
    and the ``service_scaling`` bench: for each count a new server is
    built (``1`` = the single-process :class:`~repro.service.server
    .SolveServer` — exactly the non-sharded path — ``>1`` = a
    :class:`~repro.service.router.RouterServer` fleet), driven with the
    *same* payload cycle, and torn down, so the only variable across
    steps is the worker count.  Returns ``(count, result)`` pairs in
    input order.

    ``router_config`` holds fleet-only :class:`RouterServer` kwargs
    (``fault_plan``, ``request_timeout``, ``retries``, ``backoff_ms``,
    ``max_restarts``); it is ignored on the ``count == 1`` single-process
    path, which has no router.
    """
    from .router import build_server
    from .server import InProcessServer

    if not counts:
        raise InvalidInstanceError("counts must be non-empty")
    if any(count < 1 for count in counts):
        raise InvalidInstanceError(f"worker counts must be >= 1, got {list(counts)}")
    fleet_kwargs = dict(router_config or {})
    results: list[tuple[int, LoadResult]] = []
    for count in counts:
        server = build_server(count, worker_config, **(fleet_kwargs if count > 1 else {}))
        with InProcessServer(server) as srv:
            result = run_closed_loop(
                srv.url, payloads, requests=requests, concurrency=concurrency
            )
        results.append((count, result))
    return results
