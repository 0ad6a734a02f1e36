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

Every request goes through one keep-alive :class:`Client`, and the
traffic takes one of two shapes: :func:`post_solves` (the ``/solve``
loop, closed or open) and :func:`step_sessions` (the session replay).
The chaos runner (:mod:`repro.service.chaos`) and the ``repro loadtest``
preflight use the same client and shapes.  Each mode turns its
:class:`Answer` list into a :class:`LoadResult`: latency percentiles, a
log-scaled histogram the CLI renders, and cache hits from the server's
``X-Repro-Cache`` header.  Every response also carries an
``X-Repro-Trace`` id; after the run the generator pulls the span
breakdown of the three slowest requests from the server's
``/debug/trace/{id}`` ring, so a load report ends with "here is where
the tail spent its time".

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
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence
from urllib.parse import urlsplit

from ..core.errors import InvalidInstanceError
from ..obs.spans import percentile

__all__ = [
    "Answer",
    "Client",
    "LoadResult",
    "post_solves",
    "step_sessions",
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
# the client and its two traffic shapes
# ----------------------------------------------------------------------

def _parse_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http") or not parts.hostname:
        raise InvalidInstanceError(f"loadgen needs a plain http:// URL, got {url!r}")
    return parts.hostname, parts.port or 80


class Answer(NamedTuple):
    """One request's outcome as the client saw it.

    A transport failure (the server never answered) is status ``599``
    with the failure's text in ``error``.  ``lateness_s`` is set only by
    the open loop: how far the send trailed its scheduled time.
    """

    status: int
    latency_s: float
    body: bytes | None = None
    cache: str | None = None
    trace: str | None = None
    error: str = ""
    lateness_s: float | None = None


_JSON_HEADERS = {"Content-Type": "application/json"}


class Client:
    """One keep-alive connection to the service.

    After a transport failure the connection is closed, and
    ``http.client`` reopens it on the next request.
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        host, port = _parse_url(url)
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def send(self, method: str, path: str, body: bytes | None = None) -> Answer:
        t0 = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=_JSON_HEADERS)
            response = self._conn.getresponse()
            raw = response.read()  # drain so the connection is reusable
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            return Answer(599, time.perf_counter() - t0, error=str(exc) or repr(exc))
        # X-Repro-Trace: <trace id>;<span id>;<tenant>
        trace = (response.getheader("X-Repro-Trace") or "").split(";", 1)[0]
        return Answer(
            response.status, time.perf_counter() - t0, raw,
            response.getheader("X-Repro-Cache"), trace or None,
        )

    def get_json(self, path: str) -> Any:
        """The decoded body of ``GET path``; ``None`` unless a 200 with JSON."""
        answer = self.send("GET", path)
        try:
            return json.loads(answer.body) if answer.status == 200 else None
        except ValueError:
            return None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _in_threads(target, clients: Sequence[Client]) -> None:
    """Run ``target(index, client)`` on one thread per client; close them."""
    threads = [
        threading.Thread(target=target, args=(i, client), daemon=True)
        for i, client in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for client in clients:
        client.close()


def post_solves(
    url: str,
    payloads: Sequence[bytes],
    *,
    requests: int,
    concurrency: int,
    offsets: Sequence[float] | None = None,
    timeout: float = 30.0,
    keep_bodies: bool = False,
) -> list[Answer]:
    """The one ``POST /solve`` loop; answers come back in request order.

    Request ``i`` sends ``payloads[i % len(payloads)]`` over one of
    ``min(concurrency, requests)`` keep-alive clients.  Without
    ``offsets`` it is a closed loop: each client sends its next request
    when the previous answer lands.  With ``offsets`` it is an open loop:
    request ``i`` leaves ``offsets[i]`` seconds after the start (or when a
    client frees up, whichever is later), and its lateness is recorded.
    Response bodies are dropped unless ``keep_bodies``, so a long run
    holds one small tuple per request.
    """
    if requests < 1:
        raise InvalidInstanceError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise InvalidInstanceError(f"concurrency must be >= 1, got {concurrency}")
    if not payloads:
        raise InvalidInstanceError("payloads must be non-empty")
    clients = [Client(url, timeout=timeout) for _ in range(min(concurrency, requests))]
    answers: list[Answer] = [Answer(599, 0.0)] * requests
    counter = itertools.count()
    started = time.perf_counter()

    def drive(_index: int, client: Client) -> None:
        while (i := next(counter)) < requests:
            lateness = None
            if offsets is not None:
                wait = offsets[i] - (time.perf_counter() - started)
                if wait > 0:
                    time.sleep(wait)
                lateness = max(0.0, time.perf_counter() - started - offsets[i])
            answer = client.send("POST", "/solve", payloads[i % len(payloads)])
            answers[i] = answer._replace(
                body=answer.body if keep_bodies else None, lateness_s=lateness
            )

    _in_threads(drive, clients)
    return answers


def _open_session(client: Client, create: bytes) -> tuple[Answer, str | None]:
    """``POST /session`` up to three times; the last answer and the id."""
    for _ in range(3):
        answer = client.send("POST", "/session", create)
        if answer.status == 200:
            try:
                return answer, json.loads(answer.body)["session"]["id"]
            except (ValueError, KeyError, TypeError):
                answer = answer._replace(status=599, error="create answer has no session id")
    return answer, None


def step_sessions(
    url: str,
    per_session: Sequence[Sequence[bytes]],
    *,
    create: bytes,
    timeout: float = 30.0,
    keep_bodies: bool = False,
) -> list[tuple[Answer, list[Answer]]]:
    """One client per session: open it, post every step, then delete it.

    Returns ``(create answer, step answers)`` per session, in input order.
    A session that never opened has no step answers.  The closing
    ``DELETE`` is best-effort and not returned.
    """
    clients = [Client(url, timeout=timeout) for _ in per_session]
    results: list[tuple[Answer, list[Answer]]] = [(Answer(599, 0.0), [])] * len(clients)

    def drive(s: int, client: Client) -> None:
        opened, sid = _open_session(client, create)
        steps: list[Answer] = []
        if sid is not None:
            for body in per_session[s]:
                answer = client.send("POST", f"/session/{sid}/step", body)
                steps.append(answer if keep_bodies else answer._replace(body=None))
            client.send("DELETE", f"/session/{sid}")
        results[s] = (opened, steps)

    _in_threads(drive, clients)
    return results


def _slow_traces(url: str, answers: Sequence[Answer], *, top: int = 3,
                 timeout: float = 10.0) -> tuple:
    """Span breakdowns for the ``top`` slowest traced requests.

    Best-effort by design: the run's samples are already complete, so a
    server that has shut down, trimmed its span ring, or never traced
    simply yields fewer (or zero) spans rather than an error.
    """
    traced = [a for a in answers if a.trace]
    slowest = sorted(traced, key=lambda a: a.latency_s, reverse=True)[:top]
    with Client(url, timeout=timeout) as client:
        docs = [client.get_json(f"/debug/trace/{a.trace}") or {} for a in slowest]
    return tuple(
        {"trace": a.trace, "latency_ms": a.latency_s * 1e3, "spans": doc.get("spans", [])}
        for a, doc in zip(slowest, docs)
    )


def _load_result(
    mode: str, url: str, answers: Sequence[Answer], duration_s: float, timeout: float
) -> LoadResult:
    """Summarise one run's answers (in request order) into a LoadResult."""
    status_counts = dict(Counter(str(a.status) for a in answers))
    ok = status_counts.get("200", 0)
    return LoadResult(
        mode=mode,
        requests=len(answers),
        ok=ok,
        errors=len(answers) - ok,
        # "hit" and "coalesced" both mean no dedicated solve ran; "warm"
        # means a repair-only one did, so it is counted apart.
        cache_hits=sum(a.cache in ("hit", "coalesced") for a in answers),
        duration_s=duration_s,
        latencies_s=tuple(a.latency_s for a in answers),
        lateness_s=tuple(a.lateness_s for a in answers if a.lateness_s is not None),
        status_counts=status_counts,
        warm_hits=sum(a.cache == "warm" for a in answers),
        slow_traces=_slow_traces(url, answers, timeout=timeout),
    )


def run_closed_loop(
    url: str,
    payloads: Sequence[bytes],
    *,
    requests: int,
    concurrency: int = 4,
    timeout: float = 30.0,
) -> LoadResult:
    """``concurrency`` workers, each firing its next request on response."""
    started = time.perf_counter()
    answers = post_solves(
        url, payloads, requests=requests, concurrency=concurrency, timeout=timeout
    )
    return _load_result("closed", url, answers, time.perf_counter() - started, timeout)


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
    offsets = arrival_offsets(requests, rate=rate, seed=seed, stream=stream)
    started = time.perf_counter()
    answers = post_solves(
        url, payloads, requests=requests, concurrency=max_workers, offsets=offsets,
        timeout=timeout,
    )
    return _load_result("open", url, answers, time.perf_counter() - started, timeout)


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
    create/delete envelope is bookkeeping, not the workload.  A session
    that never opens (three create attempts) is recorded as one error
    sample and abandoned; a step whose connection dies is recorded as a
    synthetic ``599`` and the loop reconnects and continues (the server's
    session registry is soft state, so a retried step on a fresh
    connection still lands).
    """
    if sessions < 1:
        raise InvalidInstanceError(f"sessions must be >= 1, got {sessions}")
    if steps < 1:
        raise InvalidInstanceError(f"steps must be >= 1, got {steps}")
    per_session = session_step_bodies(
        sessions, steps, base_rects=base_rects, step_rects=step_rects, seed=seed
    )
    create: dict = {}
    if algorithm is not None:
        create["algorithm"] = algorithm
    if params is not None:
        create["params"] = params
    started = time.perf_counter()
    stepped = step_sessions(
        url, per_session, create=json.dumps(create).encode("utf-8"), timeout=timeout
    )
    duration = time.perf_counter() - started
    answers = [a for opened, answered in stepped for a in (answered or [opened])]
    return _load_result("session", url, answers, duration, timeout)


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
