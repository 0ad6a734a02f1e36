"""Bounded request queue with micro-batching over the engine's executor.

The serving hot path must not solve requests one interpreter round-trip at
a time: the drain thread blocks for one request, then adds whatever
queued while the previous batch ran (up to ``max_batch`` requests) and
runs them as one *micro-batch*.  It never sleeps waiting for company, so a
lone request goes straight to the solver while a loaded queue still
drains in batches.  Each batch is grouped by ``(algorithm, params)``
compatibility and fanned out through
:func:`repro.engine.batch.solve_many` — the same pluggable
``serial | thread | process`` :class:`~repro.engine.batch.Executor` seam
the batch CLI uses.  Because ``solve_many`` is bit-identical to looping
:func:`repro.engine.run` (pinned by the executor determinism suite), a
batched request returns exactly the report a direct solve would have.

Backpressure is explicit: the internal queue is bounded, and a submit
against a full queue raises :class:`BackpressureError` immediately instead
of blocking the caller — the server maps it to HTTP 503 so load shedding
is visible to clients rather than silently queueing unbounded work.

Shutdown comes in two flavours: :meth:`MicroBatcher.stop` halts the drain
thread and *fails* whatever is still queued (crash-stop semantics), while
:meth:`MicroBatcher.drain` first refuses new submits, then waits for every
already-accepted request to be answered before stopping — the building
block behind ``repro serve``'s graceful SIGTERM handling.

Results travel on :class:`concurrent.futures.Future` objects, which both
plain threads (the load generator, tests) and the asyncio server (via
``asyncio.wrap_future``) can await.
"""

from __future__ import annotations

import json
import queue as _queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.errors import InvalidInstanceError, ReproError
from ..core.instance import StripPackingInstance
from ..obs import recorder
from ..obs.trace import TraceContext, current_trace
from .faults import FaultInjector

__all__ = ["BackpressureError", "QueueStats", "SolveRequest", "MicroBatcher"]


class BackpressureError(ReproError):
    """The request queue is full (or shutting down); retry later."""


@dataclass(frozen=True)
class SolveRequest:
    """One queued solve: the engine-run arguments plus its result future."""

    instance: StripPackingInstance
    algorithm: str | None
    params: Mapping[str, Any] | None
    future: Future
    enqueued_at: float
    #: The submitting request's trace, captured at submit time — the
    #: batcher drains on its own thread, where the request contextvar is
    #: not visible, so the trace must ride the queue entry itself.
    trace: TraceContext | None = None

    @property
    def group_key(self) -> tuple[str | None, str]:
        """Requests with equal keys may share one ``solve_many`` call."""
        return (self.algorithm, json.dumps(dict(self.params or {}), sort_keys=True, default=repr))


@dataclass(frozen=True)
class QueueStats:
    """Counter snapshot for ``GET /metrics`` (one lock acquisition)."""

    depth: int
    submitted: int
    completed: int
    rejected: int
    batches: int
    max_batch: int

    @property
    def mean_batch(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "mean_batch": self.mean_batch,
        }


class MicroBatcher:
    """Drain a bounded queue in compatibility-grouped micro-batches.

    ``backend``/``jobs`` select the engine executor each batch fans out
    over (``None`` keeps ``solve_many``'s serial default).  ``max_batch``
    caps one drain (``repro serve --max-batch``).  A batch is whatever
    queued while the previous batch ran: the drain never holds a request
    back waiting for batch-mates.

    The worker thread is started explicitly (:meth:`start`) so unit tests
    can pre-load the queue and observe a single deterministic drain.
    """

    def __init__(
        self,
        *,
        backend: str | None = None,
        jobs: int | None = None,
        max_batch: int = 16,
        maxsize: int = 512,
        faults: FaultInjector | None = None,
    ) -> None:
        if max_batch < 1:
            raise InvalidInstanceError(f"max_batch must be >= 1, got {max_batch}")
        if maxsize < 1:
            raise InvalidInstanceError(f"maxsize must be >= 1, got {maxsize}")
        if jobs is not None and jobs < 1:
            # The legacy "jobs<=1 means serial" reading is for the batch
            # CLI's history; a service configured with jobs=0 is a typo.
            raise InvalidInstanceError(f"jobs must be >= 1, got {jobs}")
        # Resolve eagerly so a bad backend/jobs pair fails at construction
        # (CLI time), not on the first request.  The resolved executor is
        # kept: start()/stop() open and close its persistent pool, so the
        # serving hot path never pays a per-batch pool spin-up.
        from ..engine import resolve_executor

        self._executor = resolve_executor(backend, jobs)
        self._faults = faults
        self.backend = backend
        self.jobs = jobs
        self.max_batch = int(max_batch)
        self._queue: _queue.Queue[SolveRequest] = _queue.Queue(maxsize=int(maxsize))
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._batches = 0
        self._max_batch_seen = 0
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MicroBatcher":
        """Start the drain thread (idempotent); returns self for chaining."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._draining.clear()
            self._executor.open()
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-batcher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop draining; pending requests fail with :class:`BackpressureError`."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        self._fail_pending()
        self._executor.close()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful stop: refuse new work, answer everything accepted.

        New submits fail with :class:`BackpressureError` the moment this
        is called; requests already queued keep draining through the
        worker thread until the queue's task accounting reports them all
        answered (or ``timeout`` elapses — anything still pending then
        fails through :meth:`stop`).  Without a running drain thread (unit
        tests drive :meth:`drain_once` by hand) the flush happens inline.
        """
        self._draining.set()
        deadline = time.monotonic() + timeout
        thread = self._thread
        if thread is None or not thread.is_alive():
            while self.drain_once():
                pass
        else:
            with self._queue.all_tasks_done:
                while self._queue.unfinished_tasks and time.monotonic() < deadline:
                    self._queue.all_tasks_done.wait(timeout=0.05)
        self.stop()

    def _fail_pending(self) -> None:
        """Fail everything still queued after the stop flag is up.

        Called by :meth:`stop` and by any :meth:`submit` that raced the
        flag (checked it clear, enqueued after the drain): whichever side
        runs last sees the straggler, so no future is left unresolved.
        """
        while True:
            try:
                request = self._queue.get_nowait()
            except _queue.Empty:
                break
            if not request.future.done():
                request.future.set_exception(
                    BackpressureError("request queue stopped before this solve ran")
                )
            self._queue.task_done()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        instance: StripPackingInstance,
        algorithm: str | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> Future:
        """Enqueue one solve; the future resolves to its ``SolveReport``.

        Raises :class:`BackpressureError` when the queue is full or the
        batcher is stopped — callers shed load instead of blocking.
        """
        if self._stop.is_set() or self._draining.is_set():
            with self._lock:
                self._rejected += 1
            raise BackpressureError(
                "request queue is draining for shutdown"
                if self._draining.is_set() and not self._stop.is_set()
                else "request queue is stopped"
            )
        request = SolveRequest(
            instance=instance,
            algorithm=algorithm,
            params=dict(params) if params is not None else None,
            future=Future(),
            enqueued_at=time.monotonic(),
            trace=current_trace(),
        )
        with self._lock:
            # Counted before the put so `submitted >= completed` holds in
            # every stats snapshot, even mid-drain.
            self._submitted += 1
        try:
            self._queue.put_nowait(request)
        except _queue.Full:
            with self._lock:
                self._submitted -= 1
                self._rejected += 1
            raise BackpressureError(
                f"request queue is full ({self._queue.maxsize} pending)"
            ) from None
        if self._stop.is_set():
            # stop() may have drained between our check and the put; make
            # sure this request cannot dangle with an unresolved future.
            self._fail_pending()
        return request.future

    # -- introspection ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet drained into a batch)."""
        return self._queue.qsize()

    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(
                depth=self._queue.qsize(),
                submitted=self._submitted,
                completed=self._completed,
                rejected=self._rejected,
                batches=self._batches,
                max_batch=self._max_batch_seen,
            )

    # -- the drain loop --------------------------------------------------

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            try:
                # The timeout only bounds how long a stop() goes unseen.
                first = self._queue.get(timeout=0.05)
            except _queue.Empty:
                continue
            self._run_queued([first])

    def drain_once(self) -> int:
        """Synchronously drain up to ``max_batch`` queued requests (tests).

        Returns the number of requests drained; 0 when the queue is empty.
        """
        return self._run_queued([])

    def _run_queued(self, batch: list[SolveRequest]) -> int:
        """Top ``batch`` up with whatever is already queued (up to
        ``max_batch``, never waiting for more) and run it; returns its size.
        """
        while len(batch) < self.max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except _queue.Empty:
                break
        if batch:
            try:
                self._run_batch(batch)
            finally:
                # task_done only after the futures are resolved, so
                # drain()'s all_tasks_done wait means "answered", not
                # merely "dequeued".
                for _ in batch:
                    self._queue.task_done()
        return len(batch)

    def _run_batch(self, batch: list[SolveRequest]) -> None:
        """Group one drained batch by compatibility and fan each group out.

        ``solve_many(strict=False)`` turns per-request solver errors
        (unknown algorithm, variant mismatch) into error reports, so one
        bad request never poisons its batch-mates.  ``labels=[""] * n``
        keeps ``SolveReport.label`` at :func:`repro.engine.run`'s default,
        preserving report-for-report identity with a direct solve.
        """
        from ..engine import solve_many

        if self._faults is not None:
            # The drain-tick seam: a scheduled `stall` holds the batch on
            # the batcher thread — queued work ages exactly as it would
            # behind a wedged executor — without touching the futures.
            self._faults.fire_sync("queue.drain")
        with self._lock:
            self._batches += 1
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
        drained_at = time.monotonic()
        spans = recorder()
        for request in batch:
            if request.trace is not None:
                spans.record(
                    request.trace.trace_id,
                    "queue.wait",
                    request.enqueued_at,
                    drained_at - request.enqueued_at,
                    tenant=request.trace.tenant,
                )
        groups: dict[tuple[str | None, str], list[SolveRequest]] = {}
        for request in batch:
            groups.setdefault(request.group_key, []).append(request)
        for (algorithm, _), requests in groups.items():
            try:
                reports = solve_many(
                    [r.instance for r in requests],
                    algorithm,
                    params=requests[0].params,
                    executor=self._executor,
                    labels=[""] * len(requests),
                    strict=False,
                )
            except BaseException as exc:  # pragma: no cover - defensive
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            with self._lock:
                self._completed += len(requests)
            solved_at = time.monotonic()
            for request, report in zip(requests, reports):
                if request.trace is not None:
                    # The engine's own measured wall time, anchored so the
                    # span ends where the batch's futures resolve.
                    spans.record(
                        request.trace.trace_id,
                        "engine.solve",
                        solved_at - report.wall_time,
                        report.wall_time,
                        tenant=request.trace.tenant,
                        algorithm=report.algorithm,
                    )
                if not request.future.done():
                    request.future.set_result(report)
