"""Bounded request queue drained by one solver thread in micro-batches.

A *micro-batch* is one drain tick: the drain thread blocks for one
request, then takes whatever queued while the previous batch ran (up to
``max_batch`` requests).  It never sleeps waiting for company, so a lone
request goes straight to the solver.  The batch's requests are solved one
at a time, in queue order, each through
:func:`repro.engine.batch.solve_many` — one :func:`repro.engine.run` call
per request — and each request's future resolves as soon as its own solve
ends.  A queued request therefore returns exactly the report a direct
solve would have, ``wall_time`` aside.

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

import queue as _queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.errors import InvalidInstanceError, ReproError
from ..core.instance import StripPackingInstance
from ..obs.spans import record_span
from ..obs.trace import TraceContext, current_trace, use_trace
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
    """Drain a bounded queue in micro-batches, one solve at a time.

    ``max_batch`` caps one drain tick (``repro serve --max-batch``).  A
    batch is whatever queued while the previous batch ran: the drain never
    holds a request back waiting for batch-mates, and within a batch each
    request is answered before the next one is solved.

    The worker thread is started explicitly (:meth:`start`) so unit tests
    can pre-load the queue and observe a single deterministic drain.
    """

    def __init__(
        self,
        *,
        max_batch: int = 16,
        maxsize: int = 512,
        faults: FaultInjector | None = None,
    ) -> None:
        if max_batch < 1:
            raise InvalidInstanceError(f"max_batch must be >= 1, got {max_batch}")
        if maxsize < 1:
            raise InvalidInstanceError(f"maxsize must be >= 1, got {maxsize}")
        self._faults = faults
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
        """Solve one drained batch, one request at a time in queue order.

        ``solve_many(strict=False)`` turns a request's solver error
        (unknown algorithm, variant mismatch) into an error report, so one
        bad request never poisons its batch-mates.  ``labels=[""]`` keeps
        ``SolveReport.label`` at :func:`repro.engine.run`'s default,
        preserving report-for-report identity with a direct solve.
        """
        from ..engine import solve_many

        if self._faults is not None:
            # The drain-tick seam: a scheduled `stall` holds the batch on
            # the batcher thread — queued work ages exactly as it would
            # behind a wedged solver — without touching the futures.
            self._faults.fire_sync("queue.drain")
        with self._lock:
            self._batches += 1
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
        for request in batch:
            # Under the request's own trace, run() records its engine
            # spans (solve, bounds, validate) into that trace.
            with use_trace(request.trace):
                # Waiting ends when this request's own solve starts, so a
                # batch-mate's solve counts as queueing, not as no span.
                record_span(
                    "queue.wait", request.enqueued_at, time.monotonic() - request.enqueued_at
                )
                try:
                    (report,) = solve_many(
                        [request.instance],
                        request.algorithm,
                        params=request.params,
                        labels=[""],
                        strict=False,
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    # A non-ReproError (a solver bug) fails this request
                    # only; the server answers 500 and the drain thread
                    # lives on.
                    if not request.future.done():
                        request.future.set_exception(exc)
                    continue
            with self._lock:
                self._completed += 1
            if not request.future.done():
                request.future.set_result(report)
