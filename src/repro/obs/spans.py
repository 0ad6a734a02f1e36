"""Timing spans: bounded per-trace ring buffer + duration histograms.

One process-global :class:`SpanRecorder` (:func:`recorder`) collects the
spans of every request served by this process.  Two read paths:

* ``GET /debug/trace/{id}`` returns the recorded spans of one trace (the
  router merges its own with each worker's, so a fleet answers with the
  full router→queue→engine breakdown);
* ``GET /metrics`` merges per-``(phase, tenant)`` duration histograms
  (log-spaced buckets, Prometheus ``_bucket``/``_sum``/``_count``
  counters) so span timing is scrapeable without per-trace reads.

Memory is strictly bounded: the ring keeps the most recent
``max_traces`` trace ids and at most ``max_spans_per_trace`` spans each;
histograms are bounded by the (phase, tenant) label space, with tenants
sanitized at the front door.  Recording is a dict append under one lock —
cheap enough for the serving hot path — and *observing* a request never
changes its answer bytes.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from .trace import current_trace

__all__ = [
    "Span",
    "SpanRecorder",
    "recorder",
    "record_span",
    "span",
    "set_identity",
    "HISTOGRAM_BUCKETS_S",
]

#: Log-spaced histogram bucket upper bounds, in seconds (+Inf implicit).
HISTOGRAM_BUCKETS_S = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class Span:
    """One timed phase of one traced request."""

    trace_id: str
    name: str
    start_s: float  # time.monotonic() at span start (process-local clock)
    duration_s: float
    tenant: str = "default"
    worker: str = ""
    labels: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "tenant": self.tenant,
        }
        if self.worker:
            doc["worker"] = self.worker
        if self.labels:
            doc["labels"] = dict(self.labels)
        return doc


class SpanRecorder:
    """Bounded ring of recent traces and per-phase duration histograms."""

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 200) -> None:
        self._lock = threading.Lock()
        self._max_traces = int(max_traces)
        self._max_spans = int(max_spans_per_trace)
        self._traces: "OrderedDict[str, list[Span]]" = OrderedDict()
        # (phase, tenant) -> [count, sum_s, bucket_counts]
        self._hist: dict[tuple[str, str], list] = {}
        #: Ambient identity stamped on every span (e.g. worker="3").
        self.identity: str = ""

    # -- writing ---------------------------------------------------------

    def record(
        self,
        trace_id: str,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        tenant: str = "default",
        **labels: str,
    ) -> None:
        """Append one span; drops silently when the per-trace cap is hit."""
        span = Span(
            trace_id=trace_id,
            name=name,
            start_s=start_s,
            duration_s=duration_s,
            tenant=tenant,
            worker=self.identity,
            labels=labels,
        )
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                while len(self._traces) >= self._max_traces:
                    self._traces.popitem(last=False)
                spans = []
                self._traces[trace_id] = spans
            if len(spans) < self._max_spans:
                spans.append(span)
            entry = self._hist.get((name, tenant))
            if entry is None:
                entry = [0, 0.0, [0] * (len(HISTOGRAM_BUCKETS_S) + 1)]
                self._hist[(name, tenant)] = entry
            entry[0] += 1
            entry[1] += duration_s
            for i, edge in enumerate(HISTOGRAM_BUCKETS_S):
                if duration_s <= edge:
                    entry[2][i] += 1
                    break
            else:
                entry[2][-1] += 1

    # -- reading ---------------------------------------------------------

    def spans_for(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_document(self, trace_id: str) -> dict[str, Any]:
        """The ``/debug/trace/{id}`` body for this process's spans."""
        spans = sorted(self.spans_for(trace_id), key=lambda s: s.start_s)
        return {"trace": trace_id, "spans": [s.to_dict() for s in spans]}

    def histogram_snapshot(self) -> dict[str, Any]:
        """Per-(phase, tenant) counters for the JSON ``/metrics`` document."""
        with self._lock:
            items = sorted(self._hist.items())
            return {
                f"{phase}|{tenant}": {
                    "phase": phase,
                    "tenant": tenant,
                    "count": entry[0],
                    "sum_s": entry[1],
                    "buckets": list(entry[2]),
                }
                for (phase, tenant), entry in items
            }

    def _reset_for_testing(self) -> None:
        with self._lock:
            self._traces.clear()
            self._hist.clear()
            self.identity = ""


def histogram_samples(
    snapshot: Mapping[str, Any], labels: Mapping[str, str] | None = None
) -> list[tuple[str, dict, float]]:
    """Flatten a histogram snapshot into Prometheus samples.

    Emits the conventional histogram series as three explicit counter
    families (``_bucket`` with a ``le`` label, ``_sum``, ``_count``) so
    the existing one-``# TYPE``-per-name renderer stays correct.
    """
    base = dict(labels or {})
    out: list[tuple[str, dict, float]] = []
    for entry in snapshot.values():
        phase, tenant = entry["phase"], entry["tenant"]
        series = {**base, "phase": phase, "tenant": tenant}
        cumulative = 0
        for edge, count in zip(HISTOGRAM_BUCKETS_S, entry["buckets"]):
            cumulative += count
            out.append(
                (
                    "repro_span_duration_seconds_bucket",
                    {**series, "le": f"{edge:g}"},
                    float(cumulative),
                )
            )
        out.append(
            (
                "repro_span_duration_seconds_bucket",
                {**series, "le": "+Inf"},
                float(entry["count"]),
            )
        )
        out.append(("repro_span_duration_seconds_sum", series, float(entry["sum_s"])))
        out.append(("repro_span_duration_seconds_count", series, float(entry["count"])))
    return out


#: The process-global recorder every server/engine layer records into.
_recorder = SpanRecorder()


def recorder() -> SpanRecorder:
    return _recorder


def record_span(name: str, start_s: float, duration_s: float, **labels: str) -> None:
    """Record one span under the ambient trace; a no-op without one."""
    ctx = current_trace()
    if ctx is not None:
        _recorder.record(
            ctx.trace_id, name, start_s, duration_s, tenant=ctx.tenant, **labels
        )


@contextmanager
def span(name: str, **labels: str) -> Iterator[None]:
    """Time a ``with`` block into one span of the ambient trace; a no-op
    without one."""
    ctx = current_trace()
    if ctx is None:
        yield
        return
    t0 = time.monotonic()
    try:
        yield
    finally:
        _recorder.record(
            ctx.trace_id, name, t0, time.monotonic() - t0, tenant=ctx.tenant, **labels
        )


def set_identity(worker: int | str) -> None:
    """Stamp an ambient worker id on every span this process records."""
    _recorder.identity = str(worker)
