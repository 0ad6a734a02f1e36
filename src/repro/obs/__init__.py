"""Observability layer: tracing, spans, structured logging, trend gating.

Zero-dependency (stdlib only), threaded through every service hop:

* :mod:`repro.obs.trace`   — ``TraceContext`` (trace id + span id + tenant)
  generated at the front door, carried router→worker in the
  ``X-Repro-Trace`` header, held in a :mod:`contextvars` variable so any
  layer on the request path can read it;
* :mod:`repro.obs.spans`   — a bounded in-process span recorder (ring
  buffer keyed by trace id, exposed at ``GET /debug/trace/{id}``) plus
  per-phase/per-tenant duration histograms merged into ``/metrics``;
* :mod:`repro.obs.logging` — the JSON-lines / key=value structured
  logger that is the service's single logging path (request completions,
  failovers, fault injections, drain transitions), configured by
  ``repro serve --log-format --log-file``;
* :mod:`repro.obs.trend`   — the bench-history trend gate behind
  ``repro bench trend``: loads every ``BENCH_*.json``, orders runs by
  creation time, and flags *sustained* drift (not just single-baseline
  regressions) into a schema'd ``BENCH_trend.json``.

Design rule: trace ids ride response **headers** and the span recorder,
never the cached payload bytes — cached answers stay byte-identical
across requests (and with observability off) by construction.
"""

from .logging import StructuredLogger, configure_logging, get_logger, validate_event
from .spans import Span, SpanRecorder, recorder, set_identity
from .trace import (
    TRACE_HEADER,
    TENANT_HEADER,
    TraceContext,
    current_trace,
    new_trace,
    sanitize_tenant,
    use_trace,
)

__all__ = [
    "TRACE_HEADER",
    "TENANT_HEADER",
    "TraceContext",
    "current_trace",
    "new_trace",
    "sanitize_tenant",
    "use_trace",
    "Span",
    "SpanRecorder",
    "recorder",
    "set_identity",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "validate_event",
    "TREND_SCHEMA",
    "run_trend",
    "validate_trend",
    "write_trend",
]


#: Names whose module loads on first use (PEP 562): no server runs the
#: trend gate, which imports the bench package.
_LAZY = {
    "TREND_SCHEMA": "trend",
    "run_trend": "trend",
    "validate_trend": "trend",
    "write_trend": "trend",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
