"""Serving subsystem: turn the solver library into a long-running service.

Six layers, composed bottom-up (each is independently testable):

* :mod:`repro.service.cache`   — content-addressed result cache
  (thread-safe LRU over response bytes, keyed by
  :func:`repro.core.serialize.result_key`, optional disk spill);
* :mod:`repro.service.server`  — stdlib-only asyncio JSON-over-HTTP
  server: the one request pipeline (``POST /solve``, ``POST
  /portfolio``, sessions, ``GET /healthz``, ``GET /metrics``) plus the
  local dispatch stage, whose solves, warm repairs and portfolio races
  run in arrival order on one solver thread behind a bounded admission
  count, surfaced as ``repro serve``;
* :mod:`repro.service.worker`  — worker-process entry point: one
  :class:`SolveServer` per core, launched as a plain subprocess, drained
  on SIGTERM or when the router's end of its stdin pipe closes;
* :mod:`repro.service.router`  — the fleet's dispatch stage behind the
  same pipeline: consistent-hashes each request's ``result_key`` over
  the worker fleet, fails over around the ring, respawns dead workers;
  surfaced as ``repro serve --workers N``, with :func:`build_server`
  choosing solo or fleet from the worker count;
* :mod:`repro.service.loadgen` — the one HTTP client and its closed-,
  open-loop and session traffic, surfaced as ``repro loadtest``
  (including ``--workers-sweep``) and driven by ``repro chaos``;
* :mod:`repro.service.faults` + :mod:`repro.service.chaos` — the
  correctness harness over all of the above: deterministic
  :class:`FaultPlan` schedules injected at explicit seams in every
  layer, replayed and verified by ``repro chaos PLAN.json``.

Importing ``repro.service`` loads only the modules every server runs:
cache, faults and server.  The router and the chaos harness (which
brings the load generator and its HTTP client) load on first use of one
of their names here, so a worker process never imports them.
"""

from .cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache
from .faults import FAULT_SITES, FaultInjector, FaultPlan, FaultSpec
from .server import InProcessServer, SolveServer, encode_report

__all__ = [
    "CacheStats",
    "ResultCache",
    "DEFAULT_CACHE_BYTES",
    "SolveServer",
    "InProcessServer",
    "encode_report",
    "HashRing",
    "RouterServer",
    "build_server",
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "ChaosReport",
    "run_chaos",
]


#: Names whose module loads on first use (PEP 562).
_LAZY = {
    "HashRing": "router",
    "RouterServer": "router",
    "build_server": "router",
    "ChaosReport": "chaos",
    "run_chaos": "chaos",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
