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
  :class:`SolveServer` per core, spawn-started, SIGTERM-drained;
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

Heavy modules are imported lazily by their consumers; importing
``repro.service`` itself stays cheap so the CLI can always build its
parser.
"""

from .cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache
from .chaos import ChaosReport, run_chaos
from .faults import FAULT_SITES, FaultInjector, FaultPlan, FaultSpec
from .router import HashRing, RouterServer, build_server
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
