"""repro — reproduction of *Strip packing with precedence constraints and
strip packing with release times* (Augustine, Banerjee, Irani; SPAA 2006 /
TCS 410(38-40), 2009).

Three problem variants, three headline algorithms:

* :func:`repro.precedence.dc_pack` — Algorithm 1, the
  ``(2 + log2(n+1))``-approximation for precedence-constrained strip
  packing (Theorem 2.3);
* :func:`repro.precedence.shelf_next_fit` — Algorithm F, the absolute
  3-approximation for the uniform-height case (Theorem 2.6);
* :func:`repro.release.aptas` — Algorithm 2, the asymptotic PTAS for strip
  packing with release times (Theorem 3.5).

Quick start::

    import numpy as np
    from repro import solve
    from repro.workloads import random_precedence_instance

    inst = random_precedence_instance(40, 0.05, np.random.default_rng(0))
    placement = solve(inst)            # picks DC for precedence instances
    print(placement.height)

See DESIGN.md for the full system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every reproduced result, and
docs/ARCHITECTURE.md for the layer map (core -> geometry -> packing ->
precedence/release/exact -> engine -> sim -> bench -> cli) and the
subsystem data flows.
"""

from .core import (
    InvalidInstanceError,
    InvalidPlacementError,
    PlacedRect,
    Placement,
    PrecedenceInstance,
    Rect,
    ReleaseInstance,
    ReproError,
    SolverError,
    StripPackingInstance,
    combined_lower_bound,
    validate_placement,
)
from ._version import __version__
from .core.registry import available_algorithms, solve
from .dag import TaskDAG
from .engine import AlgorithmSpec, PortfolioResult, SolveReport, portfolio, run, solve_many

__all__ = [
    "AlgorithmSpec",
    "SolveReport",
    "PortfolioResult",
    "run",
    "solve_many",
    "portfolio",
    "SimTrace",
    "simulate",
    "simulate_instance",
    "Rect",
    "TaskDAG",
    "StripPackingInstance",
    "PrecedenceInstance",
    "ReleaseInstance",
    "Placement",
    "PlacedRect",
    "validate_placement",
    "combined_lower_bound",
    "solve",
    "available_algorithms",
    "ReproError",
    "InvalidInstanceError",
    "InvalidPlacementError",
    "SolverError",
    "__version__",
]


#: Names whose module loads on first use (PEP 562): a solve server never
#: runs the simulator, so importing the package does not import it.
_LAZY = {
    "SimTrace": "sim",
    "simulate": "sim",
    "simulate_instance": "sim",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
