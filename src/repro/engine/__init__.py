"""Unified solver engine: declarative specs, instrumented runs, batching.

The layer between the algorithms and their callers (the library API, the
CLI, the bench harness and the service):

* :mod:`repro.engine.spec`   — :class:`AlgorithmSpec` and the registry
  (the single source of algorithm metadata and defaults);
* :mod:`repro.engine.runner` — :func:`run`, producing a
  :class:`~repro.engine.report.SolveReport` per solve;
* :mod:`repro.engine.batch`  — :func:`solve_many` streams and
  :func:`portfolio` races.

:func:`repro.solve` remains the one-call convenience API; it is now a thin
shim over :func:`run` that returns just the placement.
"""

from .batch import PortfolioResult, portfolio, solve_many
from .report import SolveReport
from .runner import bound_components, run
from .warmstart import DEFAULT_DELTA, repair_placement, try_warm, warm_run
from .spec import (
    VARIANTS,
    AlgorithmSpec,
    all_specs,
    default_algorithm,
    default_params,
    get_spec,
    register,
    spec_table_markdown,
    spec_table_rows,
    specs_for_variant,
    variant_of,
)

__all__ = [
    "AlgorithmSpec",
    "SolveReport",
    "PortfolioResult",
    "VARIANTS",
    "run",
    "warm_run",
    "try_warm",
    "repair_placement",
    "DEFAULT_DELTA",
    "solve_many",
    "portfolio",
    "bound_components",
    "register",
    "get_spec",
    "all_specs",
    "specs_for_variant",
    "variant_of",
    "default_algorithm",
    "default_params",
    "spec_table_rows",
    "spec_table_markdown",
]
