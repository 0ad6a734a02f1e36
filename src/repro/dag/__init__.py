"""Precedence DAG substrate: graph structure, critical-path bound ``F``,
generators and validators (Section 2 of the paper).

The generators load on first use (PEP 562): :mod:`repro.dag.generators`
imports numpy, and no solve builds a DAG from a generator.
"""

from .critical_path import F_of_set, compute_F, critical_path, start_lower_bounds
from .graph import TaskDAG
from .validate import check_same_universe, is_antichain, level_set

__all__ = [
    "TaskDAG",
    "compute_F",
    "F_of_set",
    "critical_path",
    "start_lower_bounds",
    "random_order_dag",
    "layered_dag",
    "series_parallel_dag",
    "chain_forest",
    "out_tree",
    "in_tree",
    "check_same_universe",
    "is_antichain",
    "level_set",
]


#: Names whose module loads on first use (PEP 562).
_LAZY = {
    "random_order_dag": "generators",
    "layered_dag": "generators",
    "series_parallel_dag": "generators",
    "chain_forest": "generators",
    "out_tree": "generators",
    "in_tree": "generators",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
