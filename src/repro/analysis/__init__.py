"""Measurement and reporting helpers shared by benchmarks and examples.

The ratio statistics load on first use (PEP 562): :mod:`repro.analysis.ratios`
imports numpy, and the CLI, which every ``repro`` command imports, needs
only the table and render helpers.
"""

from .render import render_placement
from .report import Table, format_value, reports_table

__all__ = [
    "RatioSample",
    "summarize",
    "geometric_mean",
    "log_slope",
    "samples_from_reports",
    "Table",
    "format_value",
    "reports_table",
    "render_placement",
]


#: Names whose module loads on first use (PEP 562).
_LAZY = {
    "RatioSample": "ratios",
    "summarize": "ratios",
    "geometric_mean": "ratios",
    "log_slope": "ratios",
    "samples_from_reports": "ratios",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
