"""Best-Fit Decreasing Height (BFDH).

Variant of FFDH that places each rectangle on the open level with the
*least* residual width among those that fit (tightest fit), opening a new
level when none fits.  Empirically denser than FFDH on heterogeneous widths;
no better worst-case guarantee.  Included as a baseline for experiment E11.

The best-fit selection is a binary search over the levels' ``(used,
level)`` pairs kept sorted (lowest level wins ties on the residual, exactly
like the reference scan's strict-improvement rule); the original
object-based loop is preserved as
:func:`repro.geometry.levels_reference.reference_bfdh`.
"""

from __future__ import annotations

from typing import Sequence

from ..core.rectangle import Rect
from ..geometry.levels import level_pack
from .base import PackResult

__all__ = ["bfdh"]


def bfdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Pack ``rects`` (no constraints) starting at height ``y``."""
    return PackResult(*level_pack("bfdh", rects, y))
