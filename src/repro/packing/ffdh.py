"""First-Fit Decreasing Height (FFDH).

Like NFDH but levels are never closed: each rectangle goes on the *lowest*
already-open level with room, opening a new level only when none fits.
Classical asymptotic guarantee (Coffman-Garey-Johnson-Tarjan 1980)::

    FFDH(S') <= 1.7 * OPT(S') + h_max

FFDH also satisfies the weaker subroutine-A property (its levels are a
subset-refinement of NFDH's usage: every level except the first is more than
half full in width for the rectangles defining subsequent levels), so it can
be plugged into DC; the library keeps NFDH as the default because its
``2*AREA + h_max`` bound is the one proved in the paper's citation chain.

The first-fit search descends a min-``used`` tournament tree over the
levels (Johnson, "Fast algorithms for bin packing", JCSS 1974), so each
rectangle costs O(log levels) — the per-level Python scan it replaces
(:func:`repro.geometry.levels_reference.reference_ffdh`, the executable
spec) is quadratic, and dozens of times slower at 10^5 rectangles
(``BENCH_level_packers.json``).
"""

from __future__ import annotations

from typing import Sequence

from ..core.rectangle import Rect
from ..geometry.levels import level_pack
from .base import PackResult

__all__ = ["ffdh"]


def ffdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Pack ``rects`` (no constraints) starting at height ``y``."""
    return PackResult(*level_pack("ffdh", rects, y))
