"""Next-Fit Decreasing Height (NFDH).

The default subroutine ``A`` for Algorithm 1.  Sort rectangles by
non-increasing height; maintain one open level; place each rectangle on the
open level if it fits in the remaining width, otherwise close the level and
open a new one whose height is the current rectangle's height.

Classical guarantee (Coffman-Garey-Johnson-Tarjan 1980)::

    NFDH(S') <= 2 * AREA(S') + h_max(S')

which is exactly the subroutine-A property the paper requires of [22, 24].
Sketch: let the levels have heights ``H_1 >= H_2 >= ...``.  For ``i >= 2``
the rectangles on level ``i`` all have height ``>= H_{i+1}``, and together
with the first rectangle of level ``i+1`` their widths exceed 1, so
``AREA(level i) + AREA(first of i+1) > H_{i+1} * 1 / 2`` pairwise-summed
gives ``sum_{i>=2} H_i <= 2 * AREA``; adding the first level's ``H_1 <=
h_max`` yields the bound.

The kernel (:func:`repro.geometry.levels.level_pack`) keeps the one open
level as three plain floats, which is what DC's many small ``S_mid`` bands
(median 3 rectangles on the service's 200-rect instances) want; the
original object-based loop is preserved as
:func:`repro.geometry.levels_reference.reference_nfdh` and the differential
suite pins the two placement-for-placement.
"""

from __future__ import annotations

from typing import Sequence

from ..core.rectangle import Rect
from ..geometry.levels import level_pack
from .base import PackResult

__all__ = ["nfdh"]


def nfdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Pack ``rects`` (no constraints) starting at height ``y``.

    Deterministic: ties in height are broken by wider-first, then id, so
    repeated runs produce identical placements.
    """
    return PackResult(*level_pack("nfdh", rects, y))
