"""Skyline bottom-left heuristic.

Place rectangles one at a time (default order: non-increasing height) at the
lowest, leftmost skyline position.  No worst-case guarantee of the
subroutine-A form (Baker-Coffman-Rivest showed decreasing-width BL is
3-approximate; arbitrary orders can be bad), but it is the strongest simple
heuristic in practice and serves as the measured baseline in E11.

Also exposes :func:`bottom_left_release`, the release-time-aware variant
used as a Section 3 baseline: the support height is raised to the
rectangle's release time.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.placement import Placement
from ..core.rectangle import Rect, arrival_order, decreasing_height_order
from ..geometry.skyline import Skyline
from .base import PackResult

__all__ = ["bottom_left", "bottom_left_release"]


def bottom_left(
    rects: Sequence[Rect],
    y: float = 0.0,
    order: Callable[[Rect], tuple] | None = None,
    skyline_cls: type = Skyline,
) -> PackResult:
    """Pack ``rects`` bottom-left; ``order`` overrides the sort key
    (default: non-increasing height, then width, then id).

    ``skyline_cls`` swaps the skyline kernel — the differential tests and
    the ``skyline_bottom_left`` bench pass
    :class:`~repro.geometry.skyline_reference.ReferenceSkyline` here to
    race/compare the optimized kernel against the executable spec.
    """
    placement = Placement()
    if not rects:
        return PackResult(placement, 0.0)
    ordered = sorted(rects, key=order) if order else decreasing_height_order(rects)
    sky = skyline_cls()
    for r in ordered:
        x, support = sky.lowest_position(r.width)
        sky.place(x, r.width, r.height)
        placement.place(r, x, support + y)
    # Shift so the lowest base is exactly y (first rectangle rests at 0).
    return PackResult(placement, placement.extent())


def bottom_left_release(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Release-aware bottom-left: rectangles in release order; each placed at
    the lowest skyline position *at or above its release time*.

    Candidate positions take ``max(support, release)``; the skyline is
    raised to the actual resting height, so later rectangles cannot sneak
    under an elevated one (keeps the packing provably overlap-free with a
    plain skyline — a deliberate conservative choice documented in
    DESIGN.md; the APTAS is the algorithm that fills such gaps).
    """
    placement = Placement()
    if not rects:
        return PackResult(placement, 0.0)
    ordered = sorted(rects, key=arrival_order)
    sky = Skyline()
    for r in ordered:
        best = None
        for x, support in sky.candidate_positions(r.width):
            start = max(support, r.release - y)
            cand = (start, x)
            if best is None or cand < best:
                best = cand
        start, x = best  # type: ignore[misc]
        # Raise the skyline to the top of the rectangle even if it floats
        # above its support (release constraint), to preserve non-overlap.
        sky.place(x, r.width, (start - sky.support_y(x, r.width)) + r.height)
        placement.place(r, x, start + y)
    return PackResult(placement, placement.extent())
