"""Shelf/level structures shared by the level-oriented packers.

A *level* (shelf) is a horizontal band ``[y, y + height)`` filled left to
right.  NFDH/FFDH/BFDH (and the uniform-height precedence algorithm ``F`` of
Section 2.2) all manipulate levels; this module centralises the bookkeeping
so each algorithm is a short strategy over a common structure.

Two implementations live here:

* :class:`Level` — one object-based shelf, still the right interface for
  the *online* shelf policy (:mod:`repro.sim.policies`), which commits
  one task at a time and reads shelves as objects.  The original packer
  loops over object-based shelves are preserved verbatim in
  :mod:`repro.geometry.levels_reference` as the executable specification.
* :func:`level_pack` — the offline NFDH/FFDH/BFDH kernels the packers in
  :mod:`repro.packing` call.  Levels are plain Python floats in lists, so a
  16- or 200-rectangle call pays no numpy round trips:

  - NFDH keeps its one open level as three floats;
  - FFDH finds the lowest level with room in a min-``used`` tournament
    tree (Johnson, "Fast algorithms for bin packing", JCSS 1974), in
    O(log levels) per rectangle;
  - BFDH keeps ``(used, level)`` pairs sorted and binary-searches the
    fullest level that fits.

Float discipline: every decision is the reference predicate evaluated on
the same floats (``used + w <= 1 + atol``, ``resid = (1 - used) - w``), so
placements are bit-identical to the reference.  The tree and the sorted
list are exact, not approximate, because float addition and subtraction
are monotone: ``min(used) + w <= 1 + atol`` holds for a subtree iff the
predicate holds for some level in it, and a larger ``used`` never gives a
larger residual.  ``tests/test_levels_differential.py`` enforces this.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Sequence

from ..core import tol
from ..core.errors import InvalidPlacementError
from ..core.placement import PlacedRect, Placement
from ..core.rectangle import Rect, decreasing_height_order

__all__ = ["Level", "level_pack"]


@dataclass
class Level:
    """One shelf: rectangles placed left to right starting at height ``y``.

    ``height`` is the shelf's reserved vertical extent (for NFDH-style
    packers this is the height of the first rectangle placed on it; for the
    uniform-height algorithms it is the common height 1).
    """

    y: float
    height: float
    used_width: float = 0.0
    rects: list[Rect] = field(default_factory=list)

    def fits(self, rect: Rect, atol: float = tol.ATOL) -> bool:
        """Whether ``rect`` fits in the remaining width (height is *not*
        checked: level-packing conventions place the defining rectangle
        first and guarantee later rectangles are no taller)."""
        return tol.leq(self.used_width + rect.width, 1.0, atol)

    def push(self, rect: Rect) -> float:
        """Record ``rect`` at the current fill position and return its ``x``.

        The raw fill bookkeeping (no fit check): callers that commit
        placements themselves — the online shelf policy — share this one
        copy of the clamp/advance discipline with :meth:`add`.
        """
        x = tol.clamp(self.used_width, 0.0, 1.0 - rect.width)
        self.used_width += rect.width
        self.rects.append(rect)
        return x

    def add(self, rect: Rect, placement: Placement) -> None:
        """Place ``rect`` at the current fill position of this level."""
        if not self.fits(rect):
            raise InvalidPlacementError(
                f"rect {rect.rid!r} (w={rect.width:g}) does not fit on level at "
                f"y={self.y:g} with used width {self.used_width:g}"
            )
        placement.place(rect, self.push(rect), self.y)

    @property
    def top(self) -> float:
        """Upper boundary ``y + height`` of the shelf."""
        return self.y + self.height

    @property
    def filled_area(self) -> float:
        """Total area of the rectangles on this shelf."""
        return sum(r.area for r in self.rects)


# ----------------------------------------------------------------------
# offline kernels: (rectangles in decreasing-height order, base y) ->
# (rid -> PlacedRect in placement order, top of the last level)
# ----------------------------------------------------------------------

def _nfdh(ordered: list[Rect], y: float) -> tuple[dict, float]:
    """Next fit: one open level, closed for good when a rectangle misses."""
    placed = {}
    limit = 1.0 + tol.ATOL
    level_y, top, used = y, y + ordered[0].height, 0.0
    for r in ordered:
        w = r.width
        if not used + w <= limit:
            level_y, top, used = top, top + r.height, 0.0
        placed[r.rid] = PlacedRect(r, tol.clamp(used, 0.0, 1.0 - w), level_y)
        used += w
    return placed, top


def _ffdh(ordered: list[Rect], y: float) -> tuple[dict, float]:
    """First fit: the lowest level with room, found in a tournament tree.

    Leaf ``cap + i`` holds level ``i``'s ``used`` width (``inf`` while the
    level is unopened) and every inner node the minimum of its children,
    so a subtree has room for ``w`` iff its node plus ``w`` passes the fit
    test.  The search descends left first; a place raises one leaf and
    its ancestors up to the first one whose minimum does not change.  The
    tree doubles when the levels fill it, so its depth is log2(levels).
    """
    placed = {}
    limit = 1.0 + tol.ATOL
    inf = float("inf")
    cap = 1
    tree = [inf, inf]
    ys: list[float] = []
    top = y
    for r in ordered:
        w = r.width
        if tree[1] + w <= limit:
            i = 1
            while i < cap:
                i *= 2
                if tree[i] + w > limit:
                    i += 1
            used = tree[i]
        else:
            if len(ys) == cap:
                cap *= 2
                tree = [inf] * cap + tree[cap // 2 :] + [inf] * (cap // 2)
                for k in range(cap - 1, 0, -1):
                    tree[k] = min(tree[2 * k], tree[2 * k + 1])
            i = cap + len(ys)
            ys.append(top)
            top += r.height
            used = 0.0
        placed[r.rid] = PlacedRect(r, tol.clamp(used, 0.0, 1.0 - w), ys[i - cap])
        used += w
        tree[i] = used
        while i > 1:
            i //= 2
            left, right = tree[2 * i], tree[2 * i + 1]
            low = left if left <= right else right
            if tree[i] == low:
                break
            tree[i] = low
    return placed, top


def _bfdh(ordered: list[Rect], y: float) -> tuple[dict, float]:
    """Best fit: the fitting level with the least residual, lowest first.

    ``by_used`` holds one ``(used, level)`` pair per level, sorted.  The
    levels that fit form a prefix of it, and the last pair of that prefix
    has the least residual ``(1 - used) - w``.  Rounding can give several
    ``used`` values that same residual; they form a run of groups of equal
    ``used`` at the end of the prefix, and the first pair of each group
    holds its lowest level.  The reference scan keeps the lowest level
    among equal residuals, so the lowest of those group heads wins.
    """
    placed = {}
    limit = 1.0 + tol.ATOL
    by_used: list[tuple[float, int]] = []
    ys: list[float] = []
    top = y
    for r in ordered:
        w = r.width
        fit = bisect_right(by_used, limit, key=lambda pair: pair[0] + w)
        if fit:
            best = (1.0 - by_used[fit - 1][0]) - w
            # len(ys) is above every level, so the first group head is picked.
            at, level = fit, len(ys)
            while at and (1.0 - by_used[at - 1][0]) - w == best:
                head = bisect_left(by_used, (by_used[at - 1][0], -1), 0, at)
                if by_used[head][1] < level:
                    pick, level = head, by_used[head][1]
                at = head
            used = by_used.pop(pick)[0]
        else:
            level = len(ys)
            ys.append(top)
            top += r.height
            used = 0.0
        placed[r.rid] = PlacedRect(r, tol.clamp(used, 0.0, 1.0 - w), ys[level])
        insort(by_used, (used + w, level))
    return placed, top


_KERNELS = {"nfdh": _nfdh, "ffdh": _ffdh, "bfdh": _bfdh}


def level_pack(
    algorithm: str, rects: Sequence[Rect], y: float = 0.0
) -> tuple[Placement, float]:
    """Pack all of ``rects`` from height ``y`` by NFDH, FFDH or BFDH;
    return the placement and the vertical extent used.

    Rectangles go in :func:`~repro.core.rectangle.decreasing_height_order`.
    NFDH keeps one open level and opens a new one when the next rectangle
    misses; FFDH takes the lowest level with room, BFDH the tightest; both
    open a new level when none fits.
    """
    ordered = decreasing_height_order(rects)
    if not ordered:
        return Placement(), 0.0
    placed, top = _KERNELS[algorithm](ordered, float(y))
    if len(placed) != len(ordered):
        raise InvalidPlacementError("level packer saw a rectangle id twice")
    return Placement(placed), top - y
