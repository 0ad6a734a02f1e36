"""Reference level-packing kernels — the executable specification.

This module preserves, verbatim, the object-based shelf bookkeeping
(:class:`ReferenceLevel` / :class:`ReferenceLevelStack`; of the two, only
the shelf lives on in production, as :class:`repro.geometry.levels.Level`
for the online shelf policy) and the original NFDH/FFDH/BFDH packer loops
over it.  It exists for two purposes, exactly mirroring
:mod:`repro.geometry.skyline_reference`:

* **differential testing** — ``tests/test_levels_differential.py`` runs
  the production kernels (:func:`repro.geometry.levels.level_pack` via
  :mod:`repro.packing`) and these references over the same inputs and
  requires placement-for-placement equality (same ``(x, y)`` for every
  rectangle, same extents);
* **benchmarking** — the ``level_packers`` bench spec races the
  production kernels against these, so every ``BENCH_level_packers.json``
  artifact records the speedup of the list-based kernels, and
  :func:`repro.precedence.reference.reference_dc_pack` packs DC's bands
  with :func:`reference_nfdh`.

The per-level Python scans are deliberate: each loop is a direct
transcription of the algorithm's textbook statement.  Do not optimize this
module — its only job is to be obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core import tol
from ..core.errors import InvalidPlacementError
from ..core.placement import Placement
from ..core.rectangle import Rect, decreasing_height_order
from ..packing.base import PackResult

__all__ = [
    "ReferenceLevel",
    "ReferenceLevelStack",
    "reference_nfdh",
    "reference_ffdh",
    "reference_bfdh",
]


@dataclass
class ReferenceLevel:
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
        """Record ``rect`` at the current fill position and return its ``x``."""
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


class ReferenceLevelStack:
    """An ordered stack of levels growing upward from ``y = base``."""

    __slots__ = ("levels", "base")

    def __init__(self, base: float = 0.0) -> None:
        self.base = base
        self.levels: list[ReferenceLevel] = []

    def open_level(self, height: float) -> ReferenceLevel:
        """Open a new level of the given height on top of the stack."""
        y = self.levels[-1].top if self.levels else self.base
        lvl = ReferenceLevel(y=y, height=height)
        self.levels.append(lvl)
        return lvl

    @property
    def top(self) -> float:
        """Current total top of the stack."""
        return self.levels[-1].top if self.levels else self.base

    @property
    def extent(self) -> float:
        """Total height consumed by the levels."""
        return self.top - self.base

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)


# ----------------------------------------------------------------------
# the original packer loops, verbatim
# ----------------------------------------------------------------------

def reference_nfdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Next-Fit Decreasing Height over the object-based level stack."""
    placement = Placement()
    if not rects:
        return PackResult(placement, 0.0)
    ordered = decreasing_height_order(rects)
    stack = ReferenceLevelStack(base=y)
    level = stack.open_level(ordered[0].height)
    for r in ordered:
        if not level.fits(r):
            level = stack.open_level(r.height)
        level.add(r, placement)
    return PackResult(placement, stack.extent)


def reference_ffdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """First-Fit Decreasing Height: linear scan for the lowest open level."""
    placement = Placement()
    if not rects:
        return PackResult(placement, 0.0)
    ordered = decreasing_height_order(rects)
    stack = ReferenceLevelStack(base=y)
    for r in ordered:
        target = None
        for level in stack:
            if level.fits(r):
                target = level
                break
        if target is None:
            target = stack.open_level(r.height)
        target.add(r, placement)
    return PackResult(placement, stack.extent)


def reference_bfdh(rects: Sequence[Rect], y: float = 0.0) -> PackResult:
    """Best-Fit Decreasing Height: full scan for the tightest residual."""
    placement = Placement()
    if not rects:
        return PackResult(placement, 0.0)
    ordered = decreasing_height_order(rects)
    stack = ReferenceLevelStack(base=y)
    for r in ordered:
        best = None
        best_resid = None
        for level in stack:
            if level.fits(r):
                resid = 1.0 - level.used_width - r.width
                if best_resid is None or resid < best_resid:
                    best, best_resid = level, resid
        if best is None:
            best = stack.open_level(r.height)
        best.add(r, placement)
    return PackResult(placement, stack.extent)
