"""Shelf/level structures shared by the level-oriented packers.

A *level* (shelf) is a horizontal band ``[y, y + height)`` filled left to
right.  NFDH/FFDH/BFDH (and the uniform-height precedence algorithm ``F`` of
Section 2.2) all manipulate levels; this module centralises the bookkeeping
so each algorithm is a short strategy over a common structure.

Two implementations live here:

* :class:`Level`/:class:`LevelStack` — the object-based bookkeeping, still
  the right interface for the *online* shelf policy
  (:mod:`repro.sim.policies`), which commits one task at a time and reads
  shelves as objects.  The original packer loops over this structure are
  preserved verbatim in :mod:`repro.geometry.levels_reference` as the
  executable specification.
* :class:`LevelArray` — the columnar kernel the offline packers use:
  parallel numpy arrays of level ``y``/``height``/``used_width``, with the
  first-fit scan collapsed into one vectorized candidate mask (built in a
  single SIMD pass; ``argmax`` over the boolean mask short-circuits at the
  first fitting shelf) and best-fit into a masked ``argmin``.  Per
  rectangle this replaces an O(levels) Python loop of attribute accesses
  with a constant number of C-speed array operations, which is what drops
  FFDH from minutes to seconds at 10^5 rectangles (see
  ``BENCH_level_packers.json``).

Float discipline: every predicate the array kernel evaluates is the exact
elementwise image of the reference predicate (``used + w <= 1 + atol``,
``resid = (1 - used) - w``), so decisions — and therefore placements — are
bit-identical to the reference.  ``tests/test_levels_differential.py``
enforces this.

:func:`level_pack` is the one NFDH/FFDH/BFDH loop over a
:class:`LevelArray`; the packers in :mod:`repro.packing` call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import tol
from ..core.arrays import PlacementBuilder, RectArrays, decreasing_order
from ..core.errors import InvalidPlacementError
from ..core.placement import Placement
from ..core.rectangle import Rect

__all__ = ["Level", "LevelStack", "LevelArray", "level_pack"]


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


class LevelStack:
    """An ordered stack of levels growing upward from ``y = base``."""

    __slots__ = ("levels", "base")

    def __init__(self, base: float = 0.0) -> None:
        self.base = base
        self.levels: list[Level] = []

    def open_level(self, height: float) -> Level:
        """Open a new level of the given height on top of the stack."""
        y = self.levels[-1].top if self.levels else self.base
        lvl = Level(y=y, height=height)
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


class LevelArray:
    """Columnar level bookkeeping: parallel arrays growing upward from
    ``y = base``.

    Levels are addressed by index (0 = lowest).  The arrays are
    preallocated and doubled on demand; scratch buffers for the fit mask
    and residuals are reused across queries so the steady-state cost per
    rectangle is a handful of vectorized passes with no allocation.
    """

    __slots__ = ("base", "_y", "_h", "_used", "_n", "_sum", "_resid", "_mask", "_nofit")

    def __init__(self, base: float = 0.0, capacity: int = 64) -> None:
        capacity = max(int(capacity), 1)
        self.base = base
        self._y = np.empty(capacity, dtype=np.float64)
        self._h = np.empty(capacity, dtype=np.float64)
        self._used = np.empty(capacity, dtype=np.float64)
        self._n = 0
        self._sum = np.empty(capacity, dtype=np.float64)
        self._resid = np.empty(capacity, dtype=np.float64)
        self._mask = np.empty(capacity, dtype=bool)
        self._nofit = np.empty(capacity, dtype=bool)

    def _grow(self) -> None:
        cap = 2 * len(self._y)
        for name in ("_y", "_h", "_used", "_sum", "_resid"):
            buf = np.empty(cap, dtype=np.float64)
            buf[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, buf)
        self._mask = np.empty(cap, dtype=bool)
        self._nofit = np.empty(cap, dtype=bool)

    # -- structure -------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def top(self) -> float:
        """Current total top of the stack (``base`` when empty)."""
        if self._n == 0:
            return self.base
        return float(self._y[self._n - 1] + self._h[self._n - 1])

    @property
    def extent(self) -> float:
        """Total height consumed by the levels."""
        return self.top - self.base

    def open_level(self, height: float) -> int:
        """Open a new level of the given height on top; return its index."""
        if self._n == len(self._y):
            self._grow()
        i = self._n
        self._y[i] = self.top
        self._h[i] = height
        self._used[i] = 0.0
        self._n = i + 1
        return i

    # -- fit queries -----------------------------------------------------
    def fits_on(self, idx: int, width: float) -> bool:
        """Whether ``width`` fits in the remaining width of level ``idx``
        (same predicate as :meth:`Level.fits`)."""
        return float(self._used[idx]) + width <= 1.0 + tol.ATOL

    def first_fit(self, width: float) -> int:
        """Lowest level with room for ``width``, or ``-1``.

        One vectorized pass builds ``used + width <= 1 + atol`` over every
        level (elementwise, the exact reference predicate); ``argmax`` on
        the boolean mask short-circuits at the first ``True``.
        """
        n = self._n
        if n == 0:
            return -1
        s = self._sum[:n]
        np.add(self._used[:n], width, out=s)
        m = self._mask[:n]
        np.less_equal(s, 1.0 + tol.ATOL, out=m)
        i = int(m.argmax())
        return i if m[i] else -1

    def best_fit(self, width: float) -> int:
        """Fitting level with the least residual width, or ``-1``.

        Residuals are computed as ``(1 - used) - width`` — the reference
        kernel's exact expression — and the masked ``argmin`` returns the
        lowest index among ties, matching the reference's strict-improvement
        scan order.
        """
        n = self._n
        if n == 0:
            return -1
        s = self._sum[:n]
        np.add(self._used[:n], width, out=s)
        m = self._mask[:n]
        np.less_equal(s, 1.0 + tol.ATOL, out=m)
        i = int(m.argmax())
        if not m[i]:
            return -1
        resid = self._resid[:n]
        np.subtract(1.0, self._used[:n], out=resid)
        np.subtract(resid, width, out=resid)
        nofit = self._nofit[:n]
        np.logical_not(m, out=nofit)
        resid[nofit] = np.inf
        return int(resid.argmin())

    # -- placement -------------------------------------------------------
    def place(self, idx: int, width: float) -> tuple[float, float]:
        """Advance level ``idx`` by ``width``; return the ``(x, y)`` of the
        placed rectangle (same clamp/advance discipline as
        :meth:`Level.push`).  No fit check — callers decide first."""
        used = float(self._used[idx])
        x = tol.clamp(used, 0.0, 1.0 - width)
        self._used[idx] = used + width
        return x, float(self._y[idx])


def level_pack(
    algorithm: str, rects: Sequence[Rect] | RectArrays, y: float = 0.0
) -> tuple[Placement, float]:
    """Pack all of ``rects`` from height ``y`` by NFDH, FFDH or BFDH;
    return the placement and the vertical extent used.

    Rectangles go in decreasing-height order.  NFDH keeps one open level
    and opens a new one when the next rectangle misses; FFDH takes the
    lowest level with room, BFDH the tightest; both open a new level when
    none fits.
    """
    arrays = RectArrays.coerce(rects)
    if not len(arrays):
        return Placement(), 0.0
    builder = PlacementBuilder(arrays)
    levels = LevelArray(base=y)
    rows = decreasing_order(arrays)
    ws = arrays.width[rows].tolist()
    hs = arrays.height[rows].tolist()
    puts = zip(rows.tolist(), ws, hs)
    if algorithm == "nfdh":
        idx = levels.open_level(hs[0])
        for row, w, h in puts:
            if not levels.fits_on(idx, w):
                idx = levels.open_level(h)
            builder.put(row, *levels.place(idx, w))
    else:
        fit = {"ffdh": levels.first_fit, "bfdh": levels.best_fit}[algorithm]
        for row, w, h in puts:
            idx = fit(w)
            if idx < 0:
                idx = levels.open_level(h)
            builder.put(row, *levels.place(idx, w))
    return builder.build(), levels.extent
