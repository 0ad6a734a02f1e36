"""Columnar (structure-of-arrays) view of a rectangle collection.

The object model (:class:`~repro.core.rectangle.Rect`, frozen dataclasses)
is the right interface for algorithms that reason about individual tasks,
but the APTAS pipeline of Section 3 (rounding, grouping, the configuration
LP and its integral fill) batches over *every* rectangle of an instance,
where per-object attribute access dominates long before the algorithmic
work does.

:class:`RectArrays` is the columnar twin: parallel numpy ``float64``
columns (``width``/``height``/``release``) plus the original rectangle
tuple for materialisation at the boundary.  Kernels address rectangles by
*position* (an integer row index), not by object, and only convert back to
the object world once, through :class:`PlacementBuilder`.

Columnar compute must be *observationally identical* to the object-based
code it stands for — numpy ``float64`` arithmetic is IEEE-754 double
arithmetic, so an elementwise ``a + b`` equals the scalar Python sum bit
for bit, and the differential suites (``tests/test_release_differential.py``
among them) hold the kernels to that standard placement-for-placement.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .errors import InvalidPlacementError
from .placement import PlacedRect, Placement
from .rectangle import Rect

__all__ = ["RectArrays", "PlacementBuilder"]

Node = Hashable


class RectArrays:
    """Parallel columns over a fixed rectangle tuple.

    ``width``/``height``/``release`` are read-only ``float64`` arrays with
    row ``i`` describing ``rects[i]``; ``rids`` and :meth:`index` map
    between row positions and rectangle ids.  Instances are immutable —
    :meth:`repro.core.instance.StripPackingInstance.arrays` builds one per
    instance and caches it, so every kernel run over the same instance
    shares one copy of the columns.
    """

    __slots__ = ("rects", "width", "height", "release", "_index", "_sid_rank")

    def __init__(self, rects: Sequence[Rect]):
        self.rects: tuple[Rect, ...] = tuple(rects)
        n = len(self.rects)
        width = np.empty(n, dtype=np.float64)
        height = np.empty(n, dtype=np.float64)
        release = np.empty(n, dtype=np.float64)
        for i, r in enumerate(self.rects):
            width[i] = r.width
            height[i] = r.height
            release[i] = r.release
        width.setflags(write=False)
        height.setflags(write=False)
        release.setflags(write=False)
        self.width = width
        self.height = height
        self.release = release
        self._index: dict[Node, int] | None = None
        self._sid_rank: np.ndarray | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rects(cls, rects: Sequence[Rect]) -> "RectArrays":
        """Columnar view of a plain rectangle sequence."""
        return cls(rects)

    @classmethod
    def coerce(cls, rects) -> "RectArrays":
        """Adapt any packer input to columns.

        Accepts a :class:`RectArrays` (returned as-is), anything with an
        ``arrays()`` method (instances, which cache the columns), or a
        plain rectangle sequence (columns built on the spot).
        """
        if isinstance(rects, RectArrays):
            return rects
        arrays = getattr(rects, "arrays", None)
        if callable(arrays):
            return arrays()
        return cls(rects)

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rects)

    @property
    def rids(self) -> tuple[Node, ...]:
        """Rectangle ids, in row order."""
        return tuple(r.rid for r in self.rects)

    def index(self) -> dict[Node, int]:
        """Mapping rid -> row position (built lazily, then reused)."""
        if self._index is None:
            self._index = {r.rid: i for i, r in enumerate(self.rects)}
        return self._index

    def sid_rank(self) -> np.ndarray:
        """Rank of each row's ``str(rid)`` in Python string order.

        The lexicographic id tie-break of the APTAS stackings and pools
        (the same one :func:`~repro.core.rectangle.decreasing_height_order`
        uses) as an ``int64`` column: rows whose string forms are equal
        share a rank, so a stable sort keeps them in row order, exactly
        like ``sorted`` on ``str(rid)``.  Ranks come
        from Python's own ``sorted``, not from a numpy string array, which
        would drop trailing ``"\\x00"`` characters and tie ``"a"`` with
        ``"a\\x00"``.  Built lazily, then reused — instances cache their
        ``RectArrays``, so repeated solves skip the per-rect ``str()`` pass.
        """
        if self._sid_rank is None:
            sids = [str(r.rid) for r in self.rects]
            rank = np.empty(len(sids), dtype=np.int64)
            current, previous = -1, None
            for row in sorted(range(len(sids)), key=sids.__getitem__):
                if sids[row] != previous:
                    current, previous = current + 1, sids[row]
                rank[row] = current
            rank.setflags(write=False)
            self._sid_rank = rank
        return self._sid_rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RectArrays(n={len(self)})"


class PlacementBuilder:
    """Array-native placement accumulator.

    Kernels append ``(row, x, y)`` triples — plain Python floats, already
    clamped — and :meth:`build` materialises the one
    :class:`~repro.core.placement.Placement` at the object boundary.  The
    accumulation order is preserved, so the built placement iterates in
    exactly the order the kernel placed (the object-based packers place
    into a dict in the same order, which keeps the two worlds
    byte-comparable).
    """

    __slots__ = ("arrays", "_rows", "_xs", "_ys")

    def __init__(self, arrays: RectArrays):
        self.arrays = arrays
        self._rows: list[int] = []
        self._xs: list[float] = []
        self._ys: list[float] = []

    def put(self, row: int, x: float, y: float) -> None:
        """Record the rectangle at row ``row`` with lower-left ``(x, y)``."""
        self._rows.append(row)
        self._xs.append(x)
        self._ys.append(y)

    def __len__(self) -> int:
        return len(self._rows)

    def with_arrays(self, arrays: RectArrays) -> "PlacementBuilder":
        """A builder over ``arrays`` sharing this one's rows and
        coordinates — for a derived instance with the same row order
        (Algorithm 2 places ``P`` and reads ``P(R,W)``'s placement off
        the same fill)."""
        if len(arrays) != len(self.arrays):
            raise ValueError(
                f"row counts differ: {len(arrays)} != {len(self.arrays)}"
            )
        other = PlacementBuilder(arrays)
        other._rows, other._xs, other._ys = self._rows, self._xs, self._ys
        return other

    def build(self, dy: float = 0.0) -> Placement:
        """Materialise the accumulated columns into a :class:`Placement`,
        optionally shifting every ``y`` up by ``dy``."""
        rects = self.arrays.rects
        placed: dict[Node, PlacedRect] = {}
        if dy:
            for row, x, y in zip(self._rows, self._xs, self._ys):
                r = rects[row]
                placed[r.rid] = PlacedRect(r, x, y + dy)
        else:
            for row, x, y in zip(self._rows, self._xs, self._ys):
                r = rects[row]
                placed[r.rid] = PlacedRect(r, x, y)
        if len(placed) != len(self._rows):
            raise InvalidPlacementError("placement builder saw a rectangle twice")
        return Placement(placed)
