"""Placements (solutions) and the shared validity checker.

A placement assigns the lower-left corner ``(x_s, y_s)`` to each rectangle.
Validity, following the paper's definition verbatim:

1. containment: ``0 <= x_s <= 1 - w_s`` and ``y_s >= 0``;
2. no two rectangles overlap (open-interior intersection test — shared
   edges are allowed);
3. *(precedence variant)* for every edge ``(s, s')``: ``y_s + h_s <= y_{s'}``;
4. *(release variant)* ``y_s >= r_s``.

Algorithms in this library never self-certify: each returns a
:class:`Placement` and the test-suite (and the benchmark harness) re-checks
it with :func:`validate_placement`, which dispatches on the instance type.

The validator is one pure-Python pass for every size: containment per
rect, then the overlap check :func:`find_overlap` — a sweep over bases
that keeps the rects crossing the sweep line sorted by x, so a valid
packing costs one pairwise test per rect — then the precedence and release
checks.  Every comparison is the tolerance predicate of :mod:`.tol`; the
tests hold the sweep to the O(n^2) loop over :meth:`PlacedRect.overlaps`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping

from . import tol
from .errors import InvalidPlacementError
from .instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from .rectangle import Rect

__all__ = [
    "PlacedRect",
    "Placement",
    "validate_placement",
    "find_overlap",
]

Node = Hashable


@dataclass(frozen=True, slots=True)
class PlacedRect:
    """A rectangle together with its lower-left placement point."""

    rect: Rect
    x: float
    y: float

    @property
    def x2(self) -> float:
        """Right edge ``x + w``."""
        return self.x + self.rect.width

    @property
    def y2(self) -> float:
        """Top edge ``y + h``."""
        return self.y + self.rect.height

    def overlaps(self, other: "PlacedRect", atol: float = tol.ATOL) -> bool:
        """Open-interior overlap test (shared edges do not overlap)."""
        return (
            tol.lt(self.x, other.x2, atol)
            and tol.lt(other.x, self.x2, atol)
            and tol.lt(self.y, other.y2, atol)
            and tol.lt(other.y, self.y2, atol)
        )


class Placement:
    """A (partial or complete) solution: id -> placement point.

    The object is mutable during construction (algorithms ``place`` into it)
    and exposes read-only queries afterwards; :func:`validate_placement`
    checks completeness against an instance.
    """

    __slots__ = ("_placed",)

    def __init__(self, placed: Mapping[Node, PlacedRect] | None = None) -> None:
        self._placed: dict[Node, PlacedRect] = dict(placed or {})

    # -- construction ---------------------------------------------------
    def place(self, rect: Rect, x: float, y: float) -> None:
        """Record rectangle ``rect`` at lower-left point ``(x, y)``."""
        if rect.rid in self._placed:
            raise InvalidPlacementError(f"rectangle {rect.rid!r} placed twice")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidPlacementError(f"non-finite placement for {rect.rid!r}: ({x}, {y})")
        self._placed[rect.rid] = PlacedRect(rect, x, y)

    def merge(self, other: "Placement") -> None:
        """Absorb another placement (disjoint id sets required)."""
        for rid, pr in other.items():
            if rid in self._placed:
                raise InvalidPlacementError(f"rectangle {rid!r} placed twice (merge)")
            self._placed[rid] = pr

    def shifted(self, dy: float) -> "Placement":
        """A copy with every rectangle moved up by ``dy``."""
        return Placement(
            {rid: PlacedRect(pr.rect, pr.x, pr.y + dy) for rid, pr in self._placed.items()}
        )

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._placed)

    def __contains__(self, rid: Node) -> bool:
        return rid in self._placed

    def __getitem__(self, rid: Node) -> PlacedRect:
        return self._placed[rid]

    def items(self) -> Iterable[tuple[Node, PlacedRect]]:
        return self._placed.items()

    def __iter__(self) -> Iterator[PlacedRect]:
        return iter(self._placed.values())

    @property
    def height(self) -> float:
        """Height of the packing: ``max_s (y_s + h_s)``, 0 when empty."""
        return max((pr.y2 for pr in self._placed.values()), default=0.0)

    @property
    def base(self) -> float:
        """Lowest base ``min_s y_s`` (0 when empty)."""
        return min((pr.y for pr in self._placed.values()), default=0.0)

    def extent(self) -> float:
        """Vertical extent ``height - base`` — the quantity the paper's
        subroutine contract ``A(y, S')`` reports."""
        return self.height - self.base if self._placed else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement(n={len(self)}, height={self.height:.4g})"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def find_overlap(
    placed: Iterable[PlacedRect], atol: float = tol.ATOL
) -> tuple[PlacedRect, PlacedRect] | None:
    """Return an overlapping pair, or ``None``.

    Exact: a pair for which :meth:`PlacedRect.overlaps` holds exists if and
    only if this returns one, and the pair it returns is such a pair.
    """
    return _first_overlap([(pr.y, pr.x, pr.x2 - atol, pr.y2 - atol, pr) for pr in placed])


def _first_overlap(rows: list[tuple]) -> tuple[PlacedRect, PlacedRect] | None:
    """The sweep behind :func:`find_overlap`, over ``(y, x, x2 - atol,
    y2 - atol, rect)`` rows (sorted in place): each side of every
    ``tol.lt`` in :meth:`PlacedRect.overlaps`, computed once per rect.

    Rows enter in base order.  The *live* rects — those whose top lies above
    the current base beyond tolerance — are kept sorted by x, and a heap of
    tops expires them as soon as the base passes them.  Any two live rects
    share a y-band, so until an overlap turns up they are x-disjoint.  Each
    new rect ``b`` is tested with all four inequalities of
    :meth:`PlacedRect.overlaps` against the live rects that start left of
    ``b.x2 - atol``, walking leftwards.  The walk stops after a rect ``p``
    that starts at or left of ``b.x`` and is wider than ``atol``: a live
    rect left of ``p`` cannot reach past ``p.x`` (it would overlap ``p``),
    so it cannot reach ``b`` either.  On a valid packing that is one test
    per rect; only slivers narrower than ``atol`` lengthen the walk.
    """
    rows.sort(key=itemgetter(0))
    tops: list[tuple] = []  # (top - atol, seq) per live rect
    xs: list[float] = []  # the live rects' x, ascending
    live: list[tuple] = []  # the live rows, in xs order
    for seq, row in enumerate(rows):
        y, x, right, top, b = row
        while tops and tops[0][0] <= y:
            gone = rows[heappop(tops)[1]]
            i = bisect_left(xs, gone[1])
            while live[i] is not gone:
                i += 1
            del xs[i], live[i]
        i = bisect_left(xs, right)
        while i:
            i -= 1
            ay, ax, aright, atop, a = live[i]
            if ax < right and x < aright and ay < top and y < atop:
                return a, b
            if ax <= x and ax < aright:
                break
        i = bisect_left(xs, x)
        xs.insert(i, x)
        live.insert(i, row)
        heappush(tops, (top, seq))
    return None


def validate_placement(
    instance: StripPackingInstance,
    placement: Placement,
    *,
    atol: float = tol.ATOL,
    max_height: float | None = None,
) -> None:
    """Raise :class:`InvalidPlacementError` unless ``placement`` is a valid,
    complete solution of ``instance``.

    Checks, in order: completeness (every rectangle placed exactly once, no
    strays, no altered dimensions), strip containment rect by rect,
    pairwise non-overlap, then the constraints of the specific variant
    (precedence edges / release times).  Optionally enforces a height
    budget ``max_height``.  The error names the first offender: in
    placement order for containment and release, in ``dag.edges()`` order
    for precedence, and the lowest pair the overlap sweep meets.
    """
    by_id = instance.by_id()
    placed = placement._placed
    if placed.keys() != by_id.keys():
        ids = {r.rid for r in instance.rects}
        placed_ids = {rid for rid, _ in placement.items()}
        missing = ids - placed_ids
        if missing:
            raise InvalidPlacementError(f"{len(missing)} rectangles unplaced, e.g. {next(iter(missing))!r}")
        stray = placed_ids - ids
        raise InvalidPlacementError(f"placement contains unknown ids, e.g. {next(iter(stray))!r}")

    for rid, pr in placed.items():
        r = by_id[rid]
        if pr.rect is not r and pr.rect != r:
            raise InvalidPlacementError(
                f"rectangle {rid!r} was placed with altered dimensions "
                f"({pr.rect} != {r})"
            )

    # The tolerance predicates inline: tol.lt(x, 0) is x < -atol,
    # tol.gt(x2, 1) is x2 > 1 + atol, and so on.
    x_max = 1.0 + atol
    y_max = math.inf if max_height is None else max_height + atol
    rows = []
    for rid, pr in placed.items():
        x, y = pr.x, pr.y
        x2, y2 = x + pr.rect.width, y + pr.rect.height
        if x < -atol or x2 > x_max:
            raise InvalidPlacementError(
                f"rectangle {rid!r} sticks out horizontally: x in [{x:.6g}, {x2:.6g}]"
            )
        if y < -atol:
            raise InvalidPlacementError(f"rectangle {rid!r} below the strip base: y={y:.6g}")
        if y2 > y_max:
            raise InvalidPlacementError(
                f"rectangle {rid!r} exceeds height budget {max_height:g}: top={y2:.6g}"
            )
        rows.append((y, x, x2 - atol, y2 - atol, pr))

    bad = _first_overlap(rows)
    if bad is not None:
        a, b = bad
        raise InvalidPlacementError(
            f"rectangles {a.rect.rid!r} and {b.rect.rid!r} overlap: "
            f"[{a.x:.4g},{a.x2:.4g}]x[{a.y:.4g},{a.y2:.4g}] vs "
            f"[{b.x:.4g},{b.x2:.4g}]x[{b.y:.4g},{b.y2:.4g}]"
        )

    if isinstance(instance, PrecedenceInstance):
        for u, v in instance.dag.edges():
            pu, pv = placed[u], placed[v]
            if pu.y + pu.rect.height > pv.y + atol:
                raise InvalidPlacementError(
                    f"precedence violated: top({u!r})={pu.y2:.6g} > base({v!r})={pv.y:.6g}"
                )

    if isinstance(instance, ReleaseInstance):
        for rid, pr in placed.items():
            if pr.y < pr.rect.release - atol:
                raise InvalidPlacementError(
                    f"release violated: {rid!r} starts at {pr.y:.6g} < r={pr.rect.release:.6g}"
                )
