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

The overlap check offers two engines: an O(n^2) pairwise reference and an
interval-sweep over y-events that is near-linear for the shelf-structured
packings the algorithms produce; the validator cross-checks them in tests.
At scale (``n >= 64``) the validator switches to a columnar fast path:
the placement's x/y columns are gathered once and containment, overlap,
precedence, and release checks all run as vectorized passes — the same
tolerance predicates, evaluated elementwise, so accept/reject decisions
are identical to the scalar loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from . import tol
from .errors import InvalidPlacementError
from .instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from .rectangle import Rect

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PlacedRect",
    "Placement",
    "validate_placement",
    "find_overlap",
    "find_overlap_columns",
]

Node = Hashable

#: Below this many rectangles the scalar loops win (no column-gather cost).
#: The columnar path imports numpy when it first runs, so a process that
#: validates only smaller placements never loads it.
_COLUMNAR_MIN_N = 64


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

    Sweep over y: sort rectangles by base, keep an active list pruned by top
    edge; pairwise-test only rectangles whose y-ranges intersect.  Worst case
    O(n^2) (all rectangles stacked in one band) but near-linear on real
    packings; exact same predicate as :meth:`PlacedRect.overlaps`.
    """
    items = sorted(placed, key=lambda pr: pr.y)
    active: list[PlacedRect] = []
    for pr in items:
        still = []
        for a in active:
            if tol.gt(a.y2, pr.y, atol):  # a's top strictly above pr's base
                still.append(a)
                if pr.overlaps(a, atol):
                    return (a, pr)
        active = still
        active.append(pr)
    return None


def find_overlap_columns(
    xs: np.ndarray,
    ys: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    atol: float = tol.ATOL,
    *,
    pair_budget: int = 1 << 20,
) -> tuple[int, int] | None:
    """Columnar twin of :func:`find_overlap`: row indices of an overlapping
    pair, or ``None``.

    Rows are sorted by base ``y``; for each row the candidate partners —
    the later rows whose base lies below this row's top, found by one
    ``searchsorted`` — are tested against the full four-inequality
    predicate of :meth:`PlacedRect.overlaps` in vectorized batches of at
    most ``pair_budget`` candidate pairs (bounding temporary memory).
    Exactly the predicate of the scalar sweep, so the two engines agree on
    overlap existence; which *pair* is reported may differ when several
    overlap.
    """
    import numpy as np

    n = len(xs)
    order = np.argsort(ys, kind="stable")
    xs_s, ys_s = xs[order], ys[order]
    x2_s, y2_s = x2[order], y2[order]
    # Candidate partners for row k: rows k+1 .. his[k]-1 (bases below k's
    # top, beyond tolerance — the y-condition tol.lt(y_j, y2_k) verbatim).
    his = np.searchsorted(ys_s, y2_s - atol, side="left")
    counts = np.maximum(his - np.arange(1, n + 1), 0)
    start = 0
    while start < n:
        end = start + 1
        total = int(counts[start])
        while end < n and total + counts[end] <= pair_budget:
            total += int(counts[end])
            end += 1
        if total:
            c = counts[start:end]
            kk = np.repeat(np.arange(start, end), c)
            base = np.cumsum(c) - c
            jj = np.arange(total) - np.repeat(base, c) + kk + 1
            hit = (
                (xs_s[kk] < x2_s[jj] - atol)
                & (xs_s[jj] < x2_s[kk] - atol)
                & (ys_s[kk] < y2_s[jj] - atol)
            )
            h = int(hit.argmax())
            if hit[h]:
                return int(order[kk[h]]), int(order[jj[h]])
        start = end
    return None


def _placement_columns(pairs: list[tuple[Node, PlacedRect]]):
    """Gather x/y/x2/y2 columns from placement items (one pass)."""
    import numpy as np

    n = len(pairs)
    xs = np.empty(n)
    ys = np.empty(n)
    x2 = np.empty(n)
    y2 = np.empty(n)
    for i, (_, pr) in enumerate(pairs):
        xs[i] = pr.x
        ys[i] = pr.y
        x2[i] = pr.x + pr.rect.width
        y2[i] = pr.y + pr.rect.height
    return xs, ys, x2, y2


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
    strays), strip containment, pairwise non-overlap, then the constraints
    of the specific variant (precedence edges / release times).  Optionally
    enforces a height budget ``max_height``.
    """
    ids = {r.rid for r in instance.rects}
    placed_ids = {rid for rid, _ in placement.items()}
    missing = ids - placed_ids
    if missing:
        raise InvalidPlacementError(f"{len(missing)} rectangles unplaced, e.g. {next(iter(missing))!r}")
    stray = placed_ids - ids
    if stray:
        raise InvalidPlacementError(f"placement contains unknown ids, e.g. {next(iter(stray))!r}")

    by_id = instance.by_id()
    for rid, pr in placement.items():
        r = by_id[rid]
        if pr.rect is not r and pr.rect != r:
            raise InvalidPlacementError(
                f"rectangle {rid!r} was placed with altered dimensions "
                f"({pr.rect} != {r})"
            )

    pairs = list(placement.items())
    if len(pairs) >= _COLUMNAR_MIN_N:
        _validate_columnar(instance, placement, pairs, atol, max_height)
        return

    for rid, pr in pairs:
        if tol.lt(pr.x, 0.0, atol) or tol.gt(pr.x2, 1.0, atol):
            raise InvalidPlacementError(
                f"rectangle {rid!r} sticks out horizontally: x in [{pr.x:.6g}, {pr.x2:.6g}]"
            )
        if tol.lt(pr.y, 0.0, atol):
            raise InvalidPlacementError(f"rectangle {rid!r} below the strip base: y={pr.y:.6g}")
        if max_height is not None and tol.gt(pr.y2, max_height, atol):
            raise InvalidPlacementError(
                f"rectangle {rid!r} exceeds height budget {max_height:g}: top={pr.y2:.6g}"
            )

    bad = find_overlap((pr for _, pr in pairs), atol)
    if bad is not None:
        _raise_overlap(*bad)

    if isinstance(instance, PrecedenceInstance):
        for u, v in instance.dag.edges():
            pu, pv = placement[u], placement[v]
            if tol.gt(pu.y2, pv.y, atol):
                _raise_precedence(u, v, pu, pv)

    if isinstance(instance, ReleaseInstance):
        for rid, pr in pairs:
            if tol.lt(pr.y, pr.rect.release, atol):
                _raise_release(rid, pr)


def _raise_containment(
    check: int, pair: tuple[Node, PlacedRect], max_height: float | None
) -> None:
    """Containment error messages of the columnar checks 0/1/2
    (horizontal, below-base, height budget)."""
    rid, pr = pair
    if check == 0:
        raise InvalidPlacementError(
            f"rectangle {rid!r} sticks out horizontally: x in [{pr.x:.6g}, {pr.x2:.6g}]"
        )
    if check == 1:
        raise InvalidPlacementError(f"rectangle {rid!r} below the strip base: y={pr.y:.6g}")
    raise InvalidPlacementError(
        f"rectangle {rid!r} exceeds height budget {max_height:g}: top={pr.y2:.6g}"
    )


def _raise_overlap(a: PlacedRect, b: PlacedRect) -> None:
    raise InvalidPlacementError(
        f"rectangles {a.rect.rid!r} and {b.rect.rid!r} overlap: "
        f"[{a.x:.4g},{a.x2:.4g}]x[{a.y:.4g},{a.y2:.4g}] vs "
        f"[{b.x:.4g},{b.x2:.4g}]x[{b.y:.4g},{b.y2:.4g}]"
    )


def _raise_precedence(u: Node, v: Node, pu: PlacedRect, pv: PlacedRect) -> None:
    raise InvalidPlacementError(
        f"precedence violated: top({u!r})={pu.y2:.6g} > base({v!r})={pv.y:.6g}"
    )


def _raise_release(rid: Node, pr: PlacedRect) -> None:
    raise InvalidPlacementError(
        f"release violated: {rid!r} starts at {pr.y:.6g} < r={pr.rect.release:.6g}"
    )


def _validate_columnar(
    instance: StripPackingInstance,
    placement: Placement,
    pairs: list[tuple[Node, PlacedRect]],
    atol: float,
    max_height: float | None,
) -> None:
    """Vectorized containment/overlap/precedence/release checks.

    Every comparison is the elementwise image of the scalar tolerance
    predicate (``tol.lt(a, b)`` becomes ``a < b - atol`` on whole
    columns), so the accept/reject outcome matches the scalar path
    exactly; only *which* offender is reported may differ when a
    placement violates several constraints at once.
    """
    import numpy as np

    xs, ys, x2, y2 = _placement_columns(pairs)

    viol = (xs < 0.0 - atol) | (x2 > 1.0 + atol)
    i = int(viol.argmax())
    if viol[i]:
        _raise_containment(0, pairs[i], max_height)
    viol = ys < 0.0 - atol
    i = int(viol.argmax())
    if viol[i]:
        _raise_containment(1, pairs[i], max_height)
    if max_height is not None:
        viol = y2 > max_height + atol
        i = int(viol.argmax())
        if viol[i]:
            _raise_containment(2, pairs[i], max_height)

    bad = find_overlap_columns(xs, ys, x2, y2, atol)
    if bad is not None:
        _raise_overlap(pairs[bad[0]][1], pairs[bad[1]][1])

    if isinstance(instance, PrecedenceInstance):
        edges = list(instance.dag.edges())
        if edges:
            pos = {rid: i for i, (rid, _) in enumerate(pairs)}
            ui = np.fromiter((pos[u] for u, _ in edges), np.intp, count=len(edges))
            vi = np.fromiter((pos[v] for _, v in edges), np.intp, count=len(edges))
            viol = y2[ui] > ys[vi] + atol
            k = int(viol.argmax())
            if viol[k]:
                u, v = edges[k]
                _raise_precedence(u, v, placement[u], placement[v])

    if isinstance(instance, ReleaseInstance):
        rel = np.fromiter((pr.rect.release for _, pr in pairs), float, count=len(pairs))
        viol = ys < rel - atol
        i = int(viol.argmax())
        if viol[i]:
            rid, pr = pairs[i]
            _raise_release(rid, pr)
