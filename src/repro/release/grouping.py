"""Lemma 3.2 — bounding the number of distinct widths (linear grouping).

The instance ``P(R)`` is partitioned into release classes ``P_i`` (all
rectangles released at ``rho_i``).  Per class, build the *stacking* (the
rectangles left-justified, non-increasing width bottom-up, Fig. 3) and cut
it with ``G = W / n_classes`` horizontal lines at heights
``l * H(P_i) / G``.  A rectangle is a **threshold** rectangle when a cut
line passes through its interior or aligns with its base; thresholds start
*groups*, and every rectangle's width is rounded up to its group's threshold
width ``w_{i,l}``.

The resulting ``P(R,W)`` has at most ``G`` distinct widths per class —
``W`` in total — and the containment chain of Fig. 4::

    P_inf ⊆ P(R) ⊆ P(R,W) ⊆ P_sup

(with ``P_inf``/``P_sup`` the ``G``-rectangle staircase under/over-
approximations) yields::

    OPT_f(P(R,W)) <= (1 + K * n_classes / W) * OPT_f(P(R))

because ``P_sup`` exceeds ``P_inf`` by one ``H(P_i) * (R+1)/W`` slab of
width <= 1 per class and the width floor ``1/K`` converts stacked height to
area: ``H(P(R))/K <= AREA <= OPT_f``.

The grouping runs on row indices (:func:`group_rows`): one ``lexsort``
orders every class's stacking, a sequential ``cumsum`` per class gives the
bases, and each rectangle finds the first cut at or above its base
arithmetically — no list of ``G`` cuts is built, so its time and memory
no longer grow with ``W`` (O(n log n) per call).  :class:`GroupingResult`
builds ``P(R,W)``, the per-class :class:`GroupedClass` records and the
proof-only ``P_sup``/``P_inf`` staircases (``G`` slabs per class) on first
access; :class:`GroupedClass` builds its ``stacking`` on first access too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core import tol
from ..core.arrays import RectArrays
from ..core.errors import InvalidInstanceError
from ..core.instance import ReleaseInstance
from ..core.rectangle import Rect
from ..geometry.stacking import Stacking
from .rounding import with_column

__all__ = ["GroupedClass", "GroupingResult", "RowGrouping", "group_rows", "group_widths"]


@dataclass(frozen=True)
class RowGrouping:
    """Lemma 3.2 on row indices — what :func:`group_rows` computes.

    ``order`` lists the rows class by class (releases ascending), each
    class in stacking order; class ``c`` owns ``order[bounds[c]:bounds[c+1]]``
    and is released at ``releases[c]``.  Per stacking position ``k``:
    ``tops[k]`` is the stacked height at the rectangle's top (sequential
    sums from 0 within its class) and ``starts[k]`` whether it is a
    threshold rectangle.  ``width`` is the grouped width column of
    ``P(R,W)``, in row order.
    """

    G: int
    releases: tuple[float, ...]
    order: np.ndarray
    bounds: np.ndarray
    tops: np.ndarray
    starts: np.ndarray
    width: np.ndarray


def _first_cut_at_or_above(lower: np.ndarray, H: float, G: int) -> np.ndarray:
    """Per entry, the least ``ell`` in ``[0, G]`` with ``ell * H / G >=
    lower`` (``G`` when no cut qualifies).

    The arithmetic estimate is off by at most a step or two of rounding;
    the loops settle it against the exact float expression the cut list
    would hold (``ell * H / G`` is non-decreasing in ``ell``).
    """
    ell = np.clip(np.ceil(lower / H * G), 0.0, float(G))
    while True:
        down = (ell > 0.0) & ((ell - 1.0) * H / G >= lower)
        if not down.any():
            break
        ell[down] -= 1.0
    while True:
        up = (ell < G) & (ell * H / G < lower)
        if not up.any():
            return ell
        ell[up] += 1.0


def group_rows(arrays: RectArrays, release: np.ndarray, W: int) -> RowGrouping:
    """Apply the Lemma 3.2 grouping to the rows of ``arrays`` released at
    ``release`` (a column — Algorithm 2 passes the rounded one).

    Stacking order per class is non-increasing width, then height, then
    the string form of the id (``arrays.sid_rank()``), as in
    :func:`repro.geometry.stacking.stack`.  A rectangle with base ``y``
    and top ``t`` starts a group exactly when the first cut at or above
    ``y - ATOL`` lies below ``t - ATOL`` — the rectangles a walk over the
    cut list would flag — and the first rectangle of a class always does.
    """
    values, first, cls = np.unique(release, return_index=True, return_inverse=True)
    n_classes = max(1, len(values))
    if W <= 0 or W % n_classes != 0:
        raise InvalidInstanceError(
            f"W must be a positive multiple of the number of release classes "
            f"({n_classes}), got {W}"
        )
    G = W // n_classes
    width, height = arrays.width, arrays.height
    order = np.lexsort((arrays.sid_rank(), -height, -width, cls))
    bounds = np.zeros(len(values) + 1, dtype=np.intp)
    np.cumsum(np.bincount(cls, minlength=len(values)), out=bounds[1:])

    tops = np.empty(len(order))
    starts = np.zeros(len(order), dtype=bool)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        top = np.cumsum(height[order[lo:hi]])
        base = np.concatenate(([0.0], top[:-1]))
        H = float(top[-1])
        ell = _first_cut_at_or_above(base - tol.ATOL, H, G)
        starts[lo:hi] = (ell < G) & (ell * H / G < top - tol.ATOL)
        starts[lo] = True
        tops[lo:hi] = top

    # Each rectangle takes the width of the last threshold at or below it
    # in its class's stacking (every class opens with a threshold).
    sorted_width = width[order]
    last_start = np.maximum.accumulate(np.where(starts, np.arange(len(order)), 0))
    rounded = sorted_width[last_start]
    if not (rounded >= sorted_width - tol.ATOL).all():
        raise AssertionError("grouping must round widths up")
    grouped = np.empty(len(order))
    grouped[order] = np.minimum(1.0, rounded)
    n_distinct = len(np.unique(grouped))
    if n_distinct > W:
        raise AssertionError(f"grouping produced {n_distinct} widths > budget {W}")
    return RowGrouping(
        G=G,
        releases=tuple(release[first].tolist()),
        order=order,
        bounds=bounds,
        tops=tops,
        starts=starts,
        width=grouped,
    )


@dataclass(frozen=True)
class GroupedClass:
    """Grouping outcome for one release class.

    ``group_of`` maps rid -> group index; ``thresholds`` holds the group
    widths ``w_{i,l}`` in stacking order (non-increasing).  ``stacking``
    (the class's Fig. 3 stacking) is built on first access.
    """

    release: float
    thresholds: tuple[float, ...]
    group_of: dict
    #: ``(bases, heights, widths)`` of the stacking steps, bottom-up.
    steps: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def stacking(self) -> Stacking:
        bases, heights, widths = (column.tolist() for column in self.steps)
        return Stacking(tuple(zip(bases, heights, widths)))

    @property
    def n_groups(self) -> int:
        return len(self.thresholds)


class GroupingResult:
    """Outcome of the Lemma 3.2 reduction.

    ``instance`` is ``P(R,W)`` (same rids, widths rounded up);
    ``classes`` holds one :class:`GroupedClass` per release class;
    ``sup_rects``/``inf_rects`` realise the ``P_sup``/``P_inf`` staircase
    instances used by the containment proof (ids are synthetic).  All four
    are built from ``rows`` (the :class:`RowGrouping` of ``source``, the
    ``P(R)`` instance) on first access.
    """

    def __init__(self, rows: RowGrouping, source: ReleaseInstance):
        self.rows = rows
        self.source = source

    @property
    def n_distinct_widths(self) -> int:
        return len(np.unique(self.rows.width))

    @cached_property
    def instance(self) -> ReleaseInstance:
        return with_column(self.source, "width", self.rows.width)

    def _class_slices(self):
        """Per class: its index, release, and its slices of ``order``,
        ``tops`` and ``starts`` (stacking order)."""
        rows = self.rows
        bounds = rows.bounds.tolist()
        for c, release in enumerate(rows.releases):
            lo, hi = bounds[c], bounds[c + 1]
            yield c, release, rows.order[lo:hi], rows.tops[lo:hi], rows.starts[lo:hi]

    @cached_property
    def classes(self) -> tuple[GroupedClass, ...]:
        arrays = self.source.arrays()
        rects = arrays.rects
        out = []
        for _, release, order, tops, starts in self._class_slices():
            widths = arrays.width[order]
            group = np.cumsum(starts) - 1
            out.append(
                GroupedClass(
                    release=release,
                    thresholds=tuple(widths[starts].tolist()),
                    group_of={
                        rects[row].rid: g for row, g in zip(order.tolist(), group.tolist())
                    },
                    steps=(np.concatenate(([0.0], tops[:-1])), arrays.height[order], widths),
                )
            )
        return tuple(out)

    @cached_property
    def _staircases(self) -> tuple[tuple[Rect, ...], tuple[Rect, ...]]:
        # P_sup / P_inf: G slabs of height H/G per class.  Sup slab l takes
        # the stacking's width at its bottom cut (over-approximation), inf
        # slab l the width at its top cut (under-approximation; the top of
        # the last slab is H, width 0, so that slab is omitted).
        G = self.rows.G
        widths_of = self.source.arrays().width
        sup: list[Rect] = []
        inf: list[Rect] = []
        for c, release, order, tops, _ in self._class_slices():
            H = float(tops[-1])
            cuts = np.arange(G) * H / G
            # Width profile at y: the step whose [base, top) holds y.
            step = np.searchsorted(tops, cuts, side="right")
            profile = np.append(widths_of[order], 0.0)[step].tolist()
            slab_h = H / G
            for ell, w_sup in enumerate(profile):
                sup.append(Rect(rid=f"sup:{c}:{ell}", width=w_sup, height=slab_h, release=release))
            for ell, w_inf in enumerate(profile[1:]):
                if w_inf > 0.0:
                    inf.append(
                        Rect(rid=f"inf:{c}:{ell}", width=w_inf, height=slab_h, release=release)
                    )
        return tuple(sup), tuple(inf)

    @property
    def sup_rects(self) -> tuple[Rect, ...]:
        return self._staircases[0]

    @property
    def inf_rects(self) -> tuple[Rect, ...]:
        return self._staircases[1]


def group_widths(instance: ReleaseInstance, W: int) -> GroupingResult:
    """Apply the Lemma 3.2 grouping with a budget of ``W`` distinct widths.

    ``W`` must be a positive multiple of the number of release classes
    (the paper requires ``W`` to be an integer multiple of ``R + 1``).
    """
    arrays = instance.arrays()
    return GroupingResult(group_rows(arrays, arrays.release, W), instance)
