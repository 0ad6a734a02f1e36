"""Problem-instance types for the three variants studied in the paper.

* :class:`StripPackingInstance` — classical strip packing (the substrate);
* :class:`PrecedenceInstance`   — Section 2: a DAG constrains vertical order;
* :class:`ReleaseInstance`      — Section 3: per-rectangle release times,
  with the paper's standard assumptions (heights at most 1, widths at least
  ``1/K``) checked by :meth:`ReleaseInstance.check_aptas_assumptions`.

Instances are immutable containers: algorithms read them and return
:class:`~repro.core.placement.Placement` objects; the shared validators in
:mod:`repro.core.placement` check every constraint an instance carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Sequence

from ..dag.graph import TaskDAG
from ..dag.validate import check_same_universe
from .errors import InvalidInstanceError
from .rectangle import Rect, check_rects, max_height, total_area

__all__ = [
    "StripPackingInstance",
    "PrecedenceInstance",
    "ReleaseInstance",
]

Node = Hashable


@dataclass(frozen=True)
class StripPackingInstance:
    """Classical strip packing: rectangles in a width-1 strip, no rotation.

    The strip width is always normalised to 1; callers modelling a K-column
    device express column counts as widths ``c/K``
    (see :mod:`repro.fpga.device`).
    """

    rects: tuple[Rect, ...]

    def __init__(self, rects: Sequence[Rect]):
        object.__setattr__(self, "rects", tuple(rects))
        check_rects(self.rects)

    # -- shared helpers -------------------------------------------------
    def __len__(self) -> int:
        return len(self.rects)

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.rects)

    def by_id(self) -> Mapping[Node, Rect]:
        """Mapping id -> rectangle."""
        return {r.rid: r for r in self.rects}

    def arrays(self):
        """Columnar view of the rectangles (built once, then cached).

        Returns the instance's :class:`~repro.core.arrays.RectArrays` —
        parallel ``width``/``height``/``release`` numpy columns over
        ``self.rects``.  Kernels and validators that batch over the whole
        instance read these columns instead of walking ``Rect`` objects;
        the cache means repeated solves (portfolio races, benchmark
        repetitions) share one copy.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            from .arrays import RectArrays

            cached = RectArrays(self.rects)
            object.__setattr__(self, "_arrays", cached)
        return cached

    def heights(self) -> dict[Node, float]:
        """Mapping id -> height (used by DAG critical-path computations)."""
        return {r.rid: r.height for r in self.rects}

    @property
    def area(self) -> float:
        """``AREA(S)`` — sum of rectangle areas (elementary lower bound)."""
        return total_area(self.rects)

    @property
    def hmax(self) -> float:
        """Maximum rectangle height (elementary lower bound)."""
        return max_height(self.rects)

    def subset(self, ids: Sequence[Node]) -> "StripPackingInstance":
        """Instance restricted to the given rectangle ids (order of ``ids``)."""
        by_id = self.by_id()
        return StripPackingInstance([by_id[i] for i in ids])


@dataclass(frozen=True)
class PrecedenceInstance(StripPackingInstance):
    """Strip packing with precedence constraints (Section 2).

    ``dag`` must be over exactly the rectangle ids; an edge ``(s, s')``
    requires ``y_s + h_s <= y_{s'}`` in any valid placement.
    """

    dag: TaskDAG = field(default=None)  # type: ignore[assignment]

    def __init__(self, rects: Sequence[Rect], dag: TaskDAG):
        StripPackingInstance.__init__(self, rects)
        check_same_universe(dag, (r.rid for r in self.rects))
        object.__setattr__(self, "dag", dag)

    @classmethod
    def without_constraints(cls, rects: Sequence[Rect]) -> "PrecedenceInstance":
        """Wrap plain rectangles in an edgeless DAG."""
        return cls(rects, TaskDAG.empty([r.rid for r in rects]))

    def uniform_height(self) -> bool:
        """Whether all rectangles share one height (the Section 2.2 case)."""
        hs = {r.height for r in self.rects}
        return len(hs) <= 1

    def induced(self, ids: Sequence[Node]) -> "PrecedenceInstance":
        """Sub-instance on ``ids`` with the induced precedence subgraph."""
        by_id = self.by_id()
        return PrecedenceInstance([by_id[i] for i in ids], self.dag.induced(ids))


@dataclass(frozen=True)
class ReleaseInstance(StripPackingInstance):
    """Strip packing with release times (Section 3).

    Every rectangle carries its release in ``Rect.release``; ``K`` records
    the column count of the motivating FPGA (used only to *check* the width
    assumption ``w >= 1/K`` — algorithms read widths directly).
    """

    K: int = 0

    def __init__(self, rects: Sequence[Rect], K: int):
        if K <= 0:
            raise InvalidInstanceError(f"K must be a positive integer, got {K!r}")
        StripPackingInstance.__init__(self, rects)
        object.__setattr__(self, "K", int(K))

    @property
    def rmax(self) -> float:
        """Largest release time — itself a lower bound on any solution when
        some rectangle is released then (its top sits above ``rmax``)."""
        return max((r.release for r in self.rects), default=0.0)

    def release_classes(self) -> dict[float, list[Rect]]:
        """Rectangles grouped by release time, keys ascending."""
        groups: dict[float, list[Rect]] = {}
        for r in self.rects:
            groups.setdefault(r.release, []).append(r)
        return dict(sorted(groups.items()))

    def check_aptas_assumptions(self) -> None:
        """Enforce the paper's standard assumptions for the APTAS:
        ``h_s <= 1`` and ``w_s in [1/K, 1]`` for every rectangle."""
        lo = 1.0 / self.K
        for r in self.rects:
            if r.height > 1.0 + 1e-12:
                raise InvalidInstanceError(
                    f"APTAS requires heights <= 1; rect {r.rid!r} has h={r.height!r}"
                )
            if r.width < lo - 1e-12:
                raise InvalidInstanceError(
                    f"APTAS requires widths >= 1/K = {lo:g}; rect {r.rid!r} has w={r.width!r}"
                )

    def with_rects(self, rects: Sequence[Rect]) -> "ReleaseInstance":
        """Same ``K``, new rectangles (used by the Section 3 reductions)."""
        return ReleaseInstance(rects, self.K)
