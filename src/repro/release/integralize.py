"""Lemma 3.4 — converting a fractional LP solution to an integral packing.

For every positive variable ``x[q][j]`` (an *occurrence* of configuration
``q`` in phase ``j``) reserve a full-width slab; inside it every occurrence
of width ``w_i`` in ``q`` becomes a *column* of width ``w_i`` and capacity
``x[q][j]``.  Columns are greedily filled with whole rectangles of matching
width: the last rectangle may overflow the capacity by less than 1 (heights
are at most 1), the slab expands to cover its columns, and everything above
shifts up.  With ``k`` occurrences the final height is at most
``OPT_f + k``; Lemma 3.3 bounds ``k <= (W + 1)(R + 1)``, giving the additive
term of Theorem 3.5.

Rectangle-to-column assignment processes phases from *latest to earliest*
and always picks the available rectangle with the latest release (ties:
tallest first).  The suffix-covering constraints guarantee this greedy
assigns every rectangle (the classic staircase-transportation argument);
the implementation still verifies exhaustively and raises on any leftover.

The fill runs on row indices (:func:`fill_columns`) and writes the
placement into a :class:`~repro.core.arrays.PlacementBuilder`;
:class:`IntegralizeResult` builds its ``placement`` and the per-column
``columns`` trace on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from ..core import tol
from ..core.arrays import PlacementBuilder, RectArrays
from ..core.errors import InvalidPlacementError, SolverError
from ..core.instance import ReleaseInstance
from ..core.placement import Placement
from ..core.rectangle import Rect
from .fractional import FractionalSolution
from .lp import first_unmatched_row, match_rows

__all__ = ["ColumnFill", "IntegralizeResult", "fill_columns", "integralize"]

#: One filled column: ``(phase, config, width index, capacity, rows)``.
Fill = tuple[int, int, int, float, list[int]]


@dataclass(frozen=True)
class ColumnFill:
    """One column: which rectangles it received, bottom-up."""

    phase: int
    config: int
    width_index: int
    capacity: float
    rects: tuple[Rect, ...]

    @property
    def used_height(self) -> float:
        return sum(r.height for r in self.rects)


class IntegralizeResult:
    """Integral packing plus the per-column trace (for tests/rendering).

    ``placement`` (over ``builder.arrays``' rectangles) and ``columns``
    are built from the row-level fill on first access.
    """

    def __init__(self, builder: PlacementBuilder, fills: list[Fill], n_occurrences: int):
        self._builder = builder
        self._fills = fills
        self.n_occurrences = n_occurrences

    @cached_property
    def placement(self) -> Placement:
        return self._builder.build()

    @cached_property
    def columns(self) -> list[ColumnFill]:
        rects = self._builder.arrays.rects
        return [
            ColumnFill(
                phase=j,
                config=q,
                width_index=wi,
                capacity=h,
                rects=tuple(rects[row] for row in rows),
            )
            for j, q, wi, h, rows in self._fills
        ]

    @property
    def height(self) -> float:
        return self.placement.height

    def over(self, instance: ReleaseInstance) -> "IntegralizeResult":
        """The same fill read over ``instance``, a derived instance with
        the same rows (Algorithm 2 fills the rows of ``P`` and reports the
        placement of ``P(R,W)``)."""
        builder = self._builder.with_arrays(instance.arrays())
        return IntegralizeResult(builder, self._fills, self.n_occurrences)


def fill_columns(
    solution: FractionalSolution,
    width: np.ndarray,
    arrays: RectArrays,
    wi: np.ndarray,
    bj: np.ndarray,
) -> IntegralizeResult:
    """Lemma 3.4 on row indices: assign every row of ``arrays`` to a
    column and place it.

    ``width`` is the LP-shaped (grouped) width column, ``wi``/``bj`` each
    row's width and phase index in ``solution``; heights and the id
    tie-break come from ``arrays``, over whose rectangles the result's
    placement is built.
    """
    widths = solution.config_set.widths
    configs = solution.config_set.configs
    boundaries = solution.boundaries
    height = arrays.height.tolist()
    width_of = width.tolist()

    # Pools: per width index, per release phase (latest first), the rows
    # in ascending (height, id string) order, so pop() = tallest.
    order = np.lexsort((arrays.sid_rank(), arrays.height, bj, wi))
    pools: list[list[tuple[int, list[int]]]] = [[] for _ in widths]
    keys = zip(wi[order].tolist(), bj[order].tolist())
    for row, (i, j) in zip(order.tolist(), keys):
        pool = pools[i]
        if not pool or pool[-1][0] != j:
            pool.append((j, []))
        pool[-1][1].append(row)
    for pool in pools:
        pool.reverse()

    def take(i: int, max_phase: int) -> int | None:
        """Pop the available width-``i`` row with the latest release <=
        phase ``max_phase`` (then tallest)."""
        for j, rows in pools[i]:
            if j <= max_phase and rows:
                return rows.pop()
        return None

    support = solution.support()  # (phase, config, height), ascending phase

    # 1. assign rows to columns, phases descending, latest release first.
    assignments: dict[tuple[int, int, int, int], list[int]] = {}
    for j, q, h in sorted(support, key=lambda t: -t[0]):
        for i, cnt in enumerate(configs[q].counts):
            for occ in range(cnt):
                filled = 0.0
                got: list[int] = []
                while tol.lt(filled, h):
                    row = take(i, j)
                    if row is None:
                        break
                    got.append(row)
                    filled += height[row]
                assignments[(j, q, i, occ)] = got

    leftover = sum(len(rows) for pool in pools for _, rows in pool)
    if leftover:
        raise SolverError(
            f"{leftover} rectangles unassigned after greedy fill — covering "
            "constraints of the fractional solution do not hold"
        )

    # 2. realise the placement bottom-up, expanding reserved areas.
    builder = PlacementBuilder(arrays)
    fills: list[Fill] = []
    cur_top = 0.0
    for j, q, h in support:  # ascending phase, stable config order
        y0 = max(boundaries[j], cur_top)
        x_cursor = 0.0
        occ_top = y0
        for i, cnt in enumerate(configs[q].counts):
            for occ in range(cnt):
                rows = assignments.get((j, q, i, occ), [])
                y = y0
                for row in rows:
                    x = tol.clamp(x_cursor, 0.0, 1.0 - width_of[row])
                    if not (math.isfinite(x) and math.isfinite(y)):
                        raise InvalidPlacementError(
                            f"non-finite placement for {arrays.rects[row].rid!r}: ({x}, {y})"
                        )
                    builder.put(row, x, y)
                    y += height[row]
                fills.append((j, q, i, h, rows))
                occ_top = max(occ_top, y)
                x_cursor += widths[i]
        if tol.gt(x_cursor, 1.0):
            raise SolverError(f"configuration {q} wider than the strip: {x_cursor}")
        cur_top = occ_top
    return IntegralizeResult(builder, fills, len(support))


def integralize(
    solution: FractionalSolution,
    instance: ReleaseInstance,
) -> IntegralizeResult:
    """Convert ``solution`` into an integral placement of ``instance``.

    ``instance`` must be the same ``P(R,W)``-shaped instance the LP was
    built from: every rectangle's width must be one of the solution's width
    values and every release one of its phase boundaries.
    """
    arrays = instance.arrays()
    wi = match_rows(arrays.width, solution.config_set.widths)
    bj = match_rows(arrays.release, solution.boundaries)
    row = first_unmatched_row(wi, bj)
    if row is not None:
        r = arrays.rects[row]
        raise SolverError(
            f"rect {r.rid!r} (w={r.width}, r={r.release}) does not match the LP "
            "width/boundary structure — run the reductions first"
        )
    return fill_columns(solution, arrays.width, arrays, wi, bj)
