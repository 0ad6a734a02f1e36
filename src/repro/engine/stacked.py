"""Batched stacked-instance solving for the level packers.

:func:`repro.engine.batch.solve_many` dispatches K instances as K
independent ``run()`` calls — K sorts, K kernel entries, K rounds of
Python dispatch.  For the level packers (NFDH/FFDH/BFDH) the per-instance
work is a sort plus a linear scan, so at high K the dispatch overhead
rivals the algorithmic work.  This module collapses the batch: stack
every instance's columns into one :class:`~repro.core.arrays.StackedRectArrays`
arena, compute ONE stacked decreasing-height sort
(:func:`~repro.core.arrays.stacked_decreasing_order` — stability makes
each segment equal the per-instance order), and pack all K segments in a
single pass of :func:`~repro.geometry.levels.pack_levels` — the packers'
own level loop — over one reused :class:`~repro.geometry.levels.LevelArray`.

Report discipline: the output of :func:`solve_batched` is
**bit-identical** to K independent :func:`repro.engine.runner.run` calls
— same placements (``tests/test_batched_solve.py`` pins this
placement-for-placement), same bounds (computed per instance), same
validation verdicts.  Only ``wall_time`` differs by nature: it is the
batch pack time divided evenly across the K reports (timings are
measurements, not decisions).

Eligibility (:func:`batchable`): an explicit algorithm in
:data:`BATCHABLE`, no parameter overrides, and every instance of the plain
variant.
``solve_many(..., stacked=None)`` auto-engages this path on the serial
executor; the service micro-batcher inherits it through the same call.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.arrays import (
    PlacementBuilder,
    StackedRectArrays,
    stacked_decreasing_order,
)
from ..core.errors import InvalidInstanceError, InvalidPlacementError
from ..core.instance import StripPackingInstance
from ..core.placement import validate_placement
from ..geometry.levels import LEVEL_ALGORITHMS, LevelArray, pack_levels
from .report import SolveReport
from .runner import bound_components
from .spec import get_spec, variant_of

__all__ = ["BATCHABLE", "batchable", "portfolio_batch_names", "solve_batched"]

#: Algorithms the stacked arena can pack (the level packers).
BATCHABLE = LEVEL_ALGORITHMS


def batchable(
    instances: Sequence[StripPackingInstance],
    algorithm: str | None,
    params,
) -> bool:
    """Whether this exact (instances, algorithm, params) batch may take
    the stacked path without changing any report field but ``wall_time``."""
    if algorithm not in BATCHABLE or params:
        return False
    spec = get_spec(algorithm)
    return all(
        variant_of(inst) == "plain" and spec.accepts(inst) for inst in instances
    )


def portfolio_batch_names(
    instance: StripPackingInstance, names: Sequence[str], params
) -> list[str]:
    """The subset of portfolio entrants solvable in one stacked call
    (empty unless at least two qualify — one entrant gains nothing)."""
    if variant_of(instance) != "plain":
        return []
    picked = [
        n
        for n in names
        if n in BATCHABLE
        and not (params or {}).get(n)
        and get_spec(n).accepts(instance)
    ]
    return picked if len(picked) >= 2 else []


def solve_batched(
    instances: Sequence[StripPackingInstance],
    algorithms: str | Sequence[str],
    *,
    validate: bool = True,
    compute_bounds: bool = True,
    labels: Sequence[str] | None = None,
) -> list[SolveReport]:
    """Solve the whole batch through one stacked arena pass.

    ``algorithms`` is one :data:`BATCHABLE` name for the whole batch or a
    per-instance sequence (the portfolio path passes one name per
    entrant).  Callers gate on :func:`batchable`/:func:`portfolio_batch_names`
    first; this function re-checks and raises
    :class:`~repro.core.errors.InvalidInstanceError` on ineligible input
    rather than silently solving something else.
    """
    items = list(instances)
    K = len(items)
    names = [algorithms] * K if isinstance(algorithms, str) else list(algorithms)
    if len(names) != K:
        raise InvalidInstanceError(f"{len(names)} algorithms for {K} instances")
    if labels is not None and len(labels) != K:
        raise InvalidInstanceError(f"{len(labels)} labels for {K} instances")
    for name in names:
        if name not in BATCHABLE:
            raise InvalidInstanceError(
                f"algorithm {name!r} is not batchable; batchable: "
                + ", ".join(BATCHABLE)
            )
    specs = [get_spec(name) for name in names]
    for inst, spec in zip(items, specs):
        spec.check_instance(inst)
    merged = [spec.resolve_params(None) for spec in specs]

    t0 = time.perf_counter()
    stacked = StackedRectArrays([inst.arrays() for inst in items])
    order = stacked_decreasing_order(stacked)
    placements = []
    levels = LevelArray()
    for k in range(K):
        lo, hi = stacked.segment(k)
        builder = PlacementBuilder(stacked.parts[k])
        levels.reset()
        pack_levels(
            names[k], stacked.width, stacked.height, order[lo:hi],
            levels, builder, offset=lo,
        )
        placements.append(builder.build())
    wall = (time.perf_counter() - t0) / max(K, 1)

    reports = []
    for k, (inst, spec, placement) in enumerate(zip(items, specs, placements)):
        bounds = bound_components(inst) if compute_bounds else {}
        lb = max(bounds.values()) if compute_bounds else None
        valid: bool | None = None
        error: str | None = None
        if validate:
            try:
                validate_placement(inst, placement)
                valid = True
            except InvalidPlacementError as exc:
                valid = False
                error = str(exc)
        reports.append(
            SolveReport(
                algorithm=spec.name,
                variant=variant_of(inst),
                n=len(inst),
                params=merged[k],
                placement=placement,
                height=placement.height,
                wall_time=wall,
                lower_bound=lb,
                bounds=bounds,
                valid=valid,
                error=error,
                label=labels[k] if labels is not None else str(k),
            )
        )
    return reports
