"""Warm-start delta solving: repair a cached neighbor placement.

The paper's setting is online — instances arrive as small edits of their
predecessors — yet a content-addressed cache only helps when a request is
*byte-identical* to a cached one.  This module covers the gap: given a
cached ``(instance, placement)`` neighbor and a new instance that differs
from it by a rect-level delta (see
:func:`repro.core.serialize.instance_delta`), :func:`repair_placement`
keeps the surviving rectangles exactly where the neighbor placed them,
evicts the rects the delta touches, and re-packs just those with the
existing :func:`repro.packing.ffdh.ffdh` level kernel above the surviving
skyline.

:func:`warm_run` wraps the repair in the engine's reporting discipline and
**guarantees the δ bound unconditionally**: a repair is accepted only when
its height is ≤ ``(1 + delta) ×`` the instance's combined *lower bound*.
Since any cold solve is ≥ that lower bound, an accepted warm placement is
≤ ``(1 + delta) ×`` the cold height without ever running the cold solve —
otherwise the repair is discarded and :func:`repro.engine.runner.run`
answers cold.  Every accepted repair is re-validated against
:func:`repro.core.placement.validate_placement`, so a warm answer is never
less checked than a cold one.

Variant rules (anything outside them falls back to a cold solve):

* **plain** — always repairable;
* **release** — ``K`` must match; delta rects are packed at a base no
  lower than their largest release time, survivors keep positions that
  already satisfied theirs;
* **precedence** — survivor↔survivor edges must be a subset of the
  neighbor's edges (the neighbor placement already satisfies them), and
  edges touching delta rects must point *from* a survivor *to* a delta
  rect (delta rects are packed above every survivor, so such edges hold
  by construction).  Any other edge shape would need a constraint-aware
  re-pack, which is exactly a cold solve.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..core.errors import InvalidPlacementError
from ..core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from ..core.placement import Placement, validate_placement
from ..core.serialize import instance_delta
from ..packing.ffdh import ffdh
from .report import SolveReport
from .runner import bound_components, run
from .spec import default_algorithm, get_spec, variant_of

__all__ = ["DEFAULT_DELTA", "repair_placement", "try_warm", "warm_run"]

#: Default repair-quality gate: accept a warm repair only while its height
#: stays within ``(1 + DEFAULT_DELTA)`` of the instance's combined lower
#: bound.  0.75 admits typical shelf-quality placements (ratio ~1.1–1.6 on
#: the benchmark workloads) while rejecting degenerate repairs that stack
#: a large delta on top of a tall survivor skyline.
DEFAULT_DELTA = 0.75


def _edges_repairable(
    old: StripPackingInstance,
    new: StripPackingInstance,
    survivors: set,
    moved: set,
) -> bool:
    """Whether the new DAG's edges are satisfied by keep-survivors +
    pack-delta-above (see module docstring for the admissible shapes)."""
    if not isinstance(new, PrecedenceInstance):
        return True
    if not isinstance(old, PrecedenceInstance):
        return False
    old_edges = set(old.dag.edges())
    for u, v in new.dag.edges():
        if u in survivors and v in survivors:
            if (u, v) not in old_edges:
                return False
        elif not (u in survivors and v in moved):
            return False
    return True


def repair_placement(
    new_instance: StripPackingInstance,
    neighbor_instance: StripPackingInstance,
    neighbor_placement: Placement,
    *,
    validate: bool = True,
) -> Placement | None:
    """Repair ``neighbor_placement`` into a placement of ``new_instance``.

    Returns ``None`` when the pair is not repairable (incompatible
    variants, inadmissible precedence edges, an incomplete neighbor
    placement, or a repair that fails validation).  The returned placement
    references ``new_instance``'s own rect objects, so it composes with
    every downstream consumer exactly like a solver's output.
    """
    delta = instance_delta(neighbor_instance, new_instance)
    if not delta["compatible"]:
        return None
    survivors = set(delta["unchanged"])
    moved = set(delta["added"]) | set(delta["resized"])
    if not _edges_repairable(neighbor_instance, new_instance, survivors, moved):
        return None

    new_by_id = new_instance.by_id()
    placement = Placement()
    base = 0.0
    for rid in delta["unchanged"]:
        if rid not in neighbor_placement:
            return None  # incomplete neighbor: nothing trustworthy to keep
        anchor = neighbor_placement[rid]
        rect = new_by_id[rid]
        placement.place(rect, anchor.x, anchor.y)
        base = max(base, anchor.y + rect.height)

    delta_rects = [new_by_id[rid] for rid in sorted(moved, key=str)]
    if delta_rects:
        base = max(base, max(r.release for r in delta_rects))
        packed = ffdh(delta_rects, y=base)
        placement.merge(packed.placement)

    if validate:
        try:
            validate_placement(new_instance, placement)
        except InvalidPlacementError:
            return None
    return placement


def try_warm(
    instance: StripPackingInstance,
    algorithm: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    neighbor: tuple[StripPackingInstance, Placement],
    delta: float = DEFAULT_DELTA,
    label: str = "",
) -> SolveReport | None:
    """Attempt a warm-start repair from ``neighbor``; never solves cold.

    Returns ``None`` when the repair is refused (incompatible pair,
    failed validation) or exceeds the δ gate — the caller decides how to
    solve cold (directly, or on the serving layer's solver thread).  On
    success the report's ``provenance`` is ``"warm"``, or ``"cached"``
    when the delta is empty (the neighbor *is* the instance — verbatim
    placement reuse).
    """
    name = algorithm or default_algorithm(instance)
    spec = get_spec(name)
    spec.check_instance(instance)
    merged = spec.resolve_params(params)

    neighbor_instance, neighbor_placement = neighbor
    t0 = time.perf_counter()
    placement = repair_placement(instance, neighbor_instance, neighbor_placement)
    wall = time.perf_counter() - t0
    if placement is None:
        return None
    bounds = bound_components(instance)
    lb = max(bounds.values())
    if placement.height > (1.0 + delta) * lb:
        return None
    moved = instance_delta(neighbor_instance, instance)
    exact = not (moved["added"] or moved["removed"] or moved["resized"])
    return SolveReport(
        algorithm=name,
        variant=variant_of(instance),
        n=len(instance),
        params=merged,
        placement=placement,
        height=placement.height,
        wall_time=wall,
        lower_bound=lb,
        bounds=bounds,
        valid=True,
        label=label,
        provenance="cached" if exact else "warm",
    )


def warm_run(
    instance: StripPackingInstance,
    algorithm: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    neighbor: tuple[StripPackingInstance, Placement] | None = None,
    delta: float = DEFAULT_DELTA,
    label: str = "",
) -> SolveReport:
    """Solve ``instance``, warm-starting from ``neighbor`` when possible.

    ``neighbor`` is a ``(cached_instance, cached_placement)`` pair (for
    example resolved through
    :class:`repro.service.cache.NeighborIndex`).  The report's
    ``provenance`` says what happened: ``"warm"`` (repair accepted by the
    δ gate), ``"cached"`` (the neighbor *is* the instance — verbatim
    reuse), or ``"cold"`` (no neighbor, repair refused, or repair too
    tall — a full :func:`repro.engine.runner.run` answered).
    """
    if neighbor is not None:
        report = try_warm(
            instance,
            algorithm,
            params=params,
            neighbor=neighbor,
            delta=delta,
            label=label,
        )
        if report is not None:
            return report
    return run(instance, algorithm, params=params, label=label)
