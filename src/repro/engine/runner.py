"""The engine's single-instance entry point: :func:`run`.

``run`` is what :func:`repro.solve` shims onto: resolve the spec (or the
variant default), merge default parameters, time the solver call, compute
the elementary lower bounds, validate, and hand back one
:class:`~repro.engine.report.SolveReport`.

Timing discipline: only the runner call sits inside the timer — bound
computation and validation happen outside it, so benchmark wall-times stay
pure (the convention every existing harness follows).
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..core.bounds import (
    area_bound,
    critical_path_bound,
    hmax_bound,
    release_bound,
)
from ..core.errors import InvalidPlacementError
from ..core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from ..core.placement import validate_placement
from ..obs.spans import record_span
from .report import SolveReport
from .spec import default_algorithm, get_spec, variant_of

__all__ = ["run", "bound_components"]


def bound_components(instance: StripPackingInstance) -> dict[str, float]:
    """Every elementary lower bound that applies to ``instance``, by name."""
    comps = {"area": area_bound(instance), "hmax": hmax_bound(instance)}
    if isinstance(instance, PrecedenceInstance):
        comps["critical_path"] = critical_path_bound(instance)
    if isinstance(instance, ReleaseInstance):
        comps["release"] = release_bound(instance)
    return comps


def run(
    instance: StripPackingInstance,
    algorithm: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    validate: bool = True,
    compute_bounds: bool = True,
    label: str = "",
) -> SolveReport:
    """Solve ``instance`` and return the instrumented :class:`SolveReport`.

    ``params`` overrides the spec's defaults key-by-key.  ``validate=False``
    skips the validity check (``report.valid`` stays ``None``);
    ``compute_bounds=False`` skips lower bounds (``report.ratio`` is then
    ``None``) for hot batch paths that only need heights.

    Solver errors propagate — batch/portfolio callers that want to survive
    them use :func:`repro.engine.batch.portfolio`, which catches per-spec.
    """
    name = algorithm or default_algorithm(instance)
    spec = get_spec(name)
    spec.check_instance(instance)
    merged = spec.resolve_params(params)

    # When a trace is ambient (a traced caller on this thread, or the
    # service's solver thread solving a request), every engine phase
    # becomes a span.  Observation happens strictly outside the timed region and
    # never reaches the solve or the report.
    t0 = time.perf_counter()
    placement = spec.runner(instance, **merged)
    wall = time.perf_counter() - t0
    record_span("engine.solve", time.monotonic() - wall, wall, algorithm=name)

    t1 = time.monotonic()
    bounds = bound_components(instance) if compute_bounds else {}
    # combined_lower_bound(instance) is exactly the max of these components;
    # taking it from them avoids evaluating every bound twice per solve.
    lb = max(bounds.values()) if compute_bounds else None
    if compute_bounds:
        record_span("engine.bounds", t1, time.monotonic() - t1)

    t2 = time.monotonic()
    valid: bool | None = None
    error: str | None = None
    if validate:
        try:
            validate_placement(instance, placement)
            valid = True
        except InvalidPlacementError as exc:
            valid = False
            error = str(exc)
        record_span("engine.validate", t2, time.monotonic() - t2)

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
        valid=valid,
        error=error,
        label=label,
    )
