"""Batch and portfolio execution on top of the engine runner.

Two plain in-process loops over :func:`~repro.engine.runner.run`:

* :func:`solve_many` — a stream of instances through one algorithm (or the
  per-variant default), with reports in input order.
* :func:`portfolio` — one instance raced across a set of specs; the
  winner is the minimum-height *valid* placement (candidate order breaks
  ties, so the winner is deterministic).  Per-spec failures are captured
  as error reports instead of aborting the race, so one brittle
  candidate never loses the answer.

The solvers are sequential pure Python, so neither loop takes a pool:
threads would queue on the interpreter lock, and processes would pay for
spawn and pickling.  The service scales by worker process instead
(:mod:`repro.service.router`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.errors import InvalidInstanceError, ReproError
from ..core.instance import StripPackingInstance
from .report import SolveReport
from .runner import run
from .spec import get_spec, specs_for_variant, variant_of

__all__ = [
    "solve_many",
    "portfolio",
    "portfolio_entrants",
    "PortfolioResult",
]


def _solve_one(
    instance: StripPackingInstance,
    algorithm: str | None,
    label: str,
    *,
    params: Mapping[str, Any] | None,
    validate: bool,
    compute_bounds: bool,
    strict: bool,
) -> SolveReport:
    try:
        return run(
            instance,
            algorithm,
            params=params,
            validate=validate,
            compute_bounds=compute_bounds,
            label=label,
        )
    except ReproError as exc:
        if strict:
            raise
        return SolveReport(
            algorithm=algorithm or "default",
            variant=variant_of(instance),
            n=len(instance),
            error=f"{type(exc).__name__}: {exc}",
            label=label,
        )


def _race_one(
    instance: StripPackingInstance,
    name: str,
    overrides: Mapping[str, Any] | None,
    compute_bounds: bool,
) -> SolveReport:
    try:
        return run(
            instance,
            name,
            params=overrides,
            validate=True,
            compute_bounds=compute_bounds,
            label=name,
        )
    except ReproError as exc:
        return SolveReport(
            algorithm=name,
            variant=variant_of(instance),
            n=len(instance),
            params=get_spec(name).resolve_params(overrides),
            error=f"{type(exc).__name__}: {exc}",
            label=name,
        )


def solve_many(
    instances: Iterable[StripPackingInstance],
    algorithm: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    validate: bool = True,
    compute_bounds: bool = True,
    labels: Sequence[str] | None = None,
    strict: bool = True,
) -> list[SolveReport]:
    """Solve every instance, returning reports in input order.

    ``labels`` (parallel to ``instances``) tags each report, e.g. with the
    source file name; it defaults to the input positions.  With
    ``strict=False`` a per-instance
    :class:`~repro.core.errors.ReproError` (e.g. forcing a release-only
    algorithm onto a plain instance) becomes an error report instead of
    aborting the whole batch — the mode the CLI serves with.
    """
    items = list(instances)
    if labels is None:
        labels = [str(i) for i in range(len(items))]
    elif len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} instances")
    return [
        _solve_one(
            inst,
            algorithm,
            label,
            params=params,
            validate=validate,
            compute_bounds=compute_bounds,
            strict=strict,
        )
        for inst, label in zip(items, labels)
    ]


@dataclass(frozen=True)
class PortfolioResult:
    """All race entrants plus the winner (``None`` when nothing validated)."""

    reports: tuple[SolveReport, ...]
    best: SolveReport | None

    @property
    def heights(self) -> dict[str, float]:
        """algorithm -> achieved height (failed entrants excluded)."""
        return {r.algorithm: r.height for r in self.reports if r.error is None}


def portfolio_entrants(
    instance: StripPackingInstance,
    algorithms: Sequence[str] | None = None,
    params: Mapping[str, Mapping[str, Any]] | None = None,
) -> list[tuple[str, Mapping[str, Any] | None]]:
    """A race's entrants as ``(name, overrides)`` pairs, in race order.

    ``algorithms`` defaults to every spec that supports the instance's
    variant and accepts the instance.  ``overrides`` is the entrant's
    non-empty entry in ``params``, else ``None``: an empty entry, or one
    for an algorithm that is not racing, changes nothing.
    """
    if algorithms is None:
        variant = variant_of(instance)
        names = [s.name for s in specs_for_variant(variant) if s.accepts(instance)]
    else:
        names = [get_spec(a).name for a in algorithms]
    if not names:
        raise InvalidInstanceError("portfolio has no candidate algorithms")
    return [(name, (params or {}).get(name) or None) for name in names]


def portfolio(
    instance: StripPackingInstance,
    algorithms: Sequence[str] | None = None,
    *,
    params: Mapping[str, Mapping[str, Any]] | None = None,
    compute_bounds: bool = True,
) -> PortfolioResult:
    """Race a set of algorithms on one instance; best valid placement wins.

    The entrants are :func:`portfolio_entrants`; ``params`` maps
    algorithm name to that entrant's parameter overrides.  Validation is
    always on — an invalid placement must never win a race.
    """
    reports = [
        _race_one(instance, name, overrides, compute_bounds)
        for name, overrides in portfolio_entrants(instance, algorithms, params)
    ]

    valid = [(i, r) for i, r in enumerate(reports) if r.valid]
    best = min(valid, key=lambda ir: (ir[1].height, ir[0]))[1] if valid else None
    return PortfolioResult(reports=tuple(reports), best=best)
