"""Batch and portfolio execution on top of the engine runner.

Two serving-layer shapes:

* :func:`solve_many` — a stream of instances through one algorithm (or the
  per-variant default), optionally fanned out over an executor.  Results
  come back in input order regardless of the backend, and every solver in
  the library is deterministic, so serial and parallel runs are
  bit-identical.
* :func:`portfolio` — one instance raced across a set of specs; the
  winner is the minimum-height *valid* placement (candidate order breaks
  ties, so the winner is deterministic regardless of the backend).
  Per-spec failures are captured as error reports instead of aborting the
  race, so one brittle candidate never loses the answer.

Both fan out through the pluggable :class:`Executor` seam:

* ``serial`` — plain in-process mapping (the default);
* ``thread`` — a thread pool; cheap, shares instances read-only, works
  with non-picklable user ids, and buys overlap for the LP-heavy APTAS
  paths;
* ``process`` — a process pool; real CPU parallelism for the pure-Python
  solver loops.  Requires picklable instances/params (the work unit
  functions are module-level for exactly this reason) and is the seam a
  future sharding layer plugs into — a shard is just an executor whose
  workers live elsewhere.

``jobs`` keeps its historical meaning: with no explicit backend,
``jobs=None``/``jobs<=1`` runs serially and ``jobs=N>1`` uses a thread
pool of ``N`` workers, exactly as before the seam existed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import InvalidInstanceError, ReproError
from ..core.instance import StripPackingInstance
from .report import SolveReport
from .runner import run
from .spec import get_spec, specs_for_variant, variant_of

__all__ = [
    "BACKENDS",
    "Executor",
    "resolve_executor",
    "solve_many",
    "portfolio",
    "portfolio_entrants",
    "PortfolioResult",
]

#: The pluggable execution backends.
BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class Executor:
    """An ordered-``map`` execution strategy for embarrassingly parallel
    engine work (batch items, portfolio entrants).

    ``jobs`` is the worker count for the pooled backends (``None`` lets
    the pool pick its default); the serial backend ignores it.  Each
    :meth:`map` call runs on its own ephemeral pool.
    """

    backend: str = "serial"
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidInstanceError(
                f"unknown backend {self.backend!r}; available: {', '.join(BACKENDS)}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise InvalidInstanceError(f"jobs must be >= 1, got {self.jobs}")

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, results in input order.

        The process backend pickles ``fn`` and each item, so ``fn`` must
        be a module-level callable and items must be picklable.  A pooled
        backend always runs through its pool — even for one item or one
        worker — so an explicit ``backend="process"`` request really
        exercises the pickling path instead of silently degrading to
        in-process execution.
        """
        items = list(items)
        if not items or self.backend == "serial":
            return [fn(it) for it in items]
        if self.backend == "thread":
            pool = ThreadPoolExecutor(max_workers=self.jobs)
        else:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        with pool:
            return list(pool.map(fn, items))


def resolve_executor(backend: str | None = None, jobs: int | None = None) -> Executor:
    """Build the executor for a ``(backend, jobs)`` pair.

    ``backend=None`` keeps the historical ``jobs`` semantics: serial for
    ``jobs`` of ``None``/``<=1`` (including the legacy ``0`` meaning
    "serial"), a ``jobs``-wide thread pool otherwise.  With an explicit
    backend, ``jobs`` must be a positive worker count if given.
    """
    if backend is None:
        if jobs is None or jobs <= 1:
            return Executor("serial")
        return Executor("thread", jobs)
    return Executor(backend, jobs)


# ----------------------------------------------------------------------
# module-level work units (picklable for the process backend)
# ----------------------------------------------------------------------

def _solve_one(task: tuple) -> SolveReport:
    instance, algorithm, params, validate, compute_bounds, label, strict = task
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


def _race_one(task: tuple) -> SolveReport:
    instance, name, overrides, compute_bounds = task
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
        spec = get_spec(name)
        return SolveReport(
            algorithm=name,
            variant=variant_of(instance),
            n=len(instance),
            params=spec.resolve_params(overrides),
            error=f"{type(exc).__name__}: {exc}",
            label=name,
        )


def solve_many(
    instances: Iterable[StripPackingInstance],
    algorithm: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    jobs: int | None = None,
    backend: str | None = None,
    validate: bool = True,
    compute_bounds: bool = True,
    labels: Sequence[str] | None = None,
    strict: bool = True,
) -> list[SolveReport]:
    """Solve every instance, returning reports in input order.

    ``backend``/``jobs`` select the :class:`Executor` (see
    :func:`resolve_executor`).  ``labels`` (parallel to ``instances``)
    tags each report, e.g. with the source file name.  With
    ``strict=False`` a per-instance
    :class:`~repro.core.errors.ReproError` (e.g. forcing a release-only
    algorithm onto a plain instance) becomes an error report instead of
    aborting the whole batch — the mode the CLI serves with.
    """
    items = list(instances)
    if labels is not None and len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} instances")
    merged = None if params is None else dict(params)
    tasks = [
        (
            inst,
            algorithm,
            merged,
            validate,
            compute_bounds,
            labels[i] if labels is not None else str(i),
            strict,
        )
        for i, inst in enumerate(items)
    ]
    return resolve_executor(backend, jobs).map(_solve_one, tasks)


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
    jobs: int | None = None,
    backend: str | None = None,
    compute_bounds: bool = True,
) -> PortfolioResult:
    """Race a set of algorithms on one instance; best valid placement wins.

    The entrants are :func:`portfolio_entrants`; ``params`` maps
    algorithm name to that entrant's parameter overrides.  Validation is
    always on — an invalid placement must never win a race.
    """
    tasks = [
        (instance, name, overrides, compute_bounds)
        for name, overrides in portfolio_entrants(instance, algorithms, params)
    ]
    reports = resolve_executor(backend, jobs).map(_race_one, tasks)

    valid = [(i, r) for i, r in enumerate(reports) if r.valid]
    best = min(valid, key=lambda ir: (ir[1].height, ir[0]))[1] if valid else None
    return PortfolioResult(reports=tuple(reports), best=best)
