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
from dataclasses import dataclass, field
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
    "PortfolioResult",
]

#: The pluggable execution backends.
BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class Executor:
    """An ordered-``map`` execution strategy for embarrassingly parallel
    engine work (batch items, portfolio entrants).

    ``jobs`` is the worker count for the pooled backends (``None`` lets
    the pool pick its default); the serial backend ignores it.

    One-shot use needs no ceremony: :meth:`map` spins an ephemeral pool
    per call.  Long-lived callers (the service micro-batcher draining
    thousands of small batches) call :meth:`open` once to keep a
    persistent pool — pool startup, especially process fork/spawn, would
    otherwise dominate every micro-batch — and :meth:`close` on shutdown.
    """

    backend: str = "serial"
    jobs: int | None = None
    # Mutable pool handle on a frozen value object: the (backend, jobs)
    # identity stays immutable/hashable/comparable while the pool rides
    # along outside equality, like a cache.
    _pool: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidInstanceError(
                f"unknown backend {self.backend!r}; available: {', '.join(BACKENDS)}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise InvalidInstanceError(f"jobs must be >= 1, got {self.jobs}")

    def _make_pool(self):
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.jobs)
        return ProcessPoolExecutor(max_workers=self.jobs)

    def open(self) -> "Executor":
        """Start a persistent pool reused by every :meth:`map` (idempotent;
        a no-op for the serial backend).  Returns self for chaining."""
        if self.backend != "serial" and self._pool is None:
            object.__setattr__(self, "_pool", self._make_pool())
        return self

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        pool = self._pool
        if pool is not None:
            object.__setattr__(self, "_pool", None)
            pool.shutdown(wait=False, cancel_futures=True)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, results in input order.

        The process backend pickles ``fn`` and each item, so ``fn`` must
        be a module-level callable and items must be picklable.  A pooled
        backend always runs through its pool — even for one item or one
        worker — so an explicit ``backend="process"`` request really
        exercises the pickling path instead of silently degrading to
        in-process execution.  Runs on the persistent pool when
        :meth:`open` was called, on an ephemeral one otherwise.
        """
        items = list(items)
        if not items or self.backend == "serial":
            return [fn(it) for it in items]
        if self._pool is not None:
            return list(self._pool.map(fn, items))
        with self._make_pool() as pool:
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
    executor: Executor | None = None,
    stacked: bool | None = None,
) -> list[SolveReport]:
    """Solve every instance, returning reports in input order.

    ``backend``/``jobs`` select the :class:`Executor` (see
    :func:`resolve_executor`); passing a pre-built ``executor`` (e.g. one
    held open by the service micro-batcher) overrides both and reuses its
    persistent pool.  ``labels`` (parallel to ``instances``)
    tags each report, e.g. with the source file name.  With
    ``strict=False`` a per-instance
    :class:`~repro.core.errors.ReproError` (e.g. forcing a release-only
    algorithm onto a plain instance) becomes an error report instead of
    aborting the whole batch — the mode the CLI serves with.

    ``stacked`` controls the batched stacked-instance fast path
    (:mod:`repro.engine.stacked`): ``None`` (default) auto-engages it
    when eligible — serial executor, explicit level-packer algorithm, no
    parameter overrides, plain instances — ``False`` opts out, ``True``
    requires it (raising :class:`~repro.core.errors.InvalidInstanceError`
    when the batch is not stackable).  Reports from the stacked path are
    bit-identical to the per-instance path except for ``wall_time``.
    """
    items = list(instances)
    if labels is not None and len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} instances")
    if executor is None:
        executor = resolve_executor(backend, jobs)
    merged = None if params is None else dict(params)
    if stacked is not False and items and executor.backend == "serial":
        from .stacked import batchable, solve_batched

        if batchable(items, algorithm, merged):
            return solve_batched(
                items,
                algorithm,
                validate=validate,
                compute_bounds=compute_bounds,
                labels=labels,
            )
        if stacked:
            raise InvalidInstanceError(
                "stacked=True but the batch is not stackable (needs a serial "
                "executor, algorithm in nfdh/ffdh/bfdh with no parameter "
                "overrides, and plain instances)"
            )
    elif stacked:
        raise InvalidInstanceError(
            "stacked=True requires the serial executor and a non-empty batch"
        )
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
    return executor.map(_solve_one, tasks)


@dataclass(frozen=True)
class PortfolioResult:
    """All race entrants plus the winner (``None`` when nothing validated)."""

    reports: tuple[SolveReport, ...]
    best: SolveReport | None

    @property
    def heights(self) -> dict[str, float]:
        """algorithm -> achieved height (failed entrants excluded)."""
        return {r.algorithm: r.height for r in self.reports if r.error is None}


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

    ``algorithms`` defaults to every spec that supports the instance's
    variant and accepts the instance.  ``params`` maps algorithm name to
    that entrant's parameter overrides.  Validation is always on — an
    invalid placement must never win a race.
    """
    if algorithms is None:
        variant = variant_of(instance)
        names = [s.name for s in specs_for_variant(variant) if s.accepts(instance)]
    else:
        names = [get_spec(a).name for a in algorithms]
    if not names:
        raise InvalidInstanceError("portfolio has no candidate algorithms")

    executor = resolve_executor(backend, jobs)
    tasks = [
        (instance, name, (params or {}).get(name), compute_bounds) for name in names
    ]
    batch_names: list[str] = []
    if executor.backend == "serial":
        from .stacked import portfolio_batch_names

        batch_names = portfolio_batch_names(instance, names, params)
    if batch_names:
        # Level-packer entrants share one stacked arena pass; the rest
        # race individually.  Reports keep the entrant order.
        from .stacked import solve_batched

        by_name = dict(
            zip(
                batch_names,
                solve_batched(
                    [instance] * len(batch_names),
                    batch_names,
                    validate=True,
                    compute_bounds=compute_bounds,
                    labels=batch_names,
                ),
            )
        )
        rest = executor.map(
            _race_one, [t for t in tasks if t[1] not in by_name]
        )
        it = iter(rest)
        reports = [by_name[n] if n in by_name else next(it) for n in names]
    else:
        reports = executor.map(_race_one, tasks)

    valid = [(i, r) for i, r in enumerate(reports) if r.valid]
    best = min(valid, key=lambda ir: (ir[1].height, ir[0]))[1] if valid else None
    return PortfolioResult(reports=tuple(reports), best=best)
