"""Executes a :class:`~repro.bench.spec.BenchSpec` into an artifact dict.

For every size in the sweep the runner builds the workload once (seeded
from the spec), runs each entry's warmup on that shared input, then times
the entries round-robin: each repetition times every entry once, in spec
order, before the next begins — so a host phase change (CPU frequency,
a noisy neighbour) shifts every entry alike rather than one entry's whole
sample, and a committed speedup ratio reads the code, not the host:

* ``engine`` entries go through :func:`repro.engine.run`; the recorded
  time is the report's ``wall_time`` (pure solver time — bounds and
  validation stay outside the timer, per the engine's timing discipline),
  and the final repetition also contributes height/ratio/valid metrics;
* ``sim`` entries stream the instance through
  :func:`repro.sim.simulate`; the event loop is timed with
  ``perf_counter`` and the trace's makespan/queue/utilization plus its
  engine-report ratio become the metrics;
* ``callable`` entries time a plain function call and harvest whatever
  metrics the return value naturally offers (placements report heights,
  numbers report themselves).

Median/p95/mean/min are computed over the repetition wall times; p95 is
the linear-interpolated percentile, which degrades gracefully to the max
for small repetition counts.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..core.errors import InvalidInstanceError
from ..core.instance import StripPackingInstance
from ..obs.spans import percentile
from .artifact import new_artifact_header
from .spec import BenchEntry, BenchSpec

__all__ = ["run_bench", "percentile"]


def _require_instance(spec: BenchSpec, entry: BenchEntry, workload_out: Any):
    if not isinstance(workload_out, StripPackingInstance):
        raise InvalidInstanceError(
            f"bench {spec.name!r}: {entry.kind} entry {entry.label!r} needs the "
            f"workload to build a StripPackingInstance, got "
            f"{type(workload_out).__name__}"
        )
    return workload_out


def _time_engine(spec: BenchSpec, entry: BenchEntry, workload_out: Any, final: bool):
    from ..engine import run

    instance = _require_instance(spec, entry, workload_out)
    report = run(
        instance,
        entry.algorithm,
        params=dict(entry.params),
        validate=final,
        compute_bounds=final,
    )
    metrics: dict[str, Any] = {}
    if final:
        metrics = {
            "height": report.height,
            "ratio": report.ratio,
            "valid": report.valid,
            "lower_bound": report.lower_bound,
        }
    return report.wall_time, metrics


def _time_sim(spec: BenchSpec, entry: BenchEntry, workload_out: Any, final: bool):
    from ..sim import InstanceStream, simulate

    instance = _require_instance(spec, entry, workload_out)
    t0 = time.perf_counter()
    trace = simulate(InstanceStream(instance), entry.policy, **dict(entry.params))
    wall = time.perf_counter() - t0
    metrics: dict[str, Any] = {}
    if final:
        report = trace.to_report()
        metrics = {
            "height": trace.makespan,
            "ratio": report.ratio,
            "valid": report.valid,
            "max_queue_depth": trace.max_queue_depth,
            "mean_utilization": trace.mean_utilization,
        }
    return wall, metrics


def _callable_metrics(out: Any) -> dict[str, Any]:
    """Harvest metrics a callable's return value naturally offers."""
    placement = getattr(out, "placement", None)
    if placement is not None and hasattr(placement, "height"):
        return {"height": placement.height}
    if hasattr(out, "height") and isinstance(getattr(out, "height"), (int, float)):
        return {"height": out.height}
    if isinstance(out, (int, float)) and not isinstance(out, bool):
        return {"value": float(out)}
    if isinstance(out, dict) and all(
        isinstance(v, (int, float, bool, str, type(None))) for v in out.values()
    ):
        return dict(out)
    return {}


def _time_callable(spec: BenchSpec, entry: BenchEntry, workload_out: Any, final: bool):
    t0 = time.perf_counter()
    out = entry.fn(workload_out, **dict(entry.params))
    wall = time.perf_counter() - t0
    return wall, (_callable_metrics(out) if final else {})


_TIMERS: dict[str, Callable] = {
    "engine": _time_engine,
    "sim": _time_sim,
    "callable": _time_callable,
}


def _json_params(params) -> dict[str, Any]:
    """Entry params as JSON-able values (callables collapse to their name)."""
    out = {}
    for k, v in dict(params).items():
        if isinstance(v, (int, float, bool, str, type(None))):
            out[k] = v
        else:
            out[k] = getattr(v, "__name__", None) or repr(v)
    return out


def run_bench(
    spec: BenchSpec,
    *,
    quick: bool = False,
    repetitions: int | None = None,
    warmup: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Execute ``spec`` and return the artifact dict (not yet written).

    ``quick`` restricts the sweep to the spec's quick sizes;
    ``repetitions``/``warmup`` override the spec's defaults (CI smoke runs
    pass ``repetitions=1``).  ``progress`` receives one line per measured
    point.
    """
    reps = spec.repetitions if repetitions is None else max(1, repetitions)
    warm = spec.warmup if warmup is None else max(0, warmup)
    sizes = spec.sweep(quick)
    artifact = new_artifact_header(
        spec, quick=quick, sizes=sizes, repetitions=reps, warmup=warm
    )
    points = artifact["points"]
    timed = [(entry, _TIMERS[entry.kind]) for entry in spec.entries]
    for size in sizes:
        rng = np.random.default_rng(spec.seed)
        workload_out = spec.workload(int(size), rng)
        for entry, timer in timed:
            for _ in range(warm):
                timer(spec, entry, workload_out, False)
        times: list[list[float]] = [[] for _ in timed]
        metrics: list[dict[str, Any]] = [{} for _ in timed]
        for rep in range(reps):
            final = rep == reps - 1
            for i, (entry, timer) in enumerate(timed):
                wall, metrics[i] = timer(spec, entry, workload_out, final)
                times[i].append(wall)
        for (entry, _), entry_times, entry_metrics in zip(timed, times, metrics):
            point = {
                "label": entry.label,
                "kind": entry.kind,
                "size": int(size),
                "params": _json_params(entry.params),
                "times_s": entry_times,
                "median_s": percentile(entry_times, 50.0),
                "p95_s": percentile(entry_times, 95.0),
                "mean_s": sum(entry_times) / len(entry_times),
                "min_s": min(entry_times),
                "metrics": entry_metrics,
            }
            points.append(point)
            if progress is not None:
                progress(
                    f"{spec.name}: {entry.label} {spec.size_name}={size} "
                    f"median={point['median_s']:.4g}s"
                )
    return artifact
