"""Bench registrations: every ``benchmarks/bench_*.py`` script as a spec.

Importing this module populates the registry in :mod:`repro.bench.spec`.
Each of the 18 benchmark scripts maps to one spec (named in ``source``),
plus the kernel races whose artifacts record a production kernel's
speedup over its reference implementation: ``skyline_bottom_left``
(:class:`repro.geometry.skyline.Skyline`), ``level_packers``,
``dc_kernel`` (Algorithm 1) and ``aptas_lp`` (Lemma 3.3's LP in
Algorithm 2) — and ``validator``, which times the one validity checker
on three placement shapes.

Conventions:

* workloads are seeded closures over :mod:`repro.workloads`; the sweep
  parameter (``size``) means whatever ``size_name`` says — ``n`` (tasks),
  ``k`` (adversarial family index), ``K`` (device columns), or ``tiles``;
* engine/sim entries name registry specs/policies; callable entries wrap
  the subroutine a script times (LP solve, rounding, grouping, kernels);
* quick sizes are small enough for CI smoke (``repro bench --all --quick``
  finishes in well under a minute).
"""

from __future__ import annotations

from .spec import BenchEntry, BenchSpec, register_bench

__all__: list[str] = []


# ----------------------------------------------------------------------
# workloads (size, rng) -> instance / prepared object
# ----------------------------------------------------------------------

def _plain_powerlaw(n, rng):
    from ..core.instance import StripPackingInstance
    from ..workloads.random_rects import powerlaw_rects

    return StripPackingInstance(powerlaw_rects(n, rng))


def _plain_uniform(n, rng):
    from ..core.instance import StripPackingInstance
    from ..workloads.random_rects import uniform_rects

    return StripPackingInstance(uniform_rects(n, rng))


def _omega_log_n(k, rng):
    from ..workloads.adversarial import omega_log_n_instance

    return omega_log_n_instance(k, eps=1e-7).instance


def _ratio3(k, rng):
    from ..workloads.adversarial import ratio3_instance

    return ratio3_instance(k, eps=1e-6).instance


def _random_dag(n, rng):
    from ..workloads.dags import random_precedence_instance

    return random_precedence_instance(n, 0.1, rng)


def _layered_dag(n, rng):
    """Pipeline-shaped DAG, shaped like the service benchmark's DC requests."""
    from ..workloads.dags import layered_precedence_instance

    return layered_precedence_instance(n, 12, 0.05, rng)


def _bursty_release_k8(n, rng):
    """Eight columns in four bursts, shaped like the service benchmark's
    APTAS requests (8 widths, so 66 configurations)."""
    from ..workloads.releases import bursty_release_instance

    return bursty_release_instance(n, 8, rng)


def _uniform_height_dag(n, rng):
    from ..workloads.dags import uniform_height_precedence_instance

    return uniform_height_precedence_instance(n, 0.05, rng)


def _bursty_release(n, rng):
    from ..workloads.releases import bursty_release_instance

    return bursty_release_instance(n, 4, rng, n_bursts=3, burst_gap=float(n) / 8.0)


def _poisson_release(n, rng):
    from ..workloads.releases import poisson_release_instance

    return poisson_release_instance(n, 4, rng, rate=1.5, max_cols=4)


def _staircase_release(n, rng):
    from ..workloads.releases import staircase_release_instance

    return staircase_release_instance(n, 4, rng, n_steps=3)


def _jpeg_pipeline(tiles, rng):
    from ..fpga.device import Device
    from ..workloads.jpeg import jpeg_pipeline_instance

    return jpeg_pipeline_instance(tiles, Device(K=16))


def _bin_instance(n, rng):
    from ..precedence.bin_packing import strip_to_bin_instance
    from ..workloads.dags import uniform_height_precedence_instance

    return strip_to_bin_instance(uniform_height_precedence_instance(n, 0.05, rng))


def _rounded_release(n, rng):
    from ..release.rounding import round_releases_up
    from ..workloads.releases import bursty_release_instance

    return round_releases_up(bursty_release_instance(n, 6, rng, n_bursts=3), 0.5)


def _jpeg_with_schedule(tiles, rng):
    """JPEG instance + its DC placement, for latency-dilation timing."""
    from ..fpga.device import Device
    from ..precedence.dc import dc_pack

    device = Device(K=16, reconfig_latency=0.25)
    instance = _jpeg_pipeline(tiles, rng)
    placement = dc_pack(instance).placement
    return {"instance": instance, "device": device, "placement": placement}


def _instance_suite(n, rng):
    from ..workloads.suite import mixed_instance_suite

    return mixed_instance_suite(n, rng)


def _placements_to_validate(n, rng):
    """``shape -> (instance, placement)``: bottom-left's skyline and FFDH's
    shelves on power-law rects, and one band of n/2 slivers side by side
    under a stack of the other n/2 rects."""
    from ..core.instance import StripPackingInstance
    from ..core.placement import Placement
    from ..core.rectangle import Rect
    from ..packing import bottom_left, ffdh

    instance = _plain_powerlaw(n, rng)
    rects = list(instance.rects)
    k = n // 2
    slivers = [Rect(rid=i, width=1.0 / k, height=1.0) for i in range(k)]
    band = Placement()
    for i, r in enumerate(slivers):
        band.place(r, i / k, 0.0)
    y = 1.0
    for r in rects[k:]:
        band.place(r, 0.0, y)
        y += r.height
    return {
        "skyline": (instance, bottom_left(rects).placement),
        "shelf": (instance, ffdh(rects).placement),
        "band": (StripPackingInstance(slivers + rects[k:]), band),
    }


# ----------------------------------------------------------------------
# callable entry targets
# ----------------------------------------------------------------------

def _bl_reference(instance):
    from ..geometry.skyline_reference import ReferenceSkyline
    from ..packing.bottom_left import bottom_left

    return bottom_left(list(instance.rects), skyline_cls=ReferenceSkyline)


def _level_reference(name):
    def run(instance):
        from ..geometry import levels_reference

        return getattr(levels_reference, f"reference_{name}")(list(instance.rects))

    run.__name__ = f"reference_{name}"
    return run


def _reference_dc(instance):
    from ..precedence.reference import reference_dc_pack

    return reference_dc_pack(instance)


def _dc_with_subroutine(name):
    def run(instance):
        from .. import packing
        from ..precedence.dc import dc_pack

        return dc_pack(instance, subroutine=getattr(packing, name))

    run.__name__ = f"dc[{name}]"
    return run


def _ffd_bins(bin_inst):
    from ..precedence.bin_packing import precedence_first_fit_decreasing

    return precedence_first_fit_decreasing(bin_inst)


def _next_fit_bins(bin_inst):
    from ..precedence.bin_packing import precedence_next_fit

    return precedence_next_fit(bin_inst)


def _round_releases(instance, eps=0.25):
    from ..release.rounding import round_releases_up

    return round_releases_up(instance, eps)


def _group_widths(instance, budget_factor=2):
    from ..release.grouping import group_widths

    n_classes = len({r.release for r in instance.rects})
    return group_widths(instance, budget_factor * n_classes)


def _solve_lp(instance):
    from ..release.lp import solve_fractional

    return solve_fractional(instance)


def _reference_lp(instance):
    from ..release.reference import reference_solve_fractional

    return reference_solve_fractional(instance)


def _fractional_height(instance):
    from ..release.lp import optimal_fractional_height

    return optimal_fractional_height(instance)


def _validate(shape):
    def run(prepared):
        from ..core.placement import validate_placement

        instance, placement = prepared[shape]
        validate_placement(instance, placement)
        return placement

    run.__name__ = f"validate[{shape}]"
    return run


def _dilate(prepared):
    from ..fpga.latency import dilate_for_reconfiguration

    return dilate_for_reconfiguration(
        prepared["placement"], prepared["device"], dag=prepared["instance"].dag
    )


def _portfolio_first(instances):
    from ..engine import portfolio

    return portfolio(instances[0])


def _solve_many(instances):
    from ..engine import solve_many

    return solve_many(instances, validate=False)


def _engine(label, algorithm, **params):
    return BenchEntry(label=label, kind="engine", algorithm=algorithm, params=params)


def _sim(label, policy, **params):
    return BenchEntry(label=label, kind="sim", policy=policy, params=params)


def _call(label, fn, **params):
    return BenchEntry(label=label, kind="callable", fn=fn, params=params)


# ----------------------------------------------------------------------
# the tentpole artifact: optimized skyline kernel vs reference
# ----------------------------------------------------------------------

register_bench(BenchSpec(
    name="skyline_bottom_left",
    title="Bottom-left skyline kernel: optimized vs reference implementation",
    workload=_plain_powerlaw,
    entries=(
        _engine("optimized", "bottom_left"),
        _call("reference", _bl_reference),
    ),
    # Size 1000 is shared between full and quick so CI can
    # `--quick --compare` the committed artifact.
    sizes=(1_000, 10_000, 100_000),
    quick_sizes=(500, 1_000),
    repetitions=2,
    warmup=0,
    source="benchmarks/bench_subroutine_a.py (kernel), geometry/skyline.py",
))

register_bench(BenchSpec(
    name="level_packers",
    title="Level-packing kernels: list-based NFDH/FFDH/BFDH vs object-based reference",
    workload=_plain_powerlaw,
    entries=(
        _engine("nfdh", "nfdh"),
        _engine("ffdh", "ffdh"),
        _engine("bfdh", "bfdh"),
        _call("reference_nfdh", _level_reference("nfdh")),
        _call("reference_ffdh", _level_reference("ffdh")),
        _call("reference_bfdh", _level_reference("bfdh")),
    ),
    # The full sweep shares size 2000 with the quick sweep on purpose: CI
    # runs `repro bench level_packers --quick --compare` against the
    # committed artifact, and compare_artifacts needs overlapping points.
    sizes=(2_000, 10_000, 100_000),
    quick_sizes=(500, 2_000),
    repetitions=2,
    warmup=0,
    source="benchmarks/bench_subroutine_a.py (kernels), geometry/levels.py",
))

register_bench(BenchSpec(
    name="dc_kernel",
    title="DC (Algorithm 1): row indices and one F per instance vs the line-by-line reference",
    workload=_layered_dag,
    entries=(
        _engine("dc", "dc"),
        _call("reference_dc", _reference_dc),
    ),
    # Quick and full sweeps share 200 and 1000 so CI can
    # `--quick --compare` the committed artifact.
    sizes=(200, 1_000, 5_000),
    quick_sizes=(200, 1_000),
    repetitions=5,
    warmup=1,
    source="precedence/dc.py, precedence/reference.py",
))

register_bench(BenchSpec(
    name="aptas_lp",
    title="Lemma 3.3 LP: one direct HiGHS call on a memoized skeleton vs scipy's LP front-end on row-by-row rows",
    workload=_bursty_release_k8,
    entries=(
        _call("solve_fractional", _solve_lp),
        _call("reference_solve_fractional", _reference_lp),
    ),
    # Every size repeats one width tuple and phase count, as the service
    # benchmark's APTAS requests do, so solve_fractional hits its memo of
    # the LP's fixed part after the warmup.  Quick and full sweeps share
    # 200 and 1000 so CI can `--quick --compare` the committed artifact.
    sizes=(200, 1_000, 5_000),
    quick_sizes=(200, 1_000),
    repetitions=5,
    warmup=1,
    source="release/lp.py, release/reference.py",
))

register_bench(BenchSpec(
    name="validator",
    title="validate_placement on skyline, shelf and one-band placements",
    workload=_placements_to_validate,
    entries=(
        _call("skyline", _validate("skyline")),
        _call("shelf", _validate("shelf")),
        _call("band", _validate("band")),
    ),
    # Quick and full sweeps share 1000 so CI can `--quick --compare` the
    # committed artifact.
    sizes=(1_000, 10_000),
    quick_sizes=(500, 1_000),
    repetitions=5,
    warmup=1,
    source="core/placement.py",
))

# ----------------------------------------------------------------------
# paper experiments E1..E13
# ----------------------------------------------------------------------

register_bench(BenchSpec(
    name="dc_ratio",
    title="E1: DC height vs Theorem 2.3 guarantee on random DAGs",
    workload=_random_dag,
    entries=(_engine("dc", "dc"),),
    sizes=(50, 100, 200, 400),
    quick_sizes=(30, 60),
    source="benchmarks/bench_dc_ratio.py (E1)",
))

register_bench(BenchSpec(
    name="fig1_gap",
    title="E2/Fig.1: Omega(log n) lower-bound gap family",
    workload=_omega_log_n,
    entries=(_engine("dc", "dc"),),
    sizes=(3, 4, 5, 6, 7),
    quick_sizes=(3, 4),
    size_name="k",
    source="benchmarks/bench_fig1_gap.py (E2)",
))

register_bench(BenchSpec(
    name="shelf_nextfit",
    title="E3: Algorithm F (shelf next fit) on uniform-height DAGs",
    workload=_uniform_height_dag,
    entries=(_engine("shelf_next_fit", "shelf_next_fit"), _engine("dc", "dc")),
    sizes=(64, 128, 256),
    quick_sizes=(32, 64),
    source="benchmarks/bench_shelf_nextfit.py (E3)",
))

register_bench(BenchSpec(
    name="fig2_ratio3",
    title="E4/Fig.2: tightness of the factor-3 analysis",
    workload=_ratio3,
    entries=(_engine("shelf_next_fit", "shelf_next_fit"),),
    sizes=(4, 8, 16),
    quick_sizes=(4,),
    size_name="k",
    source="benchmarks/bench_fig2_ratio3.py (E4)",
))

register_bench(BenchSpec(
    name="bin_packing",
    title="E5: precedence-constrained bin packing (NF vs FFD)",
    workload=_bin_instance,
    entries=(_call("next_fit", _next_fit_bins), _call("ffd", _ffd_bins)),
    sizes=(32, 64, 128),
    quick_sizes=(16, 32),
    source="benchmarks/bench_bin_packing.py (E5)",
))

register_bench(BenchSpec(
    name="rounding",
    title="E6/Lemma 3.1: release rounding",
    workload=_poisson_release,
    entries=(_call("round_releases", _round_releases, eps=0.25),),
    sizes=(24, 48, 96),
    quick_sizes=(12, 24),
    source="benchmarks/bench_rounding.py (E6)",
))

register_bench(BenchSpec(
    name="grouping",
    title="E7/Lemma 3.2: width grouping on rounded instances",
    workload=_rounded_release,
    entries=(_call("group_widths", _group_widths, budget_factor=2),),
    sizes=(30, 60, 120),
    quick_sizes=(15, 30),
    source="benchmarks/bench_grouping.py (E7)",
))

register_bench(BenchSpec(
    name="lp_configs",
    title="E8/Lemma 3.3: configuration LP solve",
    workload=_staircase_release,
    entries=(_call("solve_fractional", _solve_lp),),
    sizes=(12, 24, 36),
    quick_sizes=(8, 12),
    source="benchmarks/bench_lp_configs.py (E8)",
))

register_bench(BenchSpec(
    name="aptas",
    title="E9/Theorem 3.5: end-to-end APTAS",
    workload=_bursty_release,
    entries=(_engine("aptas", "aptas", eps=0.9),),
    sizes=(10, 20, 40, 80),
    quick_sizes=(10, 20),
    source="benchmarks/bench_aptas.py (E9)",
))

register_bench(BenchSpec(
    name="release_baselines",
    title="E10: release-time baselines vs the APTAS",
    workload=_bursty_release,
    entries=(
        _engine("release_shelf", "release_shelf"),
        _engine("release_bl", "release_bl"),
        _engine("aptas", "aptas", eps=0.9),
    ),
    sizes=(10, 20, 40, 80),
    quick_sizes=(10, 20),
    source="benchmarks/bench_release_baselines.py (E10)",
))

register_bench(BenchSpec(
    name="packers",
    title="E11: unconstrained packers (subroutine-A candidates)",
    workload=_plain_uniform,
    entries=(
        _engine("nfdh", "nfdh"),
        _engine("ffdh", "ffdh"),
        _engine("bfdh", "bfdh"),
        _engine("bottom_left", "bottom_left"),
    ),
    sizes=(100, 400, 1_600),
    quick_sizes=(50, 100),
    source="benchmarks/bench_subroutine_a.py (E11)",
))

register_bench(BenchSpec(
    name="fpga_jpeg",
    title="E12: JPEG pipelines scheduled with DC on a 16-column device",
    workload=_jpeg_pipeline,
    entries=(_engine("dc", "dc"),),
    sizes=(2, 4, 8),
    quick_sizes=(2, 4),
    size_name="tiles",
    source="benchmarks/bench_fpga_jpeg.py (E12)",
))

register_bench(BenchSpec(
    name="portfolio",
    title="E13: engine batch and portfolio execution",
    workload=_instance_suite,
    entries=(
        _call("solve_many", _solve_many),
        _call("portfolio[first]", _portfolio_first),
    ),
    sizes=(6, 12, 24),
    quick_sizes=(4, 6),
    size_name="instances",
    source="benchmarks/bench_engine_portfolio.py (E13)",
))

# ----------------------------------------------------------------------
# online / simulator benches A4, A5
# ----------------------------------------------------------------------

register_bench(BenchSpec(
    name="online_vs_offline",
    title="A4: price of online first fit vs offline baselines",
    workload=_bursty_release,
    entries=(
        _engine("online_ff", "online_ff"),
        _engine("release_bl", "release_bl"),
        _engine("aptas", "aptas", eps=0.9),
    ),
    sizes=(10, 20, 40),
    quick_sizes=(10, 20),
    source="benchmarks/bench_online_vs_offline.py (A4)",
))

register_bench(BenchSpec(
    name="online_policies",
    title="A5: online policy shoot-out through the event-driven simulator",
    workload=_bursty_release,
    entries=(
        _sim("first_fit", "first_fit"),
        _sim("best_fit_column", "best_fit_column"),
        _sim("shelf_online", "shelf_online"),
    ),
    sizes=(20, 40, 80),
    quick_sizes=(10, 20),
    source="benchmarks/bench_online_policies.py (A5)",
))

# ----------------------------------------------------------------------
# ablations A1..A3
# ----------------------------------------------------------------------

register_bench(BenchSpec(
    name="dc_subroutine",
    title="A1: DC with swapped subroutine-A packers",
    workload=_random_dag,
    entries=(
        _call("nfdh", _dc_with_subroutine("nfdh")),
        _call("ffdh", _dc_with_subroutine("ffdh")),
        _call("bfdh", _dc_with_subroutine("bfdh")),
        _call("bottom_left", _dc_with_subroutine("bottom_left")),
    ),
    sizes=(50, 100, 200),
    quick_sizes=(30, 50),
    source="benchmarks/bench_ablation_dc_subroutine.py (A1)",
))

register_bench(BenchSpec(
    name="aptas_budget",
    title="A2: APTAS width-budget knob (groups per class)",
    workload=_bursty_release,
    entries=(
        _engine("g=1", "aptas", eps=0.9, groups_per_class=1),
        _engine("g=2", "aptas", eps=0.9, groups_per_class=2),
        _engine("g=4", "aptas", eps=0.9, groups_per_class=4),
    ),
    sizes=(10, 20, 40),
    quick_sizes=(10,),
    source="benchmarks/bench_ablation_aptas_budget.py (A2)",
))

register_bench(BenchSpec(
    name="latency_dilation",
    title="A3: reconfiguration-latency dilation on the JPEG pipeline",
    workload=_jpeg_with_schedule,
    entries=(_call("dilate", _dilate),),
    sizes=(2, 4, 6),
    quick_sizes=(2, 4),
    size_name="tiles",
    source="benchmarks/bench_ablation_latency.py (A3)",
))

# ----------------------------------------------------------------------
# serving layer: request throughput through the async solve service
# ----------------------------------------------------------------------

def _service_workload(n, rng):
    """Prepared request traffic for ``n`` posts against a fresh server.

    ``cached`` cycles one instance (after the first solve every request is
    a content-addressed cache hit — the serving hot path); ``cold`` posts
    ``n`` distinct instances (every request pays the solver thread + solve).
    The rng argument is unused: payloads are seeded internally so both
    entries and all repetitions replay identical traffic.
    """
    from ..service.loadgen import solve_payloads

    return {
        "requests": n,
        "cached": solve_payloads(1, n_rects=16, seed=0, algorithm="ffdh"),
        "cold": solve_payloads(n, n_rects=16, seed=0, algorithm="ffdh"),
    }


def _service_loadtest(mode):
    def run(prepared):
        from ..service.loadgen import run_closed_loop
        from ..service.server import InProcessServer

        with InProcessServer() as srv:
            result = run_closed_loop(
                srv.url,
                prepared[mode],
                requests=prepared["requests"],
                concurrency=4,
            )
        return {
            "rps": result.throughput_rps,
            "p50_ms": result.latency_ms(50),
            "p95_ms": result.latency_ms(95),
            "ok": result.errors == 0,
            "hit_rate": result.cache_hits / result.requests,
        }

    run.__name__ = f"loadtest[{mode}]"
    return run


register_bench(BenchSpec(
    name="service_throughput",
    title="Solve service: closed-loop request throughput (cached vs cold)",
    workload=_service_workload,
    entries=(
        _call("cached", _service_loadtest("cached")),
        _call("cold", _service_loadtest("cold")),
    ),
    # The full sweep shares size 200 with the quick sweep (like
    # level_packers) so CI can `--quick --compare` the committed artifact.
    sizes=(200, 400, 800),
    quick_sizes=(100, 200),
    size_name="requests",
    repetitions=2,
    warmup=0,
    source="service/server.py + service/loadgen.py (repro serve / loadtest)",
))


def _scaling_workload(n, rng):
    """Traffic for the worker-count sweep at ``n`` requests per step.

    ``cached`` cycles 8 small instances — the router's per-worker L1s stay
    hot and the measurement is pure front-end + routing overhead.
    ``cold`` posts ``n`` distinct 300-rect ``bottom_left`` solves (tens of
    milliseconds each), so solver CPU dominates and extra worker
    processes can actually buy throughput.  The rng argument is unused:
    payloads are seeded so every entry and repetition replays identical
    traffic.
    """
    from ..service.loadgen import solve_payloads

    return {
        "requests": n,
        "cached": solve_payloads(8, n_rects=16, seed=0, algorithm="ffdh"),
        "cold": solve_payloads(n, n_rects=300, seed=0, algorithm="bottom_left"),
    }


def _scaling_step(mode, workers):
    def run(prepared):
        import os

        from ..service.loadgen import sweep_workers

        ((_, result),) = sweep_workers(
            [workers], prepared[mode], requests=prepared["requests"], concurrency=4
        )
        return {
            "rps": result.throughput_rps,
            "p95_ms": result.latency_ms(95),
            "ok": result.errors == 0,
            "workers": workers,
            # Scaling claims are meaningless without the core count the
            # curve was measured on; the artifact-pinning test gates the
            # 4-worker speedup only when cpus >= 4.
            "cpus": os.cpu_count() or 1,
        }

    run.__name__ = f"scaling[{mode} w={workers}]"
    return run


#: The chaos-tax plan for the ``faulty[w2]`` point: a burst of connection
#: resets (each benches a live worker until the supervisor re-rings it)
#: plus two stalled solves.  Counter-triggered, so every run replays the
#: same storm; all of it is survivable, so ``ok`` must stay True.
_SCALING_FAULT_PLAN = {
    "seed": 5,
    "faults": [
        {"site": "router.send", "kind": "conn_reset", "after": 5, "count": 3},
        {"site": "worker.pre_solve", "kind": "slow", "after": 2, "count": 2,
         "delay_s": 0.2},
    ],
}


def _scaling_faulty_step(workers):
    """The cached sweep with the fault plan armed: same traffic as
    ``cached[wN]``, so the rps gap between the two points is the price of
    riding out the injected storm (retries, failovers, re-ring ticks)."""

    def run(prepared):
        import os

        from ..service.loadgen import sweep_workers

        ((_, result),) = sweep_workers(
            [workers], prepared["cached"], requests=prepared["requests"],
            concurrency=4,
            router_config={
                "fault_plan": _SCALING_FAULT_PLAN,
                "request_timeout": 5.0,
                "retries": 1,
            },
        )
        return {
            "rps": result.throughput_rps,
            "p95_ms": result.latency_ms(95),
            "ok": result.errors == 0,
            "workers": workers,
            "cpus": os.cpu_count() or 1,
        }

    run.__name__ = f"scaling[faulty w={workers}]"
    return run


register_bench(BenchSpec(
    name="service_scaling",
    title="Sharded solve service: throughput vs worker count (cached vs cold)",
    workload=_scaling_workload,
    entries=tuple(
        _call(f"{mode}[w{workers}]", _scaling_step(mode, workers))
        for mode in ("cached", "cold")
        for workers in (1, 2, 4)
    ) + (_call("faulty[w2]", _scaling_faulty_step(2)),),
    # Size 60 is shared between full and quick (like service_throughput)
    # so CI can `--quick --compare` the committed artifact.
    sizes=(60, 120),
    quick_sizes=(30, 60),
    size_name="requests",
    repetitions=1,
    warmup=0,
    source="service/router.py + service/loadgen.py "
           "(repro serve --workers / loadtest --workers-sweep)",
))

def _sessions_workload(n, rng):
    """Traffic for the warm-start triad at ``n`` rects per instance.

    ``cached`` repeats one instance (verbatim payload reuse), ``warm``
    posts distinct 2-rect deltas of a primed base (each request is a
    cache miss whose answer is a neighbor repair), ``cold`` posts fully
    distinct instances.  All three solve ``bottom_left`` so the cold
    point costs real solver CPU and the repair's edge is visible.  The
    rng argument is unused: payloads are seeded so every entry and
    repetition replays identical traffic.
    """
    import json as _json

    import numpy as np

    from ..core.instance import StripPackingInstance
    from ..core.serialize import instance_to_dict
    from ..service.loadgen import solve_payloads
    from ..workloads.random_rects import powerlaw_rects

    requests = 20

    def body(rects):
        doc = {
            "instance": instance_to_dict(StripPackingInstance(rects)),
            "algorithm": "bottom_left",
        }
        return _json.dumps(doc).encode("utf-8")

    # One rect pool so base and extras have distinct ids: each warm body
    # is the base plus its own pair of unseen rects — a pure "added" delta.
    pool = list(powerlaw_rects(n + 2 * requests, np.random.default_rng(0)))
    base_rects = pool[:n]
    base = body(base_rects)
    warm_bodies = [
        body(base_rects + pool[n + 2 * i : n + 2 * (i + 1)]) for i in range(requests)
    ]
    return {
        "requests": requests,
        "base": base,
        "cached": [base],
        "warm": warm_bodies,
        "cold": solve_payloads(requests, n_rects=n, seed=1, algorithm="bottom_left"),
    }


def _sessions_step(mode):
    """One triad point: a fresh server per mode, warm-start armed only
    where the mode needs it (``cold`` must never find a neighbor)."""

    def run(prepared):
        from ..service.loadgen import run_closed_loop
        from ..service.server import InProcessServer, SolveServer

        server = (
            SolveServer(warm_delta=0.75) if mode in ("warm", "cached") else SolveServer()
        )
        with InProcessServer(server) as srv:
            if mode in ("warm", "cached"):
                # Prime (uncounted): the base solve seeds the neighbor
                # index / result cache every measured request leans on.
                run_closed_loop(srv.url, [prepared["base"]], requests=1, concurrency=1)
            result = run_closed_loop(
                srv.url, prepared[mode], requests=prepared["requests"], concurrency=1
            )
        return {
            "rps": result.throughput_rps,
            "p50_ms": result.latency_ms(50),
            "p95_ms": result.latency_ms(95),
            "ok": result.errors == 0,
            "hit_rate": result.cache_hits / result.requests,
            "warm_rate": result.warm_hits / result.requests,
        }

    run.__name__ = f"sessions[{mode}]"
    return run


register_bench(BenchSpec(
    name="service_sessions",
    title="Warm-start delta solving: cached vs warm repair vs cold solve",
    workload=_sessions_workload,
    entries=(
        _call("cached", _sessions_step("cached")),
        _call("warm", _sessions_step("warm")),
        _call("cold", _sessions_step("cold")),
    ),
    # Size 200 is shared between full and quick (like service_throughput)
    # so CI can `--quick --compare` the committed artifact.
    sizes=(200, 300),
    quick_sizes=(120, 200),
    size_name="rects",
    repetitions=1,
    warmup=0,
    source="engine/warmstart.py + service/server.py "
           "(repro serve --warm-delta / loadtest --mode session)",
))

# ----------------------------------------------------------------------
# lower-bound / fractional-optimum probe (shared by E2/E4/A4 tables)
# ----------------------------------------------------------------------

register_bench(BenchSpec(
    name="fractional_lb",
    title="OPT_f probe: fractional optimum via the configuration LP",
    workload=_bursty_release,
    entries=(_call("optimal_fractional_height", _fractional_height),),
    sizes=(10, 20, 40),
    quick_sizes=(8, 10),
    source="benchmarks/bench_online_vs_offline.py, bench_online_policies.py (OPT_f)",
))
