#!/usr/bin/env python
"""Quickstart: the three problem variants in one sitting.

Builds a small instance of each variant the paper studies, solves it with
the paper's algorithm, validates the solution, and draws it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    PrecedenceInstance,
    Rect,
    ReleaseInstance,
    StripPackingInstance,
    TaskDAG,
    solve,
    validate_placement,
)
from repro.analysis.render import render_placement
from repro.core.bounds import combined_lower_bound


def plain_strip_packing() -> None:
    print("=" * 68)
    print("1. Plain strip packing (substrate): NFDH")
    print("=" * 68)
    rng = np.random.default_rng(7)
    rects = [
        Rect(rid=i, width=float(rng.uniform(0.15, 0.6)), height=float(rng.uniform(0.2, 1.0)))
        for i in range(10)
    ]
    inst = StripPackingInstance(rects)
    placement = solve(inst, "nfdh")
    validate_placement(inst, placement)
    print(f"lower bound {combined_lower_bound(inst):.3f}, NFDH height {placement.height:.3f}")
    print(render_placement(placement, width_chars=48, max_rows=14))
    print()


def precedence_strip_packing() -> None:
    print("=" * 68)
    print("2. Precedence constraints (Section 2): Algorithm DC")
    print("=" * 68)
    # A small fork-join pipeline: prepare -> {three parallel stages} -> merge.
    rects = [
        Rect(rid="prepare", width=0.8, height=0.5),
        Rect(rid="stage_a", width=0.3, height=1.0),
        Rect(rid="stage_b", width=0.3, height=1.5),
        Rect(rid="stage_c", width=0.3, height=0.75),
        Rect(rid="merge", width=0.6, height=0.5),
    ]
    dag = TaskDAG(
        [r.rid for r in rects],
        [
            ("prepare", "stage_a"),
            ("prepare", "stage_b"),
            ("prepare", "stage_c"),
            ("stage_a", "merge"),
            ("stage_b", "merge"),
            ("stage_c", "merge"),
        ],
    )
    inst = PrecedenceInstance(rects, dag)
    placement = solve(inst, "dc")
    validate_placement(inst, placement)
    print(f"critical path {combined_lower_bound(inst):.3f}, DC height {placement.height:.3f}")
    print(render_placement(placement, width_chars=48, max_rows=14))
    print()


def release_time_strip_packing() -> None:
    print("=" * 68)
    print("3. Release times (Section 3): the APTAS (Algorithm 2)")
    print("=" * 68)
    K = 4
    rects = [
        Rect(rid=0, width=2 / K, height=1.0, release=0.0),
        Rect(rid=1, width=2 / K, height=0.8, release=0.0),
        Rect(rid=2, width=1 / K, height=0.5, release=1.0),
        Rect(rid=3, width=3 / K, height=1.0, release=1.0),
        Rect(rid=4, width=1 / K, height=0.6, release=2.0),
        Rect(rid=5, width=4 / K, height=0.7, release=2.0),
    ]
    inst = ReleaseInstance(rects, K)
    placement = solve(inst, "aptas", eps=1.0)
    validate_placement(inst, placement)
    print(f"release bound {combined_lower_bound(inst):.3f}, APTAS height {placement.height:.3f}")
    print(render_placement(placement, width_chars=48, max_rows=14))
    print()


def engine_batch_and_portfolio() -> None:
    print("=" * 68)
    print("4. The solver engine: instrumented runs, batching, portfolios")
    print("=" * 68)
    from repro import portfolio, run, solve_many
    from repro.analysis.report import reports_table
    from repro.workloads import bursty_release_instance, mixed_instance_suite

    rng = np.random.default_rng(11)

    # One instrumented run: height, bounds, ratio, wall-time in one report.
    rel = bursty_release_instance(12, 4, rng, n_bursts=2)
    report = run(rel)
    print(f"run(): {report.algorithm} height {report.height:.3f}, "
          f"ratio {report.ratio:.3f}, {report.wall_time * 1e3:.1f} ms")

    # Race every release-capable algorithm; the best valid placement wins.
    race = portfolio(rel)
    print(reports_table(race.reports, title="portfolio race", label_header="entrant").render())
    print(f"winner: {race.best.algorithm} at height {race.best.height:.3f}")

    # Stream a mixed workload through the engine, reports in input order.
    stream = mixed_instance_suite(6, rng)
    reports = solve_many(stream)
    assert all(r.valid for r in reports)
    print(reports_table(reports, title="solve_many over a mixed stream").render())
    print()


if __name__ == "__main__":
    plain_strip_packing()
    precedence_strip_packing()
    release_time_strip_packing()
    engine_batch_and_portfolio()
    print("done — all three placements validated; engine batch + portfolio ran.")
