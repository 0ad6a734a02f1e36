"""E13 — engine batch/portfolio execution.

Exercises the unified solver engine the way a serving layer would:

* portfolio racing on one instance per variant — the winner must be the
  minimum-height valid entrant, and never worse than the per-variant
  default algorithm (the default is always in the race);
* ``solve_many`` over a mixed instance stream — every report is valid
  and carries a finite wall-time and a consistent ratio
  ``height / combined_lower_bound >= 1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import portfolio, run, solve_many, variant_of
from repro.workloads.suite import mixed_instance_suite

from .conftest import bench_quick, emit_reports


BENCH_SPEC = "portfolio"


def test_e13_bench_spec():
    """Thin shim: the timed sweep lives in the bench registry (`repro bench`)."""
    artifact = bench_quick(BENCH_SPEC)
    assert artifact["points"], "bench spec produced no measurements"


def _suite(n_instances: int = 12, seed: int = 7):
    return mixed_instance_suite(n_instances, np.random.default_rng(seed))


@pytest.mark.parametrize("variant", ["plain", "precedence", "release"])
def test_e13_portfolio_beats_default(variant):
    inst = next(i for i in _suite() if variant_of(i) == variant)
    result = portfolio(inst)

    assert result.best is not None, "no entrant validated"
    assert result.best.valid
    for r in result.reports:
        if r.valid:
            assert result.best.height <= r.height + 1e-12
    # The per-variant default is always a race entrant, so the portfolio
    # winner can never be worse than the one-call solve() answer.
    default_report = run(inst)
    assert result.best.height <= default_report.height + 1e-12
    emit_reports(
        f"e13_portfolio_{variant}",
        result.reports,
        title=f"E13 portfolio race — {variant} (n={len(inst)})",
        label_header="entrant",
    )


def test_e13_batch_stream():
    instances = _suite()
    reports = solve_many(instances)

    assert [r.n for r in reports] == [len(i) for i in instances]
    for r in reports:
        assert r.valid
        assert r.wall_time >= 0.0
        assert r.ratio is not None and r.ratio >= 1.0 - 1e-9
    emit_reports(
        "e13_batch_stream",
        reports,
        title=f"E13 solve_many over {len(instances)} mixed instances",
        label_header="instance",
    )
