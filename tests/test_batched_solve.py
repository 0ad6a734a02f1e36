"""Batched stacked-instance solving: differential and semantics tests.

The stacked path (:mod:`repro.engine.stacked`) must be **bit-identical**
to K independent :func:`repro.engine.run` calls in every report field but
``wall_time``.  Also pinned here: the stacked sort's per-segment equivalence, the
``stacked=None|True|False`` semantics of
:func:`repro.engine.batch.solve_many`, the portfolio split, and the
service micro-batcher engaging the path implicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import (
    RectArrays,
    StackedRectArrays,
    decreasing_order,
    stacked_decreasing_order,
)
from repro.core.errors import InvalidInstanceError
from repro.core.instance import PrecedenceInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.dag.graph import TaskDAG
from repro.engine import portfolio, run, solve_many
from repro.engine.stacked import BATCHABLE, batchable, solve_batched
from repro.workloads.random_rects import powerlaw_rects, uniform_rects


def _instances(k, seed=0, lo=3, hi=40):
    rng = np.random.default_rng(seed)
    gens = (powerlaw_rects, uniform_rects)
    return [
        StripPackingInstance(gens[i % 2](int(rng.integers(lo, hi)), rng))
        for i in range(k)
    ]


def _same_report(a, b):
    """Field-for-field equality, wall_time excepted (it is a measurement)."""
    assert a.algorithm == b.algorithm and a.variant == b.variant
    assert a.n == b.n and a.params == b.params
    assert a.height == b.height
    assert a.lower_bound == b.lower_bound and dict(a.bounds) == dict(b.bounds)
    assert a.valid == b.valid and a.error == b.error
    assert a.label == b.label
    if a.placement is None or b.placement is None:
        assert a.placement is None and b.placement is None
        return
    da = dict(a.placement.items())
    db = dict(b.placement.items())
    assert set(da) == set(db)
    for rid, p in db.items():
        assert da[rid] == p, rid


# ----------------------------------------------------------------------
# stacked sort
# ----------------------------------------------------------------------


class TestStackedOrder:
    def test_segments_equal_per_instance_orders(self):
        parts = [inst.arrays() for inst in _instances(12, seed=3)]
        stacked = StackedRectArrays(parts)
        order = stacked_decreasing_order(stacked)
        for k, part in enumerate(parts):
            lo, hi = stacked.segment(k)
            assert np.array_equal(order[lo:hi] - lo, decreasing_order(part)), k

    def test_empty_parts_are_harmless(self):
        parts = [
            RectArrays([]),
            RectArrays([Rect(rid="a", width=0.5, height=0.5)]),
            RectArrays([]),
            RectArrays(
                [
                    Rect(rid="b", width=0.2, height=0.9),
                    Rect(rid="c", width=0.7, height=0.9),
                ]
            ),
        ]
        stacked = StackedRectArrays(parts)
        assert len(stacked) == 3
        assert stacked.segment(0) == (0, 0) and stacked.segment(2) == (1, 1)
        order = stacked_decreasing_order(stacked)
        assert list(order) == [0, 2, 1]  # c (wider) before b within part 3

    def test_all_empty(self):
        stacked = StackedRectArrays([RectArrays([])])
        assert len(stacked) == 0
        assert len(stacked_decreasing_order(stacked)) == 0

    def test_cross_part_id_ties_stay_segment_local(self):
        """Identical rects (same id string!) in different parts never mix."""
        twin = [Rect(rid="x", width=0.4, height=0.6), Rect(rid="y", width=0.4, height=0.6)]
        parts = [RectArrays(twin), RectArrays(list(reversed(twin)))]
        stacked = StackedRectArrays(parts)
        order = stacked_decreasing_order(stacked)
        assert list(order[:2]) == list(decreasing_order(parts[0]))
        assert list(order[2:] - 2) == list(decreasing_order(parts[1]))


# ----------------------------------------------------------------------
# bit-identity vs independent dispatch
# ----------------------------------------------------------------------


class TestBatchedIdentity:
    @pytest.mark.parametrize("algorithm", BATCHABLE)
    def test_identical_to_independent(self, algorithm):
        instances = _instances(10, seed=7)
        batched = solve_many(instances, algorithm, stacked=True)
        independent = solve_many(instances, algorithm, stacked=False)
        assert len(batched) == len(independent) == 10
        for b, i in zip(batched, independent):
            _same_report(b, i)

    def test_identical_to_run_loop(self):
        instances = _instances(6, seed=11)
        batched = solve_many(instances, "ffdh", stacked=True)
        for k, (report, inst) in enumerate(zip(batched, instances)):
            direct = run(inst, "ffdh")
            assert report.label == str(k)
            _same_report(
                report, type(direct)(**{**direct.__dict__, "label": str(k)})
            )

    def test_labels_and_flags_pass_through(self):
        instances = _instances(3, seed=2)
        reports = solve_batched(
            instances,
            "nfdh",
            validate=False,
            compute_bounds=False,
            labels=["a", "b", "c"],
        )
        assert [r.label for r in reports] == ["a", "b", "c"]
        assert all(r.valid is None and r.lower_bound is None for r in reports)
        assert all(r.bounds == {} for r in reports)

    def test_mixed_algorithm_batch(self):
        """The portfolio shape: one instance, one report per entrant."""
        (instance,) = _instances(1, seed=4, lo=25, hi=26)
        reports = solve_batched(
            [instance] * 3, list(BATCHABLE), labels=list(BATCHABLE)
        )
        for name, report in zip(BATCHABLE, reports):
            direct = run(instance, name, label=name)
            _same_report(report, direct)


# ----------------------------------------------------------------------
# solve_many stacked= semantics
# ----------------------------------------------------------------------


class TestStackedSemantics:
    def test_auto_engages_on_eligible_batch(self, monkeypatch):
        calls = []
        import repro.engine.stacked as stacked_mod

        original = stacked_mod.solve_batched
        monkeypatch.setattr(
            stacked_mod,
            "solve_batched",
            lambda *a, **kw: calls.append(1) or original(*a, **kw),
        )
        instances = _instances(4, seed=5)
        solve_many(instances, "ffdh")
        assert calls == [1]

    def test_stacked_false_opts_out(self, monkeypatch):
        import repro.engine.stacked as stacked_mod

        monkeypatch.setattr(
            stacked_mod,
            "solve_batched",
            lambda *a, **kw: pytest.fail("stacked path must not engage"),
        )
        instances = _instances(3, seed=5)
        reports = solve_many(instances, "ffdh", stacked=False)
        assert all(r.valid for r in reports)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "bottom_left"},  # not a level packer
            {"algorithm": None},  # auto-selection is per instance
            {"algorithm": "ffdh", "backend": "thread"},  # parallel executor
        ],
    )
    def test_stacked_true_rejects_ineligible(self, kwargs):
        instances = _instances(3, seed=6)
        algorithm = kwargs.pop("algorithm")
        with pytest.raises(InvalidInstanceError, match="stacked=True"):
            solve_many(instances, algorithm, stacked=True, **kwargs)

    def test_stacked_true_rejects_params(self):
        instances = _instances(3, seed=6)
        with pytest.raises(InvalidInstanceError, match="stacked=True"):
            solve_many(instances, "ffdh", params={"ffdh": {"x": 1}}, stacked=True)

    def test_stacked_true_rejects_empty_batch(self):
        with pytest.raises(InvalidInstanceError, match="non-empty"):
            solve_many([], "ffdh", stacked=True)

    def test_mixed_variants_not_batchable(self):
        rects = [Rect(rid=i, width=0.3, height=0.4) for i in range(4)]
        dag = TaskDAG([r.rid for r in rects], edges=[(0, 1)])
        batch = [StripPackingInstance(rects), PrecedenceInstance(rects, dag)]
        assert not batchable(batch, "ffdh", None)

    def test_solve_batched_validates_input(self):
        instances = _instances(2, seed=1)
        with pytest.raises(InvalidInstanceError, match="not batchable"):
            solve_batched(instances, "bottom_left")
        with pytest.raises(InvalidInstanceError, match="algorithms for"):
            solve_batched(instances, ["ffdh"])
        with pytest.raises(InvalidInstanceError, match="labels for"):
            solve_batched(instances, "ffdh", labels=["only-one"])


# ----------------------------------------------------------------------
# portfolio split
# ----------------------------------------------------------------------


class TestPortfolioBatching:
    def test_portfolio_identical_to_unbatched(self):
        (instance,) = _instances(1, seed=8, lo=30, hi=31)
        names = ["nfdh", "ffdh", "bfdh", "bottom_left"]
        serial = portfolio(instance, names)
        threaded = portfolio(instance, names, backend="thread", jobs=2)
        for s, t in zip(serial.reports, threaded.reports):
            _same_report(s, t)
        assert serial.best.algorithm == threaded.best.algorithm

    def test_portfolio_engages_stacked_for_level_packers(self, monkeypatch):
        calls = []
        import repro.engine.stacked as stacked_mod

        original = stacked_mod.solve_batched
        monkeypatch.setattr(
            stacked_mod,
            "solve_batched",
            lambda *a, **kw: calls.append(a[1]) or original(*a, **kw),
        )
        (instance,) = _instances(1, seed=9)
        portfolio(instance, ["nfdh", "ffdh", "bfdh", "bottom_left"])
        assert calls == [["nfdh", "ffdh", "bfdh"]]


# ----------------------------------------------------------------------
# the service micro-batcher inherits the path
# ----------------------------------------------------------------------


class TestServicePath:
    def test_micro_batcher_engages_stacked(self, monkeypatch):
        from repro.service.queue import MicroBatcher

        calls = []
        import repro.engine.stacked as stacked_mod

        original = stacked_mod.solve_batched
        monkeypatch.setattr(
            stacked_mod,
            "solve_batched",
            lambda *a, **kw: calls.append(1) or original(*a, **kw),
        )
        batcher = MicroBatcher(max_batch=8, maxsize=16)
        instances = _instances(5, seed=10)
        futures = [batcher.submit(inst, "ffdh") for inst in instances]
        assert batcher.drain_once() == 5
        assert calls == [1]
        for fut, inst in zip(futures, instances):
            report = fut.result(timeout=5)
            direct = run(inst, "ffdh", label="")
            _same_report(report, direct)
