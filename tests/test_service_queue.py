"""Tests for the micro-batching request queue.

The contract under test: a request submitted through the batcher resolves
to a report identical to a direct ``engine.run()`` (deterministic fields —
wall time is measured, not computed), one drain takes every queued request
up to ``max_batch`` and answers each as soon as its own solve ends, and a
full queue sheds load with :class:`BackpressureError`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.core.serialize import placement_to_dict
from repro.engine import run
from repro.service.queue import BackpressureError, MicroBatcher
from repro.workloads.random_rects import powerlaw_rects


def _instances(n, seed=0, size=10):
    rng = np.random.default_rng(seed)
    return [StripPackingInstance(powerlaw_rects(size, rng)) for _ in range(n)]


def _same_report(a, b):
    """Deterministic-field equality between two SolveReports."""
    assert a.algorithm == b.algorithm
    assert a.height == b.height
    assert a.lower_bound == b.lower_bound
    assert dict(a.bounds) == dict(b.bounds)
    assert a.valid == b.valid and a.error == b.error
    assert a.params == b.params and a.label == b.label
    assert placement_to_dict(a.placement) == placement_to_dict(b.placement)


@pytest.fixture
def batcher():
    b = MicroBatcher(max_batch=8, maxsize=64)
    yield b
    b.stop()


class TestResults:
    def test_identical_to_direct_run(self, batcher):
        batcher.start()
        (instance,) = _instances(1)
        report = batcher.submit(instance, "ffdh").result(timeout=10)
        _same_report(report, run(instance, "ffdh"))

    def test_default_algorithm_resolution(self, batcher):
        batcher.start()
        (instance,) = _instances(1)
        report = batcher.submit(instance).result(timeout=10)
        _same_report(report, run(instance))

    def test_params_are_honoured(self, batcher):
        batcher.start()
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)],
            K=2,
        )
        report = batcher.submit(instance, "aptas", {"eps": 1.0}).result(timeout=30)
        _same_report(report, run(instance, "aptas", params={"eps": 1.0}))

    def test_incompatible_algorithm_becomes_error_report(self, batcher):
        batcher.start()
        (instance,) = _instances(1)  # plain instance, aptas needs release
        report = batcher.submit(instance, "aptas").result(timeout=10)
        assert report.error is not None and report.placement is None

    def test_unknown_algorithm_becomes_error_report(self, batcher):
        batcher.start()
        (instance,) = _instances(1)
        report = batcher.submit(instance, "oracle").result(timeout=10)
        assert report.error is not None and "unknown algorithm" in report.error


class TestBatching:
    def test_queued_requests_drain_as_one_batch(self):
        """Pre-load the queue before any drain: one drain answers all."""
        batcher = MicroBatcher(max_batch=8, maxsize=64)
        instances = _instances(6, seed=1)
        futures = [batcher.submit(inst, "nfdh") for inst in instances]
        assert batcher.depth == 6
        assert batcher.drain_once() == 6
        stats = batcher.stats()
        assert stats.batches == 1 and stats.max_batch == 6
        assert stats.completed == stats.submitted == 6
        assert stats.mean_batch == pytest.approx(6.0)
        for fut, inst in zip(futures, instances):
            _same_report(fut.result(timeout=1), run(inst, "nfdh"))

    def test_mixed_algorithms_grouped_but_all_correct(self):
        batcher = MicroBatcher(max_batch=8, maxsize=64)
        instances = _instances(4, seed=2)
        futures = [
            batcher.submit(inst, algo)
            for inst, algo in zip(instances, ["nfdh", "ffdh", "nfdh", "bfdh"])
        ]
        batcher.drain_once()
        for fut, inst, algo in zip(futures, instances, ["nfdh", "ffdh", "nfdh", "bfdh"]):
            _same_report(fut.result(timeout=1), run(inst, algo))

    def test_max_batch_caps_one_drain(self):
        batcher = MicroBatcher(max_batch=3, maxsize=64)
        for inst in _instances(5, seed=3):
            batcher.submit(inst, "nfdh")
        assert batcher.drain_once() == 3
        assert batcher.depth == 2
        assert batcher.drain_once() == 2
        assert batcher.stats().max_batch == 3

    def test_distinct_params_solve_in_distinct_groups(self):
        batcher = MicroBatcher(max_batch=8, maxsize=64)
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)],
            K=2,
        )
        f1 = batcher.submit(instance, "aptas", {"eps": 1.0})
        f2 = batcher.submit(instance, "aptas", {"eps": 0.5})
        batcher.drain_once()
        r1, r2 = f1.result(timeout=30), f2.result(timeout=30)
        assert r1.params["eps"] == 1.0 and r2.params["eps"] == 0.5

    def test_each_request_resolves_when_its_own_solve_ends(self):
        """A small request queued ahead of a large one is answered before
        the large one is solved, not when the whole batch is done."""
        batcher = MicroBatcher(max_batch=8, maxsize=64)
        rng = np.random.default_rng(14)
        small = StripPackingInstance(powerlaw_rects(8, rng))
        large = StripPackingInstance(powerlaw_rects(5000, rng))
        futures = {"small": batcher.submit(small, "ffdh"),
                   "large": batcher.submit(large, "ffdh")}
        resolved = {}
        for name, fut in futures.items():
            fut.add_done_callback(
                lambda _, name=name: resolved.setdefault(name, time.perf_counter())
            )
        assert batcher.drain_once() == 2
        assert batcher.stats().batches == 1
        large_report = futures["large"].result(timeout=0)
        assert resolved["large"] - resolved["small"] >= large_report.wall_time


class TestLiveDrain:
    """The drain thread never waits for batch-mates: a lone request goes
    straight to the solver, and a busy queue still drains in batches."""

    def test_lone_request_is_not_held(self):
        instance = StripPackingInstance(
            [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=2.0)]
        )
        batcher = MicroBatcher().start()
        elapsed = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                batcher.submit(instance, "nfdh").result(timeout=10)
                elapsed.append(time.perf_counter() - t0)
        finally:
            batcher.stop()
        # A timed batch window would hold every lone request for its whole
        # length; without one, submit-to-result is about the solve itself.
        assert statistics.median(elapsed) < 1.5e-3
        assert batcher.stats().max_batch == 1

    def test_requests_queued_behind_a_running_batch_drain_together(self):
        from repro.service.faults import FaultInjector

        injector = FaultInjector(
            {"faults": [{"site": "queue.drain", "kind": "stall",
                         "count": 1, "delay_s": 0.3}]}
        )
        batcher = MicroBatcher(maxsize=64, faults=injector).start()
        first, *rest = _instances(6, seed=13)
        try:
            held = batcher.submit(first, "nfdh")
            # Wait until the drain thread has taken the first request and
            # sits in that batch's stall.
            deadline = time.monotonic() + 10
            while (batcher.depth or not injector.fired) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.depth == 0 and injector.fired == 1
            futures = [batcher.submit(inst, "nfdh") for inst in rest]
            _same_report(held.result(timeout=10), run(first, "nfdh"))
            for fut, inst in zip(futures, rest):
                _same_report(fut.result(timeout=10), run(inst, "nfdh"))
        finally:
            batcher.stop()
        stats = batcher.stats()
        assert stats.batches == 2 and stats.max_batch == len(rest)


class TestBackpressureAndLifecycle:
    def test_full_queue_rejects(self):
        batcher = MicroBatcher(maxsize=2)
        instances = _instances(3, seed=5)
        batcher.submit(instances[0])
        batcher.submit(instances[1])
        with pytest.raises(BackpressureError, match="full"):
            batcher.submit(instances[2])
        stats = batcher.stats()
        assert stats.rejected == 1 and stats.submitted == 2

    def test_stop_fails_pending_and_rejects_new(self):
        batcher = MicroBatcher(maxsize=8)
        (instance,) = _instances(1, seed=6)
        fut = batcher.submit(instance)
        batcher.stop()
        with pytest.raises(BackpressureError):
            fut.result(timeout=1)
        with pytest.raises(BackpressureError, match="stopped"):
            batcher.submit(instance)

    def test_start_is_idempotent_and_restartable(self):
        batcher = MicroBatcher(maxsize=8)
        assert batcher.start() is batcher
        batcher.start()
        batcher.stop()
        batcher.start()  # restart after stop
        (instance,) = _instances(1, seed=7)
        assert batcher.submit(instance, "nfdh").result(timeout=10).valid
        batcher.stop()

    @pytest.mark.parametrize(
        "kwargs", [{"max_batch": 0}, {"maxsize": -1}, {"maxsize": 0}]
    )
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(InvalidInstanceError):
            MicroBatcher(**kwargs)


class TestGracefulDrain:
    def test_drain_answers_everything_accepted(self):
        """drain() with a live thread: accepted requests all resolve to
        reports (never BackpressureError), then the batcher is stopped."""
        batcher = MicroBatcher(max_batch=4, maxsize=64)
        instances = _instances(10, seed=8)
        batcher.start()
        futures = [batcher.submit(inst, "nfdh") for inst in instances]
        batcher.drain(timeout=30)
        for fut, inst in zip(futures, instances):
            _same_report(fut.result(timeout=0), run(inst, "nfdh"))
        stats = batcher.stats()
        assert stats.completed == stats.submitted == 10 and stats.depth == 0

    def test_drain_refuses_new_submits_with_a_distinct_message(self):
        batcher = MicroBatcher(maxsize=8).start()
        (instance,) = _instances(1, seed=9)
        batcher.drain(timeout=5)
        with pytest.raises(BackpressureError, match="stopped"):
            # after drain() returns, the batcher is fully stopped
            batcher.submit(instance)

    def test_drain_without_thread_flushes_inline(self):
        """The unit-test path: no drain thread ever started, drain() still
        answers the queue synchronously."""
        batcher = MicroBatcher(max_batch=4, maxsize=64)
        instances = _instances(6, seed=10)
        futures = [batcher.submit(inst, "ffdh") for inst in instances]
        batcher.drain(timeout=5)
        for fut, inst in zip(futures, instances):
            _same_report(fut.result(timeout=0), run(inst, "ffdh"))

    def test_submit_during_drain_is_rejected_as_draining(self):
        """The drain flag (set before the queue empties) produces the
        drain-specific message the server maps to 503."""
        batcher = MicroBatcher(maxsize=8)
        (instance,) = _instances(1, seed=11)
        batcher._draining.set()  # as drain() does first
        with pytest.raises(BackpressureError, match="draining for shutdown"):
            batcher.submit(instance)

    def test_drain_is_reentrant_with_stop(self):
        batcher = MicroBatcher(maxsize=8).start()
        batcher.drain(timeout=5)
        batcher.stop()  # no error, no hang

    def test_drain_with_nonempty_queue_and_injected_stall(self):
        """A queue.drain stall fault slows every batch tick, but drain()
        still answers everything that was accepted before it started."""
        from repro.service.faults import FaultInjector

        injector = FaultInjector(
            {"faults": [{"site": "queue.drain", "kind": "stall",
                         "count": 0, "delay_s": 0.05}]}
        )
        batcher = MicroBatcher(max_batch=2, maxsize=64, faults=injector)
        instances = _instances(8, seed=12)
        futures = [batcher.submit(inst, "nfdh") for inst in instances]
        batcher.drain(timeout=30)  # queue is non-empty when drain begins
        for fut, inst in zip(futures, instances):
            _same_report(fut.result(timeout=0), run(inst, "nfdh"))
        assert injector.fired >= 4  # 8 requests / max_batch 2 → ≥4 stalled ticks
        stats = batcher.stats()
        assert stats.completed == stats.submitted == 8 and stats.depth == 0
