"""Chaos suite: deterministic fault schedules against the sharded service.

Three layers:

* **units** — :class:`FaultSpec`/:class:`FaultPlan` validation and
  round-trips, :class:`FaultInjector` counter determinism and fault
  application, and the cache/queue seams driven directly (no processes);
* **the scenario matrix** — each scenario arms one
  :class:`~repro.service.faults.FaultPlan` against a real two-worker
  fleet via :func:`~repro.service.chaos.run_chaos` and asserts the
  service invariants: zero lost accepted requests, answers
  byte-identical to a fault-free solve (``wall_time`` excluded), and
  ``/healthz`` recovery (waived only where the plan deliberately
  exhausts the respawn budget);
* **the randomized sweep** — seeded plans drawn from the
  liveness-preserving fault kinds, replayed through the same runner:
  whatever combination the seed produces, the invariants must hold.

``repro chaos`` CLI behaviour (exit 0 on pass, exit 1 on violation —
verified with a deliberately broken plan, exit 2 on bad input) is tested
at the bottom.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.errors import InvalidInstanceError
from repro.service.cache import ResultCache
from repro.service.chaos import ChaosReport, run_chaos, run_session_chaos
from repro.service.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    as_injector,
)


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan units
# ----------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown fault site"):
            FaultSpec(site="router.teleport", kind="slow")

    def test_kind_must_match_site(self):
        with pytest.raises(InvalidInstanceError, match="has no kind"):
            FaultSpec(site="queue.drain", kind="crash")

    def test_negative_window_rejected(self):
        with pytest.raises(InvalidInstanceError):
            FaultSpec(site="queue.drain", kind="stall", after=-1)
        with pytest.raises(InvalidInstanceError):
            FaultSpec(site="queue.drain", kind="stall", count=-1)
        with pytest.raises(InvalidInstanceError):
            FaultSpec(site="queue.drain", kind="stall", delay_s=-0.1)

    def test_matches_window_and_worker_scope(self):
        spec = FaultSpec(site="worker.pre_solve", kind="slow", after=2, count=2, worker=1)
        assert [spec.matches(hit, 1) for hit in range(6)] == [
            False, False, True, True, False, False,
        ]
        assert not spec.matches(2, 0)       # wrong worker
        assert spec.matches(2, None)        # unattributed hit: worker filter waived
        forever = FaultSpec(site="worker.pre_solve", kind="slow", after=3, count=0)
        assert forever.matches(3, None) and forever.matches(10_000, None)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            site="cache.spill_write", kind="disk_full", after=4, count=2, worker=0,
            delay_s=0.2,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # Defaults are omitted from the serialised form.
        assert FaultSpec(site="queue.drain", kind="stall").to_dict() == {
            "site": "queue.drain", "kind": "stall",
        }

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidInstanceError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"site": "queue.drain", "kind": "stall", "when": 3})
        with pytest.raises(InvalidInstanceError, match="'site' and 'kind'"):
            FaultSpec.from_dict({"site": "queue.drain"})

    def test_every_registered_site_kind_pair_constructs(self):
        for site, kinds in FAULT_SITES.items():
            for kind in kinds:
                assert FaultSpec(site=site, kind=kind).matches(0, None)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                FaultSpec(site="worker.pre_solve", kind="crash", after=3, worker=0),
                FaultSpec(site="router.recv", kind="truncate", after=1),
            ),
            seed=42,
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.dumps())
        assert FaultPlan.load(path) == plan

    def test_load_errors_are_invalid_instance(self, tmp_path):
        with pytest.raises(InvalidInstanceError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidInstanceError, match="malformed JSON"):
            FaultPlan.load(bad)

    def test_unknown_plan_fields_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"seed": 1, "faults": [], "mode": "hard"})

    def test_from_dict_passes_plans_through(self):
        plan = FaultPlan(seed=3)
        assert FaultPlan.from_dict(plan) is plan


# ----------------------------------------------------------------------
# FaultInjector units
# ----------------------------------------------------------------------

class TestFaultInjector:
    PLAN = {
        "seed": 0,
        "faults": [
            {"site": "queue.drain", "kind": "stall", "after": 1, "delay_s": 0.0},
        ],
    }

    def test_counter_based_firing_is_deterministic(self):
        for _ in range(3):
            injector = FaultInjector(self.PLAN)
            fired = [bool(injector.check("queue.drain")) for _ in range(4)]
            assert fired == [False, True, False, False]
            assert injector.fired == 1
            assert injector.stats()["queue.drain"] == {"hits": 4, "fired": 1}

    def test_worker_scoping(self):
        plan = {"faults": [{"site": "worker.pre_solve", "kind": "slow", "worker": 1}]}
        wrong = FaultInjector(plan, worker=0)
        right = FaultInjector(plan, worker=1)
        assert not wrong.check("worker.pre_solve")
        assert right.check("worker.pre_solve")

    def test_fire_sync_error_kinds(self):
        plan = {
            "faults": [
                {"site": "cache.spill_write", "kind": "disk_full", "count": 1},
                {"site": "cache.spill_read", "kind": "io_error", "count": 1},
                {"site": "router.send", "kind": "conn_reset", "count": 1},
            ]
        }
        injector = FaultInjector(plan)
        with pytest.raises(OSError) as exc_info:
            injector.fire_sync("cache.spill_write")
        assert exc_info.value.errno == 28  # ENOSPC
        with pytest.raises(OSError):
            injector.fire_sync("cache.spill_read")
        with pytest.raises(ConnectionResetError):
            injector.fire_sync("router.send")
        # Windows closed: the same sites pass silently afterwards.
        injector.fire_sync("cache.spill_write")
        injector.fire_sync("cache.spill_read")

    def test_check_rejects_unknown_site(self):
        with pytest.raises(InvalidInstanceError, match="unknown fault site"):
            FaultInjector({"faults": []}).check("nonsense.site")

    def test_as_injector_normalisation(self):
        assert as_injector(None) is None
        injector = FaultInjector({"faults": []})
        assert as_injector(injector) is injector
        built = as_injector({"faults": []}, worker=3)
        assert isinstance(built, FaultInjector) and built.worker == 3


# ----------------------------------------------------------------------
# Cache seams driven directly (no processes)
# ----------------------------------------------------------------------

class TestCacheFaultSeams:
    def test_injected_write_failure_drops_entry_silently(self, tmp_path):
        plan = {"faults": [{"site": "cache.spill_write", "kind": "disk_full", "count": 1}]}
        cache = ResultCache(0, spill_dir=tmp_path, faults=as_injector(plan))
        cache.put("k1", b"payload-1")          # spill eaten by injected ENOSPC
        assert cache.get("k1") is None         # lost entry = miss, not an error
        cache.put("k1", b"payload-1")          # window closed: second write lands
        assert cache.get("k1") == b"payload-1"
        assert cache.stats().spills == 1

    def test_injected_read_corruption_is_a_miss_and_recovers(self, tmp_path):
        plan = {"faults": [{"site": "cache.spill_read", "kind": "corrupt", "after": 0, "count": 1}]}
        cache = ResultCache(0, spill_dir=tmp_path, faults=as_injector(plan))
        cache.put("k1", b"payload-1")
        assert cache.get("k1") is None         # truncated mid-file -> miss
        assert cache.stats().corruptions == 1
        cache.put("k1", b"payload-1")          # recompute path overwrites
        assert cache.get("k1") == b"payload-1"

    def test_injected_read_io_error_is_a_miss(self, tmp_path):
        plan = {"faults": [{"site": "cache.spill_read", "kind": "io_error", "count": 1}]}
        cache = ResultCache(0, spill_dir=tmp_path, faults=as_injector(plan))
        cache.put("k1", b"payload-1")
        assert cache.get("k1") is None
        assert cache.stats().corruptions == 0  # unreadable, not corrupt
        assert cache.get("k1") == b"payload-1"


# ----------------------------------------------------------------------
# The scenario matrix (real two-worker fleets)
# ----------------------------------------------------------------------

def _assert_invariants(report: ChaosReport) -> None:
    assert report.lost == 0, report.violations
    assert report.mismatched == 0, report.violations
    assert report.passed, report.violations


class TestChaosMatrix:
    def test_kill_during_batch(self):
        """Worker 0 crashes at its second solve: ring failover + respawn
        must answer everything, byte-identically."""
        plan = {
            "seed": 7,
            "faults": [
                {"site": "worker.pre_solve", "kind": "crash", "after": 1, "worker": 0}
            ],
        }
        # Every request is a distinct key, so worker 0's share of the
        # solves does not hinge on where the cache keys hash on the ring.
        report = run_chaos(plan, workers=2, requests=24, distinct=24, n_rects=24)
        _assert_invariants(report)
        assert report.recovered
        assert report.retries >= 1  # the crash actually fired

    def test_fault_that_crashed_a_worker_is_counted(self):
        """The fleet's /metrics keeps the fault that killed a worker: the
        count lives in shared memory, not in the dead process."""
        import http.client

        from repro.service import InProcessServer, RouterServer
        from repro.service.loadgen import solve_payloads

        plan = {
            "seed": 7,
            "faults": [
                {"site": "worker.pre_solve", "kind": "crash", "after": 1, "worker": 0}
            ],
        }
        router = RouterServer(workers=2, fault_plan=plan)
        with InProcessServer(router) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
            try:
                for body in solve_payloads(16, n_rects=12, seed=3, algorithm="ffdh"):
                    conn.request("POST", "/solve", body)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                conn.request("GET", "/metrics")
                fleet = json.loads(conn.getresponse().read())["router"]
            finally:
                conn.close()
        assert fleet["retries"] >= 1  # the crash fired and was failed over
        assert fleet["faults_injected"] >= 1

    def test_kill_after_solve_before_response(self):
        """Worker 0 dies *between* computing and responding: the router
        sees a reset and the successor recomputes the same bytes."""
        plan = {
            "seed": 8,
            "faults": [
                {"site": "worker.post_solve", "kind": "crash", "after": 1, "worker": 0}
            ],
        }
        report = run_chaos(plan, workers=2, requests=24, distinct=24, n_rects=24)
        _assert_invariants(report)
        assert report.retries >= 1  # at least one failover actually happened

    def test_slow_worker_timeout_then_failover(self):
        """An injected 2s stall against a 0.5s request timeout: the router
        retries the slow worker, then fails over without de-ringing it."""
        plan = {
            "seed": 11,
            "faults": [
                {
                    "site": "worker.pre_solve", "kind": "slow",
                    "after": 1, "count": 2, "delay_s": 2.0, "worker": 1,
                }
            ],
        }
        report = run_chaos(
            plan, workers=2, requests=24, n_rects=20,
            request_timeout=0.5, retries=1, backoff_ms=20.0,
        )
        _assert_invariants(report)
        assert report.request_retries >= 1   # the timeout retry policy engaged
        assert report.faults_injected >= 1   # slow survives the process, so counted
        assert report.recovered              # a slow worker is never marked dead

    def test_l2_spill_corruption_served_from_recompute(self, tmp_path):
        """With a 1-byte L1 every answer lives in the shared L2; corrupted
        spill reads must degrade to recompute, never to a 500 or to
        different bytes."""
        plan = {
            "seed": 13,
            "faults": [
                {"site": "cache.spill_read", "kind": "corrupt", "after": 1, "count": 3}
            ],
        }
        report = run_chaos(
            plan, workers=2, requests=20, n_rects=24,
            cache_bytes=1, cache_dir=tmp_path / "l2",
        )
        _assert_invariants(report)
        assert report.faults_injected >= 1

    def test_truncated_response_fails_over(self):
        """A half-written response (injected IncompleteReadError) is a
        connection-level failure: immediate failover, zero loss."""
        # after=0 fires on the router's very first response read — a
        # fresh (unpooled) connection, so the failure cannot be absorbed
        # by the client's pooled-connection retry and must reach _forward.
        plan = {
            "seed": 17,
            "faults": [{"site": "router.recv", "kind": "truncate", "count": 1}],
        }
        report = run_chaos(plan, workers=2, requests=20, n_rects=24)
        _assert_invariants(report)
        assert report.retries >= 1

    def test_session_kill_migrates_sessions_with_zero_lost_steps(self):
        """The committed session-kill plan: a worker dies mid-session.
        The router's soft session registry re-creates every affected
        session on the ring successor — no step may be lost and every
        answer must match the cold baseline."""
        report = run_session_chaos(
            "examples/faultplans/session_kill.json",
            workers=2, sessions=3, steps=4, base_rects=10, step_rects=2,
        )
        _assert_invariants(report)
        assert report.requests == 12
        assert report.recovered
        assert report.faults_injected >= 1  # the crash outlives its worker

    def test_session_slow_seams_on_single_server(self):
        """Injected latency at the session create/step seams must only
        slow things down, never change status or bytes."""
        plan = {
            "seed": 23,
            "faults": [
                {"site": "session.create", "kind": "slow", "delay_s": 0.2, "count": 1},
                {"site": "session.step", "kind": "slow", "delay_s": 0.2, "count": 1},
            ],
        }
        report = run_session_chaos(
            plan, workers=1, sessions=2, steps=3, base_rects=8, step_rects=2,
        )
        _assert_invariants(report)
        assert report.faults_injected >= 1

    def test_repeated_crash_exhausts_restarts_degraded_but_serving(self):
        """Worker 0 crashes on every solve with a zero respawn budget: the
        fleet ends degraded — but the survivor answers everything."""
        plan = {
            "seed": 19,
            "faults": [
                {"site": "worker.pre_solve", "kind": "crash", "count": 0, "worker": 0}
            ],
        }
        report = run_chaos(
            plan, workers=2, requests=20, n_rects=24,
            max_restarts=0, expect_final_ok=False,
        )
        _assert_invariants(report)           # recovery check waived, loss check not
        assert report.final_health == "degraded"
        assert not report.recovered


# ----------------------------------------------------------------------
# Seeded randomized fault-schedule sweep
# ----------------------------------------------------------------------

#: Faults any plan may combine while still preserving liveness: each is
#: absorbed by retry, failover, respawn, or recompute.
_SURVIVABLE = [
    {"site": "router.send", "kind": "conn_reset"},
    {"site": "router.recv", "kind": "conn_reset"},
    {"site": "router.recv", "kind": "truncate"},
    {"site": "worker.pre_solve", "kind": "slow", "delay_s": 0.3},
    {"site": "worker.post_solve", "kind": "slow", "delay_s": 0.3},
    {"site": "worker.pre_solve", "kind": "crash", "worker": 0, "after": 1},
    {"site": "cache.spill_read", "kind": "io_error"},
    {"site": "cache.spill_read", "kind": "corrupt"},
    {"site": "cache.spill_write", "kind": "disk_full"},
    {"site": "cache.spill_write", "kind": "io_error"},
    {"site": "queue.drain", "kind": "stall", "delay_s": 0.2},
]


def _random_plan(seed: int) -> dict:
    rng = random.Random(seed)
    faults = []
    for template in rng.sample(_SURVIVABLE, rng.randint(2, 4)):
        spec = dict(template)
        spec["after"] = spec.get("after", 0) + rng.randint(0, 3)
        spec["count"] = rng.randint(1, 2)
        faults.append(spec)
    return {"seed": seed, "faults": faults}


class TestRandomizedSweep:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_survivable_schedule_preserves_invariants(self, seed, tmp_path):
        plan = _random_plan(seed)
        report = run_chaos(
            plan, workers=2, requests=12, n_rects=20,
            request_timeout=2.0, retries=1, backoff_ms=20.0,
            cache_bytes=64, cache_dir=tmp_path / "l2",
        )
        _assert_invariants(report)

    def test_plans_are_reproducible_per_seed(self):
        assert _random_plan(101) == _random_plan(101)
        assert _random_plan(101) != _random_plan(202)


# ----------------------------------------------------------------------
# CLI: exit codes and the committed example plans
# ----------------------------------------------------------------------

class TestChaosCli:
    def test_committed_worker_kill_plan_passes(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "examples/faultplans/worker_kill.json",
            "--workers", "2", "--requests", "16", "--rects", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "lost=0" in out and "PASS" in out

    def test_committed_session_kill_plan_passes(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "examples/faultplans/session_kill.json",
            "--workers", "2", "--sessions", "2", "--steps", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "lost=0" in out and "PASS" in out

    def test_broken_plan_exits_nonzero(self, tmp_path, capsys):
        """The deliberately-broken plan: kill worker 0 forever with no
        respawn budget and still demand a healthy fleet — the runner must
        report the violation and exit 1."""
        from repro.cli import main

        plan_path = tmp_path / "broken.json"
        plan_path.write_text(json.dumps({
            "seed": 1,
            "faults": [
                {"site": "worker.pre_solve", "kind": "crash", "count": 0, "worker": 0}
            ],
        }))
        code = main([
            "chaos", str(plan_path),
            "--workers", "2", "--requests", "12", "--rects", "20",
            "--max-restarts", "0", "--health-deadline", "3",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "/healthz" in out

    def test_bad_plan_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["chaos", str(bad)]) == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_unknown_site_in_plan_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "faults": [{"site": "warp.core", "kind": "breach"}]
        }))
        assert main(["chaos", str(plan_path)]) == 2
        assert "error:" in capsys.readouterr().out
