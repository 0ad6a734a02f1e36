"""Tests of the service benchmark itself: its inputs and its result line.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import PAPER_ALGORITHMS, WORKLOADS, measured_payloads, warmup_payloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_payloads_are_byte_identical_per_seed(workload):
    assert measured_payloads(workload, 7, 64) == measured_payloads(workload, 7, 64)
    assert measured_payloads(workload, 7, 64) != measured_payloads(workload, 8, 64)
    for algorithm in WORKLOADS[workload].algorithms:
        assert warmup_payloads(workload, 7, algorithm, 4) == warmup_payloads(workload, 7, algorithm, 4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warmup_and_measured_payloads_are_disjoint(workload):
    measured = set(measured_payloads(workload, 3, 256))
    for algorithm in WORKLOADS[workload].algorithms:
        warm = warmup_payloads(workload, 3, algorithm, run.WARM_BODIES)
        assert len(warm) == run.WARM_BODIES
        assert measured.isdisjoint(warm)


def test_lone_small_instances_are_distinct():
    bodies = measured_payloads("lone_small", 5, 500)
    assert len(set(bodies)) == len(bodies) == 500
    assert all(len(json.loads(b)["instance"]["rects"]) == 16 for b in bodies[:10])


def test_fleet_mixed_sends_every_instance_exactly_twice():
    bodies = measured_payloads("fleet_mixed", 5, 1000)
    assert len(bodies) == 1000
    assert set(Counter(bodies).values()) == {2}
    assert bodies[: len(bodies) // 2] != sorted(bodies[: len(bodies) // 2])


def test_paper_mix_cycles_its_four_algorithms():
    from repro.core.serialize import instance_from_dict
    from repro.engine import run as engine_run

    bodies = measured_payloads("paper_mix", 5, 8)
    assert len(set(bodies)) == len(bodies)
    for index, body in enumerate(bodies):
        request = json.loads(body)
        expected = PAPER_ALGORITHMS[index % len(PAPER_ALGORITHMS)]
        # Only the power-law kind names its solver; the others rely on the
        # server's per-variant default.
        assert request.get("algorithm") == ("bottom_left" if expected == "bottom_left" else None)
        report = engine_run(instance_from_dict(request["instance"]), request.get("algorithm"))
        assert report.algorithm == expected
        assert report.valid


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


#: The per-layer metrics each workload must reach (read > 0); a hook that is
#: never installed, a dump that goes missing or a broken trace-id join reads 0.
REACHED = {
    "lone_small": (
        "queue.wait_ms", "serialize.key_ms", "server.parse_ms", "cache.lookup_ms",
        "cache.store_ms", "engine.solve_ms.ffdh", "server.encode_ms", "server.unaccounted_ms",
    ),
    "fleet_mixed": (
        "queue.batch_mean", "serialize.key_ms", "router.route_ms", "router.forward_ms",
        "cache.hit_ratio", "cache.lookup_ms", "cache.store_ms",
    ),
    "paper_mix": (
        "queue.batch_mean", "server.parse_ms", "engine.bounds_ms", "engine.validate_ms",
        "server.encode_ms",
        *(f"engine.solve_ms.{name}" for name in PAPER_ALGORITHMS),
    ),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)
    if trace:
        reached = (*REACHED[workload], "trace.overhead_pct")
        assert {k: result["metrics"][k]["value"] for k in reached if result["metrics"][k]["value"] <= 0} == {}
    else:
        assert "error_rate: 0.000000 fraction" in done.stdout
        assert all(v["value"] > 0 for v in result["metrics"].values())
