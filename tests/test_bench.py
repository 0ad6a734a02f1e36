"""Tests for the benchmark subsystem: registry, runner, artifacts, compare, CLI."""

from __future__ import annotations

import json
import time

import pytest

from repro.bench import (
    SCHEMA,
    BenchArtifactError,
    BenchEntry,
    BenchSpec,
    all_benches,
    artifact_path,
    bench_names,
    compare_artifacts,
    get_bench,
    load_artifact,
    run_bench,
    validate_artifact,
    write_artifact,
)
from repro.cli import main
from repro.core.errors import InvalidInstanceError
from repro.core.instance import StripPackingInstance
from repro.core.rectangle import Rect


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_every_bench_script_has_a_spec(self):
        """One spec per benchmarks/bench_*.py script (plus the kernel race)."""
        expected = {
            "aptas", "aptas_budget", "bin_packing", "dc_ratio", "dc_subroutine",
            "fig1_gap", "fig2_ratio3", "fpga_jpeg", "fractional_lb", "grouping",
            "latency_dilation", "level_packers", "lp_configs", "online_policies",
            "online_vs_offline", "packers", "portfolio", "release_baselines",
            "rounding", "service_scaling", "service_throughput", "shelf_nextfit",
            "skyline_bottom_left",
        }
        assert expected <= set(bench_names())

    def test_lookup_roundtrip(self):
        for spec in all_benches():
            assert get_bench(spec.name) is spec

    def test_unknown_name_is_canonical_error(self):
        with pytest.raises(InvalidInstanceError, match="unknown bench 'nope'"):
            get_bench("nope")

    def test_quick_sweep_defaults_to_prefix(self):
        spec = _tiny_spec("sweepcheck", sizes=(2, 4, 8), quick_sizes=None)
        assert spec.sweep(quick=False) == (2, 4, 8)
        assert spec.sweep(quick=True) == (2, 4)

    def test_spec_validation(self):
        entry = BenchEntry(label="x", kind="callable", fn=lambda inst: None)
        with pytest.raises(ValueError, match="at least one entry"):
            BenchSpec(name="bad", title="", workload=_wl, entries=(), sizes=(1,))
        with pytest.raises(ValueError, match="at least one size"):
            BenchSpec(name="bad", title="", workload=_wl, entries=(entry,), sizes=())
        with pytest.raises(ValueError, match="duplicate entry labels"):
            BenchSpec(name="bad", title="", workload=_wl, entries=(entry, entry), sizes=(1,))

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="kind"):
            BenchEntry(label="x", kind="warp")
        with pytest.raises(ValueError, match="algorithm"):
            BenchEntry(label="x", kind="engine")
        with pytest.raises(ValueError, match="policy"):
            BenchEntry(label="x", kind="sim")
        with pytest.raises(ValueError, match="fn"):
            BenchEntry(label="x", kind="callable")


# ----------------------------------------------------------------------
# runner + artifact round-trip
# ----------------------------------------------------------------------

def _wl(n, rng):
    return StripPackingInstance(
        [Rect(rid=i, width=0.5, height=1.0) for i in range(n)]
    )


def _tiny_spec(name, *, sizes=(2, 3), quick_sizes=(2,), entries=None, **kw):
    entries = entries or (
        BenchEntry(label="nfdh", kind="engine", algorithm="nfdh"),
        BenchEntry(label="noop", kind="callable", fn=lambda inst: len(inst)),
    )
    return BenchSpec(
        name=name, title=f"test spec {name}", workload=_wl,
        entries=entries, sizes=sizes, quick_sizes=quick_sizes,
        repetitions=2, warmup=1, **kw,
    )


class TestRunnerAndArtifact:
    def test_run_bench_shape(self):
        artifact = run_bench(_tiny_spec("shape"))
        validate_artifact(artifact)
        assert artifact["schema"] == SCHEMA
        assert artifact["quick"] is False
        # the legacy kernel_tier field is read, never written
        assert "kernel_tier" not in artifact
        # 2 sizes x 2 entries
        assert len(artifact["points"]) == 4
        for pt in artifact["points"]:
            assert len(pt["times_s"]) == 2
            assert pt["min_s"] <= pt["median_s"] <= pt["p95_s"]
        engine_pts = [p for p in artifact["points"] if p["label"] == "nfdh"]
        assert all(p["metrics"]["valid"] is True for p in engine_pts)
        assert all(p["metrics"]["ratio"] >= 1.0 for p in engine_pts)
        callable_pts = [p for p in artifact["points"] if p["label"] == "noop"]
        assert [p["metrics"]["value"] for p in callable_pts] == [2.0, 3.0]

    def test_entries_interleave_within_each_repetition(self):
        """Each repetition times every entry once before the next begins,
        so a host phase change shifts all entries alike."""
        calls = []
        entries = tuple(
            BenchEntry(label=label, kind="callable",
                       fn=lambda inst, label=label: calls.append(label))
            for label in ("a", "b")
        )
        spec = _tiny_spec("interleave", sizes=(2,), entries=entries)
        artifact = run_bench(spec, repetitions=3, warmup=0)
        assert calls == ["a", "b", "a", "b", "a", "b"]
        assert [p["label"] for p in artifact["points"]] == ["a", "b"]
        assert all(len(p["times_s"]) == 3 for p in artifact["points"])

    def test_quick_run_uses_quick_sizes(self):
        artifact = run_bench(_tiny_spec("quick"), quick=True)
        assert artifact["quick"] is True
        assert {p["size"] for p in artifact["points"]} == {2}

    def test_sim_entries_carry_trace_metrics(self):
        from repro.workloads.releases import bursty_release_instance

        spec = BenchSpec(
            name="simspec", title="sim", sizes=(6,),
            workload=lambda n, rng: bursty_release_instance(n, 4, rng),
            entries=(BenchEntry(label="ff", kind="sim", policy="first_fit"),),
            repetitions=1, warmup=0,
        )
        artifact = run_bench(spec)
        (pt,) = artifact["points"]
        assert pt["metrics"]["valid"] is True
        assert pt["metrics"]["height"] > 0
        assert "max_queue_depth" in pt["metrics"]

    def test_engine_entry_requires_instance(self):
        spec = BenchSpec(
            name="badwl", title="", sizes=(2,),
            workload=lambda n, rng: {"not": "an instance"},
            entries=(BenchEntry(label="nfdh", kind="engine", algorithm="nfdh"),),
        )
        with pytest.raises(InvalidInstanceError, match="StripPackingInstance"):
            run_bench(spec)

    def test_artifact_roundtrip(self, tmp_path):
        artifact = run_bench(_tiny_spec("roundtrip"), quick=True)
        path = write_artifact(artifact, tmp_path)
        assert path == artifact_path(tmp_path, "roundtrip")
        assert path.name == "BENCH_roundtrip.json"
        assert load_artifact(path) == artifact

    @pytest.mark.parametrize("mutate, message", [
        (lambda a: a.update(schema="repro-bench/0"), "unknown schema"),
        (lambda a: a.pop("points"), "missing field 'points'"),
        (lambda a: a["config"].pop("sizes"), "config missing 'sizes'"),
        (lambda a: a["points"][0].pop("times_s"), "missing 'times_s'"),
        (lambda a: a["points"][0].update(times_s=[]), "times_s is empty"),
        (lambda a: a["points"][0].update(median_s="fast"), "median_s must be a number"),
    ])
    def test_validate_rejects_malformed(self, mutate, message):
        artifact = run_bench(_tiny_spec("malformed"), quick=True)
        mutate(artifact)
        with pytest.raises(BenchArtifactError, match=message):
            validate_artifact(artifact)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        with pytest.raises(BenchArtifactError, match="not JSON"):
            load_artifact(path)


class TestCommittedSkylineArtifact:
    """The checked-in before/after artifact of the skyline optimization."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_skyline_bottom_left.json"
        )
        return load_artifact(path)  # schema-validates

    def test_speedup_at_1e5_rects(self, artifact):
        """ISSUE acceptance: >= 10x over the reference kernel at n=100000."""
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        assert medians[("reference", 100_000)] / medians[("optimized", 100_000)] >= 10.0
        # and the optimized kernel packs 1e5 rectangles in seconds
        assert medians[("optimized", 100_000)] < 10.0

    def test_same_heights_per_size(self, artifact):
        """Both kernels packed every sweep size to the same height."""
        heights: dict[int, set[float]] = {}
        for p in artifact["points"]:
            heights.setdefault(p["size"], set()).add(p["metrics"]["height"])
        assert heights and all(len(hs) == 1 for hs in heights.values())

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        from repro.bench import get_bench

        spec = get_bench("skyline_bottom_left")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedLevelPackersArtifact:
    """The checked-in before/after artifact of the list-based level kernels."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_level_packers.json"
        )
        return load_artifact(path)  # schema-validates

    def test_ffdh_speedup_at_1e5_rects(self, artifact):
        """ISSUE acceptance: >= 5x over the reference FFDH at n=100000."""
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        assert medians[("reference_ffdh", 100_000)] / medians[("ffdh", 100_000)] >= 5.0
        # and the production kernel packs 1e5 rectangles in seconds
        assert medians[("ffdh", 100_000)] < 10.0

    def test_scan_packers_speed_up_nfdh_stays_parity(self, artifact):
        """The scan-heavy packers gain an order of magnitude; NFDH (a
        one-level streaming loop, never quadratic) has no scan to remove
        and stays within a small constant of its reference, which runs the
        same loop over level objects."""
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        for name in ("ffdh", "bfdh"):
            assert medians[(f"reference_{name}", 100_000)] / medians[(name, 100_000)] >= 5.0
        assert medians[("nfdh", 100_000)] <= medians[("reference_nfdh", 100_000)] * 2.0

    def test_same_heights_per_size_and_packer(self, artifact):
        """Array and reference kernels packed every size to the same height."""
        heights: dict[tuple[str, int], set[float]] = {}
        for p in artifact["points"]:
            key = (p["label"].replace("reference_", ""), p["size"])
            heights.setdefault(key, set()).add(p["metrics"]["height"])
        assert heights and all(len(hs) == 1 for hs in heights.values())

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        from repro.bench import get_bench

        spec = get_bench("level_packers")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {
            (e.label, s) for e in spec.entries for s in spec.sweep(quick=True)
        }
        assert committed & quick


class TestCommittedDCKernelArtifact:
    """The checked-in race of DC on row indices against the reference DC."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_dc_kernel.json"
        )
        return load_artifact(path)  # schema-validates

    def test_speedup_at_1000_rects(self, artifact):
        """At least 2x over the line-by-line reference at n=1000."""
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        assert medians[("reference_dc", 1_000)] / medians[("dc", 1_000)] >= 2.0

    def test_same_heights_per_size(self, artifact):
        """Both versions packed every sweep size to the same height."""
        heights: dict[int, set[float]] = {}
        for p in artifact["points"]:
            heights.setdefault(p["size"], set()).add(p["metrics"]["height"])
        assert heights and all(len(hs) == 1 for hs in heights.values())

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        spec = get_bench("dc_kernel")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedAPTASLPArtifact:
    """The checked-in race of the Lemma 3.3 LP (one direct HiGHS call on a
    memoized skeleton) against the reference's linprog on row-by-row rows."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_aptas_lp.json"
        )
        return load_artifact(path)  # schema-validates

    def test_speedup_at_1000_rects(self, artifact):
        """At least 1.5x over the reference at n=1000."""
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        ratio = medians[("reference_solve_fractional", 1_000)] / medians[("solve_fractional", 1_000)]
        assert ratio >= 1.5

    def test_same_heights_per_size(self, artifact):
        """Both versions reached the same fractional height at every size."""
        heights: dict[int, set[float]] = {}
        for p in artifact["points"]:
            heights.setdefault(p["size"], set()).add(p["metrics"]["height"])
        assert heights and all(len(hs) == 1 for hs in heights.values())

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        spec = get_bench("aptas_lp")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedValidatorArtifact:
    """The checked-in timing of validate_placement on three placement shapes."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_validator.json"
        )
        return load_artifact(path)  # schema-validates

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        spec = get_bench("validator")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedServiceArtifact:
    """The checked-in throughput artifact of the solve service."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_service_throughput.json"
        )
        return load_artifact(path)  # schema-validates

    def test_cached_requests_sustain_100_rps(self, artifact):
        """ISSUE acceptance: >= 100 req/s on cached requests."""
        by_point = {(p["label"], p["size"]): p["metrics"] for p in artifact["points"]}
        biggest = max(size for _, size in by_point)
        assert by_point[("cached", biggest)]["rps"] >= 100.0
        assert by_point[("cached", biggest)]["ok"] is True

    def test_cached_runs_hit_the_cache_and_cold_runs_do_not(self, artifact):
        for p in artifact["points"]:
            if p["label"] == "cached":
                # everything after the first solve of the single instance
                assert p["metrics"]["hit_rate"] >= 1.0 - 2.0 / p["size"]
            else:
                assert p["metrics"]["hit_rate"] == 0.0

    def test_cached_faster_than_cold(self, artifact):
        medians = {(p["label"], p["size"]): p["median_s"] for p in artifact["points"]}
        for size in {s for _, s in medians}:
            assert medians[("cached", size)] < medians[("cold", size)]

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        from repro.bench import get_bench

        spec = get_bench("service_throughput")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedScalingArtifact:
    """The checked-in worker-count scaling artifact of the sharded service."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_service_scaling.json"
        )
        return load_artifact(path)  # schema-validates

    @staticmethod
    def _metrics(artifact):
        """``(mode, workers, size) -> metrics`` from the ``mode[wN]`` labels."""
        out = {}
        for p in artifact["points"]:
            mode, _, rest = p["label"].partition("[w")
            workers = int(rest.rstrip("]"))
            assert p["metrics"]["workers"] == workers  # label and payload agree
            out[(mode, workers, p["size"])] = p["metrics"]
        return out

    def test_covers_the_full_sweep(self, artifact):
        by_point = self._metrics(artifact)
        sizes = {size for _, _, size in by_point}
        for mode in ("cached", "cold"):
            for workers in (1, 2, 4):
                for size in sizes:
                    assert (mode, workers, size) in by_point

    def test_every_step_completed_error_free(self, artifact):
        for metrics in self._metrics(artifact).values():
            assert metrics["ok"] is True
            assert metrics["rps"] > 0 and metrics["cpus"] >= 1

    def test_cold_scaling_efficiency_on_multicore(self, artifact):
        """ISSUE acceptance: cold rps at workers=4 >= 2.5x workers=1 —
        only meaningful when the artifact was measured on >= 4 cores; a
        1-core runner's curve is recorded but not gated (extra processes
        cannot beat the single-process path without cores to run on)."""
        by_point = self._metrics(artifact)
        cpus = min(m["cpus"] for m in by_point.values())
        if cpus < 4:
            pytest.skip(f"artifact measured on {cpus} cpu(s); scaling gate needs >= 4")
        biggest = max(size for _, _, size in by_point)
        ratio = by_point[("cold", 4, biggest)]["rps"] / by_point[("cold", 1, biggest)]["rps"]
        assert ratio >= 2.5

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        from repro.bench import get_bench

        spec = get_bench("service_scaling")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


class TestCommittedSessionsArtifact:
    """The checked-in warm-start triad artifact: cached vs warm vs cold."""

    @pytest.fixture(scope="class")
    def artifact(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "artifacts" / "BENCH_service_sessions.json"
        )
        return load_artifact(path)  # schema-validates

    @staticmethod
    def _metrics(artifact):
        return {(p["label"], p["size"]): p["metrics"] for p in artifact["points"]}

    def test_warm_latency_strictly_between_cached_and_cold(self, artifact):
        """ISSUE acceptance: cached p50 < warm p50 < cold p50 at every size."""
        by_point = self._metrics(artifact)
        for size in {s for _, s in by_point}:
            cached = by_point[("cached", size)]["p50_ms"]
            warm = by_point[("warm", size)]["p50_ms"]
            cold = by_point[("cold", size)]["p50_ms"]
            assert cached < warm < cold

    def test_warm_at_least_1_5x_faster_than_cold(self, artifact):
        """ISSUE acceptance: warm repair >= 1.5x faster than a cold solve."""
        by_point = self._metrics(artifact)
        for size in {s for _, s in by_point}:
            ratio = by_point[("cold", size)]["p50_ms"] / by_point[("warm", size)]["p50_ms"]
            assert ratio >= 1.5

    def test_entry_provenance_is_what_the_label_claims(self, artifact):
        """cached hits the content cache, warm repairs a neighbor, cold
        does neither — the headers the loadgen counted must agree."""
        for (label, _), metrics in self._metrics(artifact).items():
            assert metrics["ok"] is True
            if label == "cached":
                assert metrics["hit_rate"] == 1.0
            elif label == "warm":
                assert metrics["warm_rate"] >= 0.8
                assert metrics["hit_rate"] == 0.0
            else:
                assert metrics["warm_rate"] == 0.0
                assert metrics["hit_rate"] == 0.0

    def test_quick_sizes_overlap_for_ci_compare(self, artifact):
        """CI diffs a --quick run against this artifact; at least one
        (label, size) point must overlap or compare_artifacts errors."""
        from repro.bench import get_bench

        spec = get_bench("service_sessions")
        committed = {(p["label"], p["size"]) for p in artifact["points"]}
        quick = {(e.label, s) for e in spec.entries for s in spec.sweep(quick=True)}
        assert committed & quick


# ----------------------------------------------------------------------
# comparison mode
# ----------------------------------------------------------------------

def _synthetic_artifact(medians: dict[tuple[str, int], float], name="synth"):
    """A schema-valid artifact with prescribed medians."""
    artifact = {
        "schema": SCHEMA, "name": name, "title": "synthetic", "source": "",
        "quick": False, "seed": 0, "created": "2026-07-30T00:00:00+00:00",
        "machine": {"python": "x", "platform": "y", "numpy": "z"},
        "config": {
            "sizes": sorted({s for _, s in medians}), "size_name": "n",
            "repetitions": 1, "warmup": 0,
            "entries": sorted({label for label, _ in medians}),
        },
        "points": [
            {
                "label": label, "kind": "callable", "size": size, "params": {},
                "times_s": [t], "median_s": t, "p95_s": t, "mean_s": t, "min_s": t,
                "metrics": {},
            }
            for (label, size), t in medians.items()
        ],
    }
    validate_artifact(artifact)
    return artifact


class TestCompare:
    def test_synthetic_slowdown_is_flagged(self):
        baseline = _synthetic_artifact({("a", 10): 0.05, ("a", 20): 0.2})
        current = _synthetic_artifact({("a", 10): 0.051, ("a", 20): 0.9})
        result = compare_artifacts(baseline, current)
        assert not result.ok
        (reg,) = result.regressions
        assert (reg.label, reg.size) == ("a", 20)
        assert reg.ratio == pytest.approx(4.5)
        # the unregressed point is ok, not flagged
        statuses = {(r.label, r.size): r.status for r in result.rows}
        assert statuses[("a", 10)] == "ok"

    def test_subfloor_noise_not_flagged(self):
        """A 10x slowdown on a microsecond point stays quiet (absolute floor)."""
        baseline = _synthetic_artifact({("a", 10): 1e-5})
        current = _synthetic_artifact({("a", 10): 1e-4})
        assert compare_artifacts(baseline, current).ok

    def test_improvement_and_new_and_missing(self):
        baseline = _synthetic_artifact({("a", 10): 0.5, ("gone", 10): 0.1})
        current = _synthetic_artifact({("a", 10): 0.1, ("fresh", 10): 0.1})
        result = compare_artifacts(baseline, current)
        assert result.ok
        statuses = {(r.label, r.size): r.status for r in result.rows}
        assert statuses[("a", 10)] == "improved"
        assert statuses[("fresh", 10)] == "new"
        assert statuses[("gone", 10)] == "missing"

    def test_disjoint_sweeps_rejected(self):
        """A quick-vs-full diff (zero matched points) must not pass vacuously."""
        baseline = _synthetic_artifact({("a", 500): 0.001})
        current = _synthetic_artifact({("a", 100_000): 99.0})
        with pytest.raises(ValueError, match="no overlapping"):
            compare_artifacts(baseline, current)

    def test_mismatched_names_rejected(self):
        a = _synthetic_artifact({("a", 1): 0.1}, name="one")
        b = _synthetic_artifact({("a", 1): 0.1}, name="two")
        with pytest.raises(ValueError, match="cannot compare"):
            compare_artifacts(a, b)

    def test_threshold_validation(self):
        a = _synthetic_artifact({("a", 1): 0.1})
        with pytest.raises(ValueError, match="threshold"):
            compare_artifacts(a, a, threshold=0.9)

    def test_legacy_kernel_tier_field_still_compares(self):
        """Committed artifacts may carry the legacy ``kernel_tier`` field;
        they validate and diff against fresh artifacts that do not."""
        fresh = _synthetic_artifact({("a", 10): 0.1})
        legacy = dict(_synthetic_artifact({("a", 10): 0.1}), kernel_tier="array")
        validate_artifact(legacy)
        assert compare_artifacts(legacy, fresh).ok
        assert compare_artifacts(fresh, legacy).ok

    def test_ill_typed_kernel_tier_rejected(self):
        bad = dict(_synthetic_artifact({("a", 10): 0.1}), kernel_tier=3)
        with pytest.raises(BenchArtifactError, match="kernel_tier"):
            validate_artifact(bad)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_spec():
    """A registered spec with a deterministic, compare-friendly duration."""
    from repro.bench.spec import _BENCHES

    name = "clibench"
    if name not in _BENCHES:
        spec = BenchSpec(
            name=name, title="CLI test bench", workload=_wl,
            entries=(
                BenchEntry(
                    label="sleep", kind="callable",
                    fn=lambda inst: time.sleep(0.005),
                ),
            ),
            sizes=(2,), repetitions=1, warmup=0,
        )
        _BENCHES[name] = spec
    yield name
    _BENCHES.pop(name, None)


class TestCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bench registry" in out and "skyline_bottom_left" in out

    def test_run_writes_schema_valid_artifact(self, tmp_path, capsys, cli_spec):
        assert main(["bench", cli_spec, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        path = tmp_path / f"BENCH_{cli_spec}.json"
        assert f"artifact written to {path}" in out
        artifact = load_artifact(path)  # validates
        assert artifact["name"] == cli_spec

    def test_compare_regression_exits_1(self, tmp_path, capsys, cli_spec):
        assert main(["bench", cli_spec, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / f"BENCH_{cli_spec}.json"
        baseline = json.loads(path.read_text())
        for pt in baseline["points"]:  # doctor a much faster past
            for key in ("median_s", "p95_s", "mean_s", "min_s"):
                pt[key] = pt[key] / 1000.0
            pt["times_s"] = [pt["median_s"]]
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        code = main(["bench", cli_spec, "--out", str(tmp_path), "--compare", str(base_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out

    def test_compare_self_passes(self, tmp_path, capsys, cli_spec, monkeypatch):
        # A fake clock that advances 5 ms per reading: both runs record
        # identical medians, so no host stall can read as a regression.
        import types

        ticks = iter(range(10**6))
        monkeypatch.setattr(
            "repro.bench.runner.time",
            types.SimpleNamespace(perf_counter=lambda: 0.005 * next(ticks)),
        )
        assert main(["bench", cli_spec, "--out", str(tmp_path)]) == 0
        path = tmp_path / f"BENCH_{cli_spec}.json"
        code = main(["bench", cli_spec, "--out", str(tmp_path), "--compare", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and "no regressions" in out

    @pytest.mark.parametrize("argv, message", [
        (["bench"], "nothing to run"),
        (["bench", "nosuch"], "unknown bench"),
        (["bench", "--all", "fig1_gap"], "not both"),
        (["bench", "fig1_gap", "--repetitions", "0"], "--repetitions"),
        (["bench", "fig1_gap", "--threshold", "0.5"], "--threshold"),
        (["bench", "fig1_gap", "--compare", "does-not-exist.json"], "cannot read"),
    ])
    def test_bad_input_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and message in out

    @pytest.mark.parametrize("flag", ["--backend thread", "--jobs 2"])
    def test_executor_flags_are_unknown(self, flag):
        """Specs run one at a time in this process; argparse refuses
        executor flags on ``bench`` with exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig1_gap", *flag.split()])
        assert exc.value.code == 2

    def test_compare_disjoint_sweep_exits_2(self, tmp_path, capsys, cli_spec):
        """Baseline whose points share no (entry, size) with the run: exit 2."""
        assert main(["bench", cli_spec, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / f"BENCH_{cli_spec}.json"
        baseline = json.loads(path.read_text())
        for pt in baseline["points"]:
            pt["size"] += 1000  # no longer matches any fresh point
        base_path = tmp_path / "disjoint.json"
        base_path.write_text(json.dumps(baseline))
        assert main(["bench", cli_spec, "--out", str(tmp_path),
                     "--compare", str(base_path)]) == 2
        assert "no overlapping" in capsys.readouterr().out

    def test_compare_baseline_for_unrun_bench_exits_2(self, tmp_path, capsys, cli_spec):
        assert main(["bench", cli_spec, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / f"BENCH_{cli_spec}.json"
        assert main(["bench", "fig1_gap", "--quick", "--out", str(tmp_path),
                     "--compare", str(path)]) == 2
        assert "not being run" in capsys.readouterr().out
