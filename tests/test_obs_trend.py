"""Bench-history trend gating (:mod:`repro.obs.trend` + ``repro bench trend``).

Synthetic artifact histories are written with the real
``bench.artifact`` writer, so everything the trend pipeline consumes is
schema-valid by construction.  The acceptance contract: a history whose
last ``window`` runs are all slower than baseline trips the gate (CLI
exit 1); the repo's committed ``benchmarks/artifacts`` passes it; one
noisy run does not trip it.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.bench.artifact import SCHEMA, machine_info
from repro.cli import main
from repro.obs.trend import (
    DEFAULT_DRIFT_THRESHOLD,
    TREND_FILENAME,
    TREND_SCHEMA,
    run_trend,
    trend_table,
    validate_trend,
    write_trend,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / "benchmarks" / "artifacts"


def make_artifact(name: str, created: str, medians: dict[str, float],
                  size: int = 100) -> dict:
    """A minimal schema-valid artifact: one point per ``medians`` entry."""
    return {
        "schema": SCHEMA,
        "name": name,
        "title": f"synthetic {name}",
        "source": "tests/test_obs_trend.py",
        "quick": True,
        "seed": 0,
        "created": created,
        "machine": machine_info(),
        "config": {
            "sizes": [size],
            "size_name": "n",
            "repetitions": 1,
            "warmup": 0,
            "entries": sorted(medians),
        },
        "points": [
            {
                "label": label,
                "kind": "synthetic",
                "size": size,
                "params": {},
                "times_s": [median],
                "median_s": median,
                "p95_s": median,
                "mean_s": median,
                "min_s": median,
                "metrics": {},
            }
            for label, median in sorted(medians.items())
        ],
    }


def write_history(directory: Path, runs: list[dict[str, float]], name: str = "synth"):
    """One sub-directory per historical run (timestamps order them)."""
    for i, medians in enumerate(runs):
        run_dir = directory / f"run{i:02d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        artifact = make_artifact(name, f"2026-01-{i + 1:02d}T00:00:00+00:00", medians)
        (run_dir / f"BENCH_{name}.json").write_text(json.dumps(artifact))
    return [directory / f"run{i:02d}" for i in range(len(runs))]


class TestRunTrend:
    def test_drifting_history_is_flagged(self, tmp_path):
        # baseline 10ms, then three consecutive runs at 2x: sustained drift
        dirs = write_history(
            tmp_path, [{"e": 0.010}, {"e": 0.020}, {"e": 0.021}, {"e": 0.022}]
        )
        document, drifts = run_trend(dirs, window=3)
        assert len(drifts) == 1
        drift = drifts[0]
        assert drift["bench"] == "synth" and drift["entry"] == "e"
        assert drift["ratio"] == pytest.approx(2.2)
        validate_trend(document)

    def test_single_noisy_run_does_not_trip(self, tmp_path):
        # one slow run sandwiched between healthy ones: not sustained
        dirs = write_history(
            tmp_path, [{"e": 0.010}, {"e": 0.010}, {"e": 0.030}, {"e": 0.010}]
        )
        _, drifts = run_trend(dirs, window=3)
        assert drifts == []

    def test_short_history_cannot_drift(self, tmp_path):
        # window runs above threshold but no pre-window baseline run
        dirs = write_history(tmp_path, [{"e": 0.010}, {"e": 0.030}, {"e": 0.030}])
        _, drifts = run_trend(dirs, window=3)
        assert drifts == []

    def test_small_absolute_deltas_are_ignored(self, tmp_path):
        # 2x ratio but only 0.2ms absolute: below the min_delta_s floor
        dirs = write_history(
            tmp_path, [{"e": 0.0002}, {"e": 0.0004}, {"e": 0.0004}, {"e": 0.0004}]
        )
        _, drifts = run_trend(dirs, window=3)
        assert drifts == []

    def test_document_written_and_excluded_from_discovery(self, tmp_path):
        dirs = write_history(tmp_path, [{"e": 0.01}, {"e": 0.01}])
        out = tmp_path / "out"
        document, _ = run_trend(dirs)
        assert write_trend(document, out) == out / TREND_FILENAME
        on_disk = json.loads((out / TREND_FILENAME).read_text())
        assert on_disk["schema"] == TREND_SCHEMA
        assert on_disk["artifacts"] == document["artifacts"] == 2
        # a second pass over the out dir must not re-ingest the document
        document2, _ = run_trend([*dirs, out])
        assert document2["artifacts"] == 2

    def test_invalid_artifact_is_reported_not_fatal(self, tmp_path):
        dirs = write_history(tmp_path, [{"e": 0.01}, {"e": 0.01}])
        (dirs[0] / "BENCH_broken.json").write_text("{not json")
        document, drifts = run_trend(dirs)
        assert drifts == []
        assert document["artifacts"] == 2
        assert len(document["load_errors"]) == 1

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_trend([tmp_path], window=0)
        with pytest.raises(ValueError):
            run_trend([tmp_path], threshold=1.0)

    def test_trend_table_marks_drift(self, tmp_path):
        dirs = write_history(
            tmp_path, [{"e": 0.010}, {"e": 0.020}, {"e": 0.021}, {"e": 0.022}]
        )
        document, _ = run_trend(dirs, window=3)
        rendered = trend_table(document).render()
        assert "DRIFT" in rendered and "synth" in rendered

    def test_validate_trend_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_trend({"schema": "nope"})
        with pytest.raises(ValueError, match="object"):
            validate_trend([])


class TestCliBenchTrend:
    def test_committed_artifacts_pass_the_gate(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["bench", "trend", "--artifacts", str(COMMITTED), "--out", str(tmp_path)],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "no sustained drift" in out.getvalue()
        validate_trend(json.loads((tmp_path / TREND_FILENAME).read_text()))

    def test_drifting_history_exits_nonzero(self, tmp_path):
        history = tmp_path / "history"
        dirs = write_history(
            history, [{"e": 0.010}, {"e": 0.020}, {"e": 0.021}, {"e": 0.022}]
        )
        out = io.StringIO()
        code = main(
            [
                "bench", "trend",
                "--artifacts", str(dirs[0]),
                *[arg for d in dirs[1:] for arg in ("--history", str(d))],
                "--out", str(tmp_path / "out"),
            ],
            out=out,
        )
        assert code == 1
        text = out.getvalue()
        assert "DRIFT" in text and "1 drifting series flagged" in text

    def test_missing_directory_is_a_usage_error(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["bench", "trend", "--artifacts", str(tmp_path / "nope")], out=out
        )
        assert code == 2 and "not a directory" in out.getvalue()

    def test_empty_directory_is_a_usage_error(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["bench", "trend", "--artifacts", str(tmp_path), "--out", str(tmp_path)],
            out=out,
        )
        assert code == 2 and "no BENCH_" in out.getvalue()
        # rejected input writes no trend document
        assert not (tmp_path / "BENCH_trend.json").exists()

    def test_bad_window_and_threshold_are_usage_errors(self, tmp_path):
        for argv in (
            ["bench", "trend", "--artifacts", str(COMMITTED), "--window", "0"],
            ["bench", "trend", "--artifacts", str(COMMITTED),
             "--drift-threshold", "1.0"],
        ):
            out = io.StringIO()
            assert main([*argv, "--out", str(tmp_path)], out=out) == 2

    def test_default_threshold_matches_module(self):
        assert DEFAULT_DRIFT_THRESHOLD == 1.25
