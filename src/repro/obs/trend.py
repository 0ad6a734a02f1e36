"""Bench-history trend gating: ``repro bench trend``.

The ``--compare`` mode answers "is *this* run slower than *that* one?".
Trend gating answers the question CI actually cares about: **has a bench
been drifting?**  It loads every committed ``BENCH_*.json`` (plus an
optional history directory of older runs), orders each bench's artifacts
by their ``created`` timestamp into per-``(entry, size)`` median series,
and flags *sustained* drift — the last ``window`` runs all slower than
the series baseline by more than ``threshold``× and ``min_delta_s``
seconds.  One noisy run does not trip the gate; ``window`` consecutive
ones do.  A bench with a single committed artifact has no history and
can never drift, so the gate passes trivially on a freshly-seeded repo.

The comparison is three plain functions (a loader, a grouper and a
drift detector), and :func:`run_trend` assembles their results into a
schema'd document (:data:`TREND_SCHEMA`, written as
``BENCH_trend.json``) and the list of drifting series; the CLI exits
nonzero iff that list is non-empty.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Iterable

from ..bench.artifact import BenchArtifactError, load_artifact

__all__ = [
    "TREND_SCHEMA",
    "TREND_FILENAME",
    "DEFAULT_WINDOW",
    "DEFAULT_DRIFT_THRESHOLD",
    "run_trend",
    "write_trend",
    "validate_trend",
    "trend_table",
]

#: Schema identifier of the ``BENCH_trend.json`` document.
TREND_SCHEMA = "repro-trend/1"

#: The trend document's canonical filename (excluded from discovery).
TREND_FILENAME = "BENCH_trend.json"

#: Number of most-recent runs that must *all* exceed the threshold.
DEFAULT_WINDOW = 3

#: Sustained-drift ratio vs the series baseline.  Tighter than the
#: single-pair compare threshold (1.5) because ``window`` consecutive
#: exceedances already filter noise.
DEFAULT_DRIFT_THRESHOLD = 1.25

#: Absolute slowdown floor (seconds) — same reasoning as compare.
DEFAULT_MIN_DELTA_S = 1e-3


# ----------------------------------------------------------------------
# loader, grouper, drift detector
# ----------------------------------------------------------------------


def _load(directories: Iterable[Path | str]) -> tuple[list[dict[str, Any]], list[str]]:
    """Parse and schema-validate every ``BENCH_*.json`` in ``directories``.

    Returns the valid artifacts and one error line per artifact that
    failed to load; the trend document itself is never read.
    """
    artifacts: list[dict[str, Any]] = []
    errors: list[str] = []
    for directory in map(Path, directories):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("BENCH_*.json")):
            if path.name == TREND_FILENAME:
                continue
            try:
                artifacts.append(load_artifact(path))
            except BenchArtifactError as exc:
                errors.append(str(exc))
    return artifacts, errors


def _series(artifacts: list[dict[str, Any]]) -> dict[str, dict[tuple[str, int], dict]]:
    """Per bench, per ``(entry, size)``: medians and timestamps in run order."""
    by_bench: dict[str, list[dict[str, Any]]] = {}
    for artifact in artifacts:
        by_bench.setdefault(artifact["name"], []).append(artifact)
    series: dict[str, dict[tuple[str, int], dict[str, list]]] = {}
    for name, runs in sorted(by_bench.items()):
        # ISO-8601 UTC strings sort chronologically as strings.
        runs.sort(key=lambda a: a["created"])
        per_point: dict[tuple[str, int], dict[str, list]] = {}
        for run in runs:
            for pt in run["points"]:
                key = (pt["label"], int(pt["size"]))
                entry = per_point.setdefault(key, {"medians_s": [], "created": []})
                entry["medians_s"].append(float(pt["median_s"]))
                entry["created"].append(run["created"])
        series[name] = per_point
    return series


def _drifts(
    series: dict[str, dict[tuple[str, int], dict]],
    window: int,
    threshold: float,
    min_delta_s: float,
) -> list[dict[str, Any]]:
    """Series whose last ``window`` runs are all above their baseline."""
    drifts: list[dict[str, Any]] = []
    for bench, per_point in series.items():
        for (label, size), entry in per_point.items():
            medians = entry["medians_s"]
            # Need a baseline *plus* a full window of newer runs.
            if len(medians) < window + 1:
                continue
            baseline = medians[0]
            if baseline <= 0:
                continue
            if all(
                m / baseline > threshold and m - baseline > min_delta_s
                for m in medians[-window:]
            ):
                drifts.append(
                    {
                        "bench": bench,
                        "entry": label,
                        "size": size,
                        "baseline_s": baseline,
                        "latest_s": medians[-1],
                        "ratio": medians[-1] / baseline,
                        "window": window,
                    }
                )
    drifts.sort(key=lambda d: (d["bench"], d["entry"], d["size"]))
    return drifts


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_trend(
    directories: Iterable[Path | str],
    *,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load, group and judge the history; return ``(document, drifts)``.

    ``directories`` is the committed artifact dir plus any history dirs;
    :func:`write_trend` saves the document.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold:g}")
    window, threshold, min_delta_s = int(window), float(threshold), float(min_delta_s)
    artifacts, errors = _load(directories)
    series = _series(artifacts)
    drifts = _drifts(series, window, threshold, min_delta_s)
    runs = Counter(artifact["name"] for artifact in artifacts)
    benches: dict[str, Any] = {}
    for bench, per_point in series.items():
        points = []
        for (label, size), entry in sorted(per_point.items()):
            medians = entry["medians_s"]
            baseline = medians[0]
            points.append(
                {
                    "entry": label,
                    "size": size,
                    "runs": len(medians),
                    "medians_s": medians,
                    "created": entry["created"],
                    "baseline_s": baseline,
                    "latest_s": medians[-1],
                    "ratio": (medians[-1] / baseline) if baseline > 0 else None,
                }
            )
        benches[bench] = {"runs": runs[bench], "points": points}
    document = {
        "schema": TREND_SCHEMA,
        "window": window,
        "threshold": threshold,
        "min_delta_s": min_delta_s,
        "artifacts": len(artifacts),
        "load_errors": errors,
        "benches": benches,
        "drifts": drifts,
    }
    validate_trend(document)
    return document, list(drifts)


def write_trend(document: dict[str, Any], out_dir: Path | str) -> Path:
    """Write ``document`` as ``out_dir/BENCH_trend.json``; return the path."""
    out_path = Path(out_dir) / TREND_FILENAME
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return out_path


def validate_trend(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid trend document."""
    if not isinstance(data, dict):
        raise ValueError(f"trend document must be an object, got {type(data).__name__}")
    if data.get("schema") != TREND_SCHEMA:
        raise ValueError(
            f"unknown schema {data.get('schema')!r} (expected {TREND_SCHEMA!r})"
        )
    for key, typ in (
        ("window", int), ("threshold", (int, float)), ("min_delta_s", (int, float)),
        ("artifacts", int), ("load_errors", list), ("benches", dict), ("drifts", list),
    ):
        if key not in data:
            raise ValueError(f"trend document missing field {key!r}")
        if not isinstance(data[key], typ):
            raise ValueError(f"trend field {key!r} has wrong type")
    for bench, doc in data["benches"].items():
        if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
            raise ValueError(f"benches[{bench!r}] must have a 'points' list")
        for i, pt in enumerate(doc["points"]):
            for key in ("entry", "size", "runs", "medians_s", "baseline_s", "latest_s"):
                if key not in pt:
                    raise ValueError(f"benches[{bench!r}].points[{i}] missing {key!r}")
    for i, drift in enumerate(data["drifts"]):
        for key in ("bench", "entry", "size", "baseline_s", "latest_s", "ratio"):
            if key not in drift:
                raise ValueError(f"drifts[{i}] missing {key!r}")


def trend_table(document: dict[str, Any]):
    """Render the per-series summary as an ``analysis.report.Table``."""
    from ..analysis.report import Table

    table = Table(
        ["bench", "entry", "size", "runs", "baseline_s", "latest_s", "ratio", "status"],
        title=(
            f"bench trend (window {document['window']}, "
            f"threshold {document['threshold']:g}x)"
        ),
    )
    drifting = {
        (d["bench"], d["entry"], d["size"]) for d in document["drifts"]
    }
    for bench, doc in sorted(document["benches"].items()):
        for pt in doc["points"]:
            key = (bench, pt["entry"], pt["size"])
            table.add_row([
                bench,
                pt["entry"],
                pt["size"],
                pt["runs"],
                pt["baseline_s"],
                pt["latest_s"],
                "-" if pt["ratio"] is None else pt["ratio"],
                "DRIFT" if key in drifting else "ok",
            ])
    return table
