"""Comparison mode: diff two bench artifacts and flag regressions.

``repro bench NAME --compare BASELINE.json`` (and CI) use this to answer
"did this change make anything slower?" without eyeballing JSON.  Points
are matched by ``(label, size)``; a point regresses when its median slowed
down by more than ``threshold`` *and* by more than ``min_delta_s`` —
the absolute floor keeps microsecond-scale noise from tripping the
ratio test on trivially fast points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .artifact import validate_artifact

__all__ = ["ComparisonRow", "ComparisonResult", "compare_artifacts"]

#: A current median this many times the baseline median is a regression...
DEFAULT_THRESHOLD = 1.5
#: ...provided it also slowed down by at least this many seconds.
DEFAULT_MIN_DELTA_S = 1e-3


@dataclass(frozen=True)
class ComparisonRow:
    """One matched (or unmatched) point pair."""

    label: str
    size: int
    baseline_s: float | None
    current_s: float | None
    ratio: float | None  # current / baseline median
    status: str  # "ok" | "improved" | "regression" | "new" | "missing"


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of diffing one artifact pair."""

    name: str
    rows: tuple[ComparisonRow, ...]
    threshold: float

    @property
    def regressions(self) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.status == "regression")

    @property
    def ok(self) -> bool:
        """No regression found (new/missing points are not failures)."""
        return not self.regressions

    def table(self):
        """Rendered summary (an :class:`~repro.analysis.report.Table`)."""
        from ..analysis.report import Table

        table = Table(
            ["entry", "size", "baseline_s", "current_s", "ratio", "status"],
            title=f"compare {self.name} (threshold {self.threshold:g}x)",
        )
        for r in self.rows:
            table.add_row([
                r.label,
                r.size,
                "-" if r.baseline_s is None else r.baseline_s,
                "-" if r.current_s is None else r.current_s,
                "-" if r.ratio is None else r.ratio,
                r.status,
            ])
        return table


def _points_by_key(artifact: dict[str, Any]) -> dict[tuple[str, int], dict]:
    return {(pt["label"], pt["size"]): pt for pt in artifact["points"]}


def compare_artifacts(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
) -> ComparisonResult:
    """Diff ``current`` against ``baseline`` (both artifact dicts).

    The artifacts must describe the same bench spec (matching ``name``);
    mismatched names raise ``ValueError`` because a cross-spec diff is
    meaningless.  So do sweeps with **zero** overlapping ``(label, size)``
    points (e.g. a quick artifact against a full one) — otherwise the
    regression gate would pass vacuously on rows that are all
    ``new``/``missing``.  Rows come back in the current artifact's point
    order, with baseline-only points appended as ``missing``.
    """
    validate_artifact(baseline, where="baseline")
    validate_artifact(current, where="current")
    if baseline["name"] != current["name"]:
        raise ValueError(
            f"cannot compare different benches: baseline is "
            f"{baseline['name']!r}, current is {current['name']!r}"
        )
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold:g}")
    base_points = _points_by_key(baseline)
    rows: list[ComparisonRow] = []
    seen: set[tuple[str, int]] = set()
    for pt in current["points"]:
        key = (pt["label"], pt["size"])
        seen.add(key)
        cur = float(pt["median_s"])
        base_pt = base_points.get(key)
        if base_pt is None:
            rows.append(ComparisonRow(pt["label"], pt["size"], None, cur, None, "new"))
            continue
        base = float(base_pt["median_s"])
        ratio = cur / base if base > 0 else None
        if ratio is not None and ratio > threshold and cur - base > min_delta_s:
            status = "regression"
        elif ratio is not None and ratio < 1.0 / threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(ComparisonRow(pt["label"], pt["size"], base, cur, ratio, status))
    for key, base_pt in base_points.items():
        if key not in seen:
            rows.append(
                ComparisonRow(key[0], key[1], float(base_pt["median_s"]), None, None, "missing")
            )
    if not (seen & base_points.keys()):
        raise ValueError(
            f"no overlapping (entry, size) points between the artifacts for "
            f"{current['name']!r} — comparing different sweeps? "
            f"(baseline quick={baseline['quick']}, current quick={current['quick']})"
        )
    return ComparisonResult(current["name"], tuple(rows), threshold)
