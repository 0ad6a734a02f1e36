"""``BENCH_<name>.json`` artifacts: schema, writer, reader, validation.

An artifact is the machine-readable output of one bench run — the unit the
comparison mode diffs and CI uploads.  Schema (``repro-bench/1``):

.. code-block:: text

    {
      "schema": "repro-bench/1",
      "name": str,              # bench spec name
      "title": str,
      "source": str,            # which benchmarks/ script it ports
      "quick": bool,            # quick subset or full sweep
      "seed": int,
      "created": str,           # ISO-8601 UTC
      "machine": {"python": str, "platform": str, "numpy": str},
      "kernel_tier": str,       # optional, legacy: older artifacts record
                                # the kernel tier they ran on; no longer
                                # written, still accepted when present
      "config": {"sizes": [int], "size_name": str,
                 "repetitions": int, "warmup": int, "entries": [str]},
      "points": [
        {"label": str, "kind": str, "size": int, "params": {..},
         "times_s": [float],    # one wall time per repetition
         "median_s": float, "p95_s": float, "mean_s": float, "min_s": float,
         "metrics": {..}}       # height/ratio/valid/... (may be empty)
      ]
    }

:func:`validate_artifact` checks structure, not values: every consumer
(``--compare``, CI, the tests) can assume a validated artifact has the
fields above with the right types.
"""

from __future__ import annotations

import json
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..core.errors import ReproError

__all__ = [
    "SCHEMA",
    "BenchArtifactError",
    "machine_info",
    "artifact_path",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "artifact_table",
]

#: Current artifact schema identifier.
SCHEMA = "repro-bench/1"


class BenchArtifactError(ReproError):
    """A bench artifact is malformed (wrong schema, missing/ill-typed fields)."""


def machine_info() -> dict[str, str]:
    """The environment fingerprint embedded in every artifact."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }


def artifact_path(directory: Path | str, name: str) -> Path:
    """Canonical artifact location: ``<directory>/BENCH_<name>.json``."""
    return Path(directory) / f"BENCH_{name}.json"


def write_artifact(artifact: dict[str, Any], directory: Path | str) -> Path:
    """Validate ``artifact`` and write it to its canonical path."""
    validate_artifact(artifact)
    path = artifact_path(directory, artifact["name"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Path | str) -> dict[str, Any]:
    """Read and validate one artifact file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchArtifactError(f"{path}: not JSON: {exc}") from exc
    validate_artifact(data, where=str(path))
    return data


def new_artifact_header(spec, *, quick: bool, sizes, repetitions: int, warmup: int) -> dict:
    """The non-measurement part of an artifact for ``spec``."""
    return {
        "schema": SCHEMA,
        "name": spec.name,
        "title": spec.title,
        "source": spec.source,
        "quick": bool(quick),
        "seed": spec.seed,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "config": {
            "sizes": [int(n) for n in sizes],
            "size_name": spec.size_name,
            "repetitions": int(repetitions),
            "warmup": int(warmup),
            "entries": [e.label for e in spec.entries],
        },
        "points": [],
    }


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

_POINT_STATS = ("median_s", "p95_s", "mean_s", "min_s")


def _fail(where: str, msg: str) -> None:
    prefix = f"{where}: " if where else ""
    raise BenchArtifactError(f"{prefix}{msg}")


def validate_artifact(data: Any, *, where: str = "") -> None:
    """Raise :class:`BenchArtifactError` unless ``data`` matches the schema."""
    if not isinstance(data, dict):
        _fail(where, f"artifact must be an object, got {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        _fail(where, f"unknown schema {data.get('schema')!r} (expected {SCHEMA!r})")
    for key, typ in (
        ("name", str), ("title", str), ("quick", bool), ("seed", int),
        ("created", str), ("machine", dict), ("config", dict), ("points", list),
    ):
        if key not in data:
            _fail(where, f"missing field {key!r}")
        if not isinstance(data[key], typ):
            _fail(where, f"field {key!r} must be {typ.__name__}, "
                         f"got {type(data[key]).__name__}")
    # Optional legacy field (committed artifacts may carry it), typed
    # when present.
    if "kernel_tier" in data and not isinstance(data["kernel_tier"], str):
        _fail(where, "field 'kernel_tier' must be str")
    config = data["config"]
    for key, typ in (
        ("sizes", list), ("size_name", str),
        ("repetitions", int), ("warmup", int), ("entries", list),
    ):
        if key not in config:
            _fail(where, f"config missing {key!r}")
        if not isinstance(config[key], typ):
            _fail(where, f"config.{key} must be {typ.__name__}")
    for i, pt in enumerate(data["points"]):
        ctx = f"points[{i}]"
        if not isinstance(pt, dict):
            _fail(where, f"{ctx} must be an object")
        for key, typ in (
            ("label", str), ("kind", str), ("size", int),
            ("params", dict), ("times_s", list), ("metrics", dict),
        ):
            if key not in pt:
                _fail(where, f"{ctx} missing {key!r}")
            if not isinstance(pt[key], typ):
                _fail(where, f"{ctx}.{key} must be {typ.__name__}")
        if not pt["times_s"]:
            _fail(where, f"{ctx}.times_s is empty")
        if not all(isinstance(t, (int, float)) and t >= 0 for t in pt["times_s"]):
            _fail(where, f"{ctx}.times_s must be non-negative numbers")
        for key in _POINT_STATS:
            if not isinstance(pt.get(key), (int, float)):
                _fail(where, f"{ctx}.{key} must be a number")


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def artifact_table(artifact: dict[str, Any]):
    """The artifact's points as an :class:`~repro.analysis.report.Table`."""
    from ..analysis.report import Table

    size_name = artifact["config"].get("size_name", "n")
    table = Table(
        ["entry", size_name, "median_s", "p95_s", "min_s", "height", "ratio"],
        title=f"BENCH {artifact['name']}" + (" (quick)" if artifact["quick"] else ""),
    )
    for pt in artifact["points"]:
        metrics = pt["metrics"]
        height = metrics.get("height")
        ratio = metrics.get("ratio")
        table.add_row([
            pt["label"],
            pt["size"],
            pt["median_s"],
            pt["p95_s"],
            pt["min_s"],
            "-" if height is None else height,
            "-" if ratio is None else ratio,
        ])
    return table
