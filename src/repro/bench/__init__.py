"""Benchmark subsystem: declarative specs, measured runs, BENCH artifacts.

The measurement pipeline the ROADMAP's "fast as the hardware allows" goal
needs to be checkable: every benchmark is a registered
:class:`~repro.bench.spec.BenchSpec` (workload generator x timed entries x
size sweep), executed by :func:`~repro.bench.runner.run_bench` with warmup
and repetitions into a schema-validated ``BENCH_<name>.json`` artifact,
and two artifacts diff through
:func:`~repro.bench.compare.compare_artifacts`, which flags regressions.

* :mod:`repro.bench.spec`     — ``BenchSpec``/``BenchEntry`` and the registry;
* :mod:`repro.bench.runner`   — ``run_bench`` (median/p95 wall-time stats);
* :mod:`repro.bench.artifact` — JSON schema, writer/reader/validator;
* :mod:`repro.bench.compare`  — artifact diffing and regression flags;
* :mod:`repro.bench.specs`    — the registered benches (one per
  ``benchmarks/bench_*.py`` script, plus the skyline kernel race).

CLI front-end: ``repro bench [NAME ...|--all] [--quick] [--compare
BASELINE.json]``; the benchmark scripts under ``benchmarks/`` are thin
pytest shims over the same registry.
"""

from .artifact import (
    SCHEMA,
    BenchArtifactError,
    artifact_path,
    artifact_table,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from .compare import ComparisonResult, ComparisonRow, compare_artifacts
from .runner import run_bench
from .spec import (
    BenchEntry,
    BenchSpec,
    all_benches,
    bench_names,
    bench_table_rows,
    get_bench,
    register_bench,
)

__all__ = [
    "SCHEMA",
    "BenchArtifactError",
    "BenchEntry",
    "BenchSpec",
    "ComparisonResult",
    "ComparisonRow",
    "all_benches",
    "artifact_path",
    "artifact_table",
    "bench_names",
    "bench_table_rows",
    "compare_artifacts",
    "get_bench",
    "load_artifact",
    "register_bench",
    "run_bench",
    "validate_artifact",
    "write_artifact",
]
