"""What the package ``__init__``s export, and what a server imports.

The ``repro``, ``repro.obs`` and ``repro.service`` packages load some of
their public names on first use (PEP 562), so a solve server does not
import the simulator, the bench package, the trend gate, the chaos
harness or the load generator.  ``repro.core``, ``repro.dag``,
``repro.geometry`` and ``repro.analysis`` do the same for their
numpy-importing modules, so a process imports numpy at its first numeric
solve.  These tests pin both halves: every public name still resolves to
its defining module's object, and a fresh interpreter leaves those
modules unimported.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: package -> defining module -> the package's public names defined there.
HOMES = {
    "repro": {
        "repro._version": ["__version__"],
        "repro.core.bounds": ["combined_lower_bound"],
        "repro.core.errors": [
            "ReproError", "InvalidInstanceError", "InvalidPlacementError", "SolverError",
        ],
        "repro.core.instance": ["StripPackingInstance", "PrecedenceInstance", "ReleaseInstance"],
        "repro.core.placement": ["Placement", "PlacedRect", "validate_placement"],
        "repro.core.rectangle": ["Rect"],
        "repro.core.registry": ["solve", "available_algorithms"],
        "repro.dag.graph": ["TaskDAG"],
        "repro.engine.batch": ["PortfolioResult", "solve_many", "portfolio"],
        "repro.engine.report": ["SolveReport"],
        "repro.engine.runner": ["run"],
        "repro.engine.spec": ["AlgorithmSpec"],
        "repro.sim.engine": ["simulate", "simulate_instance"],
        "repro.sim.trace": ["SimTrace"],
    },
    "repro.obs": {
        "repro.obs.logging": [
            "StructuredLogger", "configure_logging", "get_logger", "validate_event",
        ],
        "repro.obs.spans": ["Span", "SpanRecorder", "recorder", "set_identity"],
        "repro.obs.trace": [
            "TRACE_HEADER", "TENANT_HEADER", "TraceContext", "current_trace",
            "new_trace", "sanitize_tenant", "use_trace",
        ],
        "repro.obs.trend": ["TREND_SCHEMA", "run_trend", "validate_trend", "write_trend"],
    },
    "repro.service": {
        "repro.service.cache": ["CacheStats", "ResultCache", "DEFAULT_CACHE_BYTES"],
        "repro.service.chaos": ["ChaosReport", "run_chaos"],
        "repro.service.faults": ["FAULT_SITES", "FaultSpec", "FaultPlan", "FaultInjector"],
        "repro.service.router": ["HashRing", "RouterServer", "build_server"],
        "repro.service.server": ["SolveServer", "InProcessServer", "encode_report"],
    },
    "repro.core": {
        "repro.core.arrays": ["RectArrays", "PlacementBuilder"],
        "repro.core.bounds": [
            "area_bound", "hmax_bound", "critical_path_bound", "release_bound",
            "combined_lower_bound", "dc_guarantee",
        ],
        "repro.core.errors": [
            "ReproError", "InvalidInstanceError", "InvalidPlacementError", "SolverError",
            "BudgetExceededError",
        ],
        "repro.core.instance": ["StripPackingInstance", "PrecedenceInstance", "ReleaseInstance"],
        "repro.core.placement": [
            "Placement", "PlacedRect", "validate_placement", "find_overlap",
            "find_overlap_columns",
        ],
        "repro.core.rectangle": [
            "Rect", "decreasing_height_order", "total_area", "max_height", "max_width",
        ],
        "repro.core.serialize": [
            "instance_to_dict", "instance_from_dict", "dumps_instance", "loads_instance",
            "placement_to_dict", "placement_from_dict",
        ],
    },
    "repro.dag": {
        "repro.dag.critical_path": ["compute_F", "F_of_set", "critical_path", "start_lower_bounds"],
        "repro.dag.generators": [
            "random_order_dag", "layered_dag", "series_parallel_dag", "chain_forest",
            "out_tree", "in_tree",
        ],
        "repro.dag.graph": ["TaskDAG"],
        "repro.dag.validate": ["check_same_universe", "is_antichain", "level_set"],
    },
    "repro.geometry": {
        "repro.geometry.levels": ["Level"],
        "repro.geometry.levels_reference": [
            "ReferenceLevel", "ReferenceLevelStack", "reference_nfdh", "reference_ffdh",
            "reference_bfdh",
        ],
        "repro.geometry.occupancy": [
            "union_area", "occupancy_profile", "band_density", "utilisation",
        ],
        "repro.geometry.skyline": ["Skyline", "SkySegment"],
        "repro.geometry.skyline_reference": ["ReferenceSkyline"],
        "repro.geometry.stacking": ["Stacking", "stack", "contains"],
    },
    "repro.analysis": {
        "repro.analysis.ratios": [
            "RatioSample", "summarize", "geometric_mean", "log_slope", "samples_from_reports",
        ],
        "repro.analysis.render": ["render_placement"],
        "repro.analysis.report": ["Table", "format_value", "reports_table"],
    },
}

#: package -> the package's public names that are its submodules.
SUBMODULES = {"repro.core": ["tol"]}


def _expected(package: str, home: str | None, name: str):
    """The object ``package.name`` must be: the module ``package.name``
    itself for a public submodule, else ``home``'s attribute."""
    if home is None:
        return importlib.import_module(f"{package}.{name}")
    return getattr(importlib.import_module(home), name)


def _public_names(package: str) -> list[tuple[str | None, str]]:
    return [
        *((home, name) for home, names in HOMES[package].items() for name in names),
        *((None, name) for name in SUBMODULES.get(package, [])),
    ]


@pytest.mark.parametrize(
    "package, home, name",
    [
        pytest.param(package, home, name, id=f"{package}.{name}")
        for package in HOMES
        for home, name in _public_names(package)
    ],
)
def test_public_name_is_its_defining_modules_object(package, home, name):
    exported = getattr(importlib.import_module(package), name)
    assert exported is _expected(package, home, name)


@pytest.mark.parametrize("package", sorted(HOMES))
def test_every_public_name_has_a_home(package):
    module = importlib.import_module(package)
    listed = [name for _, name in _public_names(package)]
    assert sorted(listed) == sorted(module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


@pytest.mark.parametrize("package", sorted(HOMES))
def test_public_names_survive_importing_every_submodule(package):
    """Importing a submodule binds its name on the package, which would
    shadow a lazily loaded public name equal to it (``repro.dag``'s
    function ``critical_path`` lives in a module of that name)."""
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{package}.{info.name}")
    for home, name in _public_names(package):
        assert getattr(module, name) is _expected(package, home, name), name


def _run_fresh(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# A server as a worker process builds it, plus one /metrics snapshot with
# a latency sample, then the names of argv's modules that got imported.
_SERVER_IMPORTS = """
import json, sys
import repro.service.worker
from repro.service.server import SolveServer
server = SolveServer()
server.metrics.record("solve", 200, 0.001)
server.metrics.snapshot()
server.close()
print(json.dumps([name for name in sys.argv[1:] if name in sys.modules]))
"""


def test_a_server_imports_only_the_serving_stack():
    unused = [
        "repro.bench",
        "repro.sim",
        "repro.obs.trend",
        "repro.service.chaos",
        "repro.service.loadgen",
        "http.client",
    ]
    done = _run_fresh(_SERVER_IMPORTS, *unused)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# What a fleet router and a worker run for one /solve miss, at n = 16 and
# then n = 64 rects: whether each answer is valid and whether numpy is
# loaded after it.
_SOLVE_IMPORTS = """
import json, sys
import repro.cli
repro.cli.build_parser()
import repro.service.router, repro.service.worker
from repro.engine import run
from repro.service.cache import ResultCache
from repro.service.server import encode_report, parse_json_body, resolve_solve_request

def solve(n):
    rects = [{"id": i, "width": 0.05 + i % 9 / 10, "height": 0.5 + i % 4} for i in range(n)]
    body = {"instance": {"type": "plain", "rects": rects}, "algorithm": "ffdh"}
    key, name, params, instance = resolve_solve_request(parse_json_body(json.dumps(body).encode()))
    report = run(instance, name, params=params)
    ResultCache().put(key, encode_report(report))
    return [report.valid, "numpy" in sys.modules]

print(json.dumps([solve(16), solve(64)]))
"""


def test_numpy_loads_at_the_first_numeric_solve():
    """A 16-rect ffdh solve runs on lists and the key is pure Python, so
    numpy stays unimported; a 64-rect one validates on numpy columns."""
    done = _run_fresh(_SOLVE_IMPORTS)
    assert done.returncode == 0, done.stderr
    small, large = json.loads(done.stdout)
    assert small == [True, False]
    assert large == [True, True]
