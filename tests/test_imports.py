"""What the package ``__init__``s export, and what a server imports.

The ``repro``, ``repro.obs`` and ``repro.service`` packages load some of
their public names on first use (PEP 562), so a solve server does not
import the simulator, the bench package, the trend gate, the chaos
harness or the load generator.  These tests pin both halves: every public
name still resolves to its defining module's object, and a server built
in a fresh interpreter leaves those modules unimported.
"""

from __future__ import annotations

import importlib
import json
import os
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
}


@pytest.mark.parametrize(
    "package, home, name",
    [
        pytest.param(package, home, name, id=f"{package}.{name}")
        for package, homes in HOMES.items()
        for home, names in homes.items()
        for name in names
    ],
)
def test_public_name_is_its_defining_modules_object(package, home, name):
    exported = getattr(importlib.import_module(package), name)
    assert exported is getattr(importlib.import_module(home), name)


@pytest.mark.parametrize("package", sorted(HOMES))
def test_every_public_name_has_a_home(package):
    module = importlib.import_module(package)
    listed = [name for names in HOMES[package].values() for name in names]
    assert sorted(listed) == sorted(module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


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
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", _SERVER_IMPORTS, *unused],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
