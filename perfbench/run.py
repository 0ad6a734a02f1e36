"""The solve service benchmark: one workload, one run, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lone_small --seed 1 --seconds 25 --trace 0

``--trace 0`` launches ``repro serve`` several times to time set-up, then
drives the last server for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` drives one server started through
``perfbench/launch.py`` instead, joins the spans every server process
wrote to the requests by trace id, and prints the per-layer metrics.
Every answer is checked (see :func:`check_answers`); any failure makes
the run exit 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from service import (  # noqa: E402
    ServerProcess, cpu_seconds, drive, peak_rss_mb, post, process_tree, trace_id,
)
from workloads import WORKLOADS, measured_payloads, warmup_payloads  # noqa: E402

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Fewest answers p99 is taken over, so that ten lie beyond it.
P99_SAMPLES = 1000
#: Answers per run re-solved in the client and compared field by field.
SAMPLE = 6
#: Warm-up bodies available per algorithm (a fleet needs one per worker).
WARM_BODIES = 24

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("height_over_lb", "ratio"),
)

ALGORITHMS = ("ffdh", "bottom_left", "dc", "shelf_next_fit", "aptas")

#: (name, unit) of the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("queue.wait_ms", "ms"),
    ("queue.batch_mean", "req/batch"),
    ("serialize.key_ms", "ms"),
    ("server.parse_ms", "ms"),
    ("router.route_ms", "ms"),
    ("router.forward_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ms", "ms"),
    ("cache.store_ms", "ms"),
    *((f"engine.solve_ms.{name}", "ms") for name in ALGORITHMS),
    ("engine.bounds_ms", "ms"),
    ("engine.validate_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: /metrics counters reported after every run.
COUNTS = (
    ("queue", ("submitted", "completed", "batches", "rejected")),
    ("cache", ("hits", "misses", "evictions")),
)
#: Counters that must stay 0 on these fault-free workloads.
ALARMS = ("queue.rejected", "router.retries", "router.restarts")


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def counts(snapshot: dict) -> dict[str, float]:
    out = {
        f"{section}.{field}": float(snapshot.get(section, {}).get(field, 0))
        for section, fields in COUNTS
        for field in fields
    }
    fleet = snapshot.get("router", {})
    out["router.retries"] = float(fleet.get("retries", 0))
    out["router.restarts"] = float(fleet.get("workers", {}).get("restarts", 0))
    return out


def warm_up(server: ServerProcess, workload: str, seed: int) -> None:
    """One warm-up answer per algorithm in every worker of the server.

    A fleet routes by content, so warm-up bodies are sent until each
    worker's ``/metrics`` shows it answered the algorithm at least once.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        for algorithm in WORKLOADS[workload].algorithms:
            for n, body in enumerate(warmup_payloads(workload, seed, algorithm, WARM_BODIES)):
                status, _cache, payload = post(conn, body, f"{0xFFFFFFFF:08x}{n:08x};{n:016x};default")
                if status != 200:
                    raise BenchError(f"warm-up {algorithm} answered {status}: {payload[:200]!r}")
                snapshot = server.metrics()
                workers = snapshot.get("workers") or {"solo": snapshot}
                if all(
                    w.get("requests", {}).get("by_algorithm", {}).get(algorithm, 0) >= 1
                    for w in workers.values()
                ):
                    break
            else:
                raise BenchError(f"warm-up never reached every worker with {algorithm}")
    finally:
        conn.close()


def launch(workload: str, seed: int, workdir: Path, traced: bool) -> tuple[ServerProcess, float]:
    """Start a server and warm it; returns it with its set-up time."""
    if traced:
        trace_dir = workdir / "trace"
        trace_dir.mkdir(exist_ok=True)
        entry, env = [str(HERE / "launch.py")], {"PERFBENCH_TRACE_DIR": str(trace_dir)}
    else:
        entry, env = ["-m", "repro"], None
    server = ServerProcess(ROOT, workdir, WORKLOADS[workload].workers, entry, env)
    t0 = time.perf_counter()
    try:
        server.start()
        warm_up(server, workload, seed)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def measure(server: ServerProcess, bodies: list[bytes], clients: int, seconds: float) -> dict:
    """Drive ``server`` and bracket its CPU and counters on the window."""
    pids = process_tree(server.proc.pid)
    before = counts(server.metrics())
    cpu0 = cpu_seconds(pids)
    # The client's own collector pauses would count as server latency.
    gc.disable()
    try:
        answers = drive(server.host, server.port, bodies, clients, seconds, time.perf_counter())
    finally:
        gc.enable()
    cpu = cpu_seconds(pids) - cpu0
    rss = peak_rss_mb(pids)
    snapshot = server.metrics()
    after = counts(snapshot)
    delta = {k: after[k] - before[k] for k in after}
    return {
        "answers": answers,
        "seconds": seconds,
        "cpu_s": cpu,
        "rss_mb": rss,
        "counts": delta,
        "kernel": snapshot.get("kernel", {}).get("active", "unknown"),
        "exhausted": len(answers) == len(bodies),
    }


def check_answers(answers, bodies: list[bytes], seed: int) -> dict:
    """Check every answer; re-solve a seeded sample in this process.

    An answer passes when it is a 200 whose report says ``valid``, whose
    placement re-validates against the instance that was sent, and, for
    the sampled ones, whose document equals ``encode_report(engine.run(...))``
    apart from ``wall_time``.
    """
    from repro.core.bounds import combined_lower_bound
    from repro.core.errors import ReproError
    from repro.core.placement import validate_placement
    from repro.core.serialize import instance_from_dict, placement_from_dict
    from repro.engine import run
    from repro.service.server import encode_report

    failures: dict[int, str] = {}
    ratios: list[float] = []
    docs: dict[int, tuple[dict, dict]] = {}
    for answer in answers:
        if answer.status != 200:
            failures[answer.index] = f"status {answer.status}"
            continue
        try:
            doc = json.loads(answer.body)
            request = json.loads(bodies[answer.index])
            instance = instance_from_dict(request["instance"])
            if doc["report"]["valid"] is not True:
                raise ValueError("report.valid is not true")
            validate_placement(instance, placement_from_dict(doc["placement"], instance))
            ratios.append(doc["report"]["height"] / combined_lower_bound(instance))
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            failures[answer.index] = f"{type(exc).__name__}: {exc}"
            continue
        docs[answer.index] = (doc, request)
    rng = np.random.default_rng([seed, 2])
    indices = sorted(docs)
    for index in rng.choice(indices, size=min(SAMPLE, len(indices)), replace=False).tolist():
        doc, request = docs[index]
        instance = instance_from_dict(request["instance"])
        reference = json.loads(
            encode_report(run(instance, request.get("algorithm"), params=request.get("params")))
        )
        for d in (reference, doc):
            d["report"].pop("wall_time")
        if reference != doc:
            failures[index] = "answer differs from engine.run"
    return {"failures": failures, "ratios": ratios}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def end_to_end(result: dict, checked: dict, setups: list[float]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of one untraced run, and its tail latencies.

    Latencies are taken over every correct answer of the window, and
    throughput is correct answers over the measured wall time: from the
    window's start to the last answer (requests in flight at the deadline
    are answered and counted).  The p90 and p99 latencies are printed but
    are not bounded metrics: on a shared 2-vCPU host they swing by more
    than any bound between runs of the same code (see README.md).
    """
    answers = result["answers"]
    good = [a for a in answers if a.index not in checked["failures"]]
    if not good:
        raise BenchError("no correct answer completed within the window")
    latency_ms = [a.latency_s * 1e3 for a in good]
    wall_s = max(a.done_s for a in answers)
    tails = {f"latency_p{q}_ms": percentile(latency_ms, q) for q in (90, 99)}
    return {
        "latency_p50_ms": percentile(latency_ms, 50),
        "throughput_rps": len(good) / wall_s,
        "success_rate": len(good) / len(answers),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_req": result["cpu_s"] * 1e3 / len(good),
        "peak_rss_mb": result["rss_mb"],
        "height_over_lb": statistics.fmean(checked["ratios"]),
    }, tails


def load_traces(trace_dir: Path, front_pid: int, fleet: bool) -> dict[str, dict[str, float]]:
    """Per trace id: summed seconds per ``role:layer`` over every process,
    and under ``"overhead"`` the seconds the timing wrappers added."""
    per_trace: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for path in trace_dir.glob("*.json"):
        doc = json.loads(path.read_text())
        role = "router" if fleet and doc["pid"] == front_pid else "worker"
        for layer, trace, seconds in doc["records"]:
            if trace:
                spans = per_trace[trace]
                spans[f"{role}:{layer}"] += seconds
                spans["overhead"] += doc["wrapper_s"]
    return per_trace


#: Worker-side layers on a request's blocking path (resolve includes the key).
_WORKER_PATH = (
    "server.json", "server.resolve", "cache.lookup", "queue.wait",
    "engine.solve", "engine.bounds", "engine.validate", "cache.store", "server.encode",
)
_ROUTER_PATH = ("router.json", "router.resolve", "router.ring")


def per_layer(result: dict, traces: dict) -> dict[str, float]:
    """Per-request p50s of each layer over the traced run's answers.

    A layer the workload never reaches (the router on a solo server, an
    algorithm it does not send) reads 0.
    """
    samples: dict[str, list[float]] = defaultdict(list)

    def add(name: str, spans: dict, *keys: str, minus: tuple[str, ...] = ()) -> None:
        if any(k in spans for k in keys):
            value = sum(spans.get(k, 0.0) for k in keys) - sum(spans.get(k, 0.0) for k in minus)
            samples[name].append(value * 1e3)

    for answer in result["answers"]:
        if answer.status != 200:
            continue
        spans = traces.get(trace_id(answer.index), {})
        add("queue.wait_ms", spans, "worker:queue.wait")
        add("serialize.key_ms", spans, "worker:serialize.key", "router:serialize.key")
        add("server.parse_ms", spans, "worker:server.json", "worker:server.resolve",
            minus=("worker:serialize.key",))
        add("router.route_ms", spans, *(f"router:{k}" for k in _ROUTER_PATH))
        add("router.forward_ms", spans, "router:router.forward")
        add("cache.lookup_ms", spans, "worker:cache.lookup")
        add("cache.store_ms", spans, "worker:cache.store")
        add("engine.bounds_ms", spans, "worker:engine.bounds")
        add("engine.validate_ms", spans, "worker:engine.validate")
        add("server.encode_ms", spans, "worker:server.encode")
        accounted = sum(spans.get(f"worker:{k}", 0.0) for k in _WORKER_PATH) + sum(
            spans.get(f"router:{k}", 0.0) for k in _ROUTER_PATH
        )
        if spans:
            samples["server.unaccounted_ms"].append((answer.latency_s - accounted) * 1e3)
            overhead = spans["overhead"]
            samples["trace.overhead_pct"].append(100.0 * overhead / (answer.latency_s - overhead))
        if answer.cache == "miss":
            report = json.loads(answer.body)["report"]
            samples[f"engine.solve_ms.{report['algorithm']}"].append(report["wall_time"] * 1e3)
    out = {name: percentile(samples[name], 50) for name, _unit in PER_LAYER}
    c = result["counts"]
    out["queue.batch_mean"] = c["queue.completed"] / c["queue.batches"] if c["queue.batches"] else 0.0
    lookups = c["cache.hits"] + c["cache.misses"]
    out["cache.hit_ratio"] = c["cache.hits"] / lookups if lookups else 0.0
    return out


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report_phase(label: str, result: dict, checked: dict) -> None:
    print(f"{label} counts: {json.dumps(result['counts'], sort_keys=True)}")
    alarms = {k: result["counts"][k] for k in ALARMS if result["counts"][k]}
    if alarms:
        print(f"{label} WARNING: nonzero fault counters on a fault-free workload: {alarms}")
    if result["exhausted"]:
        print(f"{label} note: every pre-generated payload was sent before the window ended")
    for index, failure in sorted(checked["failures"].items())[:20]:
        print(f"{label} FAILED request {index}: {failure}")


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    spec = WORKLOADS[workload]
    bodies = measured_payloads(workload, seed, int(spec.max_rps * seconds))
    # Untraced: several launches time set-up, the last one is measured.
    # Traced: one launch through the timing launcher.
    setups: list[float] = []
    for attempt in range(1 if trace else SETUPS):
        if attempt:
            survivors = server.stop()
            if survivors:
                raise BenchError(f"server processes {survivors} outlived their teardown")
        server, setup = launch(workload, seed, workdir, trace)
        setups.append(setup)
    front_pid = server.proc.pid
    try:
        result = measure(server, bodies, spec.clients, seconds)
    finally:
        survivors = server.stop()
    if survivors:
        raise BenchError(f"server processes {survivors} outlived their teardown")
    checked = check_answers(result["answers"], bodies, seed)
    report_phase("traced" if trace else "measured", result, checked)

    env = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_tier": result["kernel"],
        "git": git_revision(),
    }
    print(f"env: {json.dumps(env, sort_keys=True)}")
    attempted = len(result["answers"])
    failed = len(checked["failures"])
    if trace:
        traces = load_traces(workdir / "trace", front_pid, spec.workers > 1)
        values = per_layer(result, traces)
        units = dict(PER_LAYER)
    else:
        values, tails = end_to_end(result, checked, setups)
        good = attempted - failed
        print(f"latency samples: {good} ({good // 100} beyond p99)")
        if good < P99_SAMPLES:
            print(f"note: p99 rests on fewer than {P99_SAMPLES} answers")
        for name, value in tails.items():
            print(f"{name}: {value:.6g} ms (not bounded)")
        print(f"error_rate: {failed / attempted if attempted else 0.0:.6f} fraction")
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run unwinds through the ``finally`` blocks that stop
    # its servers instead of leaving them behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
