"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version, problem variants, and the algorithm table rendered
    live from the engine's spec registry.
``demo``
    Solve one built-in instance of each variant and draw the packings.
``solve INSTANCE.json [--algorithm NAME] [--eps E] [--output OUT.json]``
    Solve a JSON instance (format: :mod:`repro.core.serialize`), validate,
    print the :class:`~repro.engine.report.SolveReport` summary and
    optionally write the placement JSON.
``bounds INSTANCE.json``
    Print the elementary lower bounds for an instance.
``batch DIR [--algorithm NAME] [--glob PATTERN]``
    Solve every instance JSON under ``DIR`` through the engine's
    :func:`~repro.engine.batch.solve_many`; per-instance
    height/ratio/wall-time plus a summary.
``portfolio INSTANCE.json [--algorithms a,b,c]``
    Race candidate algorithms on one instance; report every entrant and
    the minimum-height valid winner.
``simulate STREAM [--policy P] [--seed S] [--n N] [--K K] [--rate R]``
    Event-driven online scheduling through :mod:`repro.sim`: ``STREAM`` is
    a synthetic arrival process (``poisson`` | ``bursty`` | ``staircase``)
    or a path to a release-instance JSON file / trace directory to replay.
    Prints the :class:`~repro.sim.trace.SimTrace` summary (makespan, queue
    depth, utilization) and its engine-report ratio.
``bench [NAME ...|--all] [--quick] [--out DIR] [--compare BASELINE.json]``
    Run registered benchmarks (:mod:`repro.bench`) and write one
    schema-validated ``BENCH_<name>.json`` artifact each; ``--list``
    prints the bench registry, ``--quick`` restricts each spec to its
    smoke sizes, and ``--compare`` diffs the fresh artifact against a
    baseline, exiting 1 when a regression is flagged.  ``bench trend``
    is the history gate (:mod:`repro.obs.trend`): it loads every
    artifact under ``--artifacts`` plus optional ``--history`` dirs,
    builds per-series median timelines, writes ``BENCH_trend.json`` to
    ``--out``, and exits 1 on *sustained* drift (the last ``--window``
    runs all slower than baseline by ``--drift-threshold``×).
``serve [--host H] [--port P] [--workers N] [--cache-dir DIR]``
    Run the asyncio JSON-over-HTTP solve service (:mod:`repro.service`):
    ``POST /solve`` and ``POST /portfolio`` with one FIFO solver thread
    and a content-addressed result cache, ``GET /healthz`` / ``GET /metrics``
    for operations.  ``--workers N`` (N > 1) shards the service over N
    worker processes behind a consistent-hash router
    (:mod:`repro.service.router`).  ``--log-format json|text`` and
    ``--log-file`` route the service's structured event log
    (:mod:`repro.obs.logging`) to a JSON-lines or text sink shared by
    the router and every worker.  Runs until interrupted; SIGTERM or
    Ctrl-C drains gracefully (accepted requests are answered) and exits 0.
``loadtest [--url URL] [--mode closed|open] [--requests N] [--quick] [--workers-sweep 1,2,4]``
    Drive a solve service with the load generator
    (:mod:`repro.service.loadgen`); without ``--url`` an in-process
    server is started on an ephemeral port.  Prints throughput,
    latency percentiles, and a latency histogram.  ``--workers-sweep``
    measures the scaling curve: one closed-loop step per worker count.

``repro --version`` prints the package version (single-sourced from
pyproject via :mod:`repro._version`).

Bad inputs (missing files, malformed JSON, invalid parameters, an
unbindable serve port) exit with code 2 and a one-line message — never a
traceback.

The CLI is a thin shell over the library; every code path it exercises is
covered by unit tests through :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analysis.render import render_placement
from .analysis.report import Table, reports_table
from .core.bounds import combined_lower_bound
from .core.errors import ReproError
from .core.serialize import loads_instance, placement_to_dict
from .engine import default_params, get_spec, portfolio, run, solve_many

__all__ = ["main", "build_parser"]


class _CliInputError(Exception):
    """A user-input problem the CLI reports as a message + exit code 2."""


def _aptas_default_eps() -> float:
    return float(default_params("aptas")["eps"])


def _check_algorithms(*names: str | None) -> None:
    """Refuse an unknown algorithm name as bad input, before any solve
    (``None`` is the per-variant default)."""
    for name in names:
        if name is None:
            continue
        try:
            get_spec(name)
        except ReproError as exc:
            raise _CliInputError(str(exc)) from exc


def _load_instance(path: Path):
    """Read and parse one instance JSON, mapping failures to CLI errors."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return loads_instance(text)
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"malformed JSON in {path}: {exc}") from exc
    except ReproError as exc:
        raise _CliInputError(f"invalid instance in {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strip packing with precedence constraints and release times "
        "(Augustine-Banerjee-Irani reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and available algorithms")
    sub.add_parser("demo", help="solve a built-in instance of each variant")

    p_solve = sub.add_parser("solve", help="solve a JSON instance file")
    p_solve.add_argument("instance", type=Path, help="path to instance JSON")
    p_solve.add_argument("--algorithm", default=None, help="algorithm name (default: per-variant)")
    p_solve.add_argument(
        "--eps",
        type=float,
        default=None,
        help=f"APTAS error parameter (default from spec: {_aptas_default_eps():g})",
    )
    p_solve.add_argument("--output", type=Path, default=None, help="write placement JSON here")
    p_solve.add_argument("--render", action="store_true", help="draw the packing")

    p_bounds = sub.add_parser("bounds", help="print lower bounds for a JSON instance")
    p_bounds.add_argument("instance", type=Path)

    p_batch = sub.add_parser("batch", help="solve every instance JSON in a directory")
    p_batch.add_argument("directory", type=Path, help="directory of instance JSON files")
    p_batch.add_argument("--algorithm", default=None, help="algorithm name (default: per-variant)")
    p_batch.add_argument("--glob", default="*.json", help="instance file pattern")

    p_port = sub.add_parser("portfolio", help="race algorithms on one instance")
    p_port.add_argument("instance", type=Path, help="path to instance JSON")
    p_port.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated entrants (default: every spec matching the variant)",
    )
    p_port.add_argument("--output", type=Path, default=None, help="write winning placement JSON here")

    from .sim import policy_names

    p_sim = sub.add_parser("simulate", help="event-driven online scheduling simulation")
    p_sim.add_argument(
        "stream",
        help="poisson | bursty | staircase, or a path to a release-instance "
        "JSON file / directory of traces to replay",
    )
    p_sim.add_argument(
        "--policy", default="first_fit", choices=policy_names(), help="online policy"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed for synthetic streams")
    p_sim.add_argument("--n", type=int, default=40, help="tasks to simulate (synthetic streams)")
    p_sim.add_argument("--K", type=int, default=8, help="device columns (synthetic streams)")
    p_sim.add_argument("--rate", type=float, default=1.0, help="poisson arrival rate")
    p_sim.add_argument("--events", action="store_true", help="print the per-event commit log")
    p_sim.add_argument("--output", type=Path, default=None, help="write the SimTrace JSON here")

    p_bench = sub.add_parser("bench", help="run registered benchmarks into BENCH_*.json artifacts")
    p_bench.add_argument("names", nargs="*", help="bench spec names (see --list)")
    p_bench.add_argument("--all", action="store_true", help="run every registered bench")
    p_bench.add_argument("--list", action="store_true", help="print the bench registry and exit")
    p_bench.add_argument("--quick", action="store_true", help="smoke sizes only (CI mode)")
    p_bench.add_argument(
        "--out", type=Path, default=Path("."), help="artifact directory (default: cwd)"
    )
    p_bench.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="diff the fresh artifact against this baseline; exit 1 on regression",
    )
    p_bench.add_argument(
        "--repetitions", type=int, default=None, help="override the spec's repetition count"
    )
    p_bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="slowdown factor flagged as a regression (default 1.5)",
    )
    p_bench.add_argument(
        "--artifacts", type=Path, default=Path("benchmarks/artifacts"),
        metavar="DIR",
        help="bench trend: committed artifact directory "
             "(default benchmarks/artifacts)",
    )
    p_bench.add_argument(
        "--history", type=Path, action="append", default=None, metavar="DIR",
        help="bench trend: extra history directories of older artifacts "
             "(repeatable)",
    )
    p_bench.add_argument(
        "--window", type=int, default=None,
        help="bench trend: consecutive drifting runs required to fail "
             "the gate (default 3)",
    )
    p_bench.add_argument(
        "--drift-threshold", type=float, default=None,
        help="bench trend: sustained slowdown ratio vs the series "
             "baseline (default 1.25)",
    )

    p_serve = sub.add_parser("serve", help="run the async JSON-over-HTTP solve service")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes behind a consistent-hash router "
             "(default 1 = single-process, no router)",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=512,
        help="bound on accepted, unanswered solves (the running one "
             "included); beyond it requests get 503 (default 512)",
    )
    p_serve.add_argument(
        "--cache-bytes", type=int, default=None,
        help="result cache memory budget in bytes (default 32 MiB)",
    )
    p_serve.add_argument(
        "--cache-dir", type=Path, default=None,
        help="spill evicted results to this directory (persistent warm cache)",
    )
    p_serve.add_argument(
        "--warm-delta", type=float, default=None,
        help="enable warm-start delta solving: repair the nearest cached "
             "neighbor's placement when the repair height stays within "
             "(1 + WARM_DELTA) of the lower bound (default: off)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=None,
        help="router-to-worker timeout in seconds; a slow worker is retried, "
             "then the request fails over (default: no timeout; --workers > 1 only)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=2,
        help="same-worker retries after a timeout before failing over (default 2)",
    )
    p_serve.add_argument(
        "--backoff-ms", type=float, default=50.0,
        help="base of the seeded exponential retry backoff (default 50 ms)",
    )
    p_serve.add_argument(
        "--log-format", choices=("json", "text"), default=None,
        help="structured event log format (default: plain stdlib logging; "
             "json = one JSON object per line)",
    )
    p_serve.add_argument(
        "--log-file", type=Path, default=None,
        help="append structured events to this file instead of stderr "
             "(workers share it; whole-line writes interleave cleanly)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="replay a fault plan against an in-process fleet and verify "
             "the service invariants (zero lost requests, byte-identical answers)",
    )
    p_chaos.add_argument("plan", type=Path, metavar="PLAN.json",
                         help="FaultPlan file: {\"seed\": N, \"faults\": [...]}")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="fleet size (default 2; 1 = single-process seams only)")
    p_chaos.add_argument("--requests", type=int, default=40,
                         help="total requests driven through the fleet (default 40)")
    p_chaos.add_argument("--distinct", type=int, default=None,
                         help="distinct payloads cycled (default min(requests, 8))")
    p_chaos.add_argument("--rects", type=int, default=40,
                         help="rectangles per generated instance (default 40)")
    p_chaos.add_argument("--concurrency", type=int, default=4,
                         help="closed-loop client threads (default 4)")
    p_chaos.add_argument("--sessions", type=int, default=None,
                         help="run the session scenario instead: this many "
                              "concurrent sessions replay growing-prefix "
                              "streams while the plan fires")
    p_chaos.add_argument("--steps", type=int, default=6,
                         help="steps per session in the session scenario "
                              "(default 6; only with --sessions)")
    p_chaos.add_argument("--algorithm", default="bottom_left",
                         help="algorithm solved per request (default bottom_left)")
    p_chaos.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    p_chaos.add_argument("--request-timeout", type=float, default=None,
                         help="router-to-worker timeout in seconds")
    p_chaos.add_argument("--retries", type=int, default=2,
                         help="same-worker retries after a timeout (default 2)")
    p_chaos.add_argument("--backoff-ms", type=float, default=50.0,
                         help="retry backoff base (default 50 ms)")
    p_chaos.add_argument("--max-restarts", type=int, default=5,
                         help="supervisor respawn budget per worker (default 5)")
    p_chaos.add_argument("--cache-bytes", type=int, default=None,
                         help="per-worker cache memory budget in bytes")
    p_chaos.add_argument("--cache-dir", type=Path, default=None,
                         help="shared L2 spill directory for the fleet")
    p_chaos.add_argument("--allow-degraded", action="store_true",
                         help="waive the /healthz-recovers-to-ok check (for plans "
                              "that deliberately exhaust max_restarts)")
    p_chaos.add_argument("--health-deadline", type=float, default=30.0,
                         help="longest wait for /healthz to recover (default 30 s)")
    p_chaos.add_argument("--output", type=Path, default=None,
                         help="write the chaos report JSON here")

    p_load = sub.add_parser("loadtest", help="drive a solve service with generated traffic")
    p_load.add_argument(
        "--url", default=None,
        help="target service (default: start an in-process server)",
    )
    p_load.add_argument(
        "--mode", choices=("closed", "open", "session"), default="closed",
        help="closed loop (saturation), open loop (fixed offered rate), or "
             "session (long-lived sessions replaying growing-prefix streams)",
    )
    p_load.add_argument("--requests", type=int, default=None, help="total requests (default 1000)")
    p_load.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop workers (default 8)")
    p_load.add_argument("--rate", type=float, default=100.0,
                        help="open-loop arrival rate, req/s (default 100)")
    p_load.add_argument("--distinct", type=int, default=None,
                        help="distinct instances cycled over the run (default 8)")
    p_load.add_argument("--rects", type=int, default=12,
                        help="rectangles per generated instance (default 12)")
    p_load.add_argument("--algorithm", default=None, help="algorithm name (default: per-variant)")
    p_load.add_argument("--seed", type=int, default=0, help="payload/arrival RNG seed")
    p_load.add_argument("--sessions", type=int, default=None,
                        help="session mode: concurrent sessions (default 4)")
    p_load.add_argument("--steps", type=int, default=None,
                        help="session mode: steps per session (default 8)")
    p_load.add_argument("--warm-delta", type=float, default=None,
                        help="enable warm-start repair on the in-process "
                             "server (ignored with --url)")
    p_load.add_argument("--quick", action="store_true",
                        help="CI smoke preset: 200 requests, 4 workers, 2 distinct instances")
    p_load.add_argument("--workers-sweep", default=None, metavar="N,N,...",
                        help="run one closed-loop step per worker count against "
                             "in-process sharded servers (e.g. 1,2,4) and report "
                             "per-step rps/p95 in one JSON document")
    p_load.add_argument("--output", type=Path, default=None,
                        help="write the load result JSON here")
    return parser


def _cmd_info(out) -> int:
    from .engine import spec_table_rows

    print(f"repro {__version__}", file=out)
    print("variants: plain | precedence | release", file=out)
    table = Table(["algorithm", "variants", "guarantee", "flags", "defaults"], title="registry")
    for row in spec_table_rows():
        table.add_row(list(row))
    print(table.render(), file=out)
    return 0


def _cmd_demo(out) -> int:
    import numpy as np

    from .workloads.dags import random_precedence_instance
    from .workloads.releases import bursty_release_instance

    rng = np.random.default_rng(0)
    prec = random_precedence_instance(12, 0.15, rng)
    r1 = run(prec)
    print(f"precedence demo: n={len(prec)}, DC height {r1.height:.3f}", file=out)
    print(render_placement(r1.placement, width_chars=40, max_rows=12), file=out)

    rel = bursty_release_instance(10, 4, rng, n_bursts=2)
    r2 = run(rel, params={"eps": 1.0})
    print(f"\nrelease demo: n={len(rel)}, APTAS height {r2.height:.3f}", file=out)
    print(render_placement(r2.placement, width_chars=40, max_rows=12), file=out)
    return 0


def _solve_params(instance, name, eps):
    """Pass ``eps`` only where the aptas spec will consume it."""
    from .core.instance import ReleaseInstance

    if eps is None:
        return None
    if isinstance(instance, ReleaseInstance) and (name is None or name == "aptas"):
        return {"eps": eps}
    return None


def _cmd_solve(args, out) -> int:
    _check_algorithms(args.algorithm)
    instance = _load_instance(args.instance)
    report = run(instance, args.algorithm, params=_solve_params(instance, args.algorithm, args.eps))
    print(f"algorithm: {report.algorithm}", file=out)
    print(f"n = {report.n}, height = {report.height:.6g}, "
          f"lower bound = {report.lower_bound:.6g}", file=out)
    ratio = "-" if report.ratio is None else f"{report.ratio:.4g}"
    print(f"ratio = {ratio}, wall time = {report.wall_time:.4g}s, "
          f"valid = {'yes' if report.valid else 'no'}", file=out)
    if args.render:
        print(render_placement(report.placement), file=out)
    if args.output is not None:
        args.output.write_text(json.dumps(placement_to_dict(report.placement), indent=2))
        print(f"placement written to {args.output}", file=out)
    return 0


def _cmd_bounds(args, out) -> int:
    from .core.bounds import area_bound, hmax_bound

    instance = _load_instance(args.instance)
    print(f"n        = {len(instance)}", file=out)
    print(f"area     = {area_bound(instance):.6g}", file=out)
    print(f"hmax     = {hmax_bound(instance):.6g}", file=out)
    print(f"combined = {combined_lower_bound(instance):.6g}", file=out)
    return 0


def _cmd_batch(args, out) -> int:
    from .workloads.suite import read_instance_dir

    _check_algorithms(args.algorithm)
    if not args.directory.is_dir():
        raise _CliInputError(f"not a directory: {args.directory}")
    try:
        paths, instances = read_instance_dir(args.directory, pattern=args.glob)
    except (json.JSONDecodeError, ReproError) as exc:
        raise _CliInputError(f"invalid instance file under {args.directory}: {exc}") from exc
    if not instances:
        raise _CliInputError(f"no instances matching {args.glob!r} under {args.directory}")
    reports = solve_many(
        instances, args.algorithm, labels=[p.name for p in paths], strict=False
    )
    title = f"batch {args.directory} ({len(reports)} instances)"
    print(reports_table(reports, title=title, label_header="instance").render(), file=out)
    ok = [r for r in reports if r.valid]
    total_time = sum(r.wall_time for r in reports)
    print(f"\nsolved {len(ok)}/{len(reports)} valid, "
          f"total solver time = {total_time:.4g}s", file=out)
    return 0 if len(ok) == len(reports) else 1


def _cmd_portfolio(args, out) -> int:
    names = args.algorithms.split(",") if args.algorithms else None
    _check_algorithms(*(names or ()))
    instance = _load_instance(args.instance)
    result = portfolio(instance, names)
    title = f"portfolio {args.instance.name} (n={len(instance)})"
    print(reports_table(result.reports, title=title, label_header="entrant").render(), file=out)
    if result.best is None:
        print("\nno entrant produced a valid placement", file=out)
        return 1
    best = result.best
    ratio = "-" if best.ratio is None else f"{best.ratio:.4g}"
    print(f"\nwinner: {best.algorithm} with height = {best.height:.6g} "
          f"(ratio = {ratio}, wall time = {best.wall_time:.4g}s)", file=out)
    if args.output is not None:
        args.output.write_text(json.dumps(placement_to_dict(best.placement), indent=2))
        print(f"placement written to {args.output}", file=out)
    return 0


def _simulate_stream(args):
    """Build the TaskStream for ``repro simulate`` from the CLI arguments.

    Returns ``(stream, max_tasks)``: only the endless poisson generator is
    capped at ``--n`` — finite streams (synthetic instances, file/directory
    replays) always run to exhaustion.
    """
    import numpy as np

    from .core.instance import ReleaseInstance
    from .sim import InstanceStream, ReplayStream, poisson_stream
    from .workloads.releases import bursty_release_instance, staircase_release_instance

    if args.n <= 0:
        raise _CliInputError(f"--n must be positive, got {args.n}")
    if args.K <= 0:
        raise _CliInputError(f"--K must be positive, got {args.K}")
    if args.rate <= 0:
        raise _CliInputError(f"--rate must be positive, got {args.rate:g}")
    rng = np.random.default_rng(args.seed)
    if args.stream == "poisson":
        return poisson_stream(args.K, rng, rate=args.rate), args.n
    if args.stream == "bursty":
        return InstanceStream(bursty_release_instance(args.n, args.K, rng)), None
    if args.stream == "staircase":
        return InstanceStream(staircase_release_instance(args.n, args.K, rng)), None
    path = Path(args.stream)
    if path.is_dir():
        from .workloads.suite import read_release_traces

        try:
            traces = read_release_traces(path)
        except (OSError, json.JSONDecodeError, ReproError) as exc:
            raise _CliInputError(f"invalid trace file under {path}: {exc}") from exc
        if not traces:
            raise _CliInputError(f"no release instances to replay under {path}")
        return ReplayStream(traces), None
    if path.is_file():
        instance = _load_instance(path)
        if not isinstance(instance, ReleaseInstance):
            raise _CliInputError(
                f"{path} is a {type(instance).__name__}; simulate needs a release instance"
            )
        return InstanceStream(instance), None
    raise _CliInputError(
        f"unknown stream {args.stream!r}: expected poisson | bursty | staircase "
        "or an existing file/directory"
    )


def _cmd_simulate(args, out) -> int:
    from .core.errors import InvalidInstanceError
    from .sim import simulate

    try:
        stream, max_tasks = _simulate_stream(args)
        trace = simulate(stream, args.policy, max_tasks=max_tasks)
    except InvalidInstanceError as exc:
        # Input problems in the stream itself (off-grid widths, mixed-K
        # trace directories) are the user's data, not a crash.
        raise _CliInputError(str(exc)) from exc
    report = trace.to_report()
    print(f"policy = {trace.policy}, stream = {args.stream} (seed {args.seed})", file=out)
    print(
        f"tasks = {trace.n_tasks}, K = {trace.K}, makespan = {trace.makespan:.6g}",
        file=out,
    )
    print(
        f"queue depth mean/max = {trace.mean_queue_depth:.3g}/{trace.max_queue_depth}, "
        f"mean utilization = {trace.mean_utilization:.3g}",
        file=out,
    )
    ratio = "-" if report.ratio is None else f"{report.ratio:.4g}"
    print(
        f"lower bound = {report.lower_bound:.6g}, ratio = {ratio}, "
        f"valid = {'yes' if report.valid else 'no'}",
        file=out,
    )
    if args.events:
        table = Table(
            ["seq", "time", "task", "x", "start", "finish", "queued"],
            title=f"events ({trace.policy})",
        )
        for e in trace.events:
            table.add_row([e.seq, e.time, str(e.rid), e.x, e.start, e.finish, e.queue_depth])
        print(table.render(), file=out)
    if args.output is not None:
        args.output.write_text(json.dumps(trace.to_dict(), indent=2))
        print(f"trace written to {args.output}", file=out)
    return 0 if report.valid else 1


def _cmd_bench(args, out) -> int:
    from .analysis.report import Table
    from .bench import (
        BenchArtifactError,
        artifact_table,
        bench_names,
        bench_table_rows,
        compare_artifacts,
        get_bench,
        load_artifact,
        run_bench,
        write_artifact,
    )
    from .bench.compare import DEFAULT_THRESHOLD

    if args.names == ["trend"] and not args.all:
        # "trend" is a bench *verb*, not a registered spec: gate on the
        # committed artifact history instead of running anything.
        return _cmd_bench_trend(args, out)
    if args.list:
        table = Table(["bench", "entries", "sizes", "reps", "source"], title="bench registry")
        for row in bench_table_rows():
            table.add_row(list(row))
        print(table.render(), file=out)
        return 0
    if args.all and args.names:
        raise _CliInputError("pass bench names or --all, not both")
    names = bench_names() if args.all else list(args.names)
    if not names:
        raise _CliInputError("nothing to run: pass bench names, --all, or --list")
    if args.repetitions is not None and args.repetitions < 1:
        raise _CliInputError(f"--repetitions must be positive, got {args.repetitions}")
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    if threshold <= 1.0:
        raise _CliInputError(f"--threshold must be > 1, got {threshold:g}")
    try:
        specs = [get_bench(name) for name in names]
    except ReproError as exc:
        raise _CliInputError(str(exc)) from exc
    baseline = None
    if args.compare is not None:
        try:
            baseline = load_artifact(args.compare)
        except OSError as exc:
            raise _CliInputError(f"cannot read {args.compare}: {exc}") from exc
        except BenchArtifactError as exc:
            raise _CliInputError(str(exc)) from exc
        if baseline["name"] not in names:
            raise _CliInputError(
                f"baseline {args.compare} is for bench {baseline['name']!r}, "
                f"which is not being run"
            )

    def emit(spec, artifact) -> int:
        """Write/print one finished artifact; return flagged regressions."""
        path = write_artifact(artifact, args.out)
        print(artifact_table(artifact).render(), file=out)
        print(f"artifact written to {path}\n", file=out)
        if baseline is None or baseline["name"] != spec.name:
            return 0
        try:
            result = compare_artifacts(baseline, artifact, threshold=threshold)
        except ValueError as exc:
            # e.g. quick run vs full-sweep baseline: nothing overlaps
            raise _CliInputError(str(exc)) from exc
        print(result.table().render(), file=out)
        if result.regressions:
            print(f"{len(result.regressions)} regression(s) flagged", file=out)
        else:
            print("no regressions", file=out)
        print("", file=out)
        return len(result.regressions)

    regressions = 0
    # Run-then-write per spec, so an interrupted long sweep keeps every
    # artifact finished so far.
    for spec in specs:
        artifact = run_bench(
            spec,
            quick=args.quick,
            repetitions=args.repetitions,
            progress=lambda line: print(f"  {line}", file=out),
        )
        regressions += emit(spec, artifact)
    return 1 if regressions else 0


def _cmd_bench_trend(args, out) -> int:
    """``repro bench trend``: the sustained-drift gate over bench history."""
    from .obs.trend import (
        DEFAULT_DRIFT_THRESHOLD,
        DEFAULT_WINDOW,
        run_trend,
        trend_table,
        write_trend,
    )

    window = DEFAULT_WINDOW if args.window is None else args.window
    threshold = (
        DEFAULT_DRIFT_THRESHOLD if args.drift_threshold is None else args.drift_threshold
    )
    if window < 1:
        raise _CliInputError(f"--window must be >= 1, got {window}")
    if threshold <= 1.0:
        raise _CliInputError(f"--drift-threshold must be > 1, got {threshold:g}")
    directories = [args.artifacts, *(args.history or [])]
    for directory in directories:
        if not directory.is_dir():
            raise _CliInputError(f"not a directory: {directory}")
    document, drifts = run_trend(directories, window=window, threshold=threshold)
    if document["artifacts"] == 0:
        raise _CliInputError(
            f"no BENCH_*.json artifacts under {', '.join(map(str, directories))}"
        )
    path = write_trend(document, args.out)
    print(trend_table(document).render(), file=out)
    for error in document["load_errors"]:
        print(f"warning: skipped invalid artifact: {error}", file=out)
    print(f"\ntrend document written to {path}", file=out)
    if drifts:
        for drift in drifts:
            print(
                f"DRIFT: {drift['bench']}/{drift['entry']} size {drift['size']}: "
                f"last {drift['window']} runs all > {threshold:g}x baseline "
                f"({drift['baseline_s']:.4g}s -> {drift['latest_s']:.4g}s, "
                f"{drift['ratio']:.2f}x)",
                file=out,
            )
        print(f"{len(drifts)} drifting series flagged", file=out)
        return 1
    print("no sustained drift", file=out)
    return 0


def _build_server(args):
    """A server from serve CLI flags (:func:`~repro.service.router
    .build_server` picks solo or fleet from ``--workers``), mapping
    configuration mistakes to exit-2 errors."""
    from .core.errors import InvalidInstanceError
    from .service import SolveServer, build_server
    from .service.cache import DEFAULT_CACHE_BYTES

    if not 0 <= args.port <= 65535:
        raise _CliInputError(f"--port must be in [0, 65535], got {args.port}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise _CliInputError(f"--workers must be >= 1, got {workers}")
    retries = getattr(args, "retries", 2)
    if retries < 0:
        raise _CliInputError(f"--retries must be >= 0, got {retries}")
    backoff_ms = getattr(args, "backoff_ms", 50.0)
    if backoff_ms < 0:
        raise _CliInputError(f"--backoff-ms must be >= 0, got {backoff_ms:g}")
    request_timeout = getattr(args, "request_timeout", None)
    if request_timeout is not None and request_timeout <= 0:
        raise _CliInputError(
            f"--request-timeout must be > 0, got {request_timeout:g}"
        )
    cache_bytes = DEFAULT_CACHE_BYTES if args.cache_bytes is None else args.cache_bytes
    config = dict(
        queue_size=args.queue_size,
        cache_bytes=cache_bytes,
        cache_dir=args.cache_dir,
        warm_delta=getattr(args, "warm_delta", None),
    )
    try:
        if workers > 1:
            # Validate the per-worker config here (exit 2 at the CLI)
            # rather than inside the first spawned child (exit 1 + noise).
            SolveServer(**config).close()
            # Worker processes start fresh interpreters: the structured-log
            # sink rides in the config, so one fleet shares one log.
            log_format = getattr(args, "log_format", None)
            log_file = getattr(args, "log_file", None)
            if log_format is not None or log_file is not None:
                config = dict(
                    config,
                    log_format=log_format,
                    log_file=None if log_file is None else str(log_file),
                )
        return build_server(
            workers,
            config,
            request_timeout=request_timeout,
            retries=retries,
            backoff_ms=backoff_ms,
        )
    except (InvalidInstanceError, OSError) as exc:
        raise _CliInputError(str(exc)) from exc


def _cmd_serve(args, out) -> int:
    import asyncio
    import signal as _signal

    log_format = getattr(args, "log_format", None)
    log_file = getattr(args, "log_file", None)
    if log_format is not None or log_file is not None:
        # Configure this process's sink (the solo server's, or the
        # router's own events); _build_server forwards the same config
        # into every worker process.
        from .obs import configure_logging

        configure_logging(
            log_format,
            None if log_file is None else str(log_file),
            stream=sys.stderr if log_file is None else None,
        )
    server = _build_server(args)
    workers = getattr(args, "workers", 1)

    def ready() -> None:
        print(
            f"repro {__version__} serving on http://{server.host}:{server.port} "
            f"(workers {workers}, queue {args.queue_size})"
            " — Ctrl-C to stop",
            file=out,
            flush=True,
        )

    async def _serve_until_signal() -> None:
        bound = await server.start(args.host, args.port)
        ready()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        registered: list[int] = []
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                registered.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                # No signal support here (Windows event loops, non-main
                # threads): Ctrl-C falls back to KeyboardInterrupt below.
                pass
        try:
            await stop.wait()
            print("draining: refusing new requests, flushing queue", file=out)
            # Graceful drain: answer everything already accepted (and,
            # sharded, drain every worker the same way), then exit.
            await server.drain(bound)
        finally:
            for sig in registered:
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(_serve_until_signal())
    except KeyboardInterrupt:
        print("shutting down", file=out)
        return 0
    except OSError as exc:
        raise _CliInputError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    finally:
        server.close()
    print("drained, exiting", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    import json as _json

    from .core.errors import ReproError as _ReproError
    from .service.chaos import run_chaos, run_session_chaos
    from .service.faults import FaultPlan

    if args.requests < 1:
        raise _CliInputError(f"--requests must be positive, got {args.requests}")
    if args.concurrency < 1:
        raise _CliInputError(f"--concurrency must be positive, got {args.concurrency}")
    if args.rects < 1:
        raise _CliInputError(f"--rects must be positive, got {args.rects}")
    if args.sessions is not None and args.sessions < 1:
        raise _CliInputError(f"--sessions must be positive, got {args.sessions}")
    if args.steps < 1:
        raise _CliInputError(f"--steps must be positive, got {args.steps}")
    try:
        plan = FaultPlan.load(args.plan)
    except _ReproError as exc:
        raise _CliInputError(str(exc)) from exc
    try:
        if args.sessions is not None:
            report = run_session_chaos(
                plan,
                workers=args.workers,
                sessions=args.sessions,
                steps=args.steps,
                seed=args.seed,
                algorithm=args.algorithm,
                request_timeout=args.request_timeout,
                retries=args.retries,
                backoff_ms=args.backoff_ms,
                max_restarts=args.max_restarts,
                expect_final_ok=not args.allow_degraded,
                health_deadline_s=args.health_deadline,
            )
        else:
            report = run_chaos(
                plan,
                workers=args.workers,
                requests=args.requests,
                distinct=args.distinct,
                n_rects=args.rects,
                concurrency=args.concurrency,
                seed=args.seed,
                algorithm=args.algorithm,
                request_timeout=args.request_timeout,
                retries=args.retries,
                backoff_ms=args.backoff_ms,
                max_restarts=args.max_restarts,
                cache_bytes=args.cache_bytes,
                cache_dir=args.cache_dir,
                expect_final_ok=not args.allow_degraded,
                health_deadline_s=args.health_deadline,
            )
    except (_ReproError, OSError, RuntimeError) as exc:
        raise _CliInputError(str(exc)) from exc
    for line in report.summary_lines():
        print(line, file=out, flush=True)
    if args.output is not None:
        args.output.write_text(_json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.output}", file=out)
    return 0 if report.passed else 1


def _cmd_loadtest(args, out) -> int:
    import json as _json

    from .core.errors import ReproError as _ReproError
    from .service.loadgen import (
        run_closed_loop,
        run_open_loop,
        run_session_loop,
        solve_payloads,
    )

    # --quick is the CI smoke preset; explicit flags still win.
    requests = args.requests if args.requests is not None else (200 if args.quick else 1000)
    concurrency = args.concurrency if args.concurrency is not None else (4 if args.quick else 8)
    distinct = args.distinct if args.distinct is not None else (2 if args.quick else 8)
    sessions = args.sessions if args.sessions is not None else (2 if args.quick else 4)
    steps = args.steps if args.steps is not None else (3 if args.quick else 8)
    if requests < 1:
        raise _CliInputError(f"--requests must be positive, got {requests}")
    if concurrency < 1:
        raise _CliInputError(f"--concurrency must be positive, got {concurrency}")
    if args.mode == "open" and args.rate <= 0:
        raise _CliInputError(f"--rate must be positive, got {args.rate:g}")
    if sessions < 1:
        raise _CliInputError(f"--sessions must be positive, got {sessions}")
    if steps < 1:
        raise _CliInputError(f"--steps must be positive, got {steps}")
    if args.warm_delta is not None and args.warm_delta < 0:
        raise _CliInputError(f"--warm-delta must be >= 0, got {args.warm_delta:g}")
    _check_algorithms(args.algorithm)
    try:
        payloads = solve_payloads(
            distinct, n_rects=args.rects, seed=args.seed, algorithm=args.algorithm
        )
    except _ReproError as exc:
        raise _CliInputError(str(exc)) from exc

    if args.workers_sweep is not None:
        return _run_workers_sweep(args, out, payloads, requests, concurrency, distinct)

    def drive(url: str):
        if args.mode == "session":
            return run_session_loop(
                url, sessions=sessions, steps=steps, seed=args.seed,
                algorithm=args.algorithm,
            )
        if args.mode == "open":
            return run_open_loop(
                url, payloads, requests=requests, rate=args.rate, seed=args.seed
            )
        return run_closed_loop(url, payloads, requests=requests, concurrency=concurrency)

    def preflight(url: str) -> None:
        """Fail fast (exit 2) when the target is not a live solve service,
        instead of timing out request by request."""
        from .service.loadgen import Client

        with Client(url, timeout=5) as client:
            answer = client.send("GET", "/healthz")
        if answer.error:
            raise _CliInputError(f"cannot reach {url}: {answer.error}")
        if answer.status != 200:
            raise _CliInputError(
                f"{url}/healthz answered {answer.status}, not a solve service"
            )

    try:
        if args.url is None:
            from .service import InProcessServer, SolveServer

            server = (
                SolveServer(warm_delta=args.warm_delta)
                if args.warm_delta is not None
                else None
            )
            with InProcessServer(server) as srv:
                print(f"in-process server on {srv.url}", file=out)
                result = drive(srv.url)
        else:
            preflight(args.url)
            result = drive(args.url)
    except (_ReproError, OSError) as exc:
        raise _CliInputError(str(exc)) from exc

    if args.mode == "session":
        print(f"target = {args.url or 'in-process'}, sessions = {sessions}, "
              f"steps = {steps}, seed = {args.seed}", file=out)
    else:
        print(f"target = {args.url or 'in-process'}, requests = {requests}, "
              f"distinct instances = {distinct}, seed = {args.seed}", file=out)
    for line in result.summary_lines():
        print(line, file=out)
    print("\nlatency histogram:", file=out)
    for line in result.histogram_lines():
        print(f"  {line}", file=out)
    if args.output is not None:
        args.output.write_text(_json.dumps(result.to_dict(), indent=2))
        print(f"\nresult written to {args.output}", file=out)
    return 0 if result.errors == 0 else 1


def _run_workers_sweep(args, out, payloads, requests, concurrency, distinct) -> int:
    """``repro loadtest --workers-sweep 1,2,4``: one closed-loop step per
    worker count, same payloads throughout, one JSON document out."""
    import json as _json

    from .core.errors import ReproError as _ReproError
    from .service.loadgen import sweep_workers

    if args.url is not None:
        raise _CliInputError(
            "--workers-sweep builds its own in-process servers; drop --url"
        )
    if args.mode != "closed":
        raise _CliInputError(
            f"--workers-sweep is closed-loop only; drop --mode {args.mode}"
        )
    try:
        counts = [int(part) for part in args.workers_sweep.split(",") if part.strip()]
    except ValueError:
        raise _CliInputError(
            f"--workers-sweep wants comma-separated integers, got {args.workers_sweep!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise _CliInputError(
            f"--workers-sweep counts must be positive, got {args.workers_sweep!r}"
        )

    print(
        f"workers sweep {counts}: {requests} requests each, "
        f"concurrency {concurrency}, distinct instances = {distinct}, "
        f"seed = {args.seed}",
        file=out,
        flush=True,
    )
    try:
        stepped = sweep_workers(
            counts, payloads, requests=requests, concurrency=concurrency
        )
    except (_ReproError, OSError, RuntimeError) as exc:
        raise _CliInputError(str(exc)) from exc

    base_rps = None
    steps = []
    for count, result in stepped:
        if base_rps is None:
            base_rps = result.throughput_rps or 1.0
        speedup = result.throughput_rps / base_rps
        print(
            f"workers = {count}: {result.throughput_rps:8.1f} req/s, "
            f"p95 = {result.latency_ms(95):7.2f} ms, "
            f"errors = {result.errors}, speedup = {speedup:.2f}x",
            file=out,
            flush=True,
        )
        steps.append({"workers": count, "speedup": speedup, **result.to_dict()})
    document = {"sweep": steps}
    if args.output is not None:
        args.output.write_text(_json.dumps(document, indent=2))
        print(f"\nresult written to {args.output}", file=out)
    return 0 if all(step["errors"] == 0 for step in steps) else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    commands = {
        "info": lambda: _cmd_info(out),
        "demo": lambda: _cmd_demo(out),
        "solve": lambda: _cmd_solve(args, out),
        "bounds": lambda: _cmd_bounds(args, out),
        "batch": lambda: _cmd_batch(args, out),
        "portfolio": lambda: _cmd_portfolio(args, out),
        "simulate": lambda: _cmd_simulate(args, out),
        "bench": lambda: _cmd_bench(args, out),
        "serve": lambda: _cmd_serve(args, out),
        "chaos": lambda: _cmd_chaos(args, out),
        "loadtest": lambda: _cmd_loadtest(args, out),
    }
    handler = commands[args.command]  # argparse enforces the choices
    try:
        return handler()
    except _CliInputError as exc:
        print(f"error: {exc}", file=out)
        return 2
