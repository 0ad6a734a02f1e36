"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialize import dumps_instance
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.dag.graph import TaskDAG


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_info(self):
        code, text = run_cli(["info"])
        assert code == 0
        assert "repro" in text and "dc" in text and "aptas" in text


class TestDemo:
    def test_demo_runs(self):
        code, text = run_cli(["demo"])
        assert code == 0
        assert "DC height" in text and "APTAS height" in text


class TestSolve:
    @pytest.fixture
    def instance_file(self, tmp_path):
        inst = PrecedenceInstance(
            [Rect(rid=i, width=0.4, height=1.0) for i in range(4)],
            TaskDAG(range(4), [(0, 1), (1, 2)]),
        )
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(inst))
        return path

    def test_solve_default(self, instance_file):
        code, text = run_cli(["solve", str(instance_file)])
        assert code == 0
        assert "height" in text

    def test_solve_named_algorithm(self, instance_file):
        code, text = run_cli(["solve", str(instance_file), "--algorithm", "dc"])
        assert code == 0

    def test_solve_writes_output(self, instance_file, tmp_path):
        out_path = tmp_path / "placement.json"
        code, text = run_cli(["solve", str(instance_file), "--output", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["placements"]) == 4

    def test_solve_render(self, instance_file):
        code, text = run_cli(["solve", str(instance_file), "--render"])
        assert code == 0
        assert "height =" in text

    def test_solve_release_instance_with_eps(self, tmp_path):
        inst = ReleaseInstance(
            [Rect(rid=0, width=0.5, height=1.0, release=1.0)], K=2
        )
        path = tmp_path / "rel.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["solve", str(path), "--eps", "1.0"])
        assert code == 0


class TestBounds:
    def test_bounds(self, tmp_path):
        inst = StripPackingInstance([Rect(rid=0, width=0.5, height=2.0)])
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["bounds", str(path)])
        assert code == 0
        assert "area" in text and "combined" in text


class TestBatch:
    @pytest.fixture
    def instance_dir(self, tmp_path):
        import numpy as np

        from repro.workloads.suite import mixed_instance_suite, write_instance_dir

        d = tmp_path / "instances"
        write_instance_dir(d, mixed_instance_suite(4, np.random.default_rng(2)))
        return d

    def test_batch_serial(self, instance_dir):
        code, text = run_cli(["batch", str(instance_dir)])
        assert code == 0
        assert "solved 4/4 valid" in text
        assert "instance_000.json" in text

    def test_batch_named_algorithm_reports_invalid_rows(self, instance_dir):
        # dc ignores release times, so forcing it over a mixed directory must
        # surface INVALID rows and a non-zero exit instead of lying.
        code, text = run_cli(["batch", str(instance_dir), "--algorithm", "dc"])
        assert code == 1
        assert "INVALID" in text
        assert "solved" in text

    def test_batch_release_only_algorithm_reports_errors(self, instance_dir):
        # aptas hard-requires a ReleaseInstance; on a mixed directory the
        # incompatible instances must become error rows, not a traceback.
        code, text = run_cli(["batch", str(instance_dir), "--algorithm", "aptas"])
        assert code == 1
        assert "error: InvalidInstanceError" in text
        assert "solved" in text

    def test_batch_empty_dir(self, tmp_path):
        code, text = run_cli(["batch", str(tmp_path)])
        assert code == 2
        assert text.startswith("error:") and "no instances" in text

    def test_batch_missing_dir(self, tmp_path):
        code, text = run_cli(["batch", str(tmp_path / "nope")])
        assert code == 2
        assert text.startswith("error:") and "not a directory" in text


class TestPortfolio:
    @pytest.fixture
    def release_file(self, tmp_path):
        inst = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)], K=2
        )
        path = tmp_path / "rel.json"
        path.write_text(dumps_instance(inst))
        return path

    def test_portfolio_default_race(self, release_file):
        code, text = run_cli(["portfolio", str(release_file)])
        assert code == 0
        assert "winner:" in text and "aptas" in text and "height =" in text

    def test_portfolio_explicit_algorithms(self, release_file):
        code, text = run_cli(
            ["portfolio", str(release_file), "--algorithms", "release_bl,release_shelf"]
        )
        assert code == 0
        assert "release_bl" in text and "release_shelf" in text
        assert "aptas" not in text  # only the requested entrants race

    def test_portfolio_writes_winner(self, release_file, tmp_path):
        out_path = tmp_path / "best.json"
        code, text = run_cli(
            ["portfolio", str(release_file), "--output", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["placements"]) == 4


class TestSimulate:
    def test_poisson_stream_summary(self):
        code, text = run_cli(["simulate", "poisson", "--n", "20", "--K", "6",
                              "--rate", "2", "--seed", "3"])
        assert code == 0
        assert "policy = first_fit" in text and "makespan" in text
        assert "queue depth" in text and "valid = yes" in text

    def test_same_seed_reproduces_output(self):
        argv = ["simulate", "poisson", "--n", "15", "--seed", "9"]
        assert run_cli(argv) == run_cli(argv)

    def test_different_seed_changes_output(self):
        out_a = run_cli(["simulate", "bursty", "--n", "15", "--seed", "1"])[1]
        out_b = run_cli(["simulate", "bursty", "--n", "15", "--seed", "2"])[1]
        assert out_a != out_b

    def test_named_policy_and_events_log(self):
        code, text = run_cli(["simulate", "staircase", "--n", "8",
                              "--policy", "shelf_online", "--events"])
        assert code == 0
        assert "policy = shelf_online" in text and "== events" in text

    def test_replay_instance_file(self, tmp_path):
        inst = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)], K=2
        )
        path = tmp_path / "rel.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(path), "--policy", "best_fit_column"])
        assert code == 0
        assert "tasks = 4" in text

    def test_replay_directory(self, tmp_path):
        import numpy as np

        from repro.workloads.suite import mixed_instance_suite, write_instance_dir

        write_instance_dir(tmp_path, mixed_instance_suite(6, np.random.default_rng(4)))
        code, text = run_cli(["simulate", str(tmp_path)])
        assert code == 0 and "valid = yes" in text

    def test_writes_trace_json(self, tmp_path):
        out_path = tmp_path / "trace.json"
        code, text = run_cli(["simulate", "poisson", "--n", "10",
                              "--output", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["n_tasks"] == 10 and len(data["events"]) == 10

    def test_unknown_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "poisson", "--policy", "oracle"])


class TestSimulateErrors:
    def test_unknown_stream_name(self):
        code, text = run_cli(["simulate", "zipf"])
        assert code == 2 and "unknown stream" in text

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--K", "-1"), ("--rate", "0")])
    def test_invalid_parameters(self, flag, value):
        code, text = run_cli(["simulate", "poisson", flag, value])
        assert code == 2 and "error:" in text

    def test_non_release_instance_file(self, tmp_path):
        inst = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        path = tmp_path / "plain.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(path)])
        assert code == 2 and "release instance" in text

    def test_directory_without_release_instances(self, tmp_path):
        inst = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        (tmp_path / "plain.json").write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(tmp_path)])
        assert code == 2 and "no release instances" in text

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, text = run_cli(["simulate", str(path)])
        assert code == 2 and "malformed JSON" in text

    def test_off_grid_width_exits_2(self, tmp_path):
        inst = ReleaseInstance([Rect(rid=0, width=0.3, height=1.0)], K=8)
        path = tmp_path / "offgrid.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(path)])
        assert code == 2 and "whole-column widths" in text

    def test_directory_with_malformed_file_exits_2(self, tmp_path):
        inst = ReleaseInstance([Rect(rid=0, width=0.5, height=1.0)], K=2)
        (tmp_path / "good.json").write_text(dumps_instance(inst))
        (tmp_path / "broken.json").write_text("{not json")
        code, text = run_cli(["simulate", str(tmp_path)])
        assert code == 2 and "invalid trace file" in text

    def test_mixed_K_trace_directory_exits_2(self, tmp_path):
        for i, k in enumerate((2, 4)):
            inst = ReleaseInstance([Rect(rid=0, width=1.0 / k, height=1.0)], K=k)
            (tmp_path / f"t{i}.json").write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(tmp_path)])
        assert code == 2 and "share one K" in text

    def test_replay_is_never_truncated_to_default_n(self, tmp_path):
        # 60 tasks > the synthetic-stream default of --n 40: replays must
        # run the whole trace.
        inst = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=float(i)) for i in range(60)],
            K=2,
        )
        path = tmp_path / "big.json"
        path.write_text(dumps_instance(inst))
        code, text = run_cli(["simulate", str(path)])
        assert code == 0 and "tasks = 60" in text


class TestInputErrors:
    """Bad instance files exit 2 with a message on every file-reading command."""

    @pytest.fixture
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"type": "plain", "rects": [')
        return path

    @pytest.fixture
    def invalid_schema_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "martian", "rects": []}))
        return path

    @pytest.mark.parametrize("command", ["solve", "bounds", "portfolio"])
    def test_malformed_json(self, command, broken_file):
        code, text = run_cli([command, str(broken_file)])
        assert code == 2 and "malformed JSON" in text

    @pytest.mark.parametrize("command", ["solve", "bounds", "portfolio"])
    def test_invalid_instance_schema(self, command, invalid_schema_file):
        code, text = run_cli([command, str(invalid_schema_file)])
        assert code == 2 and "invalid instance" in text

    @pytest.mark.parametrize("command", ["solve", "bounds", "portfolio"])
    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("width", 10**400, "too large for a float"),
            ("height", 10**400, "too large for a float"),
            ("release", 10**400, "too large for a float"),
            ("K", 10**400, "K is too large"),
            ("K", float("inf"), "K must be finite"),
        ],
        ids=["int-width", "int-height", "int-release", "int-K", "infinite-K"],
    )
    def test_out_of_range_number_exits_2(self, command, field, value, fragment, tmp_path):
        rect = {"id": "a", "width": 0.5, "height": 0.5, "release": 0.0}
        instance = {"type": "release", "K": 2, "rects": [rect]}
        (rect if field in rect else instance)[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(instance))
        code, text = run_cli([command, str(path)])
        assert code == 2
        [line] = text.splitlines()
        assert line.startswith("error: invalid instance") and fragment in line

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, text = run_cli(["solve", str(path)])
        assert code == 2 and "invalid instance" in text

    @pytest.mark.parametrize("command", ["solve", "bounds", "portfolio"])
    def test_missing_file(self, command, tmp_path):
        code, text = run_cli([command, str(tmp_path / "nope.json")])
        assert code == 2 and "cannot read" in text

    def test_batch_dir_with_malformed_file(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        code, text = run_cli(["batch", str(tmp_path)])
        assert code == 2 and "invalid instance file" in text

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--algorithm"),
        ("batch", "--algorithm"),
        ("portfolio", "--algorithms"),
    ])
    def test_unknown_algorithm_exits_2(self, command, flag, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps_instance(StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])))
        target = tmp_path if command == "batch" else path
        code, text = run_cli([command, str(target), flag, "warp"])
        assert code == 2
        [line] = text.splitlines()
        assert line.startswith("error: unknown algorithm 'warp'; available: ")


class TestVersion:
    """``repro --version`` is single-sourced from pyproject.toml."""

    @staticmethod
    def _pyproject_version():
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        return re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1)

    def test_version_flag_matches_pyproject(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {self._pyproject_version()}"

    def test_dunder_version_matches_pyproject(self):
        import repro

        assert repro.__version__ == self._pyproject_version()

    def test_info_reports_the_same_version(self):
        code, text = run_cli(["info"])
        assert code == 0
        assert f"repro {self._pyproject_version()}" in text

    def test_malformed_pyproject_falls_back_to_line_scan(self, monkeypatch):
        """A mid-edit TOML syntax error must not break `import repro`."""
        from repro import _version

        bad = 'garbage [ ===\nname = "repro-augustine-bi06"\nversion = "9.9.9"\n'
        monkeypatch.setattr(_version.Path, "read_text", lambda self, *a, **k: bad)
        assert _version._from_pyproject() == "9.9.9"


class TestServeErrors:
    """``repro serve`` bad input exits 2 with a one-line message."""

    def test_port_in_use_exits_2(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        try:
            code, text = run_cli(["serve", "--port", str(port)])
        finally:
            sock.close()
        assert code == 2
        assert text.splitlines()[-1].startswith("error:") and "cannot bind" in text

    def test_out_of_range_port_exits_2(self):
        code, text = run_cli(["serve", "--port", "70000"])
        assert code == 2 and "--port" in text

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--retries", "-1"], "--retries"),
        (["serve", "--queue-size", "0"], "queue_size"),
        (["serve", "--cache-bytes", "-5"], "max_bytes"),
        (["serve", "--workers", "0"], "--workers"),
    ])
    def test_bad_parameters_exit_2(self, argv, message):
        code, text = run_cli(argv)
        assert code == 2
        assert text.startswith("error:") and message in text

    @pytest.mark.parametrize("command, flag", [
        pytest.param("serve", "--backend thread", id="--backend thread"),
        pytest.param("serve", "--jobs 2", id="--jobs 2"),
        pytest.param("serve", "--max-batch 4", id="--max-batch 4"),
        pytest.param("batch DIR", "--backend thread", id="batch --backend thread"),
        pytest.param("batch DIR", "--jobs 2", id="batch --jobs 2"),
        pytest.param("portfolio FILE.json", "--backend thread", id="portfolio --backend thread"),
        pytest.param("portfolio FILE.json", "--jobs 2", id="portfolio --jobs 2"),
    ])
    def test_executor_flags_are_unknown(self, command, flag):
        """Serving parallelism is ``--workers N``, one solver thread each,
        and ``batch``/``portfolio`` solve in one in-process loop, so
        argparse refuses executor flags (and a micro-batch cap on
        ``serve``) with exit 2.  It does so before any path is read: an
        accepted flag would instead *return* 2 on the missing path."""
        with pytest.raises(SystemExit) as exc:
            run_cli([*command.split(), *flag.split()])
        assert exc.value.code == 2


class TestLoadtest:
    def test_quick_in_process_run(self):
        code, text = run_cli(["loadtest", "--quick", "--algorithm", "nfdh"])
        assert code == 0
        assert "in-process server on http://" in text
        assert "req/s" in text and "latency histogram" in text

    def test_open_mode_and_output(self, tmp_path):
        out_path = tmp_path / "load.json"
        code, text = run_cli([
            "loadtest", "--mode", "open", "--requests", "20", "--rate", "500",
            "--distinct", "1", "--algorithm", "nfdh", "--output", str(out_path),
        ])
        assert code == 0
        assert "lateness" in text
        data = json.loads(out_path.read_text())
        assert data["mode"] == "open" and data["requests"] == 20

    def test_unreachable_url_exits_2(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        code, text = run_cli([
            "loadtest", "--url", f"http://127.0.0.1:{port}",
            "--requests", "2", "--quick",
        ])
        assert code == 2 and "cannot reach" in text

    @pytest.mark.parametrize("argv, message", [
        (["loadtest", "--requests", "0"], "--requests"),
        (["loadtest", "--concurrency", "0"], "--concurrency"),
        (["loadtest", "--mode", "open", "--rate", "0"], "--rate"),
        (["loadtest", "--algorithm", "oracle"], "unknown algorithm"),
        (["loadtest", "--rects", "0"], "n_rects"),
        (["loadtest", "--url", "ftp://bad", "--requests", "1"], "http"),
    ])
    def test_bad_parameters_exit_2(self, argv, message):
        code, text = run_cli(argv)
        assert code == 2
        assert text.splitlines()[-1].startswith("error:") and message in text

    def test_unknown_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--mode", "chaos"])


class TestWorkersSweep:
    """``repro loadtest --workers-sweep N,N``: the scaling-curve CLI."""

    def test_sweep_runs_and_writes_one_document(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, text = run_cli([
            "loadtest", "--workers-sweep", "1,2", "--requests", "8",
            "--concurrency", "2", "--distinct", "2", "--rects", "8",
            "--algorithm", "nfdh", "--output", str(out_path),
        ])
        assert code == 0
        assert "workers sweep [1, 2]" in text
        assert "speedup" in text and "req/s" in text
        steps = json.loads(out_path.read_text())["sweep"]
        assert [step["workers"] for step in steps] == [1, 2]
        assert steps[0]["speedup"] == pytest.approx(1.0)
        for step in steps:
            assert step["errors"] == 0 and step["requests"] == 8

    @pytest.mark.parametrize("argv, message", [
        (["loadtest", "--workers-sweep", "1,x"], "comma-separated"),
        (["loadtest", "--workers-sweep", "0,2"], "positive"),
        (["loadtest", "--workers-sweep", ","], "positive"),
        (["loadtest", "--workers-sweep", "1",
          "--url", "http://127.0.0.1:1"], "drop --url"),
        (["loadtest", "--workers-sweep", "1", "--mode", "open"], "drop --mode open"),
    ])
    def test_bad_combinations_exit_2(self, argv, message):
        code, text = run_cli(argv)
        assert code == 2
        assert text.splitlines()[-1].startswith("error:") and message in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])
