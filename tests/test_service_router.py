"""Tests for the sharded solve service: ring, router, failover, L2 tier.

The consistent-hash :class:`~repro.service.router.HashRing` is unit-tested
for determinism and minimal key movement; everything else runs a real
:class:`~repro.service.router.RouterServer` fleet — worker *processes*
spawned over loopback — probed through the same ``http.client`` path as
the single-process server tests.  The acceptance contract lives here:
responses are byte-identical to the non-sharded path (modulo ``wall_time``),
killing a worker mid-load loses no accepted request, ``/healthz`` reports
``degraded`` then ``ok`` around a respawn, and two workers sharing a
``cache_dir`` observe each other's disk spills as L2 hits.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.serialize import instance_to_dict
from repro.service import InProcessServer, RouterServer, SolveServer
from repro.service.router import HashRing, WorkerHandle
from repro.service.server import parse_json_body, resolve_solve_request


def _state_and_parent(pid: int | str) -> tuple[str, int] | None:
    """A process's state letter and parent pid, read from ``/proc``
    (``None`` once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # The command name may hold spaces; fields resume after ")".
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _running(pid: int) -> bool:
    """Present and not a zombie (a zombie has ended; only its entry is left)."""
    stat = _state_and_parent(pid)
    return stat is not None and stat[0] != "Z"


def _live_children(pid: int) -> set[int]:
    """Pids of ``pid``'s children that still run."""
    children = set()
    for entry in os.listdir("/proc"):
        stat = _state_and_parent(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == pid and stat[0] != "Z":
            children.add(int(entry))
    return children


# ----------------------------------------------------------------------
# HashRing units
# ----------------------------------------------------------------------

class TestHashRing:
    def test_lookup_is_deterministic_and_total(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(200)]
        first = [ring.node_for(k) for k in keys]
        assert first == [ring.node_for(k) for k in keys]
        assert set(first) <= {"a", "b", "c"}

    def test_replicas_spread_the_key_space(self):
        ring = HashRing(["a", "b", "c"])
        counts = {"a": 0, "b": 0, "c": 0}
        for i in range(3000):
            counts[ring.node_for(f"key-{i}")] += 1
        # 64 virtual points per node keep every shard within a loose
        # band of fair share (1000); a naive mod-N ring would be exact,
        # a single-point ring could starve a node entirely.
        assert min(counts.values()) > 400

    def test_removing_a_node_moves_only_its_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("b")
        for key, owner in before.items():
            if owner != "b":
                assert ring.node_for(key) == owner  # survivors keep their arcs
            else:
                assert ring.node_for(key) in ("a", "c")

    def test_adding_a_node_only_steals_keys(self):
        ring = HashRing(["a", "b"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        ring.add("c")
        moved = 0
        for key, owner in before.items():
            after = ring.node_for(key)
            if after != owner:
                assert after == "c"  # keys never shuffle between old nodes
                moved += 1
        assert 0 < moved < len(keys)

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(["a"])
        ring.add("a")
        assert len(ring) == 1
        ring.remove("ghost")
        ring.remove("a")
        ring.remove("a")
        assert len(ring) == 0 and ring.node_for("x") is None

    def test_preference_starts_at_owner_and_covers_all_nodes(self):
        ring = HashRing(["a", "b", "c", "d"])
        for i in range(50):
            order = ring.preference(f"key-{i}")
            assert order[0] == ring.node_for(f"key-{i}")
            assert sorted(order) == ["a", "b", "c", "d"]  # each exactly once

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("k") is None and ring.preference("k") == []
        assert len(ring) == 0 and "a" not in ring

    def test_bad_replicas_raises(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


# ----------------------------------------------------------------------
# a live two-worker fleet
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fleet():
    with InProcessServer(RouterServer(workers=2)) as srv:
        yield srv


@pytest.fixture()
def conn(fleet):
    connection = http.client.HTTPConnection(fleet.host, fleet.port, timeout=30)
    yield connection
    connection.close()


def _request(conn, method, path, body=None, headers=None):
    payload = json.dumps(body).encode() if isinstance(body, dict) else body
    base = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers={**base, **(headers or {})})
    response = conn.getresponse()
    raw = response.read()
    return response.status, dict(response.getheaders()), raw


def _solve_body(n=6, seed=0, algorithm="ffdh"):
    import numpy as np

    from repro.core.instance import StripPackingInstance
    from repro.workloads.random_rects import powerlaw_rects

    instance = StripPackingInstance(powerlaw_rects(n, np.random.default_rng(seed)))
    return {"instance": instance_to_dict(instance), "algorithm": algorithm}


def _result_key(body: dict) -> str:
    key, _name, _params, _instance = resolve_solve_request(
        parse_json_body(json.dumps(body).encode())
    )
    return key


def _normalized(raw: bytes) -> dict:
    data = json.loads(raw)
    data["report"]["wall_time"] = 0.0
    return data


class TestRoutedSolve:
    def test_healthz_reports_full_fleet(self, conn):
        status, _, raw = _request(conn, "GET", "/healthz")
        data = json.loads(raw)
        assert status == 200 and data["status"] == "ok"
        assert data["workers"] == {"total": 2, "alive": 2, "restarts": 0}

    def test_solve_misses_then_hits_byte_identical(self, conn):
        body = _solve_body(seed=10)
        s1, h1, raw1 = _request(conn, "POST", "/solve", body)
        s2, h2, raw2 = _request(conn, "POST", "/solve", body)
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "miss" and h2["X-Repro-Cache"] == "hit"
        assert raw1 == raw2  # key affinity: the repeat lands on the same L1

    def test_matches_single_process_server(self):
        """Same body through 1 worker and through the fleet: identical
        responses once the only nondeterministic field (wall_time) is
        normalized — the sharded path must be invisible to clients."""
        body = _solve_body(n=9, seed=11, algorithm="bottom_left")
        with InProcessServer(SolveServer()) as solo:
            c = http.client.HTTPConnection(solo.host, solo.port, timeout=30)
            try:
                _, _, raw_solo = _request(c, "POST", "/solve", body)
            finally:
                c.close()
        with InProcessServer(RouterServer(workers=2)) as routed:
            c = http.client.HTTPConnection(routed.host, routed.port, timeout=30)
            try:
                _, _, raw_fleet = _request(c, "POST", "/solve", body)
            finally:
                c.close()
        assert _normalized(raw_solo) == _normalized(raw_fleet)

    def test_portfolio_routes_and_caches(self, conn):
        from repro.core.instance import ReleaseInstance
        from repro.core.rectangle import Rect

        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)], K=2
        )
        body = {
            "instance": instance_to_dict(instance),
            "algorithms": ["release_bl", "release_shelf"],
        }
        s1, h1, raw1 = _request(conn, "POST", "/portfolio", body)
        s2, h2, raw2 = _request(conn, "POST", "/portfolio", body)
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "miss" and h2["X-Repro-Cache"] == "hit"
        assert raw1 == raw2

    def test_error_mapping_matches_single_process(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", b"{not json")
        assert status == 400 and "malformed JSON" in json.loads(raw)["error"]
        body = _solve_body()
        body["algorithm"] = "oracle"
        status, _, raw = _request(conn, "POST", "/solve", body)
        assert status == 422 and "unknown algorithm" in json.loads(raw)["error"]
        status, _, _ = _request(conn, "GET", "/solve")
        assert status == 405
        status, _, _ = _request(conn, "GET", "/nope")
        assert status == 404

    def test_concurrent_identical_misses_coalesce_at_the_router(self, fleet):
        import threading

        body = _solve_body(n=80, seed=12, algorithm="bottom_left")
        sources: list[str] = []
        lock = threading.Lock()

        def hammer():
            c = http.client.HTTPConnection(fleet.host, fleet.port, timeout=30)
            try:
                status, headers, _ = _request(c, "POST", "/solve", body)
                with lock:
                    if status == 200:
                        sources.append(headers["X-Repro-Cache"])
            finally:
                c.close()

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sources) == 6
        assert sources.count("miss") == 1  # one leader reached a worker
        assert all(s in ("miss", "hit", "coalesced") for s in sources)


class TestFleetMetrics:
    def test_json_metrics_aggregate_the_fleet(self, conn):
        _request(conn, "POST", "/solve", _solve_body(seed=13))
        status, _, raw = _request(conn, "GET", "/metrics")
        data = json.loads(raw)
        assert status == 200
        assert {"uptime_s", "requests", "latency", "queue", "cache",
                "router", "workers"} <= set(data)
        # the fleet sums keep the single-process document shape
        assert {"depth", "submitted", "completed", "rejected", "batches",
                "max_batch", "mean_batch"} <= set(data["queue"])
        assert {"hits", "misses", "evictions", "spills",
                "spill_hits", "entries", "bytes", "stored_bytes"} <= set(data["cache"])
        stored = [w["cache"]["stored_bytes"] for w in data["workers"].values()]
        assert data["cache"]["stored_bytes"] == sum(stored) > 0
        assert data["router"]["workers"]["total"] == 2
        assert set(data["workers"]) == {"0", "1"}
        per_worker = sum(w["queue"]["completed"] for w in data["workers"].values())
        assert data["queue"]["completed"] == per_worker
        # ... field for field: the fleet blocks carry exactly a worker's keys
        worker = next(iter(data["workers"].values()))
        assert set(data["queue"]) == set(worker["queue"])
        assert set(data["cache"]) == set(worker["cache"])
        cache = data["cache"]
        assert cache["hit_rate"] == cache["hits"] / (cache["hits"] + cache["misses"])
        budgets = [w["cache"]["max_bytes"] for w in data["workers"].values()]
        assert cache["max_bytes"] == sum(budgets)

    def test_prometheus_metrics_carry_per_worker_labels(self, conn):
        _request(conn, "POST", "/solve", _solve_body(seed=14))
        status, headers, raw = _request(
            conn, "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "repro_workers_total 2" in text
        assert "repro_workers_alive 2" in text
        assert 'worker="0"' in text and 'worker="1"' in text
        # one # TYPE header per metric name, preceding all of its series
        typed = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert len(typed) == len(set(typed))

    def test_algorithm_counters(self, conn):
        _request(conn, "POST", "/solve", _solve_body(seed=15, algorithm="nfdh"))
        _, _, raw = _request(conn, "GET", "/metrics")
        by_algorithm = json.loads(raw)["requests"]["by_algorithm"]
        assert by_algorithm.get("nfdh", 0) >= 1


class TestFrontDoorSeams:
    def test_router_parses_and_keys_through_its_own_module_names(self, conn, monkeypatch):
        """The service benchmark times the router's hop by wrapping
        ``router.parse_json_body`` / ``router.resolve_solve_request``
        (perfbench/launch.py).  The shared front door must look those up
        in the router module when it runs in the router process — calling
        the ``server.*`` names instead would shrink ``router.route_ms``
        to the ring lookup without failing anything else."""
        from repro.service import router as router_module
        from repro.service import server as server_module

        calls: dict[str, int] = {}

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (router_module, server_module):
            for name in ("parse_json_body", "resolve_solve_request"):
                label = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
                monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
        status, _, _ = _request(conn, "POST", "/solve", _solve_body(seed=16))
        assert status == 200
        assert calls == {"router.parse_json_body": 1, "router.resolve_solve_request": 1}


class TestWorkerErrorRelay:
    def test_worker_503_reaches_the_client_with_retry_after(self):
        """A worker that sheds load answers 503 + ``Retry-After: 1``; the
        fleet relays the same error, header included, as solo does."""
        import threading

        from repro.service.loadgen import solve_payloads

        plan = {
            "seed": 1,
            "faults": [
                {"site": "queue.drain", "kind": "stall", "delay_s": 1.0, "count": 1}
            ],
        }
        router = RouterServer(
            workers=2, worker_config={"queue_size": 1}, fault_plan=plan
        )
        payloads = solve_payloads(10, n_rects=8, seed=3, algorithm="ffdh")
        answers: list[tuple[int, dict]] = []
        lock = threading.Lock()
        with InProcessServer(router) as srv:

            def send(body):
                c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
                try:
                    status, headers, _ = _request(c, "POST", "/solve", body)
                finally:
                    c.close()
                with lock:
                    answers.append((status, headers))

            threads = [threading.Thread(target=send, args=(b,)) for b in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        shed = [headers for status, headers in answers if status == 503]
        assert len(answers) == 10 and shed
        assert {status for status, _ in answers} <= {200, 503}
        assert all(headers.get("Retry-After") == "1" for headers in shed)


# ----------------------------------------------------------------------
# failure handling: kill, failover, respawn
# ----------------------------------------------------------------------

def _poll_healthz(srv, predicate, deadline_s=20.0):
    deadline = time.monotonic() + deadline_s
    last = None
    while time.monotonic() < deadline:
        c = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
        try:
            _, _, raw = _request(c, "GET", "/healthz")
        finally:
            c.close()
        last = json.loads(raw)
        if predicate(last):
            return last
        time.sleep(0.02)
    raise AssertionError(f"healthz never satisfied the predicate; last = {last}")


class TestWorkerDeath:
    def test_kill_reroute_respawn_recover(self):
        """SIGKILL one worker: its keys fail over to the ring successor,
        /healthz dips to degraded, and the supervisor respawn brings the
        fleet back to ok with the restart counted."""
        router = RouterServer(workers=2)
        with InProcessServer(router) as srv:
            body = _solve_body(n=8, seed=20)
            owner = router._ring.node_for(_result_key(body))
            victim = router._handles[owner]
            victim.process.kill()
            victim.process.wait(timeout=10)
            degraded = _poll_healthz(srv, lambda h: h["status"] == "degraded")
            assert degraded["workers"]["alive"] == 1
            # the dead shard's key re-routes and still solves
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                status, headers, _ = _request(c, "POST", "/solve", body)
            finally:
                c.close()
            assert status == 200
            recovered = _poll_healthz(
                srv, lambda h: h["status"] == "ok" and h["workers"]["restarts"] >= 1
            )
            assert recovered["workers"]["alive"] == 2

    def test_no_accepted_request_is_lost_across_a_kill(self):
        """Closed-loop load over cold keys while one worker dies mid-run:
        every request must come back 200 — a connection-level failure
        walks the ring instead of surfacing to the client."""
        import threading

        from repro.service.loadgen import run_closed_loop, solve_payloads

        router = RouterServer(workers=2)
        with InProcessServer(router) as srv:
            payloads = solve_payloads(
                30, n_rects=200, seed=21, algorithm="bottom_left"
            )
            box: dict = {}

            def load():
                box["result"] = run_closed_loop(
                    srv.url, payloads, requests=30, concurrency=4
                )

            thread = threading.Thread(target=load)
            thread.start()
            time.sleep(0.15)  # let the loop get requests in flight
            router._handles[0].process.kill()
            thread.join(timeout=120)
            assert not thread.is_alive()
            result = box["result"]
            assert result.errors == 0
            assert result.ok == result.requests == 30
            assert set(result.status_counts) == {"200"}

    def test_delete_reports_every_step_across_a_failover(self):
        """Kill a session's owner mid-stream: the later steps land on a
        worker that rebuilt the session from the step body, yet DELETE
        reports all four steps — the front door counts them itself."""
        from repro.service.loadgen import session_step_bodies

        steps = session_step_bodies(
            sessions=1, steps=4, base_rects=8, step_rects=2, seed=23
        )[0]
        router = RouterServer(workers=2)
        with InProcessServer(router) as srv:
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                _, _, raw = _request(c, "POST", "/session", {"algorithm": "release_bl"})
                sid = json.loads(raw)["session"]["id"]
                for body in steps[:2]:
                    assert _request(c, "POST", f"/session/{sid}/step", body)[0] == 200
                victim = router._handles[router._ring.node_for(f"session|{sid}")]
                victim.process.kill()
                victim.process.wait(timeout=10)
                for body in steps[2:]:
                    assert _request(c, "POST", f"/session/{sid}/step", body)[0] == 200
                status, _, raw = _request(c, "DELETE", f"/session/{sid}")
            finally:
                c.close()
        assert status == 200
        assert json.loads(raw) == {"deleted": sid, "steps": 4}


# ----------------------------------------------------------------------
# the shared L2 tier: disk spills cross process boundaries
# ----------------------------------------------------------------------

class TestSharedSpillTier:
    def test_workers_see_each_others_spills(self, tmp_path):
        """Two workers, one cache_dir, 1-byte L1 budgets (every insert
        spills).  Kill the owner of a solved key: the re-routed repeat
        lands on the *other* process, whose only way to answer with a
        hit is the shared disk tier."""
        config = {"cache_bytes": 1, "cache_dir": str(tmp_path)}
        router = RouterServer(workers=2, worker_config=config)
        with InProcessServer(router) as srv:
            body = _solve_body(n=8, seed=30)
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                _, h1, raw1 = _request(c, "POST", "/solve", body)
            finally:
                c.close()
            assert h1["X-Repro-Cache"] == "miss"
            owner = router._ring.node_for(_result_key(body))
            victim = router._handles[owner]
            victim.process.kill()
            victim.process.wait(timeout=10)
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                _, h2, raw2 = _request(c, "POST", "/solve", body)
                _, _, metrics_raw = _request(c, "GET", "/metrics")
            finally:
                c.close()
            assert h2["X-Repro-Cache"] == "hit" and raw2 == raw1
            assert json.loads(metrics_raw)["cache"]["spill_hits"] >= 1
        # warm restart: a brand-new fleet over the same directory is hot
        with InProcessServer(RouterServer(workers=2, worker_config=config)) as srv:
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                _, h3, raw3 = _request(c, "POST", "/solve", body)
            finally:
                c.close()
            assert h3["X-Repro-Cache"] == "hit" and raw3 == raw1


# ----------------------------------------------------------------------
# graceful drain edge cases
# ----------------------------------------------------------------------

class TestFleetTeardown:
    def test_exit_closes_the_pooled_worker_connections(self):
        """The router's keep-alive connections to its workers (opened here
        by the fan-out of /metrics and /debug/trace) close with the fleet,
        so the garbage collector finds no socket to warn about."""
        import gc
        import warnings

        from repro.service.router import build_server

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with InProcessServer(build_server(2)) as srv:
                conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
                try:
                    status, headers, _ = _request(conn, "POST", "/solve", _solve_body(seed=7))
                    assert status == 200
                    trace = headers["X-Repro-Trace"].split(";")[0]
                    assert _request(conn, "GET", "/metrics")[0] == 200
                    assert _request(conn, "GET", f"/debug/trace/{trace}")[0] == 200
                finally:
                    conn.close()
            del srv  # the fleet and its clients are garbage from here
            gc.collect()
        unclosed = [str(w.message) for w in caught if w.category is ResourceWarning]
        assert not unclosed, unclosed


def _serve_fleet(tmp_path):
    """``python -m repro serve --workers 2 --port 0`` in a fresh
    interpreter, returned once its ``/healthz`` reads ``ok``."""
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = tmp_path / "serve.out"
    with open(out, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0"],
            stdout=fh,
            stderr=subprocess.STDOUT,
            env=env,
        )
    deadline = time.monotonic() + 60
    while (ready := re.search(r"serving on http://([^:\s]+):(\d+)", out.read_text())) is None:
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise AssertionError(f"the fleet never came up: {out.read_text()}")
        time.sleep(0.05)
    _poll_healthz(
        SimpleNamespace(host=ready.group(1), port=int(ready.group(2))),
        lambda h: h["status"] == "ok",
    )
    return proc


class TestFleetProcesses:
    """The fleet as the operating system sees it."""

    def test_tree_is_the_router_and_its_workers(self, tmp_path):
        """No helper process: a 2-worker fleet is three interpreters,
        and none of them is a multiprocessing resource tracker."""
        proc = _serve_fleet(tmp_path)
        try:
            workers = _live_children(proc.pid)
            tree = {proc.pid, *workers}
            for pid in workers:
                tree |= _live_children(pid)
            commands = [Path(f"/proc/{pid}/cmdline").read_bytes() for pid in tree]
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        assert len(workers) == 2 and len(tree) == 3, commands
        assert not any(b"multiprocessing.resource_tracker" in c for c in commands)
        assert code == 0  # the SIGTERM drain
        assert not any(_running(pid) for pid in workers)

    def test_a_killed_router_leaves_no_worker(self, tmp_path):
        """SIGKILL gives the router no chance to clean up: each worker
        sees its stdin pipe reach EOF, drains and exits by itself."""
        proc = _serve_fleet(tmp_path)
        workers = _live_children(proc.pid)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        alive = set(workers)
        try:
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = {pid for pid in alive if _running(pid)}
        finally:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert workers
        assert not alive, f"workers outlived their router: {sorted(alive)}"


class TestFleetDrain:
    def test_drain_with_inflight_requests_answers_them(self):
        """router.drain() with solves still queued on the workers:
        stop accepting, answer everything already accepted, SIGTERM the
        fleet — no client sees anything but a 200."""
        import asyncio
        import threading

        router = RouterServer(workers=2)
        statuses: list[int] = []

        async def scenario():
            bound = await router.start("127.0.0.1", 0)
            port = router.port

            def client(seed):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                try:
                    status, _, _ = _request(
                        conn, "POST", "/solve",
                        _solve_body(n=150, seed=seed, algorithm="bottom_left"),
                    )
                except (OSError, http.client.HTTPException):
                    status = 599  # transport failure == lost request
                finally:
                    conn.close()
                statuses.append(status)

            threads = [
                threading.Thread(target=client, args=(40 + i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            await asyncio.sleep(0.1)  # let requests reach the workers' queues
            await router.drain(bound, timeout=60)
            return threads

        threads = asyncio.run(scenario())
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(statuses) == 6 and all(s == 200 for s in statuses)
        # drain reaped the whole fleet
        assert all(h.process is None for h in router._handles.values())

    def test_sigterm_mid_respawn_reaps_the_fresh_child(self):
        """Tear the fleet down while the supervisor's respawn of a killed
        worker is still in flight: the freshly spawned child must be
        reaped by the closed-handle check, never leaked."""
        before = _live_children(os.getpid())
        router = RouterServer(workers=2)
        observed_inflight = False
        with InProcessServer(router):
            router._handles[0].process.kill()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if router._respawns_inflight:
                    observed_inflight = True
                    break
                time.sleep(0.02)
        assert observed_inflight  # teardown raced an in-flight spawn
        # close() marked every handle closed; when the in-flight spawn's
        # handshake lands it must self-reap instead of orphaning the child.
        extra: set = set()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            extra = _live_children(os.getpid()) - before
            if not extra:
                break
            time.sleep(0.05)
        assert not extra, f"leaked worker processes: {extra}"

    def test_spawn_after_shutdown_raises_and_reaps(self):
        """The race seam itself, deterministically: a handle that was shut
        down before (or during) spawn refuses to hand back a live child."""
        handle = WorkerHandle(0, {})
        handle.shutdown()  # no process yet: just marks the handle closed
        with pytest.raises(RuntimeError, match="shut down during spawn"):
            handle.spawn(timeout=60)
        assert handle.process is None


class TestWorkerHandshake:
    """The ways a worker launch fails, each with its own message and no
    child left running."""

    def test_a_child_that_dies_before_its_handshake(self):
        handle = WorkerHandle(0, {"no_such_option": 1})  # SolveServer(**config) raises
        with pytest.raises(RuntimeError, match=r"^worker 0 died during startup \(exit code 1\)$"):
            handle.spawn(timeout=60)
        assert handle.process is None and not handle.alive()

    def test_a_child_that_does_not_report_in_time(self):
        before = _live_children(os.getpid())
        handle = WorkerHandle(0, {})
        with pytest.raises(RuntimeError, match=r"^worker 0 did not report its port within 0\.001s$"):
            handle.spawn(timeout=0.001)
        assert handle.process is None
        assert _live_children(os.getpid()) <= before
