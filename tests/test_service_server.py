"""In-process tests for the asyncio solve server.

A real ``SolveServer`` runs on a daemon thread (``InProcessServer``) and
is probed with stdlib ``http.client`` — the same path ``repro loadtest``
and the CI smoke job take.  The acceptance contract lives here: a
repeated instance is served from the content-addressed cache (visible in
``/metrics`` counters), byte-identical to the first response, and equal to
a direct ``engine.run()`` on every deterministic field.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.core.instance import ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.core.serialize import instance_to_dict, placement_to_dict
from repro.engine import portfolio, run
from repro.service import InProcessServer, SolveServer


@pytest.fixture(scope="module")
def server():
    with InProcessServer() as srv:
        yield srv


@pytest.fixture()
def conn(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    yield connection
    connection.close()


def _request(conn, method, path, body=None):
    payload = json.dumps(body).encode() if isinstance(body, dict) else body
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"} if payload else {})
    response = conn.getresponse()
    raw = response.read()
    return response.status, dict(response.getheaders()), raw


#: An integer too large for a float; ``json.dumps`` writes all 401 digits.
_BIG_INT = 10**400


def _plain_instance(n=6, seed=0):
    import numpy as np

    from repro.workloads.random_rects import powerlaw_rects

    return StripPackingInstance(powerlaw_rects(n, np.random.default_rng(seed)))


class TestHealthAndMetrics:
    def test_healthz(self, conn):
        status, _, raw = _request(conn, "GET", "/healthz")
        data = json.loads(raw)
        assert status == 200 and data["status"] == "ok"
        from repro import __version__

        assert data["version"] == __version__ and data["uptime_s"] >= 0

    def test_metrics_shape(self, conn):
        status, _, raw = _request(conn, "GET", "/metrics")
        data = json.loads(raw)
        assert status == 200
        assert {"uptime_s", "requests", "latency", "queue", "cache"} <= set(data)
        assert {"depth", "submitted", "completed", "rejected", "batches"} <= set(data["queue"])
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(data["cache"])


class TestSolve:
    def test_solve_returns_valid_report(self, conn):
        instance = _plain_instance(seed=1)
        status, headers, raw = _request(
            conn, "POST", "/solve", {"instance": instance_to_dict(instance), "algorithm": "ffdh"}
        )
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        data = json.loads(raw)
        assert data["report"]["algorithm"] == "ffdh"
        assert data["report"]["valid"] is True
        assert len(data["placement"]["placements"]) == len(instance)

    def test_repeat_is_cached_byte_identical_and_counted(self, conn, server):
        instance = _plain_instance(n=8, seed=2)
        body = {"instance": instance_to_dict(instance), "algorithm": "nfdh"}
        hits_before = server.server.cache.stats().hits
        s1, h1, raw1 = _request(conn, "POST", "/solve", body)
        s2, h2, raw2 = _request(conn, "POST", "/solve", body)
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "miss" and h2["X-Repro-Cache"] == "hit"
        assert raw1 == raw2  # byte-identical SolveReport payload
        # the /metrics counters show the hit
        _, _, metrics_raw = _request(conn, "GET", "/metrics")
        cache = json.loads(metrics_raw)["cache"]
        assert cache["hits"] >= hits_before + 1

    def test_rect_reordering_hits_the_same_entry(self, conn):
        rects = [Rect(rid=i, width=0.3, height=0.5 + 0.1 * i) for i in range(5)]
        a = {"instance": instance_to_dict(StripPackingInstance(rects)), "algorithm": "bfdh"}
        b = {"instance": instance_to_dict(StripPackingInstance(rects[::-1])), "algorithm": "bfdh"}
        _request(conn, "POST", "/solve", a)
        _, headers, _ = _request(conn, "POST", "/solve", b)
        assert headers["X-Repro-Cache"] == "hit"

    def test_matches_direct_engine_run(self, conn):
        """Served report == engine.run() on every deterministic field."""
        instance = _plain_instance(n=10, seed=3)
        _, _, raw = _request(
            conn, "POST", "/solve", {"instance": instance_to_dict(instance), "algorithm": "ffdh"}
        )
        served = json.loads(raw)
        direct = run(instance, "ffdh")
        expected = direct.to_dict()
        for key, value in served["report"].items():
            if key != "wall_time":
                assert value == expected[key], key
        assert served["placement"] == placement_to_dict(direct.placement)

    def test_default_and_explicit_algorithm_share_cache(self, conn):
        """Omitting the algorithm resolves the variant default up front."""
        instance = _plain_instance(n=7, seed=4)
        from repro.engine import default_algorithm

        name = default_algorithm(instance)
        _request(conn, "POST", "/solve",
                 {"instance": instance_to_dict(instance), "algorithm": name})
        _, headers, _ = _request(conn, "POST", "/solve",
                                 {"instance": instance_to_dict(instance)})
        assert headers["X-Repro-Cache"] == "hit"

    def test_concurrent_identical_misses_coalesce(self, server):
        """Parallel first requests for one key trigger exactly one solve."""
        import threading

        instance = _plain_instance(n=60, seed=42)
        body = {"instance": instance_to_dict(instance), "algorithm": "bottom_left"}
        sources: list[str] = []
        lock = threading.Lock()

        def hammer():
            c = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                _, headers, _ = _request(c, "POST", "/solve", body)
                with lock:
                    sources.append(headers["X-Repro-Cache"])
            finally:
                c.close()

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(set(sources)) != []
        assert sources.count("miss") == 1  # one leader, everyone else joins
        assert all(s in ("miss", "hit", "coalesced") for s in sources)

    def test_params_reach_the_solver(self, conn):
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)], K=2
        )
        _, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(instance),
            "algorithm": "aptas",
            "params": {"eps": 1.0},
        })
        assert json.loads(raw)["report"]["params"]["eps"] == 1.0

    @pytest.mark.parametrize("algorithm", [None, "dc"])
    def test_dc_solves_a_part_whose_critical_path_is_below_tolerance(self, conn, algorithm):
        """``b`` alone has ``F = 1e-12``, within 2*ATOL of zero, so the
        tolerant split puts it in ``S_bot`` and leaves ``S_mid`` empty;
        DC (the default for mixed heights) packs it as a source band."""
        body = {"instance": {
            "type": "precedence",
            "rects": [{"id": "a", "width": 0.5, "height": 1.0},
                      {"id": "b", "width": 0.5, "height": 1e-12}],
            "edges": [["a", "b"]],
        }}
        if algorithm is not None:
            body["algorithm"] = algorithm
        status, _, raw = _request(conn, "POST", "/solve", body)
        assert status == 200, raw
        report = json.loads(raw)["report"]
        assert report["algorithm"] == "dc" and report["valid"] is True


class TestPortfolio:
    def test_portfolio_returns_winner_and_entrants(self, conn):
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)], K=2
        )
        body = {
            "instance": instance_to_dict(instance),
            "algorithms": ["release_bl", "release_shelf"],
        }
        status, headers, raw = _request(conn, "POST", "/portfolio", body)
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        data = json.loads(raw)
        assert {r["algorithm"] for r in data["entrants"]} == {"release_bl", "release_shelf"}
        direct = portfolio(instance, ["release_bl", "release_shelf"])
        assert data["winner"]["report"]["algorithm"] == direct.best.algorithm
        assert data["winner"]["report"]["height"] == direct.best.height
        # cached on repeat
        _, headers2, raw2 = _request(conn, "POST", "/portfolio", body)
        assert headers2["X-Repro-Cache"] == "hit" and raw2 == raw

    def test_portfolio_unknown_entrant_is_422(self, conn):
        instance = _plain_instance(seed=5)
        status, _, raw = _request(conn, "POST", "/portfolio", {
            "instance": instance_to_dict(instance), "algorithms": ["oracle"],
        })
        assert status == 422 and "error" in json.loads(raw)

    def test_portfolio_non_object_entrant_params_is_400(self, conn):
        status, _, raw = _request(conn, "POST", "/portfolio", {
            "instance": instance_to_dict(_plain_instance(seed=5)),
            "params": {"ffdh": 5},
        })
        assert status == 400 and "'ffdh'" in json.loads(raw)["error"]

    def test_portfolio_unknown_entrant_param_is_422(self, conn):
        status, _, raw = _request(conn, "POST", "/portfolio", {
            "instance": instance_to_dict(_plain_instance(seed=5)),
            "params": {"ffdh": {"bogus": 1}},
        })
        assert status == 422 and "bogus" in json.loads(raw)["error"]

    def test_params_the_race_ignores_share_one_cache_entry(self, conn):
        """No params, empty overrides, and a non-entrant's overrides race
        the same way, so they answer from one cache entry."""
        instance = instance_to_dict(_plain_instance(seed=41))
        bodies = [
            {"instance": instance, "algorithms": ["ffdh"], "params": params}
            for params in (None, {"ffdh": {}}, {"nfdh": {}})
        ]
        status, headers, raw = _request(conn, "POST", "/portfolio", bodies[0])
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        for body in bodies[1:]:
            status, headers, again = _request(conn, "POST", "/portfolio", body)
            assert status == 200 and headers["X-Repro-Cache"] == "hit"
            assert again == raw


class TestErrorMapping:
    def test_malformed_json_is_400(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", b"{not json")
        assert status == 400 and "malformed JSON" in json.loads(raw)["error"]

    def test_missing_instance_field_is_400(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", {"algorithm": "nfdh"})
        assert status == 400 and "instance" in json.loads(raw)["error"]

    def test_invalid_instance_is_422(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", {"instance": {"type": "martian"}})
        assert status == 422 and "invalid instance" in json.loads(raw)["error"]

    def test_unknown_algorithm_is_422(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(_plain_instance()), "algorithm": "oracle",
        })
        assert status == 422 and "unknown algorithm" in json.loads(raw)["error"]

    def test_failed_solve_is_422_and_not_cached(self, conn):
        """aptas on a plain instance: an error report, surfaced as 422."""
        body = {"instance": instance_to_dict(_plain_instance(seed=6)), "algorithm": "aptas"}
        status, _, raw = _request(conn, "POST", "/solve", body)
        assert status == 422
        status2, _, _ = _request(conn, "POST", "/solve", body)
        assert status2 == 422  # still an error; nothing was cached

    def test_unknown_path_is_404(self, conn):
        status, _, _ = _request(conn, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, conn):
        status, _, _ = _request(conn, "GET", "/solve")
        assert status == 405

    def test_non_object_body_is_400(self, conn):
        status, _, _ = _request(conn, "POST", "/solve", b"[1, 2]")
        assert status == 400

    def test_non_string_algorithm_is_400(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(_plain_instance()), "algorithm": ["nfdh"],
        })
        assert status == 400 and "'algorithm'" in json.loads(raw)["error"]

    def test_non_finite_param_is_422(self, conn):
        # json.loads accepts NaN/Infinity; they have no canonical form
        body = ('{"instance": ' + json.dumps(instance_to_dict(_plain_instance()))
                + ', "algorithm": "nfdh", "params": {"eps": NaN}}').encode()
        status, _, raw = _request(conn, "POST", "/solve", body)
        assert status == 422 and "non-finite" in json.loads(raw)["error"]

    def test_unknown_param_is_422(self, conn):
        instance = ReleaseInstance([Rect(rid=0, width=0.5, height=0.5)], K=2)
        status, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(instance), "algorithm": "aptas",
            "params": {"bogus": 1},
        })
        assert status == 422 and "'bogus'" in json.loads(raw)["error"]

    def test_mistyped_param_is_422(self, conn):
        instance = ReleaseInstance([Rect(rid=0, width=0.5, height=0.5)], K=2)
        status, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(instance), "algorithm": "aptas",
            "params": {"eps": "x"},
        })
        assert status == 422 and "'eps'" in json.loads(raw)["error"]

    @pytest.mark.parametrize(
        "lengths",
        [("-5",), ("1_0",), ("+10",), ("3", "10")],
        ids=["negative", "underscore", "plus-sign", "differing-duplicates"],
    )
    def test_bad_content_length_is_dropped_or_400(self, server, lengths):
        """Only plain ASCII digits frame a body (RFC 9110 §8.6), and
        duplicates must agree (RFC 9112 §6.3)."""
        c = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            c.putrequest("POST", "/solve", skip_accept_encoding=True)
            for length in lengths:
                c.putheader("Content-Length", length)
            c.endheaders()
            response = c.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            c.close()

    def test_agreeing_duplicate_content_lengths_are_accepted(self, server):
        body = json.dumps({"instance": {"type": "plain", "rects": [
            {"id": "a", "width": 0.5, "height": 1.0}]}}).encode()
        c = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            c.putrequest("POST", "/solve", skip_accept_encoding=True)
            c.putheader("Content-Length", str(len(body)))
            c.putheader("Content-Length", str(len(body)))
            c.endheaders(body)
            assert c.getresponse().status == 200
        finally:
            c.close()

    def test_chunked_transfer_encoding_is_411(self, server):
        c = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            c.putrequest("POST", "/solve", skip_accept_encoding=True)
            c.putheader("Transfer-Encoding", "chunked")
            c.endheaders()
            response = c.getresponse()
            raw = response.read()
            assert response.status == 411
            assert "Content-Length" in json.loads(raw)["error"]
        finally:
            c.close()

    def test_header_flood_is_431(self, server):
        import socket

        from repro.service.server import MAX_HEADERS

        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
                b"x-h%d: v\r\n" % i for i in range(MAX_HEADERS + 5)
            ) + b"\r\n"
            sock.sendall(head)
            response = sock.recv(4096)
            assert b"431" in response.split(b"\r\n", 1)[0]
        finally:
            sock.close()

    def test_oversized_body_is_413_with_a_response(self, server):
        """An over-limit Content-Length gets a real 413, not a dropped
        connection (the body is never read, so no bytes are wasted)."""
        from repro.service.server import MAX_BODY_BYTES

        c = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            c.putrequest("POST", "/solve")
            c.putheader("Content-Type", "application/json")
            c.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            c.endheaders()
            response = c.getresponse()
            raw = response.read()
            assert response.status == 413
            assert "error" in json.loads(raw)
        finally:
            c.close()

    def test_empty_algorithm_string_is_422_not_the_default(self, conn):
        status, _, raw = _request(conn, "POST", "/solve", {
            "instance": instance_to_dict(_plain_instance()), "algorithm": "",
        })
        assert status == 422 and "unknown algorithm" in json.loads(raw)["error"]

    def test_unparsed_requests_leave_latency_stats_alone(self, server):
        import socket

        before = server.server.metrics.snapshot()["latency"].get("count", 0)
        for _ in range(3):
            s = socket.create_connection((server.host, server.port), timeout=10)
            s.sendall(b"GARBAGE\r\n\r\n")
            s.recv(4096)
            s.close()
        snap = server.server.metrics.snapshot()
        assert snap["requests"]["by_endpoint"].get("unparsed", 0) >= 3
        assert "unparsed" not in snap["endpoints"]  # no latency samples
        assert snap["latency"].get("count", 0) == before

    def test_unmatched_paths_share_one_metrics_key(self, conn):
        for path in ("/scan1", "/scan2", "/scan3"):
            _request(conn, "GET", path)
        _, _, raw = _request(conn, "GET", "/metrics")
        by_endpoint = json.loads(raw)["requests"]["by_endpoint"]
        assert "/scan1" not in by_endpoint
        assert by_endpoint.get("unmatched", 0) >= 3
        from repro.service.server import SolveServer

        assert set(by_endpoint) <= SolveServer.ENDPOINTS | {"unmatched", "unparsed"}


class TestOutOfRangeNumbers:
    """On a server of its own: the session step adds a dynamic endpoint
    label to ``/metrics``, which the shared server's metrics tests
    would see."""

    @pytest.fixture(scope="class")
    def own_conn(self):
        with InProcessServer() as srv:
            connection = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            yield connection
            connection.close()

    @pytest.mark.parametrize(
        "path, body, fragment",
        [
            ("/solve", {"algorithm": "aptas", "params": {"eps": 1e300}}, "tick range"),
            ("/solve", {"algorithm": "aptas", "params": {"eps": _BIG_INT}}, "tick range"),
            ("/portfolio", {"params": {"aptas": {"eps": 1e300}}}, "tick range"),
            ("/session/big/step", {"algorithm": "aptas", "params": {"eps": 1e300}}, "tick range"),
            ("/solve", {"rect": {"width": _BIG_INT}}, "too large for a float"),
            ("/solve", {"rect": {"height": _BIG_INT}}, "too large for a float"),
            ("/solve", {"rect": {"release": _BIG_INT}}, "too large for a float"),
            ("/solve", {"algorithm": "aptas", "K": _BIG_INT}, "K is too large"),
            ("/solve", {"K": float("inf")}, "K must be finite"),
            ("/portfolio", {"rect": {"height": 1e300}}, "tick range"),
        ],
        ids=[
            "solve-param", "solve-int-param", "portfolio-param", "session-step-param", "int-width",
            "int-height", "int-release", "int-K", "infinite-K", "portfolio-height",
        ],
    )
    def test_out_of_range_number_is_422(self, own_conn, path, body, fragment):
        """Numbers a float (or the key's tick grid) cannot hold are bad
        input wherever they sit, never a 500."""
        body = dict(body)
        rect = {"id": "a", "width": 0.5, "height": 0.5, "release": 0.0, **body.pop("rect", {})}
        instance = {"type": "release", "K": body.pop("K", 2), "rects": [rect]}
        status, _, raw = _request(own_conn, "POST", path, {"instance": instance, **body})
        error = json.loads(raw)["error"]
        assert status == 422, error
        assert fragment in error and "\n" not in error


def _stalled_solver(**kwargs):
    """A server whose first cold solve holds the solver thread for 0.5 s."""
    plan = {"faults": [{"site": "queue.drain", "kind": "stall", "delay_s": 0.5}]}
    return SolveServer(faults=plan, **kwargs)


def _post_on_thread(srv, body):
    """Send one ``POST /solve`` from a thread; returns (thread, answers)."""
    import threading

    answers: list = []

    def send():
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        try:
            answers.append(_request(conn, "POST", "/solve", body))
        finally:
            conn.close()

    thread = threading.Thread(target=send)
    thread.start()
    return thread, answers


def _wait_until(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


class TestBackpressure:
    def test_shed_after_accept_is_still_503(self):
        """A request the solve stage accepted but dropped on shutdown maps
        to 503 (load shedding), never 500 (server bug)."""
        server = _stalled_solver()
        with InProcessServer(server) as srv:
            held, _ = _post_on_thread(srv, {
                "instance": instance_to_dict(_plain_instance(seed=8)),
                "algorithm": "nfdh",
            })
            _wait_until(lambda: server.faults.fired == 1)
            queued, answers = _post_on_thread(srv, {
                "instance": instance_to_dict(_plain_instance(seed=9)),
                "algorithm": "nfdh",
            })
            _wait_until(lambda: server._submitted == 2)
            server.close()
            for thread in (held, queued):
                thread.join(timeout=30)
                assert not thread.is_alive()
        ((status, headers, raw),) = answers
        assert status == 503 and headers.get("Retry-After") == "1"
        assert "stopped before this solve ran" in json.loads(raw)["error"]

    def test_full_queue_responds_503(self):
        """A full solve queue sheds load with 503 + Retry-After."""
        server = _stalled_solver(queue_size=1)
        with InProcessServer(server) as srv:
            held, _ = _post_on_thread(srv, {
                "instance": instance_to_dict(_plain_instance(seed=6)),
                "algorithm": "nfdh",
            })
            _wait_until(lambda: server.faults.fired == 1)
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                status, headers, raw = _request(conn, "POST", "/solve", {
                    "instance": instance_to_dict(_plain_instance(seed=7)),
                    "algorithm": "nfdh",
                })
            finally:
                conn.close()
            held.join(timeout=30)
            assert not held.is_alive()
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert "error" in json.loads(raw)


class TestLifecycle:
    def test_failed_bind_raises_and_leaves_no_batcher_thread(self):
        """A bind failure must not leak the solver thread."""
        import socket
        import threading

        def solver_threads():
            # Other servers' solver threads may exit meanwhile; only a new
            # thread counts as a leak.
            return {
                t for t in threading.enumerate()
                if t.name.startswith("repro-solver") and t.is_alive()
            }

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        before = solver_threads()
        try:
            with pytest.raises(OSError):
                with InProcessServer(SolveServer(), port=port):
                    pass  # pragma: no cover - never reached
        finally:
            sock.close()
        assert solver_threads() <= before


class TestCacheSpill(object):
    def test_cache_dir_spills_and_serves_from_disk(self, tmp_path):
        """A 1-byte memory budget forces every insert straight to disk; the
        repeat request must still hit, via the spill tier."""
        instance = _plain_instance(n=8, seed=8)
        body = {"instance": instance_to_dict(instance), "algorithm": "ffdh"}
        with InProcessServer(SolveServer(cache_bytes=1, cache_dir=tmp_path)) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            _, h1, raw1 = _request(conn, "POST", "/solve", body)  # solves, spills
            _, h2, raw2 = _request(conn, "POST", "/solve", body)  # disk hit
            conn.close()
            assert h1["X-Repro-Cache"] == "miss"
            assert h2["X-Repro-Cache"] == "hit" and raw2 == raw1
            assert srv.server.cache.stats().spill_hits >= 1
        # A fresh server over the same directory is warm from restart.
        with InProcessServer(SolveServer(cache_dir=tmp_path)) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            _, h3, raw3 = _request(conn, "POST", "/solve", body)
            conn.close()
            assert h3["X-Repro-Cache"] == "hit" and raw3 == raw1
