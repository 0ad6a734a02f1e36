"""Service-level observability: traces on the wire, spans, log contract.

The acceptance contracts of the tracing layer live here:

* every response (any endpoint, solo server and fleet alike) carries an
  ``X-Repro-Trace`` id, and a client-supplied trace id is propagated,
  not replaced;
* ``GET /debug/trace/{id}`` on a 2-worker fleet returns the merged
  router→queue→engine span tree, and the non-root spans cover >= 80 %
  of the root span's wall time; a ``/portfolio`` race records its queue
  wait and each entrant's engine spans;
* solve payloads are byte-identical with tracing headers present or
  absent (observation never changes answer bytes);
* the ``X-Repro-Cache`` response header and the ``/metrics`` cache
  counters agree under request coalescing;
* the Prometheus exposition stays lint-clean (one ``# TYPE`` per
  family, escaped label values, no duplicate series) now that span
  histograms ride along;
* ``repro loadtest`` reports the slowest traces with span breakdowns;
* the structured request log validates against the event schema.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import threading

import numpy as np
import pytest

from repro.core.instance import StripPackingInstance
from repro.core.serialize import instance_to_dict
from repro.obs import configure_logging, validate_event
from repro.obs.logging import _reset_for_testing as _reset_logger
from repro.service import InProcessServer, RouterServer, SolveServer
from repro.workloads.random_rects import powerlaw_rects


@pytest.fixture(scope="module")
def server():
    with InProcessServer() as srv:
        yield srv


@pytest.fixture()
def conn(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    yield connection
    connection.close()


def _request(conn, method, path, body=None, headers=None):
    payload = json.dumps(body).encode() if isinstance(body, dict) else body
    all_headers = {"Content-Type": "application/json"} if payload else {}
    all_headers.update(headers or {})
    conn.request(method, path, body=payload, headers=all_headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, dict(response.getheaders()), raw


def _solve_body(n=8, seed=0, algorithm="bottom_left"):
    instance = StripPackingInstance(powerlaw_rects(n, np.random.default_rng(seed)))
    return {"instance": instance_to_dict(instance), "algorithm": algorithm}


def _trace_id(headers) -> str:
    header = headers["X-Repro-Trace"]
    trace_id, span_id, tenant = header.split(";")
    assert re.fullmatch(r"[0-9a-f]{16}", trace_id), header
    return trace_id


# ----------------------------------------------------------------------
# trace propagation on the wire
# ----------------------------------------------------------------------

class TestTraceHeader:
    @pytest.mark.parametrize("method,path,body", [
        ("GET", "/healthz", None),
        ("GET", "/metrics", None),
        ("POST", "/solve", _solve_body(seed=100)),
    ])
    def test_every_response_carries_a_trace(self, conn, method, path, body):
        status, headers, _ = _request(conn, method, path, body)
        assert status == 200
        _trace_id(headers)

    def test_errors_are_traced_too(self, conn):
        status, headers, _ = _request(conn, "POST", "/solve", b"{not json")
        assert status == 400
        _trace_id(headers)

    def test_client_supplied_trace_id_is_propagated(self, conn):
        wire = "c0ffee0123456789;abcdef0123456789;default"
        _, headers, _ = _request(
            conn, "POST", "/solve", _solve_body(seed=101),
            headers={"X-Repro-Trace": wire},
        )
        assert _trace_id(headers) == "c0ffee0123456789"

    def test_malformed_trace_header_is_replaced(self, conn):
        _, headers, _ = _request(
            conn, "GET", "/healthz", headers={"X-Repro-Trace": "NOT;A;TRACE"}
        )
        assert _trace_id(headers)  # fresh, well-formed

    def test_tenant_header_is_sanitized_onto_spans(self, conn, server):
        _, headers, _ = _request(
            conn, "POST", "/solve", _solve_body(seed=102),
            headers={"X-Repro-Tenant": "team-a"},
        )
        trace = _trace_id(headers)
        _, _, raw = _request(conn, "GET", f"/debug/trace/{trace}")
        doc = json.loads(raw)
        assert doc["spans"] and all(s["tenant"] == "team-a" for s in doc["spans"])

    def test_debug_trace_spans_cover_the_solve_path(self, conn):
        _, headers, _ = _request(conn, "POST", "/solve", _solve_body(n=30, seed=103))
        trace = _trace_id(headers)
        _, _, raw = _request(conn, "GET", f"/debug/trace/{trace}")
        doc = json.loads(raw)
        assert doc["trace"] == trace
        names = [s["name"] for s in doc["spans"]]
        assert {"server.request", "cache.lookup", "queue.wait",
                "engine.solve", "engine.bounds", "engine.validate"} <= set(names)
        starts = [s["start_s"] for s in doc["spans"]]
        assert starts == sorted(starts)

    def test_debug_trace_spans_cover_a_portfolio_race(self, conn):
        """A race runs on the solver thread under the request's trace, so
        its queue wait and every entrant's engine spans are recorded."""
        body = _solve_body(n=30, seed=105)
        body = {"instance": body["instance"], "algorithms": ["nfdh", "ffdh"]}
        status, headers, _ = _request(conn, "POST", "/portfolio", body)
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        trace = _trace_id(headers)
        _, _, raw = _request(conn, "GET", f"/debug/trace/{trace}")
        names = [s["name"] for s in json.loads(raw)["spans"]]
        assert {"server.request", "cache.lookup", "queue.wait",
                "engine.solve", "cache.store"} <= set(names)
        assert names.count("engine.solve") == 2  # one per entrant

    def test_unknown_trace_is_empty_not_404(self, conn):
        status, _, raw = _request(conn, "GET", "/debug/trace/0123456789abcdef")
        assert status == 200
        assert json.loads(raw) == {"trace": "0123456789abcdef", "spans": []}

    def test_report_payload_never_carries_a_trace_id(self, conn):
        """Service solves run off-context by design: the payload (and so
        every cached byte) is trace-free; the id rides the header."""
        _, _, raw = _request(conn, "POST", "/solve", _solve_body(seed=104))
        assert "trace_id" not in json.loads(raw)["report"]


class TestByteIdentity:
    def test_solve_bytes_identical_with_and_without_tracing_headers(self):
        body = _solve_body(n=12, seed=7)
        with InProcessServer() as plain_srv:
            c = http.client.HTTPConnection(plain_srv.host, plain_srv.port, timeout=30)
            _, _, raw_plain = _request(c, "POST", "/solve", body)
            c.close()
        with InProcessServer() as traced_srv:
            c = http.client.HTTPConnection(traced_srv.host, traced_srv.port, timeout=30)
            _, _, raw_traced = _request(
                c, "POST", "/solve", body,
                headers={
                    "X-Repro-Trace": "1234567890abcdef;fedcba0987654321;acme",
                    "X-Repro-Tenant": "acme",
                },
            )
            # and the cache-hit bytes match the cold bytes too
            _, hit_headers, raw_hit = _request(c, "POST", "/solve", body)
            c.close()
        plain, traced = json.loads(raw_plain), json.loads(raw_traced)
        # wall_time is the one nondeterministic field across runs (the same
        # caveat the router-vs-solo differential tests carry); everything
        # else — placements, heights, bounds, key order — must match, and
        # no trace material may appear in either payload.
        assert plain["report"].pop("wall_time") and traced["report"].pop("wall_time")
        assert plain == traced
        assert "trace_id" not in traced["report"]
        assert hit_headers["X-Repro-Cache"] == "hit" and raw_hit == raw_traced


class TestCoalesceCounterConsistency:
    def test_cache_header_and_counters_agree_mid_coalesce(self):
        """Followers that join an in-flight solve answer ``coalesced`` and
        must not bump the cache hit/miss counters (the satellite-2 fix:
        the in-flight probe runs before the cache lookup)."""
        body = _solve_body(n=80, seed=42)
        with InProcessServer() as srv:
            sources: list[str] = []
            lock = threading.Lock()

            def hammer():
                c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
                try:
                    _, headers, _ = _request(c, "POST", "/solve", body)
                    with lock:
                        sources.append(headers["X-Repro-Cache"])
                finally:
                    c.close()

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            c = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            _, _, raw = _request(c, "GET", "/metrics")
            c.close()
        cache = json.loads(raw)["cache"]
        assert sources.count("miss") == 1
        assert set(sources) <= {"miss", "hit", "coalesced"}
        # the contract: counters move only for requests whose header says so
        assert cache["misses"] == sources.count("miss")
        assert cache["hits"] == sources.count("hit")


# ----------------------------------------------------------------------
# fleet acceptance: the merged router→queue→engine span tree
# ----------------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


class TestFleetTrace:
    def test_two_worker_fleet_span_tree_covers_the_request(self):
        with InProcessServer(RouterServer(workers=2)) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
            try:
                body = _solve_body(n=800, seed=9)
                status, headers, _ = _request(conn, "POST", "/solve", body)
                assert status == 200
                trace = _trace_id(headers)
                _, _, raw = _request(conn, "GET", f"/debug/trace/{trace}")
            finally:
                conn.close()
        doc = json.loads(raw)
        assert doc["trace"] == trace
        spans = doc["spans"]
        names = {s["name"] for s in spans}
        # the full hop chain is visible in one document
        assert {"router.request", "router.forward", "server.request",
                "queue.wait", "engine.solve"} <= names
        # worker-side spans carry the worker identity
        worker_spans = [s for s in spans if s["name"] == "server.request"]
        assert worker_spans and all(s.get("worker") in ("0", "1") for s in worker_spans)
        # ordering contract: merged across processes, sorted by start
        starts = [s["start_s"] for s in spans]
        assert starts == sorted(starts)
        # coverage: the children account for >= 80% of the root span
        (root,) = [s for s in spans if s["name"] == "router.request"]
        children = [
            (s["start_s"], s["start_s"] + s["duration_s"])
            for s in spans
            if s is not root
        ]
        root_interval = (root["start_s"], root["start_s"] + root["duration_s"])
        clipped = [
            (max(lo, root_interval[0]), min(hi, root_interval[1]))
            for lo, hi in children
            if hi > root_interval[0] and lo < root_interval[1]
        ]
        assert root["duration_s"] > 0
        coverage = _union_length(clipped) / root["duration_s"]
        assert coverage >= 0.8, f"span tree covers only {coverage:.0%} of the request"

    def test_fleet_responses_carry_traces_and_debug_trace_merges(self):
        with InProcessServer(RouterServer(workers=2)) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
            try:
                _, headers, _ = _request(conn, "GET", "/healthz")
                _trace_id(headers)
                _, headers, _ = _request(conn, "POST", "/solve", _solve_body(seed=10))
                trace = _trace_id(headers)
                _, _, raw = _request(conn, "GET", f"/debug/trace/{trace}")
            finally:
                conn.close()
        spans = json.loads(raw)["spans"]
        # router-side and worker-side spans both present in the merge
        assert any(s["name"].startswith("router.") for s in spans)
        assert any(s["name"] == "server.request" for s in spans)


# ----------------------------------------------------------------------
# Prometheus exposition linter
# ----------------------------------------------------------------------

_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|\+Inf|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')


def _lint_prometheus(text: str) -> None:
    """One ``# TYPE`` per family before its first sample, valid label
    escaping, no duplicate series."""
    typed: dict[str, str] = {}
    seen: set[tuple] = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert name not in typed, f"duplicate # TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "summary"), line
            typed[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        match = _SERIES_RE.match(line)
        assert match, f"unparseable series line: {line!r}"
        name = match.group("name")
        assert name in typed, f"series {name} emitted before its # TYPE"
        labels = match.group("labels") or ""
        if labels:
            parsed = _LABEL_RE.findall(labels)
            reassembled = ",".join(f'{k}="{v}"' for k, v in parsed)
            assert reassembled == labels, f"bad label escaping in: {line!r}"
        key = (name, labels)
        assert key not in seen, f"duplicate series: {line!r}"
        seen.add(key)
    float(match.group("value"))  # the last line parsed is a number


class TestPrometheusLint:
    def test_solo_server_exposition_is_clean(self):
        with InProcessServer() as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                _request(conn, "POST", "/solve", _solve_body(seed=21))
                _request(conn, "POST", "/solve", _solve_body(seed=21))  # a hit
                # session mode: create + step so session series are live
                _, _, raw = _request(conn, "POST", "/session", {})
                sid = json.loads(raw)["session"]["id"]
                _request(conn, "POST", f"/session/{sid}/step",
                         {"instance": _solve_body(seed=22)["instance"]})
                status, headers, raw = _request(
                    conn, "GET", "/metrics", headers={"Accept": "text/plain"}
                )
            finally:
                conn.close()
        assert status == 200 and headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        _lint_prometheus(text)
        assert "repro_span_duration_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_session_steps_total" in text

    def test_fleet_exposition_is_clean_with_span_histograms(self):
        with InProcessServer(RouterServer(workers=2)) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
            try:
                _request(conn, "POST", "/solve", _solve_body(seed=23))
                _request(conn, "POST", "/solve", _solve_body(seed=24))
                _, _, raw = _request(
                    conn, "GET", "/metrics", headers={"Accept": "text/plain"}
                )
            finally:
                conn.close()
        text = raw.decode()
        _lint_prometheus(text)
        # span histograms appear for the router and per worker
        assert re.search(
            r'repro_span_duration_seconds_count\{phase="router\.request"', text
        )
        assert re.search(
            r'repro_span_duration_seconds_count\{.*phase="server\.request".*'
            r'worker="[01]"', text
        )


# ----------------------------------------------------------------------
# loadtest slow-trace reporting
# ----------------------------------------------------------------------

class TestLoadtestSlowTraces:
    def test_closed_loop_reports_slowest_traces_with_spans(self, server):
        from repro.service.loadgen import run_closed_loop, solve_payloads

        payloads = solve_payloads(4, n_rects=10, seed=31, algorithm="bottom_left")
        result = run_closed_loop(server.url, payloads, requests=12, concurrency=3)
        assert result.errors == 0
        assert 1 <= len(result.slow_traces) <= 3
        latencies = [entry["latency_ms"] for entry in result.slow_traces]
        assert latencies == sorted(latencies, reverse=True)
        for entry in result.slow_traces:
            assert re.fullmatch(r"[0-9a-f]{16}", entry["trace"])
            assert any(s["name"] == "server.request" for s in entry["spans"])
        document = result.to_dict()
        assert document["slow_traces"] == [dict(e) for e in result.slow_traces]
        # the human summary names the slow traces too
        text = "\n".join(result.summary_lines())
        assert "slow trace" in text


# ----------------------------------------------------------------------
# structured request log
# ----------------------------------------------------------------------

class TestRequestLog:
    @pytest.fixture(autouse=True)
    def _restore_logger(self):
        yield
        _reset_logger()

    def test_request_events_validate_against_the_schema(self, server):
        sink = io.StringIO()
        configure_logging("json", stream=sink)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            _, headers, _ = _request(conn, "POST", "/solve", _solve_body(seed=41))
        finally:
            conn.close()
        trace = _trace_id(headers)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        requests = [r for r in records if r["event"] == "request"]
        assert requests, "no request event emitted"
        for record in records:
            validate_event(record)
        (solve_event,) = [r for r in requests if r["trace"] == trace]
        assert solve_event["endpoint"] == "/solve"
        assert solve_event["status"] == 200
        assert solve_event["latency_ms"] > 0
        assert solve_event["tenant"] == "default"

    def test_drain_events_are_emitted(self):
        import asyncio

        sink = io.StringIO()
        configure_logging("json", stream=sink)

        async def cycle():
            server = SolveServer()
            bound = await server.start("127.0.0.1", 0)
            await server.drain(bound)

        asyncio.run(cycle())
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        stages = [r["stage"] for r in records if r["event"] == "drain"]
        assert "begin" in stages and "complete" in stages
        for record in records:
            validate_event(record)
