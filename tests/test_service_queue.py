"""Tests for the solve stage: solver-layer jobs on one FIFO solver thread.

A real ``SolveServer`` runs in-process and is driven over HTTP.  The
contract under test: a solve answers exactly what a direct
``engine.run()`` returns (deterministic fields — wall time is measured,
not computed); solves run one at a time in arrival order and each answer
leaves as soon as its own solve ends; at most ``queue_size`` jobs — cold
solves, warm repairs and ``/portfolio`` races alike — are accepted and
unanswered (503 beyond); ``close()`` and ``drain()`` answer everything
accepted; and ``/metrics`` counts the drain ticks.

A ``queue.drain`` stall holds the solver thread, so the tests can queue
solves behind it deterministically.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.core.serialize import instance_to_dict
from repro.engine import run
from repro.service import InProcessServer, SolveServer, encode_report
from repro.service.loadgen import session_step_bodies
from repro.workloads.random_rects import powerlaw_rects


def _instances(n, seed=0, size=10):
    rng = np.random.default_rng(seed)
    return [StripPackingInstance(powerlaw_rects(size, rng)) for _ in range(n)]


def _body(instance, algorithm=None, params=None):
    body = {"instance": instance_to_dict(instance)}
    if algorithm is not None:
        body["algorithm"] = algorithm
    if params is not None:
        body["params"] = params
    return body


def _race(instance):
    """A ``/portfolio`` body racing two level packers."""
    return {"instance": instance_to_dict(instance), "algorithms": ["nfdh", "ffdh"]}


def _post(port, body, path="/solve"):
    """One ``POST`` on a fresh connection: (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, json.dumps(body).encode(),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _get_json(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _normalize(raw):
    doc = json.loads(raw)
    doc["report"]["wall_time"] = 0.0
    return doc


def _same_answer(raw, instance, algorithm=None, params=None):
    """The answer equals a direct run's encoded report, wall time aside."""
    expected = encode_report(run(instance, algorithm, params=params))
    assert _normalize(raw) == _normalize(expected)


def _stall(delay_s, count=1):
    """A plan whose ``queue.drain`` seam holds the solver thread."""
    return {"faults": [{"site": "queue.drain", "kind": "stall",
                        "count": count, "delay_s": delay_s}]}


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def _queue(port):
    return _get_json(port, "/metrics")["queue"]


@pytest.fixture
def clients():
    pool = ThreadPoolExecutor(max_workers=8)
    yield pool
    pool.shutdown(wait=True)


def _queue_behind_stall(server, srv, clients, bodies):
    """Hold the solver with ``bodies[0]``, then queue the rest in order.

    Each body is admitted before the next is sent, so arrival order is
    the order of ``bodies``; returns one answer future per body.
    """
    futures = [clients.submit(_post, srv.port, bodies[0])]
    _wait_for(lambda: server.faults.fired >= 1)
    for body in bodies[1:]:
        futures.append(clients.submit(_post, srv.port, body))
        _wait_for(lambda n=len(futures): _queue(srv.port)["submitted"] == n)
    assert not futures[0].done(), "the stall ended before the queue was built"
    return futures


class TestResults:
    @pytest.fixture(scope="class")
    def srv(self):
        with InProcessServer(SolveServer()) as srv:
            yield srv

    def test_identical_to_direct_run(self, srv):
        (instance,) = _instances(1)
        status, _, raw = _post(srv.port, _body(instance, "ffdh"))
        assert status == 200
        _same_answer(raw, instance, "ffdh")

    def test_default_algorithm_resolution(self, srv):
        (instance,) = _instances(1, seed=1)
        status, _, raw = _post(srv.port, _body(instance))
        assert status == 200
        _same_answer(raw, instance)

    def test_params_are_honoured(self, srv):
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)],
            K=2,
        )
        status, _, raw = _post(srv.port, _body(instance, "aptas", {"eps": 1.0}))
        assert status == 200
        _same_answer(raw, instance, "aptas", {"eps": 1.0})

    def test_incompatible_algorithm_becomes_error_report(self, srv):
        """A solver's ReproError answers 422 with its type and message."""
        (instance,) = _instances(1, seed=2)  # plain instance, aptas needs release
        status, _, raw = _post(srv.port, _body(instance, "aptas"))
        assert status == 422
        assert raw == b'{"error": "InvalidInstanceError: aptas requires a ReleaseInstance"}'

    def test_unknown_algorithm_becomes_error_report(self, srv):
        """An unknown name is refused before admission: the solver thread
        never sees it."""
        before = _queue(srv.port)
        (instance,) = _instances(1, seed=3)
        status, _, raw = _post(srv.port, _body(instance, "oracle"))
        assert status == 422 and "unknown algorithm" in json.loads(raw)["error"]
        after = _queue(srv.port)
        assert (after["submitted"], after["rejected"]) == (
            before["submitted"], before["rejected"]
        )


class TestBatching:
    """Drain ticks (``batches`` in ``/metrics``: the solves already queued
    when the solver starts the first of them) and FIFO answers."""

    def test_queued_requests_drain_as_one_batch(self, clients):
        server = SolveServer(faults=_stall(1.0))
        instances = _instances(3, seed=4)
        with InProcessServer(server) as srv:
            futures = _queue_behind_stall(
                server, srv, clients, [_body(i, "nfdh") for i in instances]
            )
            for future, instance in zip(futures, instances):
                status, _, raw = future.result(timeout=30)
                assert status == 200
                _same_answer(raw, instance, "nfdh")
            queue = _queue(srv.port)
        assert queue["batches"] == 2 and queue["max_batch"] == 2
        assert queue["completed"] == queue["submitted"] == 3
        assert queue["mean_batch"] == pytest.approx(1.5)
        assert queue["depth"] == 0

    def test_mixed_algorithms_grouped_but_all_correct(self, clients):
        algorithms = ["nfdh", "ffdh", "nfdh", "bfdh"]
        instances = _instances(4, seed=5)
        with InProcessServer(SolveServer()) as srv:
            futures = [
                clients.submit(_post, srv.port, _body(inst, algo))
                for inst, algo in zip(instances, algorithms)
            ]
            for future, inst, algo in zip(futures, instances, algorithms):
                status, _, raw = future.result(timeout=30)
                assert status == 200
                _same_answer(raw, inst, algo)

    def test_distinct_params_solve_in_distinct_groups(self, clients):
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(4)],
            K=2,
        )
        with InProcessServer(SolveServer()) as srv:
            futures = [
                clients.submit(_post, srv.port, _body(instance, "aptas", {"eps": eps}))
                for eps in (1.0, 0.5)
            ]
            answers = [future.result(timeout=60) for future in futures]
        for (status, _, raw), eps in zip(answers, (1.0, 0.5)):
            assert status == 200
            assert json.loads(raw)["report"]["params"]["eps"] == eps
            _same_answer(raw, instance, "aptas", {"eps": eps})

    def test_each_request_resolves_when_its_own_solve_ends(self, clients):
        """A small request queued ahead of a large one is answered before
        the large one is solved, not when both are done."""
        rng = np.random.default_rng(14)
        small = StripPackingInstance(powerlaw_rects(8, rng))
        large = StripPackingInstance(powerlaw_rects(5000, rng))
        server = SolveServer(faults=_stall(0.3))
        answered = {}

        def post(name, body):
            answer = _post(srv.port, body)
            answered[name] = time.perf_counter()
            return answer

        with InProcessServer(server) as srv:
            futures = {"small": clients.submit(post, "small", _body(small, "ffdh"))}
            _wait_for(lambda: server.faults.fired >= 1)
            futures["large"] = clients.submit(post, "large", _body(large, "ffdh"))
            answers = {name: future.result(timeout=60) for name, future in futures.items()}
        assert all(status == 200 for status, _, _ in answers.values())
        large_wall = json.loads(answers["large"][2])["report"]["wall_time"]
        assert answered["large"] - answered["small"] >= large_wall


class TestLiveDrain:
    """The solver never waits for company: a lone request goes straight
    to the solver, and queued requests start in arrival order."""

    def test_lone_request_is_not_held(self):
        with InProcessServer(SolveServer()) as srv:
            waits = []
            for instance in _instances(20, seed=15, size=2):
                status, headers, _ = _post(srv.port, _body(instance, "nfdh"))
                assert status == 200 and headers["X-Repro-Cache"] == "miss"
                trace = headers["X-Repro-Trace"].split(";")[0]
                spans = _get_json(srv.port, f"/debug/trace/{trace}")["spans"]
                (wait,) = [s["duration_s"] for s in spans if s["name"] == "queue.wait"]
                waits.append(wait)
            queue = _queue(srv.port)
        # Admission to solve start is one thread handoff, not a window.
        assert statistics.median(waits) < 1e-3
        assert queue["max_batch"] == 1 and queue["batches"] == 20

    def test_requests_queued_behind_a_running_batch_drain_together(self, clients):
        """Five solves queued behind a stalled one form one drain tick and
        start in the order they arrived."""
        server = SolveServer(faults=_stall(1.0))
        instances = _instances(6, seed=13)
        with InProcessServer(server) as srv:
            futures = _queue_behind_stall(
                server, srv, clients, [_body(i, "nfdh") for i in instances]
            )
            starts = []
            for future, instance in zip(futures, instances):
                status, headers, raw = future.result(timeout=30)
                assert status == 200
                _same_answer(raw, instance, "nfdh")
                trace = headers["X-Repro-Trace"].split(";")[0]
                spans = _get_json(srv.port, f"/debug/trace/{trace}")["spans"]
                (start,) = [s["start_s"] for s in spans if s["name"] == "engine.solve"]
                starts.append(start)
            queue = _queue(srv.port)
        assert starts == sorted(starts)
        assert queue["batches"] == 2 and queue["max_batch"] == len(instances) - 1


class TestBackpressureAndLifecycle:
    def test_full_queue_rejects(self, clients):
        """``queue_size`` counts the solve in progress: with a bound of 1,
        a second solve behind a stalled one is shed, and counted; so is a
        ``/portfolio`` race."""
        server = SolveServer(queue_size=1, faults=_stall(0.5))
        held, shed, raced = _instances(3, seed=16)
        with InProcessServer(server) as srv:
            first = clients.submit(_post, srv.port, _body(held, "nfdh"))
            _wait_for(lambda: server.faults.fired >= 1)
            for path, body in (("/solve", _body(shed, "nfdh")), ("/portfolio", _race(raced))):
                status, headers, raw = _post(srv.port, body, path)
                assert status == 503 and headers["Retry-After"] == "1"
                assert json.loads(raw) == {"error": "request queue is full (1 pending)"}
            assert first.result(timeout=30)[0] == 200
            queue = _queue(srv.port)
        assert queue["rejected"] == 2
        assert queue["submitted"] == queue["completed"] == 1

    def test_full_queue_sheds_warm_repairs(self, clients):
        """A warm repair is admitted like a cold solve: behind a stalled
        solve it is shed at ``queue_size=1``, and once the solver is free
        the same request is answered by a repair."""
        base, edited = (
            dict(json.loads(body), algorithm="release_bl")
            for body in session_step_bodies(1, 2, base_rects=10, step_rects=2, seed=5)[0]
        )
        (held,) = _instances(1, seed=19)
        # The stall skips the first job, so the base instance is solved
        # and indexed as a neighbor before the solver is held.
        plan = {"faults": [{"site": "queue.drain", "kind": "stall",
                            "after": 1, "delay_s": 0.5}]}
        server = SolveServer(queue_size=1, warm_delta=0.75, faults=plan)
        with InProcessServer(server) as srv:
            status, headers, _ = _post(srv.port, base)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            first = clients.submit(_post, srv.port, _body(held, "nfdh"))
            _wait_for(lambda: server.faults.fired >= 1)
            status, headers, raw = _post(srv.port, edited)
            assert status == 503 and headers["Retry-After"] == "1"
            assert json.loads(raw) == {"error": "request queue is full (1 pending)"}
            assert first.result(timeout=30)[0] == 200
            status, headers, _ = _post(srv.port, edited)
            assert status == 200 and headers["X-Repro-Cache"] == "warm"
            queue = _queue(srv.port)
        assert queue["rejected"] == 1
        assert queue["submitted"] == queue["completed"] == 3

    def test_stop_fails_pending_and_rejects_new(self, clients):
        """close() while a stall holds the solver: the solve in progress
        still answers, the queued solve and race answer 503 when the
        solver reaches them, and new ones are refused at once."""
        server = SolveServer(faults=_stall(1.0))
        running, queued, raced, late = _instances(4, seed=17)
        with InProcessServer(server) as srv:
            futures = _queue_behind_stall(
                server, srv, clients, [_body(running, "nfdh"), _body(queued, "nfdh")]
            )
            futures.append(clients.submit(_post, srv.port, _race(raced), "/portfolio"))
            _wait_for(lambda: _queue(srv.port)["submitted"] == 3)
            server.close()
            for path, body in (("/solve", _body(late, "nfdh")), ("/portfolio", _race(late))):
                status, headers, raw = _post(srv.port, body, path)
                assert status == 503 and headers["Retry-After"] == "1"
                assert json.loads(raw) == {"error": "request queue is stopped"}
            answers = [future.result(timeout=30) for future in futures]
            queue = _queue(srv.port)
        # Every accepted job was answered, the refused ones included.
        assert queue["depth"] == 0 and queue["completed"] == queue["submitted"] == 3
        assert answers[0][0] == 200
        for status, headers, raw in answers[1:]:
            assert status == 503 and headers["Retry-After"] == "1"
            assert json.loads(raw) == {
                "error": "request queue stopped before this solve ran"
            }

    @pytest.mark.parametrize(
        "kwargs", [{"queue_size": 0}, {"queue_size": -1}, {"warm_delta": -0.5}]
    )
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(InvalidInstanceError):
            SolveServer(**kwargs)


def _drain_with_queued(server, bodies):
    """Serve ``server``, post every body concurrently, and once all are
    admitted run the graceful drain; returns the answers in body order."""
    answers = [None] * len(bodies)

    async def scenario():
        bound = await server.start("127.0.0.1", 0)

        def post(i):
            answers[i] = _post(server.port, bodies[i])

        threads = [threading.Thread(target=post, args=(i,)) for i in range(len(bodies))]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while server._submitted < len(bodies):
            assert time.monotonic() < deadline, "requests were not admitted"
            await asyncio.sleep(0.005)
        await server.drain(bound, timeout=30)
        return threads

    for thread in asyncio.run(scenario()):
        thread.join(timeout=30)
        assert not thread.is_alive(), "a client got no answer"
    return answers


class TestGracefulDrain:
    def test_drain_answers_everything_accepted(self):
        """drain() while a stall holds the solver and solves queue behind
        it: every accepted request is answered 200, none is shed."""
        server = SolveServer(faults=_stall(0.5))
        instances = _instances(6, seed=8)
        answers = _drain_with_queued(server, [_body(i, "nfdh") for i in instances])
        for (status, _, raw), instance in zip(answers, instances):
            assert status == 200
            _same_answer(raw, instance, "nfdh")

    def test_drain_refuses_new_submits_with_a_distinct_message(self):
        """After drain() the stage is stopped: a solve that still reaches
        it is refused with 503 ``stopped``, not ``full``."""
        server = SolveServer()
        (instance,) = _instances(1, seed=10)
        body = json.dumps(_body(instance, "nfdh")).encode()

        async def scenario():
            bound = await server.start("127.0.0.1", 0)
            await server.drain(bound)
            return await server._dispatch("POST", "/solve", {}, body)

        status, headers, payload = asyncio.run(scenario())
        assert status == 503 and headers["Retry-After"] == "1"
        assert json.loads(payload) == {"error": "request queue is stopped"}

    def test_drain_is_reentrant_with_stop(self):
        server = SolveServer()
        (instance,) = _instances(1, seed=9)
        (answer,) = _drain_with_queued(server, [_body(instance, "nfdh")])
        assert answer[0] == 200
        server.close()  # no error, no hang

    def test_drain_with_nonempty_queue_and_injected_stall(self):
        """A queue.drain stall on every solve slows each one, but drain()
        still answers everything accepted before it started."""
        server = SolveServer(faults=_stall(0.05, count=0))
        instances = _instances(8, seed=12)
        answers = _drain_with_queued(server, [_body(i, "nfdh") for i in instances])
        for (status, _, raw), instance in zip(answers, instances):
            assert status == 200
            _same_answer(raw, instance, "nfdh")
        assert server.faults.fired == 8  # the seam fires once per solve


class TestCounters:
    def test_counters_survive_concurrent_clients(self, clients):
        """Eight clients against one solver thread with a 1 µs switch
        interval: each counter has one writer, so none loses an update."""
        import sys

        instances = _instances(48, seed=18, size=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InProcessServer(SolveServer()) as srv:
                futures = [
                    clients.submit(_post, srv.port, _body(i, "nfdh")) for i in instances
                ]
                statuses = [future.result(timeout=120)[0] for future in futures]
                queue = _queue(srv.port)
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [200] * len(instances)
        assert queue["submitted"] == queue["completed"] == len(instances)
        assert queue["depth"] == 0 and queue["rejected"] == 0
        # A tick holds at most the eight requests the clients can have out.
        assert 1 <= queue["max_batch"] <= 8 and queue["batches"] <= len(instances)
