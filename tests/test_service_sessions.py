"""Session API tests: lifecycle, and the session/one-shot differential.

The long-lived session endpoints are sugar over the same engine path as
``POST /solve`` — a step must answer with the *same bytes* as a one-shot
solve of the identical request, modulo ``wall_time`` (timing) and the
``X-Repro-Cache`` header (provenance).  That differential is pinned here
twice: against a single worker, and through a two-worker router fleet —
where session affinity additionally guarantees every step of one session
lands on the ring owner of ``session|{id}``.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import InProcessServer, RouterServer, SolveServer, build_server
from repro.service.loadgen import session_step_bodies

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _request(srv, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
    try:
        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        base = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers={**base, **(headers or {})})
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def _normalized(raw: bytes) -> dict:
    data = json.loads(raw)
    data["report"]["wall_time"] = 0.0
    return data


STEPS = session_step_bodies(sessions=1, steps=4, base_rects=10, step_rects=2, seed=5)[0]


# ----------------------------------------------------------------------
# lifecycle on a single worker
# ----------------------------------------------------------------------

class TestSessionLifecycle:
    def test_create_step_delete_round_trip(self):
        with InProcessServer(SolveServer()) as srv:
            status, _, raw = _request(srv, "POST", "/session", {"algorithm": "release_bl"})
            assert status == 200
            session = json.loads(raw)["session"]
            assert session["algorithm"] == "release_bl" and session["steps"] == 0
            sid = session["id"]

            for i, body in enumerate(STEPS):
                status, headers, raw = _request(
                    srv, "POST", f"/session/{sid}/step", body
                )
                assert status == 200
                assert headers["X-Repro-Cache"] in ("hit", "coalesced", "warm", "miss")
                report = json.loads(raw)["report"]
                # The session default is merged into every step body.
                assert report["algorithm"] == "release_bl"
                assert report["valid"] is True

            status, _, raw = _request(srv, "DELETE", f"/session/{sid}")
            assert status == 200
            assert json.loads(raw) == {"deleted": sid, "steps": len(STEPS)}
            status, _, _ = _request(srv, "DELETE", f"/session/{sid}")
            assert status == 404

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="solo"), pytest.param(2, id="fleet")]
    )
    def test_client_chosen_id_and_bad_ids(self, workers):
        """Both topologies share one session front door: same id rules."""
        with InProcessServer(build_server(workers)) as srv:
            status, _, raw = _request(srv, "POST", "/session", {"id": "mine"})
            assert status == 200
            assert json.loads(raw)["session"]["id"] == "mine"
            for bad in ({"id": ""}, {"id": "a/b"}, {"id": 7}):
                status, _, _ = _request(srv, "POST", "/session", bad)
                assert status == 400
            status, _, _ = _request(srv, "POST", "/session", {"algorithm": "nope"})
            assert status == 422

    def test_sessions_show_up_in_metrics(self):
        with InProcessServer(SolveServer()) as srv:
            _, _, raw = _request(srv, "POST", "/session", {})
            sid = json.loads(raw)["session"]["id"]
            _request(srv, "POST", f"/session/{sid}/step", STEPS[0])
            _, _, raw = _request(srv, "GET", "/metrics")
            sessions = json.loads(raw)["sessions"]
            assert sessions["active"] == 1
            assert sessions["created"] == 1
            assert sessions["steps"] == 1


# ----------------------------------------------------------------------
# the session / one-shot differential
# ----------------------------------------------------------------------

class TestSessionOneShotDifferential:
    def test_steps_byte_identical_to_one_shot_solves(self):
        """Each step answers with the bytes a one-shot /solve of the same
        request produces — modulo wall_time and the cache header.  Two
        separate servers, so both sides solve every instance cold."""
        with InProcessServer(SolveServer()) as sessions, \
                InProcessServer(SolveServer()) as oneshot:
            _, _, raw = _request(sessions, "POST", "/session", {"algorithm": "release_bl"})
            sid = json.loads(raw)["session"]["id"]
            for body in STEPS:
                merged = dict(json.loads(body))
                merged["algorithm"] = "release_bl"
                s_status, _, s_raw = _request(
                    sessions, "POST", f"/session/{sid}/step", body
                )
                o_status, _, o_raw = _request(oneshot, "POST", "/solve", merged)
                assert (s_status, o_status) == (200, 200)
                assert _normalized(s_raw) == _normalized(o_raw)

    def test_fleet_steps_byte_identical_to_solo_server(self):
        """The same differential through a 2-worker router: affinity,
        forwarding, and default-merging must not change a single byte."""
        with InProcessServer(RouterServer(workers=2)) as fleet, \
                InProcessServer(SolveServer()) as solo:
            _, _, raw = _request(fleet, "POST", "/session", {"algorithm": "release_bl"})
            sid = json.loads(raw)["session"]["id"]
            for body in STEPS:
                merged = dict(json.loads(body))
                merged["algorithm"] = "release_bl"
                f_status, _, f_raw = _request(
                    fleet, "POST", f"/session/{sid}/step", body
                )
                s_status, _, s_raw = _request(solo, "POST", "/solve", merged)
                assert (f_status, s_status) == (200, 200)
                assert _normalized(f_raw) == _normalized(s_raw)

    def test_warm_steps_match_one_shot_warm_solves(self):
        """With warm starts enabled the repaired placements depend on the
        neighbor history — but the *same* history gives the same bytes:
        a session stream and a one-shot stream of identical requests
        against identically-configured servers stay byte-identical."""
        with InProcessServer(SolveServer(warm_delta=0.75)) as sessions, \
                InProcessServer(SolveServer(warm_delta=0.75)) as oneshot:
            _, _, raw = _request(sessions, "POST", "/session", {"algorithm": "release_bl"})
            sid = json.loads(raw)["session"]["id"]
            warm_headers = []
            for body in STEPS:
                merged = dict(json.loads(body))
                merged["algorithm"] = "release_bl"
                s_status, s_headers, s_raw = _request(
                    sessions, "POST", f"/session/{sid}/step", body
                )
                o_status, o_headers, o_raw = _request(oneshot, "POST", "/solve", merged)
                assert (s_status, o_status) == (200, 200)
                assert s_headers["X-Repro-Cache"] == o_headers["X-Repro-Cache"]
                warm_headers.append(s_headers["X-Repro-Cache"])
                assert _normalized(s_raw) == _normalized(o_raw)
            # The delta stream actually exercises the warm path.
            assert "warm" in warm_headers


# ----------------------------------------------------------------------
# fleet affinity
# ----------------------------------------------------------------------

class TestFleetSessionAffinity:
    def test_every_step_of_a_session_lands_on_its_ring_owner(self):
        """Per-worker session counters: a session owned by worker W puts
        all of its steps on W — a split session would inflate 'created'
        past the session count (soft-state recreation on the stray
        worker)."""
        n_sessions, n_steps = 3, 4
        streams = session_step_bodies(
            sessions=n_sessions, steps=n_steps, base_rects=8, step_rects=2, seed=9
        )
        with InProcessServer(RouterServer(workers=2)) as fleet:
            for stream in streams:
                _, _, raw = _request(fleet, "POST", "/session", {"algorithm": "release_bl"})
                sid = json.loads(raw)["session"]["id"]
                for body in stream:
                    status, _, _ = _request(fleet, "POST", f"/session/{sid}/step", body)
                    assert status == 200
            _, _, raw = _request(fleet, "GET", "/metrics")
            data = json.loads(raw)
            workers = data["workers"].values()
            assert sum(w["sessions"]["created"] for w in workers) == n_sessions
            assert sum(w["sessions"]["steps"] for w in workers) == n_sessions * n_steps
            for w in workers:
                # steps stuck to their owner: each worker served exactly
                # n_steps per session it owns, never a partial stream.
                assert w["sessions"]["steps"] == n_steps * w["sessions"]["created"]

    def test_stepping_an_unregistered_session_via_router_is_404(self):
        with InProcessServer(RouterServer(workers=2)) as fleet:
            status, _, _ = _request(fleet, "POST", "/session/ghost/step", STEPS[0])
            assert status == 404
