"""Chaos scenario runner: replay a fault plan, verify the service invariants.

``repro chaos PLAN.json`` (and the programmatic :func:`run_chaos`) stands
up an in-process fleet with the plan armed, drives a deterministic
closed-loop workload through it (:func:`repro.service.loadgen.post_solves`),
and checks the promises the service makes about failures:

1. **nothing lost** — every accepted request is answered 200 (failover,
   retries, and respawn absorb the injected faults; a 5xx or transport
   error to the client is a violation);
2. **byte-identical** — each answer equals a fault-free solve of the
   same payload on every deterministic field (``wall_time``, the one
   measured-not-derived field, is normalised out);
3. **recovery** — ``/healthz`` reports ``ok`` again once the injected
   storm has passed (suppress with ``expect_final_ok=False`` for plans
   that deliberately exhaust ``max_restarts``).

The baseline comes straight from :func:`repro.engine.run` +
:func:`~repro.service.server.encode_report` — the exact computation a
worker performs — so no second fleet is needed and the comparison cannot
be polluted by the very faults under test.

Determinism: payloads are seeded (:func:`repro.service.loadgen.
solve_payloads`), fault triggering is traversal-counter-based
(:mod:`repro.service.faults`), and the router's backoff jitter derives
from the plan's ``seed`` — replaying one plan replays one scenario.

:func:`run_session_chaos` applies the same discipline to the long-lived
session API: each session replays a deterministic growing-prefix stream
(:func:`repro.service.loadgen.session_step_bodies`) through ``POST
/session/{id}/step`` while the plan kills workers mid-session, and the
invariants become *zero lost steps* (the failover worker re-creates the
session from the forwarded step, which carries its defaults) plus the same
byte-identity and recovery checks.  Workers run with warm-starting off —
its default — so every step's answer must equal the cold baseline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.errors import InvalidInstanceError
from .faults import FaultPlan
from .loadgen import Client, post_solves, session_step_bodies, solve_payloads, step_sessions

__all__ = ["ChaosReport", "run_chaos", "run_session_chaos"]


@dataclass
class ChaosReport:
    """The outcome of one chaos run; ``passed`` iff no invariant broke."""

    plan: dict
    workers: int
    requests: int
    answered: int
    lost: int
    mismatched: int
    retries: int
    request_retries: int
    faults_injected: int
    final_health: str
    recovered: bool
    violations: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan,
            "workers": self.workers,
            "requests": self.requests,
            "answered": self.answered,
            "lost": self.lost,
            "mismatched": self.mismatched,
            "retries": self.retries,
            "request_retries": self.request_retries,
            "faults_injected": self.faults_injected,
            "final_health": self.final_health,
            "recovered": self.recovered,
            "violations": list(self.violations),
            "duration_s": self.duration_s,
            "passed": self.passed,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"chaos: {self.requests} requests over {self.workers} worker(s), "
            f"{self.faults_injected} fault(s) injected",
            f"answered={self.answered} lost={self.lost} "
            f"mismatched={self.mismatched} retries={self.request_retries} "
            f"failovers={self.retries}",
            f"final /healthz: {self.final_health}",
        ]
        if self.passed:
            lines.append("PASS: zero lost requests, byte-identical payloads")
        else:
            lines.append("FAIL:")
            lines.extend(f"  - {violation}" for violation in self.violations)
        return lines


def _normalize(raw: bytes):
    """A response payload as comparable structure: ``wall_time`` zeroed."""
    doc = json.loads(raw)
    if isinstance(doc, dict) and isinstance(doc.get("report"), dict):
        doc["report"]["wall_time"] = 0.0
    return doc


def _baseline(payloads: list[bytes], algorithm: str | None = None) -> list[Any]:
    """Fault-free reference answers, computed exactly as a worker would;
    ``algorithm`` is the session default every step body inherits."""
    from ..engine import run as engine_run
    from .server import encode_report, parse_json_body, resolve_solve_request

    out = []
    for body in payloads:
        data = parse_json_body(body)
        if algorithm is not None:
            data["algorithm"] = algorithm
        _key, name, params, instance = resolve_solve_request(data)
        report = engine_run(instance, name, params=params)
        out.append(_normalize(encode_report(report)))
    return out


def _replay(
    plan: FaultPlan,
    workers: int,
    server,
    drive,
    baseline: list[Any],
    unit: str,
    *,
    expect_final_ok: bool,
    health_deadline_s: float,
) -> ChaosReport:
    """Serve ``server`` in-process, drive it, and judge the service.

    ``drive(url)`` returns one :class:`~repro.service.loadgen.Answer`
    (with its body) per entry of ``baseline``; ``unit`` names what those
    entries are (``"requests"``, ``"session steps"``) in the violation
    lines.
    """
    from .server import InProcessServer

    started = time.monotonic()
    with InProcessServer(server) as srv, Client(srv.url, timeout=10) as client:
        answers = drive(srv.url)

        # Give the supervisor room to finish any in-flight respawn, then
        # read the fleet's verdict on itself.
        final_health = "unreachable"
        recovered = False
        deadline = time.monotonic() + health_deadline_s
        while time.monotonic() < deadline:
            health = client.get_json("/healthz")
            if health is not None:
                final_health = health.get("status", "unreachable")
                if final_health == "ok":
                    recovered = True
                    break
            if not expect_final_ok:
                # No point burning the deadline when degraded is expected.
                break
            time.sleep(0.2)

        metrics = client.get_json("/metrics") or {}

    router_stats = metrics.get("router", {})
    faults_injected = router_stats.get(
        "faults_injected", metrics.get("faults", {}).get("injected", 0)
    )

    requests = len(baseline)
    lost = sum(1 for answer in answers if answer.status != 200)
    mismatched = sum(
        1
        for answer, expected in zip(answers, baseline)
        if answer.status == 200 and _normalize(answer.body) != expected
    )

    violations: list[str] = []
    if lost:
        statuses = sorted({answer.status for answer in answers if answer.status != 200})
        violations.append(
            f"{lost} of {requests} {unit} were not answered 200 "
            f"(saw statuses {statuses})"
        )
    if mismatched:
        violations.append(
            f"{mismatched} answered {unit} differ from the fault-free "
            "baseline (beyond wall_time)"
        )
    if expect_final_ok and not recovered:
        violations.append(
            f"/healthz did not recover to ok within {health_deadline_s:g}s "
            f"(last status: {final_health})"
        )

    return ChaosReport(
        plan=plan.to_dict(),
        workers=workers,
        requests=requests,
        answered=requests - lost,
        lost=lost,
        mismatched=mismatched,
        retries=int(router_stats.get("retries", 0)),
        request_retries=int(router_stats.get("request_retries", 0)),
        faults_injected=int(faults_injected),
        final_health=final_health,
        recovered=recovered,
        violations=violations,
        duration_s=time.monotonic() - started,
    )


def run_chaos(
    plan: FaultPlan | Mapping[str, Any] | str | Path,
    *,
    workers: int = 2,
    requests: int = 40,
    distinct: int | None = None,
    n_rects: int = 40,
    concurrency: int = 4,
    seed: int = 0,
    algorithm: str = "bottom_left",
    request_timeout: float | None = None,
    retries: int = 2,
    backoff_ms: float = 50.0,
    max_restarts: int = 5,
    cache_bytes: int | None = None,
    cache_dir: Path | str | None = None,
    expect_final_ok: bool = True,
    health_deadline_s: float = 30.0,
) -> ChaosReport:
    """Replay ``plan`` against an in-process fleet and verify invariants.

    ``workers >= 2`` runs the full sharded stack (router + spawned worker
    processes) with the plan threaded through both sides of the wire;
    ``workers == 1`` arms the in-process seams on a single
    :class:`~repro.service.server.SolveServer` (router-side sites are
    inert there).  ``expect_final_ok=False`` waives the recovery check
    for plans that intentionally exhaust ``max_restarts`` — lost-request
    and byte-identity checks still apply.
    """
    from .router import build_server

    if isinstance(plan, (str, Path)):
        plan = FaultPlan.load(plan)
    else:
        plan = FaultPlan.from_dict(plan)
    if workers < 1:
        raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
    if requests < 1:
        raise InvalidInstanceError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise InvalidInstanceError(f"concurrency must be >= 1, got {concurrency}")

    distinct = min(requests, 8) if distinct is None else min(distinct, requests)
    payloads = solve_payloads(distinct, n_rects=n_rects, seed=seed, algorithm=algorithm)
    baseline = _baseline(payloads)

    config: dict[str, Any] = {}
    if cache_bytes is not None:
        config["cache_bytes"] = cache_bytes
    if cache_dir is not None:
        config["cache_dir"] = cache_dir
    server = build_server(
        workers,
        config,
        fault_plan=plan,
        max_restarts=max_restarts,
        request_timeout=request_timeout,
        retries=retries,
        backoff_ms=backoff_ms,
    )
    return _replay(
        plan,
        workers,
        server,
        lambda url: post_solves(
            url, payloads, requests=requests, concurrency=concurrency, timeout=60,
            keep_bodies=True,
        ),
        [baseline[i % len(payloads)] for i in range(requests)],
        "requests",
        expect_final_ok=expect_final_ok,
        health_deadline_s=health_deadline_s,
    )


def run_session_chaos(
    plan: FaultPlan | Mapping[str, Any] | str | Path,
    *,
    workers: int = 2,
    sessions: int = 3,
    steps: int = 6,
    base_rects: int = 12,
    step_rects: int = 2,
    seed: int = 0,
    algorithm: str = "bottom_left",
    request_timeout: float | None = None,
    retries: int = 2,
    backoff_ms: float = 50.0,
    max_restarts: int = 5,
    expect_final_ok: bool = True,
    health_deadline_s: float = 30.0,
) -> ChaosReport:
    """Replay ``plan`` against live sessions and verify zero lost steps.

    Each of ``sessions`` concurrent clients opens a session and replays a
    deterministic growing-prefix stream through it while the plan fires
    (``session.step`` crash = a worker dying mid-session).  Invariants:
    every step answered 200 (ring failover plus the router's session
    enrichment must migrate the session with no losses), every answer
    byte-identical to the cold baseline, and ``/healthz`` recovering to
    ``ok``.  ``workers == 1`` arms the seams on a single
    :class:`~repro.service.server.SolveServer` (no failover — only
    survivable kinds make sense there).
    """
    from .router import build_server

    if isinstance(plan, (str, Path)):
        plan = FaultPlan.load(plan)
    else:
        plan = FaultPlan.from_dict(plan)
    if workers < 1:
        raise InvalidInstanceError(f"workers must be >= 1, got {workers}")

    per_session = session_step_bodies(
        sessions, steps, base_rects=base_rects, step_rects=step_rects, seed=seed
    )
    baseline = _baseline([body for bodies in per_session for body in bodies], algorithm)
    server = build_server(
        workers,
        fault_plan=plan,
        max_restarts=max_restarts,
        request_timeout=request_timeout,
        retries=retries,
        backoff_ms=backoff_ms,
    )
    create = json.dumps({"algorithm": algorithm}).encode()

    def drive(url: str) -> list:
        stepped = step_sessions(url, per_session, create=create, timeout=60, keep_bodies=True)
        # A session that never opened loses every one of its steps.
        return [
            answer
            for (opened, answered), bodies in zip(stepped, per_session)
            for answer in (answered or [opened] * len(bodies))
        ]

    return _replay(
        plan,
        workers,
        server,
        drive,
        baseline,
        "session steps",
        expect_final_ok=expect_final_ok,
        health_deadline_s=health_deadline_s,
    )
