"""Deterministic fault injection for the sharded solve service.

The service's failure guarantees ("no accepted request is lost on worker
death") are only worth what their tests exercise.  This module turns
ad-hoc SIGKILL tests into a *schedule*: a :class:`FaultPlan` is a
declarative, JSON-serialisable list of :class:`FaultSpec` entries, each
naming an injection **site** (a seam the service code calls explicitly),
a fault **kind**, and *when* to fire — the Nth traversal of that site.
Because triggering is counter-based, not clock- or rng-based, replaying
one plan against the same request sequence injects the same faults at
the same points every time; the ``seed`` only feeds the router's retry
jitter so backoff schedules are reproducible too.

Injection sites (and the module that calls them):

===================  ==================================  =======================
site                 kinds                               seam
===================  ==================================  =======================
``router.send``      ``conn_reset``, ``slow``            ``_WorkerClient.request``
``router.recv``      ``conn_reset``, ``truncate``,       ``_WorkerClient._round_trip``
                     ``slow``
``worker.spawn``     ``error``                           ``WorkerHandle.spawn``
``worker.pre_solve`` ``crash``, ``hang``, ``slow``,      ``SolveServer._dispatch_solve``
                     ``error``
``worker.post_solve`` ``crash``, ``slow``                ``SolveServer._dispatch_solve``
``cache.spill_read`` ``io_error``, ``corrupt``           ``ResultCache.get``
``cache.spill_write`` ``io_error``, ``disk_full``        ``ResultCache._spill``
``queue.drain``      ``stall``                           ``SolveServer._run_job``
``session.create``   ``error``, ``slow``                 ``SolveServer._session_opened``
``session.step``     ``crash``, ``error``, ``slow``      ``SolveServer._dispatch_step``
===================  ==================================  =======================

A plan travels as a plain dict inside ``worker_config``, which the
router pickles to each worker process it launches: the router keeps one
:class:`FaultInjector` for its own seams, and each worker process
builds its own injector scoped to its ``worker_id``, so a spec with
``"worker": 1`` fires only in (or toward) worker 1.

Counters are per-site and thread-safe — seams run on the event loop, on
executor threads, and on the solver thread.  ``fired`` totals feed the
``repro_faults_injected_total`` metric.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.errors import InvalidInstanceError

__all__ = ["FAULT_SITES", "FaultSpec", "FaultPlan", "FaultInjector"]

#: Every legal injection site and the fault kinds it understands.
FAULT_SITES: dict[str, frozenset[str]] = {
    "router.send": frozenset({"conn_reset", "slow"}),
    "router.recv": frozenset({"conn_reset", "truncate", "slow"}),
    "worker.spawn": frozenset({"error"}),
    "worker.pre_solve": frozenset({"crash", "hang", "slow", "error"}),
    "worker.post_solve": frozenset({"crash", "slow"}),
    "cache.spill_read": frozenset({"io_error", "corrupt"}),
    "cache.spill_write": frozenset({"io_error", "disk_full"}),
    "queue.drain": frozenset({"stall"}),
    # Session-level seams: a `crash` at session.step is the canonical
    # "worker dies mid-session" scenario — the session must migrate to a
    # ring successor with zero lost steps.
    "session.create": frozenset({"error", "slow"}),
    "session.step": frozenset({"crash", "error", "slow"}),
}

#: ``hang`` sleeps this long — far past any request timeout, well short
#: of leaking a thread for the life of a long test session.
HANG_S = 300.0


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *site* misbehaves as *kind* on traversals
    ``after .. after + count - 1`` of that site (``count=0`` = forever).

    ``worker`` restricts the spec to one worker id: for worker-side sites
    that is the injecting process's own id, for router-side sites the id
    of the worker the call targets.  ``delay_s`` parameterises the
    ``slow`` and ``stall`` kinds.
    """

    site: str
    kind: str
    after: int = 0
    count: int = 1
    worker: int | None = None
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise InvalidInstanceError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_SITES[self.site]:
            raise InvalidInstanceError(
                f"site {self.site!r} has no kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_SITES[self.site])}"
            )
        if self.after < 0:
            raise InvalidInstanceError(f"after must be >= 0, got {self.after}")
        if self.count < 0:
            raise InvalidInstanceError(
                f"count must be >= 0 (0 = unlimited), got {self.count}"
            )
        if self.delay_s < 0:
            raise InvalidInstanceError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches(self, hit: int, worker: int | None) -> bool:
        """Does traversal number ``hit`` (0-based) of this spec's site,
        attributed to ``worker``, fall inside the firing window?"""
        if hit < self.after:
            return False
        if self.count and hit >= self.after + self.count:
            return False
        return self.worker is None or worker is None or self.worker == worker

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.after:
            out["after"] = self.after
        if self.count != 1:
            out["count"] = self.count
        if self.worker is not None:
            out["worker"] = self.worker
        if self.delay_s != 0.05:
            out["delay_s"] = self.delay_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise InvalidInstanceError(
                f"a fault spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"site", "kind", "after", "count", "worker", "delay_s"}
        if unknown:
            raise InvalidInstanceError(f"unknown fault spec fields: {sorted(unknown)}")
        if "site" not in data or "kind" not in data:
            raise InvalidInstanceError("a fault spec needs 'site' and 'kind'")
        return cls(
            site=data["site"],
            kind=data["kind"],
            after=int(data.get("after", 0)),
            count=int(data.get("count", 1)),
            worker=None if data.get("worker") is None else int(data["worker"]),
            delay_s=float(data.get("delay_s", 0.05)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule: specs plus the jitter seed.

    The canonical JSON shape (what :meth:`dumps` writes and ``repro
    chaos PLAN.json`` reads)::

        {"seed": 7,
         "faults": [{"site": "worker.pre_solve", "kind": "crash",
                     "after": 3, "worker": 0}]}
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "faults": [spec.to_dict() for spec in self.faults]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | "FaultPlan") -> "FaultPlan":
        if isinstance(data, FaultPlan):
            return data
        if not isinstance(data, Mapping):
            raise InvalidInstanceError(
                f"a fault plan must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise InvalidInstanceError(f"unknown fault plan fields: {sorted(unknown)}")
        faults = data.get("faults", [])
        if not isinstance(faults, Iterable) or isinstance(faults, (str, bytes)):
            raise InvalidInstanceError("'faults' must be a list of fault specs")
        return cls(
            faults=tuple(FaultSpec.from_dict(spec) for spec in faults),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: Path | str) -> "FaultPlan":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InvalidInstanceError(f"cannot read fault plan {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(
                f"malformed JSON in fault plan {path}: {exc}"
            ) from exc
        return cls.from_dict(data)


@dataclass
class _SiteState:
    hits: int = 0
    fired: int = 0


class FaultInjector:
    """Deterministic, thread-safe trigger engine for one process.

    ``worker`` scopes the injector: a worker process passes its own id so
    worker-restricted specs fire only there; the router passes ``None``
    and attributes each hit to the worker it targets via the ``worker=``
    argument of :meth:`check`.

    ``tally``, when set, is a one-element ``memoryview`` (format ``q``)
    over a file the router maps too; every fired fault is also added to
    it, before the fault acts, so a fleet worker's count outlives a
    ``crash`` that kills its process.
    """

    def __init__(self, plan: FaultPlan | Mapping[str, Any], *, worker: int | None = None) -> None:
        self.plan = FaultPlan.from_dict(plan)
        self.worker = worker
        self.tally = None
        self._lock = threading.Lock()
        self._sites: dict[str, _SiteState] = {}

    def check(self, site: str, *, worker: int | None = None) -> list[FaultSpec]:
        """Count one traversal of ``site`` and return the specs it fires.

        The traversal counter advances whether or not anything fires, so
        a worker-restricted spec still sees a stable global sequence
        number for its site.  ``worker`` defaults to the injector's own
        scope (worker-side seams never pass it; router-side seams pass
        the target worker id).
        """
        if site not in FAULT_SITES:
            raise InvalidInstanceError(f"unknown fault site {site!r}")
        who = self.worker if worker is None else worker
        with self._lock:
            state = self._sites.setdefault(site, _SiteState())
            hit = state.hits
            state.hits += 1
            fired = [
                spec
                for spec in self.plan.faults
                if spec.site == site and spec.matches(hit, who)
            ]
            state.fired += len(fired)
            if fired and self.tally is not None:
                self.tally[0] += len(fired)
        # One structured event per injected fault, emitted outside the
        # lock and before the fault acts — a `crash` kind still logs.
        if fired:
            from ..obs import get_logger

            for spec in fired:
                get_logger().event(
                    "fault_injected",
                    logger="repro.service.faults",
                    site=site,
                    kind=spec.kind,
                    hit=hit,
                    worker="" if who is None else str(who),
                )
        return fired

    def fire_sync(self, site: str, *, worker: int | None = None) -> None:
        """Check ``site`` and apply its faults synchronously (thread seams).

        ``slow``/``stall``/``hang`` block the calling thread; ``crash``
        hard-kills the process (``os._exit`` — exactly what a SIGKILL'd
        or OOM'd worker looks like from outside); ``error``/``io_error``/
        ``disk_full`` raise ``OSError``; ``conn_reset`` raises
        ``ConnectionResetError``.  ``corrupt``/``truncate`` have no
        generic synchronous meaning — their seams consume the spec
        through :meth:`check` and mangle their own data.
        """
        for spec in self.check(site, worker=worker):
            if spec.kind in ("slow", "stall"):
                time.sleep(spec.delay_s)
            elif spec.kind == "hang":
                time.sleep(HANG_S)
            elif spec.kind == "crash":
                import os

                os._exit(1)
            elif spec.kind == "disk_full":
                raise OSError(28, f"injected disk-full at {site}")  # ENOSPC
            elif spec.kind in ("error", "io_error"):
                raise OSError(5, f"injected I/O error at {site}")  # EIO
            elif spec.kind == "conn_reset":
                raise ConnectionResetError(f"injected connection reset at {site}")

    @property
    def fired(self) -> int:
        """Total faults injected so far (feeds ``repro_faults_injected_total``)."""
        with self._lock:
            return sum(state.fired for state in self._sites.values())

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-site hit/fired counters (one lock acquisition)."""
        with self._lock:
            return {
                site: {"hits": state.hits, "fired": state.fired}
                for site, state in sorted(self._sites.items())
            }


def as_injector(
    faults: "FaultInjector | FaultPlan | Mapping[str, Any] | None",
    *,
    worker: int | None = None,
) -> FaultInjector | None:
    """Normalise the ``faults=`` constructor argument the seams accept:
    ``None`` passes through, an injector is used as-is, a plan (object or
    dict) gets its own injector scoped to ``worker``."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(FaultPlan.from_dict(faults), worker=worker)
