"""Seeded request payloads for the three benchmark workloads.

The generators are the benchmark's own (plain numpy over the instance JSON
format of ``repro.core.serialize``), so a change to the program's workload
helpers never changes what the benchmark sends.  Every payload is the
exact ``POST /solve`` body in bytes; the same ``(workload, seed, stream)``
always yields the same bytes.

Streams keep warm-up traffic apart from measured traffic: ``"warm"`` and
``"measure"`` draw from differently seeded generators, so no warm-up
answer can pre-fill the cache for a measured request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["PAPER_ALGORITHMS", "WORKLOADS", "Workload", "measured_payloads", "warmup_payloads"]

_STREAMS = {"measure": 0, "warm": 1}

#: Rectangles per instance.
SMALL_N = 16
PAPER_N = 200

#: The solver the server picks for each paper_mix kind, in rotation order.
PAPER_ALGORITHMS = ("dc", "shelf_next_fit", "aptas", "bottom_left")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro serve --workers`` (1 = the single-process server, no router).
    workers: int
    #: Closed-loop client threads, each with its own keep-alive connection.
    clients: int
    #: Upper bound on the request rate a run can sustain before it runs
    #: out of pre-generated payloads (several times today's rate, so a
    #: faster program still measures the full window).
    max_rps: int
    #: The algorithms the workload's answers come from (one warm-up each).
    algorithms: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lone_small", workers=1, clients=1, max_rps=1500, algorithms=("ffdh",)),
        # One client: with two, router, both workers and the client contend
        # for 2 vCPUs and the run-to-run spread of p50 doubled (about 30%
        # instead of 15%) on the shared host this was tuned on.
        Workload("fleet_mixed", workers=2, clients=1, max_rps=3000, algorithms=("ffdh",)),
        Workload("paper_mix", workers=1, clients=2, max_rps=200, algorithms=PAPER_ALGORITHMS),
    )
}


def _rng(seed: int, stream: str, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[stream], part])


def _body(instance: dict, algorithm: str | None) -> bytes:
    doc: dict = {"instance": instance}
    if algorithm is not None:
        doc["algorithm"] = algorithm
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _rects(widths, heights, releases=None) -> list[dict]:
    rects = []
    for i, (w, h) in enumerate(zip(widths.tolist(), heights.tolist())):
        rect = {"id": i, "width": w, "height": h}
        if releases is not None:
            rect["release"] = releases[i]
        rects.append(rect)
    return rects


def _powerlaw(rng: np.random.Generator, n: int) -> dict:
    """Pareto-tailed widths in [0.02, 1]: a few wide rects, many slivers."""
    widths = np.clip((1.0 + rng.pareto(1.5, size=n)) * 0.02, 0.02, 1.0)
    heights = rng.uniform(0.1, 1.0, size=n)
    return {"type": "plain", "rects": _rects(widths, heights)}


def _layered_dag(rng: np.random.Generator, n: int, layers: int = 12, p: float = 0.05) -> dict:
    """A pipeline-shaped DAG: every node after the first layer has one
    anchor predecessor in the layer before, plus extra edges with
    probability ``p``.  Mixed heights, so the engine's default is ``dc``."""
    widths = rng.uniform(0.05, 1.0, size=n)
    heights = rng.uniform(0.05, 1.0, size=n)
    sizes = 1 + rng.multinomial(n - layers, np.full(layers, 1.0 / layers))
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    edges: list[list[int]] = []
    for a in range(layers - 1):
        prev = np.arange(starts[a], starts[a + 1])
        cur = np.arange(starts[a + 1], starts[a + 2])
        anchors = rng.integers(len(prev), size=len(cur))
        extra = rng.random((len(prev), len(cur))) < p
        extra[anchors, np.arange(len(cur))] = True
        for u_i, v_i in zip(*np.nonzero(extra)):
            edges.append([int(prev[u_i]), int(cur[v_i])])
    edges.sort(key=lambda e: (e[1], e[0]))
    return {"type": "precedence", "rects": _rects(widths, heights), "edges": edges}


def _uniform_height_dag(rng: np.random.Generator, n: int, p: float = 0.01) -> dict:
    """Unit heights over a G(n, p) order DAG: the engine's default is
    ``shelf_next_fit`` (Theorem 2.6's regime)."""
    widths = rng.uniform(0.05, 1.0, size=n)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    edges = [[int(u), int(v)] for u, v in zip(*np.nonzero(upper))]
    return {"type": "precedence", "rects": _rects(widths, np.ones(n)), "edges": edges}


def _bursty_release(rng: np.random.Generator, n: int, K: int = 8, bursts: int = 4) -> dict:
    """K-columnar tasks arriving in four bursts: the engine's default is
    ``aptas`` (Theorem 3.5)."""
    burst = rng.integers(0, bursts, size=n)
    columns = rng.integers(1, K + 1, size=n)
    heights = rng.uniform(0.1, 1.0, size=n)
    releases = (burst * 2.0).tolist()
    return {"type": "release", "K": K, "rects": _rects(columns / K, heights, releases)}


#: paper_mix rotates these kinds; ``None`` lets the server's per-variant
#: default pick the solver.
_PAPER_KINDS = (
    (_layered_dag, None),
    (_uniform_height_dag, None),
    (_bursty_release, None),
    (_powerlaw, "bottom_left"),
)


def _small_bodies(seed: int, stream: str, count: int) -> list[bytes]:
    rng = _rng(seed, stream)
    return [_body(_powerlaw(rng, SMALL_N), "ffdh") for _ in range(count)]


def _paper_bodies(seed: int, stream: str, count: int) -> list[bytes]:
    rng = _rng(seed, stream)
    return [
        _body(make(rng, PAPER_N), algorithm)
        for make, algorithm in (_PAPER_KINDS[i % len(_PAPER_KINDS)] for i in range(count))
    ]


#: fleet_mixed shuffles each run of this many distinct instances together
#: with their repeats, so the hit share stays ~50% however far a run gets.
FLEET_BLOCK = 32


def measured_payloads(workload: str, seed: int, count: int) -> list[bytes]:
    """The measured request sequence of ``workload``: ``count`` bodies
    (``fleet_mixed``: ``count // 2`` instances, each exactly twice)."""
    if workload == "lone_small":
        return _small_bodies(seed, "measure", count)
    if workload == "paper_mix":
        return _paper_bodies(seed, "measure", count)
    if workload == "fleet_mixed":
        distinct = _small_bodies(seed, "measure", count // 2)
        order_rng = _rng(seed, "measure", part=1)
        sequence: list[bytes] = []
        for start in range(0, len(distinct), FLEET_BLOCK):
            block = distinct[start : start + FLEET_BLOCK] * 2
            sequence.extend(block[i] for i in order_rng.permutation(len(block)))
        return sequence
    raise KeyError(workload)


def warmup_payloads(workload: str, seed: int, algorithm: str, count: int) -> list[bytes]:
    """``count`` warm-up bodies answered by ``algorithm`` (warm stream)."""
    if workload == "paper_mix":
        offset = PAPER_ALGORITHMS.index(algorithm)
        bodies = _paper_bodies(seed, "warm", offset + len(PAPER_ALGORITHMS) * count)
        return bodies[offset :: len(PAPER_ALGORITHMS)][:count]
    return _small_bodies(seed, "warm", count)
