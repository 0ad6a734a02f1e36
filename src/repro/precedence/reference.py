"""Reference Section-2 algorithms — the executable specification.

This module preserves, verbatim, the pre-optimisation versions of the
routines the precedence solvers spend their bookkeeping in:

* :func:`reference_shelf_next_fit` — Algorithm F with the original ready
  set: after every shelf it rescans every unplaced rectangle and checks
  that all its predecessors sit on closed shelves (O(n · shelves));
* :func:`reference_compute_F` — ``F`` with a copied predecessor set per
  node;
* :func:`reference_induced` — the induced sub-DAG built through the
  validating constructor, cycle check included;
* :func:`reference_dc_pack` — Algorithm 1 line by line over the three
  references: every call builds its part's induced sub-DAG, recomputes
  ``F`` on it (line 2) and packs ``S_mid`` with the reference NFDH.

``tests/test_precedence_differential.py`` runs the production versions
(:mod:`repro.precedence.shelf_nextfit`, :mod:`repro.dag.critical_path`,
:meth:`repro.dag.graph.TaskDAG.induced`, :mod:`repro.precedence.dc`) and
these over the same instances, and requires identical placements, shelf
records, ``F`` maps, sub-DAGs and DC band decompositions.  Do not
optimize this module — its only job is to be obviously correct.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping

from ..core import tol
from ..core.errors import InvalidInstanceError
from ..core.instance import PrecedenceInstance
from ..core.placement import Placement
from ..dag.graph import TaskDAG
from ..geometry.levels_reference import reference_nfdh
from .dc import DCBand, DCResult
from .shelf_nextfit import ShelfRecord, ShelfRun

__all__ = [
    "reference_shelf_next_fit",
    "reference_compute_F",
    "reference_induced",
    "reference_dc_split",
    "reference_dc_pack",
]

Node = Hashable


def reference_shelf_next_fit(instance: PrecedenceInstance) -> ShelfRun:
    """Algorithm F, rescanning every unplaced rectangle after each shelf."""
    rects = instance.by_id()
    heights = {r.height for r in instance.rects}
    if len(heights) > 1:
        raise InvalidInstanceError(
            f"shelf_next_fit requires uniform heights, got {len(heights)} distinct values"
        )
    h = heights.pop() if heights else 1.0

    dag = instance.dag
    placement = Placement()
    run = ShelfRun(placement=placement, shelf_height=h)

    placed_closed: set[Node] = set()   # ids on *closed* shelves
    queued: set[Node] = set()
    remaining: set[Node] = set(rects)
    queue: deque[Node] = deque()

    def repopulate() -> None:
        """Add to the queue every unplaced rectangle whose predecessors are
        all on closed shelves.  Deterministic order (sorted by id) keeps runs
        reproducible; the paper leaves the queue order arbitrary."""
        fresh = [
            s
            for s in remaining
            if s not in queued and all(p in placed_closed for p in dag.predecessors(s))
        ]
        for s in sorted(fresh, key=str):
            queue.append(s)
            queued.add(s)

    shelf_index = 0
    repopulate()
    while remaining:
        # Open shelf `shelf_index`, fill from the queue head.
        y = shelf_index * h
        used = 0.0
        ids: list[Node] = []
        while queue:
            head = queue[0]
            w = rects[head].width
            if tol.leq(used + w, 1.0):
                queue.popleft()
                queued.discard(head)
                placement.place(rects[head], tol.clamp(used, 0.0, 1.0 - w), y)
                used += w
                ids.append(head)
                remaining.discard(head)
            else:
                break
        closed_by_skip = not queue  # queue empty at close time => skip
        run.shelves.append(
            ShelfRecord(index=shelf_index, ids=tuple(ids), used_width=used, closed_by_skip=closed_by_skip)
        )
        # Closing the shelf makes its rectangles "closed-placed".
        placed_closed.update(ids)
        shelf_index += 1
        repopulate()
        if not queue and remaining:
            # No rectangle became available even after closing: only possible
            # if the DAG is inconsistent (cannot happen for a valid DAG).
            raise AssertionError("ready queue empty with rectangles remaining on a valid DAG")
    return run


def reference_compute_F(dag: TaskDAG, heights: Mapping[Node, float]) -> dict[Node, float]:
    """``F(s)`` for every node, in one topological pass."""
    missing = [n for n in dag if n not in heights]
    if missing:
        raise InvalidInstanceError(f"heights missing for nodes {missing[:5]!r}")
    F: dict[Node, float] = {}
    for node in dag.topological_order():
        preds = dag.predecessors(node)
        base = max((F[p] for p in preds), default=0.0)
        F[node] = heights[node] + base
    return F


def reference_induced(dag: TaskDAG, keep: Iterable[Node]) -> TaskDAG:
    """Subgraph of ``dag`` induced by ``keep``, built by the validating
    constructor (which re-checks acyclicity)."""
    keep_set = set(keep)
    unknown = keep_set - set(dag.nodes())
    if unknown:
        raise InvalidInstanceError(f"induced(): unknown nodes {sorted(map(repr, unknown))}")
    nodes = [n for n in dag if n in keep_set]
    succ = dag.successor_sets()
    return TaskDAG(nodes, [(u, v) for u in nodes for v in succ[u] if v in keep_set])


def reference_dc_split(
    ids: list[Node], dag: TaskDAG, F: Mapping[Node, float], heights: Mapping[Node, float]
) -> tuple[list[Node], list[Node], list[Node]]:
    """Lines 3-6 of Algorithm 1: ``(S_bot, S_mid, S_top)`` of the part
    ``ids`` with sub-DAG ``dag`` and its ``F``, in ``ids`` order.

    When the tolerant split leaves ``S_mid`` empty (heights of mixed
    magnitudes, see :mod:`repro.precedence.dc`), ``S_mid`` is the
    part's sources and ``S_top`` the rest.
    """
    H = max(F[s] for s in ids)
    half = H / 2.0
    s_bot, s_mid, s_top = [], [], []
    for s in ids:
        if tol.gt(F[s] - heights[s], half):
            s_top.append(s)
        elif tol.leq(F[s], half):
            s_bot.append(s)
        else:
            s_mid.append(s)
    if not s_mid:
        s_bot = []
        s_mid = [s for s in ids if not dag.predecessors(s)]
        s_top = [s for s in ids if dag.predecessors(s)]
    return s_bot, s_mid, s_top


def reference_dc_pack(instance: PrecedenceInstance) -> DCResult:
    """Algorithm 1 with NFDH as ``A``, recomputing ``F`` at every call."""
    by_id = instance.by_id()
    heights = instance.heights()
    result = DCResult(placement=Placement(), height=0.0)

    def recurse(y: float, ids: list[Node], dag: TaskDAG, depth: int) -> float:
        # 1: if S is empty, return 0.
        if not ids:
            return 0.0
        # 2: recalculate F on the induced sub-DAG.
        F = reference_compute_F(dag, heights)
        # 3-6: H = F(S) and the three-way split around H/2.
        s_bot, s_mid, s_top = reference_dc_split(ids, dag, F, heights)
        assert s_mid, "Lemma 2.2 violated: empty S_mid"
        cur = y
        # 7-8: place S_bot below.
        cur += recurse(cur, s_bot, reference_induced(dag, s_bot), depth + 1)
        # 9-10: pack the antichain S_mid with A starting at cur.
        pack = reference_nfdh([by_id[s] for s in s_mid], cur)
        result.placement.merge(pack.placement)
        result.bands.append(DCBand(y=cur, extent=pack.extent, ids=tuple(s_mid), depth=depth))
        cur += pack.extent
        # 11-12: place S_top above.
        cur += recurse(cur, s_top, reference_induced(dag, s_top), depth + 1)
        return cur - y

    result.height = recurse(0.0, list(by_id), instance.dag, depth=0)
    return result
