"""Reference Section-2 bookkeeping — the executable specification.

This module preserves, verbatim, the pre-optimisation versions of the
three routines the precedence solvers spend their bookkeeping in:

* :func:`reference_shelf_next_fit` — Algorithm F with the original ready
  set: after every shelf it rescans every unplaced rectangle and checks
  that all its predecessors sit on closed shelves (O(n · shelves));
* :func:`reference_compute_F` — ``F`` with a copied predecessor set per
  node;
* :func:`reference_induced` — the induced sub-DAG built through the
  validating constructor, cycle check included.

``tests/test_precedence_differential.py`` runs the production versions
(:mod:`repro.precedence.shelf_nextfit`, :mod:`repro.dag.critical_path`,
:meth:`repro.dag.graph.TaskDAG.induced`) and these over the same
instances, and requires identical placements, shelf records, ``F`` maps,
sub-DAGs and DC band decompositions.  Do not optimize this module — its
only job is to be obviously correct.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping

from ..core import tol
from ..core.errors import InvalidInstanceError
from ..core.instance import PrecedenceInstance
from ..core.placement import Placement
from ..dag.graph import TaskDAG
from .shelf_nextfit import ShelfRecord, ShelfRun

__all__ = ["reference_shelf_next_fit", "reference_compute_F", "reference_induced"]

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
