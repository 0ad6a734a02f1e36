"""The recursive lower-bound function ``F`` of Section 2.

For a rectangle ``s`` with heights ``h`` and precedence DAG ``G=(S,E)`` the
paper defines::

    F(s) = h_s                                   if IN(s) is empty
    F(s) = h_s + max_{s' in IN(s)} F(s')         otherwise

``F(s)`` is the earliest possible height of the *top* edge of ``s`` in any
valid placement (the length of the longest weighted path ending at ``s``),
and ``F(S') = max_{s in S'} F(s)`` is the critical-path lower bound on
``OPT(S, E)``.

Algorithm 1 (``DC``) recomputes ``F`` on induced subgraphs at every level of
its recursion, so this module exposes both a full computation and the
path-extraction helper used by tests of Lemma 2.2 ("a tight chain from a
source to a rectangle achieving ``F(S)`` always exists").
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..core.errors import InvalidInstanceError
from .graph import TaskDAG

__all__ = ["compute_F", "F_of_set", "critical_path", "start_lower_bounds"]

Node = Hashable


def compute_F(dag: TaskDAG, heights: Mapping[Node, float]) -> dict[Node, float]:
    """Compute ``F(s)`` for every node of ``dag``.

    Parameters
    ----------
    dag:
        Precedence DAG.
    heights:
        ``h_s`` for every node of the DAG.

    Returns
    -------
    dict
        ``F(s)`` per node, computed in one topological pass (O(V+E)).
    """
    missing = [n for n in dag if n not in heights]
    if missing:
        raise InvalidInstanceError(f"heights missing for nodes {missing[:5]!r}")
    pred = dag.predecessor_sets()
    F: dict[Node, float] = {}
    for node in dag.topological_order():
        preds = pred[node]
        F[node] = heights[node] + (max([F[p] for p in preds]) if preds else 0.0)
    return F


def F_of_set(dag: TaskDAG, heights: Mapping[Node, float]) -> float:
    """``F(S) = max_s F(s)`` — the critical-path lower bound on OPT.

    Returns 0 for an empty DAG.
    """
    F = compute_F(dag, heights)
    return max(F.values(), default=0.0)


def start_lower_bounds(dag: TaskDAG, heights: Mapping[Node, float]) -> dict[Node, float]:
    """``F(s) - h_s`` per node: the earliest height the *base* of ``s`` can
    take in any valid placement.  Algorithm 1 classifies rectangles into
    bottom/middle/top parts by comparing these values with ``H/2``."""
    F = compute_F(dag, heights)
    return {n: F[n] - heights[n] for n in F}


def critical_path(dag: TaskDAG, heights: Mapping[Node, float]) -> list[Node]:
    """One maximum-weight path realising ``F(S)``.

    The path starts at a source (``IN`` empty) and ends at a node whose
    ``F`` value equals ``F(S)``; the sum of heights along it is exactly
    ``F(S)``.  This is the "tight dependency path" of Lemma 2.2.
    """
    if len(dag) == 0:
        return []
    F = compute_F(dag, heights)
    end = max(dag, key=lambda n: F[n])
    path = [end]
    cur = end
    while True:
        preds = dag.predecessors(cur)
        if not preds:
            break
        best = max(preds, key=lambda p: F[p])
        # The chain is tight: F(cur) = h_cur + F(best).
        path.append(best)
        cur = best
    path.reverse()
    return path
