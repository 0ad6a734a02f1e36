"""Task precedence DAG used by the Section-2 algorithms.

The paper specifies precedence constraints as a DAG ``G = (S, E)`` over the
rectangle set: an edge ``(s, s')`` forces the top of ``s`` to lie at or below
the base of ``s'`` (``y_s + h_s <= y_{s'}``).

:class:`TaskDAG` is a small, dependency-free adjacency-list digraph that
provides exactly the operations the algorithms need:

* in/out neighbourhoods (the paper's ``IN(s)`` set),
* acyclicity validation and topological order,
* induced subgraphs (the ``DC`` recursion of Algorithm 1 recomputes ``F`` on
  the subgraph induced by each part),
* longest-path machinery lives in :mod:`repro.dag.critical_path`.

Node identifiers are the rectangle ids; the DAG itself never looks at
geometry.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Hashable, Iterable, Iterator, Mapping, Sequence

from ..core.errors import InvalidInstanceError

__all__ = ["TaskDAG"]

Node = Hashable


class TaskDAG:
    """Directed acyclic graph over task ids.

    Parameters
    ----------
    nodes:
        Iterable of node ids (rectangle ids).
    edges:
        Iterable of ``(u, v)`` pairs meaning *u must finish before v starts*.

    Raises
    ------
    InvalidInstanceError
        If an edge endpoint is not a node, an edge is a self-loop, or the
        graph contains a directed cycle.
    """

    __slots__ = ("_succ", "_pred", "_n_edges")

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[Node, Node]] = ()) -> None:
        self._succ: dict[Node, set[Node]] = {n: set() for n in nodes}
        self._pred: dict[Node, set[Node]] = {n: set() for n in self._succ}
        self._n_edges = 0
        for u, v in edges:
            self.add_edge(u, v, _defer_cycle_check=True)
        self._assert_acyclic()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, *, _defer_cycle_check: bool = False) -> None:
        """Add the precedence edge ``u -> v``.

        Unless ``_defer_cycle_check`` is set (constructor bulk-load), the
        graph re-validates acyclicity, so the DAG invariant always holds for
        external callers.
        """
        if u not in self._succ or v not in self._succ:
            raise InvalidInstanceError(f"edge ({u!r}, {v!r}) references unknown node")
        if u == v:
            raise InvalidInstanceError(f"self-loop on node {u!r}")
        if v not in self._succ[u]:
            self._succ[u].add(v)
            self._pred[v].add(u)
            self._n_edges += 1
        if not _defer_cycle_check:
            self._assert_acyclic()

    @classmethod
    def empty(cls, nodes: Iterable[Node]) -> "TaskDAG":
        """A DAG with the given nodes and no edges (plain strip packing)."""
        return cls(nodes, ())

    @classmethod
    def chain(cls, nodes: Sequence[Node]) -> "TaskDAG":
        """A single chain ``nodes[0] -> nodes[1] -> ...``."""
        return cls(nodes, list(zip(nodes, nodes[1:])))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    @property
    def n_edges(self) -> int:
        """Number of precedence edges."""
        return self._n_edges

    def nodes(self) -> list[Node]:
        """All node ids (insertion order)."""
        return list(self._succ)

    def edges(self) -> list[tuple[Node, Node]]:
        """All edges as ``(u, v)`` pairs."""
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def successors(self, node: Node) -> frozenset[Node]:
        """Nodes that must start after ``node`` finishes."""
        return frozenset(self._succ[node])

    def predecessors(self, node: Node) -> frozenset[Node]:
        """The paper's ``IN(s)``: nodes with an edge into ``node``."""
        return frozenset(self._pred[node])

    def successor_sets(self) -> Mapping[Node, AbstractSet[Node]]:
        """Live ``node -> successors`` mapping, without the per-node copy
        :meth:`successors` makes (for linear-time passes; do not mutate)."""
        return self._succ

    def predecessor_sets(self) -> Mapping[Node, AbstractSet[Node]]:
        """Live ``node -> IN(node)`` mapping (see :meth:`successor_sets`)."""
        return self._pred

    def in_degree(self, node: Node) -> int:
        """Number of direct predecessors."""
        return len(self._pred[node])

    def out_degree(self, node: Node) -> int:
        """Number of direct successors."""
        return len(self._succ[node])

    def sources(self) -> list[Node]:
        """Nodes with no predecessors (``IN(s)`` empty)."""
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> list[Node]:
        """Nodes with no successors."""
        return [n for n in self._succ if not self._succ[n]]

    # ------------------------------------------------------------------
    # orders and reachability
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Node]:
        """Kahn topological order of the nodes.

        Deterministic given insertion order: ready nodes are served FIFO.
        """
        indeg = {n: len(self._pred[n]) for n in self._succ}
        queue: deque[Node] = deque(n for n in self._succ if indeg[n] == 0)
        order: list[Node] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != len(self._succ):
            raise InvalidInstanceError("precedence graph contains a cycle")
        return order

    def _assert_acyclic(self) -> None:
        self.topological_order()

    def reachable_from(self, node: Node) -> set[Node]:
        """All nodes reachable from ``node`` (excluding ``node`` itself)."""
        seen: set[Node] = set()
        stack = list(self._succ[node])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._succ[u])
        return seen

    def ancestors(self, node: Node) -> set[Node]:
        """All nodes with a path *to* ``node`` (excluding ``node``)."""
        seen: set[Node] = set()
        stack = list(self._pred[node])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._pred[u])
        return seen

    def has_path(self, u: Node, v: Node) -> bool:
        """Whether a directed path ``u -> ... -> v`` exists."""
        return v in self.reachable_from(u)

    def independent(self, u: Node, v: Node) -> bool:
        """Whether neither node precedes the other (Lemma 2.1's condition)."""
        return not self.has_path(u, v) and not self.has_path(v, u)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced(self, keep: Iterable[Node]) -> "TaskDAG":
        """Subgraph induced by ``keep`` (Algorithm 1 line 2 recomputes ``F``
        on exactly this graph for each recursive part).

        An induced subgraph of a DAG is acyclic, so unlike the constructor
        this skips the cycle check.
        """
        keep_set = set(keep)
        unknown = keep_set.difference(self._succ)
        if unknown:
            raise InvalidInstanceError(f"induced(): unknown nodes {sorted(map(repr, unknown))}")
        sub = TaskDAG.__new__(TaskDAG)
        sub._succ = {n: set() for n in self._succ if n in keep_set}
        sub._pred = {n: set() for n in sub._succ}
        n_edges = 0
        for u, vs in sub._succ.items():
            for v in self._succ[u]:
                if v in keep_set:
                    vs.add(v)
                    sub._pred[v].add(u)
                    n_edges += 1
        sub._n_edges = n_edges
        return sub

    def transitive_reduction_edges(self) -> list[tuple[Node, Node]]:
        """Edges of the transitive reduction (minimal equivalent DAG).

        Used by workload generators to report the "essential" constraint
        count, and by renderers; O(V * E) — fine at study sizes.
        """
        keep: list[tuple[Node, Node]] = []
        for u in self._succ:
            direct = self._succ[u]
            # v is redundant if reachable from u through another successor.
            via: set[Node] = set()
            for w in direct:
                if w in via:
                    continue
                via |= self.reachable_from(w)
            keep.extend((u, v) for v in direct if v not in via)
        return keep

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def as_mapping(self) -> Mapping[Node, frozenset[Node]]:
        """Read-only successor mapping (for interop/tests)."""
        return {u: frozenset(vs) for u, vs in self._succ.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskDAG(n={len(self)}, m={self._n_edges})"
