"""Algorithm ``F`` of Section 2.2: shelf Next-Fit for uniform heights.

All rectangles have height 1 (the library normalises any common height).
The algorithm keeps exactly one *open* shelf at the top of the packing; all
shelves below are *closed*.  A rectangle is **available** once all its
predecessors sit on closed shelves.  Available rectangles wait in a FIFO
queue and are placed left-to-right on the open shelf until the queue head
does not fit (width) or the queue is empty; then the shelf closes and a new
one opens, repopulating the queue.

The ready set is maintained in O(n + e) over the whole run: each rectangle
counts its predecessors that are not yet on a closed shelf, and closing a
shelf decrements its rectangles' successors, queueing those that reach 0.
:mod:`repro.precedence.reference` keeps the original rescan of every
unplaced rectangle after each shelf as the executable specification.

A shelf closed with a non-empty queue is a *width-close*; a shelf closed on
an empty queue is a **skip** (Lemma 2.5: #skips <= OPT).  Theorem 2.6's
red/green accounting gives the absolute 3-approximation; the run records
both statistics so experiments E3 can verify ``r <= 2*AREA`` and
``g <= OPT`` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from ..core import tol
from ..core.errors import InvalidInstanceError
from ..core.instance import PrecedenceInstance
from ..core.placement import Placement

__all__ = ["ShelfRun", "shelf_next_fit"]

Node = Hashable


@dataclass
class ShelfRecord:
    """Bookkeeping for one shelf: which ids it holds and why it closed."""

    index: int
    ids: tuple[Node, ...]
    used_width: float
    closed_by_skip: bool


@dataclass
class ShelfRun:
    """Outcome of Algorithm F: placement, shelf trace and skip count."""

    placement: Placement
    shelf_height: float
    shelves: list[ShelfRecord] = field(default_factory=list)

    @property
    def height(self) -> float:
        """Total packing height = #shelves * shelf height."""
        return len(self.shelves) * self.shelf_height

    @property
    def n_skips(self) -> int:
        """Number of shelves closed because the ready queue was empty."""
        return sum(1 for s in self.shelves if s.closed_by_skip)


def shelf_next_fit(instance: PrecedenceInstance) -> ShelfRun:
    """Run Algorithm F on a uniform-height precedence instance.

    Raises
    ------
    InvalidInstanceError
        If rectangle heights are not all equal (the Section 2.2 setting).
    """
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

    # Per rectangle, its predecessors not yet on a closed shelf: 0 = ready.
    # Fresh ready rectangles join the queue sorted by id (deterministic
    # runs; the paper leaves the queue order arbitrary).
    succ = dag.successor_sets()
    waiting = {s: len(p) for s, p in dag.predecessor_sets().items()}
    queue: deque[Node] = deque(sorted((s for s, k in waiting.items() if not k), key=str))
    remaining = len(rects)

    shelf_index = 0
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
                placement.place(rects[head], tol.clamp(used, 0.0, 1.0 - w), y)
                used += w
                ids.append(head)
            else:
                break
        closed_by_skip = not queue  # queue empty at close time => skip
        run.shelves.append(
            ShelfRecord(index=shelf_index, ids=tuple(ids), used_width=used, closed_by_skip=closed_by_skip)
        )
        remaining -= len(ids)
        shelf_index += 1
        # Closing the shelf makes its rectangles "closed-placed".
        fresh = []
        for u in ids:
            for v in succ[u]:
                waiting[v] -= 1
                if not waiting[v]:
                    fresh.append(v)
        queue.extend(sorted(fresh, key=str))
        if not queue and remaining:
            # No rectangle became available even after closing: only possible
            # if the DAG is inconsistent (cannot happen for a valid DAG).
            raise AssertionError("ready queue empty with rectangles remaining on a valid DAG")
    return run
