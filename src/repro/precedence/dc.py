"""Algorithm 1 of the paper: ``DC``, the divide-and-conquer
O(log n)-approximation for precedence-constrained strip packing.

Given an instance ``(S, E)`` the algorithm recomputes the critical-path
function ``F`` on the current sub-DAG, sets ``H = F(S)``, and splits::

    S_bot = { s : F(s) <= H/2 }                       (recurse below)
    S_mid = { s : F(s) >  H/2  and  F(s) - h_s <= H/2 }   (antichain; pack with A)
    S_top = { s : F(s) - h_s > H/2 }                  (recurse above)

``S_mid`` straddles the horizontal line ``H/2`` in the "infinitely wide
strip" interpretation of ``F``, so by Lemma 2.1 it contains no dependent
pair and the unconstrained subroutine ``A`` may pack it.  Lemma 2.2
guarantees ``S_mid`` is non-empty, so the recursion terminates.  Theorem 2.3
proves::

    DC(S) <= log2(n + 1) * F(S) + 2 * AREA(S) <= (2 + log2(n + 1)) * OPT(S, E)

The implementation follows the pseudo-code line by line on row indices
(positions in ``instance.rects``) and records the recursion tree (band
structure) for introspection/rendering.  It builds the DAG bookkeeping
once per instance: predecessor rows, one global topological order and
``F`` for the whole instance.  Line 2's recomputation of ``F`` then costs
nothing for ``S_bot`` and one pass for ``S_top``:

* ``S_bot`` is closed under predecessors within ``S``: a predecessor
  ``p`` of ``s`` has ``F(p) <= F(s)``, because adding a positive height
  never lowers a float, so ``p`` lands in neither ``S_mid`` nor
  ``S_top``.  Every path that ``F`` maximises over inside ``S`` therefore
  stays inside ``S_bot``, and ``F`` on the sub-DAG induced by ``S_bot``
  equals the parent's ``F`` bit for bit.  The ``S_bot`` recursion reuses
  it unchanged.
* ``S_top`` loses predecessors, so its ``F`` is recomputed in one pass
  over its rows in the global topological order, which restricted to
  any subset is a topological order of the induced sub-DAG.

With heights that differ by many orders of magnitude, the tolerant
split can leave ``S_mid`` empty; for one, a part whose ``F(S)`` is within
``2 * ATOL`` of zero puts every rectangle in ``S_bot``.  ``S_mid`` is then
the part's sources, ``S_bot`` is empty and ``S_top`` the rest.  Sources
share no edge, and the rest lies above them, so the placement stays valid
and the recursion still shrinks.

:func:`repro.precedence.reference.reference_dc_pack` is the executable
specification; the differential suite pins the two band for band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from ..core import tol
from ..core.instance import PrecedenceInstance
from ..core.placement import Placement
from ..packing.base import Packer
from ..packing.nfdh import nfdh

__all__ = ["DCResult", "DCBand", "dc_pack"]

Node = Hashable


@dataclass(frozen=True)
class DCBand:
    """One ``A(S_mid)`` invocation: which ids were packed where.

    Recorded in recursion order (bottom-up in the strip), giving the full
    horizontal band decomposition the analysis of Theorem 2.3 reasons about.
    """

    y: float
    extent: float
    ids: tuple[Node, ...]
    depth: int


@dataclass
class DCResult:
    """Placement plus the recursion-band trace of a ``DC`` run."""

    placement: Placement
    height: float
    bands: list[DCBand] = field(default_factory=list)

    @property
    def max_depth(self) -> int:
        """Deepest recursion level that produced a band."""
        return max((b.depth for b in self.bands), default=0)


def dc_pack(
    instance: PrecedenceInstance,
    subroutine: Packer = nfdh,
) -> DCResult:
    """Run Algorithm 1 on ``instance`` using ``subroutine`` as ``A``.

    Parameters
    ----------
    instance:
        Precedence-constrained strip packing instance.
    subroutine:
        Unconstrained packer honouring the subroutine-A convention
        (:mod:`repro.packing.base`); default NFDH.

    Returns
    -------
    DCResult
        Valid placement (checked by the caller/tests via
        :func:`repro.core.placement.validate_placement`) whose height obeys
        Theorem 2.3.
    """
    rects = instance.rects
    row_of = {r.rid: row for row, r in enumerate(rects)}
    heights = [r.height for r in rects]
    pred_ids = instance.dag.predecessor_sets()
    preds = [[row_of[p] for p in pred_ids[r.rid]] for r in rects]
    order = [row_of[s] for s in instance.dag.topological_order()]
    pos = [0] * len(rects)
    for k, row in enumerate(order):
        pos[row] = k
    result = DCResult(placement=Placement(), height=0.0)

    def induced_F(rows: Sequence[int]) -> dict[int, float]:
        """``F`` on the sub-DAG induced by ``rows`` (line 2), in one pass
        over them in the global topological order."""
        F: dict[int, float] = {}
        for s in sorted(rows, key=pos.__getitem__):
            below = [F[p] for p in preds[s] if p in F]
            F[s] = heights[s] + (max(below) if below else 0.0)
        return F

    def recurse(y: float, rows: list[int], F: Mapping[int, float], depth: int) -> float:
        """Line-by-line Algorithm 1 on ``rows``, whose ``F`` on their
        induced sub-DAG is ``F``; returns the extent used above ``y``."""
        # 1: if S is empty, return 0.
        if not rows:
            return 0.0
        # 3: H = F(S).
        H = max(F[s] for s in rows)
        # 4-6: three-way split around H/2.  Comparisons are tolerance-aware
        # and each rectangle is classified exactly once: exact-half ties
        # (common in structured instances, e.g. power-of-two chains) must not
        # land a rectangle in two parts or drop the straddling rectangle from
        # S_mid, which would break Lemma 2.2's progress guarantee.  ``limit``
        # is the threshold of both tol.gt(F - h, H/2) and tol.leq(F, H/2).
        limit = H / 2.0 + tol.ATOL
        s_bot, s_mid, s_top = [], [], []
        for s in rows:
            f = F[s]
            if f - heights[s] > limit:
                s_top.append(s)
            elif f <= limit:
                s_bot.append(s)
            else:
                s_mid.append(s)
        if not s_mid:
            # Tolerance swallowed the straddling rectangle (module
            # docstring): pack the part's sources and put the rest above.
            part = set(rows)
            s_bot, s_top = [], []
            for s in rows:
                (s_top if any(p in part for p in preds[s]) else s_mid).append(s)
        # Lemma 2.2: S_mid is never empty, hence both recursions shrink.
        assert s_mid, "Lemma 2.2 violated: empty S_mid"
        cur = y
        # 7-8: place S_bot below; F on S_bot is the parent's (docstring).
        cur += recurse(cur, s_bot, F, depth + 1)
        # 9-10: pack the antichain S_mid with A starting at cur.
        pack = subroutine([rects[s] for s in s_mid], cur)
        result.placement.merge(pack.placement)
        ids = tuple(rects[s].rid for s in s_mid)
        result.bands.append(DCBand(y=cur, extent=pack.extent, ids=ids, depth=depth))
        cur += pack.extent
        # 11-12: place S_top above, with F recomputed on its sub-DAG.
        cur += recurse(cur, s_top, induced_F(s_top), depth + 1)
        return cur - y

    result.height = recurse(0.0, list(range(len(rects))), induced_F(order), depth=0)
    return result
