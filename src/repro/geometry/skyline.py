"""Skyline data structure for bottom-left style packing.

A *skyline* is a piecewise-constant upper envelope of the rectangles placed
so far: a list of maximal segments ``(x, width, y)`` partitioning ``[0, 1]``.
It supports the two operations bottom-left packers and the exact
branch-and-bound solver need:

* enumerate candidate positions for a width-``w`` rectangle (the classic
  "corner points" — left edge flush with a segment boundary, plus
  right-flush positions), each with the lowest feasible ``y`` there;
* commit a placement, merging segments.

This is the library's hottest kernel: bottom-left, branch-and-bound, and
the release heuristics all sit on it, and ``benchmarks`` drive it with
hundreds of thousands of placements.  The implementation therefore trades
the obvious per-candidate rescan for three structural ideas, while keeping
behaviour identical to the executable specification in
:mod:`repro.geometry.skyline_reference` for every width beyond the
comparison tolerance (``w > tol.ATOL``; degenerate sliver widths at or
below tolerance may order equal-coordinate segments differently — no
packer produces them).  The equivalence is enforced by the differential
tests in ``tests/test_skyline_differential.py``:

* **indexed parallel arrays** — segments live in three plain float lists
  ``(_xs, _ws, _ys)`` bisected by start coordinate, so queries touch a
  window of segments instead of scanning the whole envelope;
* **single-sweep candidate evaluation** — ``lowest_position`` walks the
  sorted candidates once, maintaining the windowed height maximum with a
  monotonic deque (two-pointer sliding window), which evaluates *all*
  candidates in ``O(m)`` amortized instead of ``O(m^2)``;
* **lowest-segment fast path** — the bottom-left rule usually lands on the
  lowest segment; when the rectangle fits inside the leftmost lowest
  segment the answer is found in ``O(m)`` C-speed primitives
  (``min``/``list.index``) without materialising candidates at all.

``place`` splices only the affected window (located by bisection) and
re-merges locally, relying on the invariant that the segment list is always
fully merged between calls.

The ``skyline_bottom_left`` bench spec (``repro bench skyline_bottom_left``)
tracks the speedup of this kernel over the reference implementation;
``BENCH_skyline_bottom_left.json`` artifacts carry the measured before/after.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from ..core import tol
from ..core.errors import InvalidPlacementError

__all__ = ["Skyline", "SkySegment"]

_ATOL = tol.ATOL


@dataclass(frozen=True, slots=True)
class SkySegment:
    """Maximal horizontal segment of the skyline at height ``y``."""

    x: float
    width: float
    y: float

    @property
    def x2(self) -> float:
        """Right edge ``x + width``."""
        return self.x + self.width


class Skyline:
    """The skyline over a strip of width 1 (floor at ``y = 0``).

    Segments are stored as three parallel float lists (start, width,
    height), kept sorted by start and fully merged (no two adjacent
    segments at equal height within tolerance).  All tolerance decisions
    use :mod:`repro.core.tol` semantics, inlined on the hot paths.
    """

    __slots__ = ("_xs", "_ws", "_ys")

    def __init__(self) -> None:
        self._xs: list[float] = [0.0]
        self._ws: list[float] = [1.0]
        self._ys: list[float] = [0.0]

    # ------------------------------------------------------------------
    def segments(self) -> list[SkySegment]:
        """Current segments, left to right."""
        return [SkySegment(x, w, y) for x, w, y in zip(self._xs, self._ws, self._ys)]

    def __iter__(self) -> Iterator[SkySegment]:
        return iter(self.segments())

    @property
    def max_y(self) -> float:
        """Highest skyline level."""
        return max(self._ys)

    @property
    def min_y(self) -> float:
        """Lowest skyline level."""
        return min(self._ys)

    # ------------------------------------------------------------------
    def _window_start(self, left: float) -> int:
        """Index of the first segment that may overlap ``(left, ...)``:
        the last segment whose start is ``<= left``, walked further left
        while predecessors still protrude past ``left``."""
        xs, ws = self._xs, self._ws
        j = bisect_right(xs, left)
        while j > 0 and xs[j - 1] + ws[j - 1] > left:
            j -= 1
        return j

    def support_y(self, x: float, width: float) -> float:
        """Lowest ``y`` at which a width-``width`` rectangle with left edge at
        ``x`` can rest: the max skyline height over ``[x, x+width)``.

        Raises :class:`InvalidPlacementError` when the x-range leaves the
        strip (beyond tolerance).
        """
        atol = _ATOL
        if x < -atol or x + width > 1.0 + atol:
            raise InvalidPlacementError(f"x-range [{x}, {x + width}] outside the strip")
        xs, ws, ys = self._xs, self._ws, self._ys
        left = x + atol
        right = x + width - atol
        y = 0.0
        for k in range(self._window_start(left), len(xs)):
            xk = xs[k]
            if xk >= right:
                break
            if xk + ws[k] > left and ys[k] > y:
                y = ys[k]
        return y

    def _candidate_xs(self, width: float) -> list[float]:
        """The sorted candidate left edges for a width-``width`` rectangle:
        segment starts, right-flush positions, and the two strip walls —
        each clamped into ``[0, 1 - width]`` exactly as the reference
        kernel's ``tol.clamp`` does (duplicates retained; they are
        harmless to the sweep)."""
        xs, ws = self._xs, self._ws
        atol = _ATOL
        lim = 1.0 - width
        cands: list[float] = []
        ap = cands.append
        for k in range(len(xs)):
            x = xs[k]
            if x + width <= 1.0 + atol:
                ap(x if x <= lim else lim)
            xr = x + ws[k] - width
            if xr >= -atol:
                if xr < 0.0:
                    xr = 0.0
                ap(xr if xr <= lim else lim)
        if width <= 1.0 + atol:
            # tol.clamp(0, 0, lim) and tol.clamp(lim, 0, lim) respectively.
            ap(0.0 if lim >= 0.0 else lim)
            ap(lim if lim >= 0.0 else 0.0)
        cands.sort()
        return cands

    def candidate_positions(self, width: float) -> list[tuple[float, float]]:
        """Candidate ``(x, y)`` placements for a width-``width`` rectangle.

        Candidates are left edges flush with segment starts, plus right
        edges flush with segment ends and the strip's right wall; each is
        paired with its support height.  Every "bottom-left stable"
        position is included, which is what both the BL heuristic and the
        exact solver branch over.  Positions are returned sorted by ``x``
        with exact duplicates removed.
        """
        seen: set[float] = set()
        out: list[tuple[float, float]] = []
        for x, y in self._sweep(width):
            if x not in seen:
                seen.add(x)
                out.append((x, y))
        return out

    def _sweep(self, width: float) -> Iterator[tuple[float, float]]:
        """Yield ``(x, support)`` for every candidate in ascending ``x``.

        One pass: a two-pointer window over the segment arrays with a
        monotonic deque holding the indices of potential maxima, so the
        whole sweep costs ``O(m)`` amortized (plus the candidate sort).
        """
        xs, ws, ys = self._xs, self._ws, self._ys
        m = len(xs)
        atol = _ATOL
        wa = width - atol
        hi = 0
        dq = [0] * m  # ring-free deque: dq[head:ntail] holds candidate maxima
        head = ntail = 0
        for x in self._candidate_xs(width):
            right = x + wa
            while hi < m and xs[hi] < right:
                yk = ys[hi]
                while ntail > head and ys[dq[ntail - 1]] <= yk:
                    ntail -= 1
                dq[ntail] = hi
                ntail += 1
                hi += 1
            left = x + atol
            while head < ntail:
                j = dq[head]
                if xs[j] + ws[j] <= left:
                    head += 1
                else:
                    break
            yield x, (ys[dq[head]] if head < ntail else 0.0)

    def lowest_position(self, width: float) -> tuple[float, float]:
        """Bottom-left rule: the candidate with minimal ``y``, ties broken by
        minimal ``x``.

        Fast path: the leftmost lowest segment that the rectangle fits
        inside is the answer whenever it exists (any candidate's support is
        the max over the segments its window overlaps, hence ``>= min_y``
        everywhere and ``== min_y`` only inside a lowest segment).  The
        full sweep only runs when no lowest segment fits, and even then
        stops early once a support at the floor of what remains is found.
        """
        xs, ws, ys = self._xs, self._ws, self._ys
        m = len(xs)
        atol = _ATOL
        lim = 1.0 - width
        ymin = min(ys)
        if lim >= 0.0 and width > 2.0 * atol:
            k = ys.index(ymin)
            while True:
                best = self._fit_in_segment(k, width, lim)
                if best is not None:
                    return best, ymin
                try:
                    k = ys.index(ymin, k + 1)
                except ValueError:
                    break
        best_x = best_y = None
        for x, y in self._sweep(width):
            if best_y is None or y < best_y:
                best_x, best_y = x, y
                if y <= ymin:
                    break  # no candidate can rest below the lowest segment
        if best_y is None:
            # Mirrors the reference kernel: min() over an empty candidate
            # list (width beyond the strip) raises ValueError.
            raise ValueError("no candidate position: width exceeds the strip")
        return best_x, best_y

    def _fit_in_segment(self, k: int, width: float, lim: float) -> float | None:
        """The leftmost candidate whose support window lies inside segment
        ``k`` alone (so its support equals ``ys[k]``), or ``None``.

        Both reference candidates anchored to the segment are tried — the
        left edge ``xs[k]`` and the right-flush ``x2[k] - width`` (which
        can land a hair *left* of ``xs[k]`` when the widths differ by less
        than the tolerance) — with the reference kernel's exact
        inclusion/exclusion predicates at the clamped position.
        """
        xs, ws = self._xs, self._ws
        m = len(xs)
        atol = _ATOL
        xk = xs[k]
        if ws[k] <= atol:  # the segment excludes itself from its own window
            return None
        best: float | None = None
        if (
            xk <= lim
            and (k + 1 >= m or xs[k + 1] >= xk + width - atol)
            and (k == 0 or xs[k - 1] + ws[k - 1] <= xk + atol)
        ):
            best = xk
        xr = xk + ws[k] - width
        if xr >= -atol:
            if xr < 0.0:
                xr = 0.0
            if xr > lim:
                xr = lim
            if (
                (best is None or xr < best)
                and xk + ws[k] > xr + atol          # window includes k ...
                and xk < xr + width - atol
                and (k + 1 >= m or xs[k + 1] >= xr + width - atol)  # ... and only k
                and (k == 0 or xs[k - 1] + ws[k - 1] <= xr + atol)
            ):
                best = xr
        return best

    # ------------------------------------------------------------------
    def place(self, x: float, width: float, height: float) -> float:
        """Rest a ``width x height`` rectangle with left edge at ``x`` on the
        skyline; returns the ``y`` it lands at and raises the envelope.

        Only the segments overlapping ``[x, x+width)`` (located by
        bisection) are rewritten; the replacement window is re-merged with
        its immediate neighbours, which preserves the fully-merged
        invariant without touching the rest of the envelope.
        """
        atol = _ATOL
        if x < -atol or x + width > 1.0 + atol:
            raise InvalidPlacementError(f"x-range [{x}, {x + width}] outside the strip")
        xs, ws, ys = self._xs, self._ws, self._ys
        m = len(xs)
        left = x + atol
        right = x + width - atol
        j = self._window_start(left)
        # Support over the affected window (same scan as support_y).
        y = 0.0
        k2 = j
        while k2 < m and xs[k2] < right:
            if xs[k2] + ws[k2] > left and ys[k2] > y:
                y = ys[k2]
            k2 += 1
        top = y + height
        x2_new = x + width

        # Rebuild the affected window [j, k2): untouched slivers keep their
        # place, overlapped segments leave left/right remainders, and the
        # new segment lands in sorted position.
        out_x: list[float] = []
        out_w: list[float] = []
        out_y: list[float] = []
        placed = False
        for k in range(j, k2):
            xk, wk, yk = xs[k], ws[k], ys[k]
            if xk + wk <= left or xk >= right:
                if not placed and xk > x:
                    out_x.append(x); out_w.append(width); out_y.append(top)
                    placed = True
                out_x.append(xk); out_w.append(wk); out_y.append(yk)
                continue
            if xk < x - atol:
                out_x.append(xk); out_w.append(x - xk); out_y.append(yk)
            if not placed:
                out_x.append(x); out_w.append(width); out_y.append(top)
                placed = True
            if xk + wk > x2_new + atol:
                out_x.append(x2_new); out_w.append(xk + wk - x2_new); out_y.append(yk)
        if not placed:
            out_x.append(x); out_w.append(width); out_y.append(top)

        # Merge locally, including one untouched neighbour on each side.
        lo = j - 1 if j > 0 else j
        if j > 0:
            out_x.insert(0, xs[lo]); out_w.insert(0, ws[lo]); out_y.insert(0, ys[lo])
        if k2 < m:
            out_x.append(xs[k2]); out_w.append(ws[k2]); out_y.append(ys[k2])
        mx, mw, my = [out_x[0]], [out_w[0]], [out_y[0]]
        for k in range(1, len(out_x)):
            if abs(my[-1] - out_y[k]) <= atol and abs(mx[-1] + mw[-1] - out_x[k]) <= atol:
                mw[-1] += out_w[k]
            else:
                mx.append(out_x[k]); mw.append(out_w[k]); my.append(out_y[k])
        hi_excl = k2 + 1 if k2 < m else k2
        xs[lo:hi_excl] = mx
        ws[lo:hi_excl] = mw
        ys[lo:hi_excl] = my
        return y

    def waste_below(self, level: float) -> float:
        """Area of the region under ``level`` but above the skyline — the
        holes a level-based packer has committed to waste."""
        return sum(
            (level - y) * w for w, y in zip(self._ws, self._ys) if level > y
        )
