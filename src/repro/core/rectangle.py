"""The rectangle (task) primitive shared by every problem variant.

A :class:`Rect` models one task in the paper's scheduling interpretation:

* ``width``   — fraction of the linearly-arranged resource the task occupies,
  normalised so the full device has width 1 (``0 < width <= 1``);
* ``height``  — execution time of the task;
* ``release`` — earliest time (strip height) at which the task may start,
  ``0`` when the variant has no release times (Section 3 of the paper);
* ``rid``     — stable identifier used by placements and precedence DAGs.

Rectangles are immutable; the reductions of Section 3 (which raise release
times and widen widths) create *new* rectangles via :meth:`Rect.replace`,
preserving the one-to-one correspondence the paper's Lemmas 3.1-3.2 rely on
through the shared ``rid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInstanceError

__all__ = [
    "Rect",
    "arrival_order",
    "decreasing_height_order",
    "total_area",
    "max_height",
    "max_width",
    "check_rects",
]


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle / task.

    Parameters
    ----------
    rid:
        Identifier, unique within an instance.  Any hashable value works;
        generators use small integers.
    width:
        Resource requirement, in ``(0, 1]`` (strip width is normalised to 1).
    height:
        Duration; strictly positive.
    release:
        Release time ``r_s >= 0``; the base of the rectangle must satisfy
        ``y_s >= release`` in any valid placement.
    """

    rid: int | str
    width: float
    height: float
    release: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.width, (int, float)) and math.isfinite(self.width)):
            raise InvalidInstanceError(f"rect {self.rid!r}: width must be finite, got {self.width!r}")
        if not (isinstance(self.height, (int, float)) and math.isfinite(self.height)):
            raise InvalidInstanceError(f"rect {self.rid!r}: height must be finite, got {self.height!r}")
        if not math.isfinite(self.release):
            raise InvalidInstanceError(f"rect {self.rid!r}: release must be finite, got {self.release!r}")
        if self.width <= 0.0 or self.width > 1.0:
            raise InvalidInstanceError(
                f"rect {self.rid!r}: width must be in (0, 1], got {self.width!r}"
            )
        if self.height <= 0.0:
            raise InvalidInstanceError(
                f"rect {self.rid!r}: height must be positive, got {self.height!r}"
            )
        if self.release < 0.0:
            raise InvalidInstanceError(
                f"rect {self.rid!r}: release must be non-negative, got {self.release!r}"
            )

    @property
    def area(self) -> float:
        """Area ``width * height`` of the rectangle."""
        return self.width * self.height

    def replace(self, **changes: object) -> "Rect":
        """Return a copy with the given fields changed (keeps ``rid`` unless
        explicitly overridden) — used by the Section-3 reductions."""
        return _dc_replace(self, **changes)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r = f", r={self.release:g}" if self.release else ""
        return f"Rect({self.rid!r}, w={self.width:g}, h={self.height:g}{r})"


def arrival_order(rect: Rect) -> tuple[float, float, str]:
    """Sort key for processing tasks in release order.

    ``(release, -height, str(rid))``: arrivals by release time, taller
    tasks first within one release batch (the common OS policy: long jobs
    first when they arrive together), ids as the final deterministic
    tie-break.  The online simulator's streams and the release-aware
    packers share this one definition so their commit orders stay
    identical.
    """
    return (rect.release, -rect.height, str(rect.rid))


def decreasing_height_order(rects: Iterable[Rect]) -> list[Rect]:
    """Rectangles sorted for the decreasing-height packers (NFDH/FFDH/BFDH).

    Key ``(-height, -width, str(rid))``: tallest first, wider-first within
    a height tie, then ids as the final deterministic tie-break.  The id
    tie-break is *intentionally lexicographic on the string form* (so
    ``'10' < '9'`` and ids of mixed types compare uniformly) — it has been
    the packers' observable order since the seed and the differential
    suites pin it, so it must not be "fixed" to numeric order.
    """
    return sorted(rects, key=lambda r: (-r.height, -r.width, str(r.rid)))


def total_area(rects: Iterable[Rect]) -> float:
    """``AREA(S')`` from the paper: the sum of rectangle areas.

    This is one of the two elementary lower bounds on the optimal height used
    throughout Section 2 (the other being the critical-path bound ``F``).
    """
    return math.fsum(r.area for r in rects)


def max_height(rects: Iterable[Rect]) -> float:
    """Maximum rectangle height, 0 for an empty collection."""
    return max((r.height for r in rects), default=0.0)


def max_width(rects: Iterable[Rect]) -> float:
    """Maximum rectangle width, 0 for an empty collection."""
    return max((r.width for r in rects), default=0.0)


def check_rects(rects: Sequence[Rect]) -> Mapping[int | str, Rect]:
    """Validate a rectangle collection and return an id -> rect mapping.

    Raises
    ------
    InvalidInstanceError
        If two rectangles share a ``rid`` (each dataclass already validated
        its own fields on construction).
    """
    by_id: dict[int | str, Rect] = {}
    for r in rects:
        if r.rid in by_id:
            raise InvalidInstanceError(f"duplicate rectangle id {r.rid!r}")
        by_id[r.rid] = r
    return by_id
