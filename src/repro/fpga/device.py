"""Model of a dynamically reconfigurable FPGA with a linear column layout.

The paper's target (Virtex-II-style devices) reconfigures along one axis
only: a task occupies the device's full height and a *contiguous* range of
columns.  With ``K`` homogeneous columns the device is exactly a strip of
width 1 where admissible widths are multiples of ``1/K`` — the reason the
APTAS's width assumption ``w >= 1/K`` is natural.

:class:`Device` carries the column count plus an optional per-task
reconfiguration latency (the time to rewrite a column range's
configuration before the task can run — an extension knob beyond the
paper's model, 0 by default, documented in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import InvalidInstanceError
from ..core.instance import ReleaseInstance, StripPackingInstance

__all__ = ["Device", "quantize_width", "quantize_instance"]


@dataclass(frozen=True)
class Device:
    """A linearly reconfigurable device with ``K`` identical columns."""

    K: int
    reconfig_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.K <= 0:
            raise InvalidInstanceError(f"device needs a positive column count, got {self.K}")
        if self.reconfig_latency < 0.0:
            raise InvalidInstanceError("reconfiguration latency cannot be negative")

    @property
    def column_width(self) -> float:
        """Width of one column in normalised strip units."""
        return 1.0 / self.K

    def columns_for(self, width: float) -> int:
        """Number of columns a normalised width needs (rounded up)."""
        c = math.ceil(width * self.K - 1e-9)
        return max(1, c)

    def x_of_column(self, col: int) -> float:
        """Left edge of 0-based column ``col``."""
        if not 0 <= col < self.K:
            raise InvalidInstanceError(f"column {col} outside device 0..{self.K - 1}")
        return col / self.K

    def column_of_x(self, x: float) -> int:
        """Column index whose left edge is ``x`` (must be on the grid)."""
        c = x * self.K
        ci = round(c)
        if abs(c - ci) > 1e-6:
            raise InvalidInstanceError(f"x={x!r} is not on the 1/{self.K} column grid")
        if not 0 <= ci < self.K:
            raise InvalidInstanceError(f"x={x!r} outside the device")
        return int(ci)


def quantize_width(width: float, K: int) -> float:
    """Round a width up to the column grid (a task cannot occupy a partial
    column, so quantisation is always up)."""
    if not 0.0 < width <= 1.0 + 1e-12:
        raise InvalidInstanceError(f"width must be in (0,1], got {width!r}")
    c = math.ceil(width * K - 1e-9)
    return min(1.0, max(1, c) / K)


def quantize_instance(instance: StripPackingInstance, K: int) -> StripPackingInstance:
    """Round every width up to the ``1/K`` grid, preserving instance type.

    Quantised widths only grow, so any valid placement of the quantised
    instance is valid for the original; heights/releases are untouched.
    """
    new = [r.replace(width=quantize_width(r.width, K)) for r in instance.rects]
    from ..core.instance import PrecedenceInstance  # local to avoid cycle noise

    if isinstance(instance, PrecedenceInstance):
        return PrecedenceInstance(new, instance.dag)
    if isinstance(instance, ReleaseInstance):
        return ReleaseInstance(new, instance.K)
    return StripPackingInstance(new)
