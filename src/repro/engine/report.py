"""The instrumented result of one engine run.

A :class:`SolveReport` carries everything a benchmark table, a serving
layer, or a portfolio tie-break needs: the placement itself, wall-clock
time of the solver call (validation and bound computation excluded), the
elementary lower bounds, the achieved/lower-bound ratio, and the outcome
of validation.  Call sites that used to re-derive these per benchmark now
read them off the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.placement import Placement

__all__ = ["SolveReport"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of solving one instance with one algorithm.

    ``valid`` is ``True``/``False`` after validation, ``None`` when the
    caller skipped it.  A failed run (portfolio racing catches solver
    errors) has ``placement=None``, ``height=inf`` and ``error`` set, so
    ``min(reports, key=...)`` naturally never picks it.
    """

    algorithm: str
    variant: str
    n: int
    params: Mapping[str, Any] = field(default_factory=dict)
    placement: Placement | None = None
    height: float = math.inf
    wall_time: float = 0.0
    lower_bound: float | None = None
    bounds: Mapping[str, float] = field(default_factory=dict)
    valid: bool | None = None
    error: str | None = None
    label: str = ""
    #: How the placement was obtained: ``"cold"`` (full solve), ``"warm"``
    #: (delta repair of a cached neighbor placement, see
    #: :mod:`repro.engine.warmstart`), or ``"cached"`` (verbatim reuse of a
    #: cached placement for an identical instance).
    provenance: str = "cold"

    @property
    def ok(self) -> bool:
        """Ran to completion and (if checked) validated."""
        return self.error is None and self.valid is not False

    @property
    def ratio(self) -> float | None:
        """Achieved height over the combined lower bound (``None`` when the
        bound was not computed, is non-positive, or the run failed)."""
        if self.error is not None or self.lower_bound is None or self.lower_bound <= 0:
            return None
        return self.height / self.lower_bound

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (placement omitted — serialize it separately)."""
        return {
            "algorithm": self.algorithm,
            "variant": self.variant,
            "n": self.n,
            "params": dict(self.params),
            "height": self.height,
            "wall_time": self.wall_time,
            "lower_bound": self.lower_bound,
            "bounds": dict(self.bounds),
            "ratio": self.ratio,
            "valid": self.valid,
            "error": self.error,
            "label": self.label,
            "provenance": self.provenance,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "error" if self.error else ("unchecked" if self.valid is None else "valid" if self.valid else "INVALID")
        return (
            f"SolveReport({self.algorithm}, n={self.n}, height={self.height:.4g}, "
            f"t={self.wall_time:.4g}s, {status})"
        )
