"""Algorithm 2 — the asymptotic PTAS for strip packing with release times.

Pipeline (Theorem 3.5), for input instance ``P`` and error ``eps``::

    eps' = eps / 3
    R    = ceil(1 / eps')                     # release-time budget
    W    = ceil(1 / eps') * K * (R + 1)       # width budget
    P(R)    = round_releases_up(P, eps')      # Lemma 3.1
    P(R,W)  = group_widths(P(R), W)           # Lemma 3.2
    x*      = configuration LP on P(R,W)      # Lemma 3.3
    S(R,W)  = integralize(x*)                 # Lemma 3.4

yielding ``S(R,W) <= (1 + eps) * OPT_f(P) + (W + 1)(R + 1)``.  Because the
reductions only *raise* releases and *widen* widths while preserving ids,
``S(R,W)``'s coordinates are reused verbatim for the original rectangles,
giving a valid solution of ``P``.

The theoretical ``W`` grows like ``K / eps^2`` and the configuration count
is exponential in ``K``; the implementation computes the faithful defaults
but accepts explicit ``R``/``W`` overrides so experiments can chart quality
against budget on tractable sizes (the standard engineering
parameterization for APTAS reproductions — see DESIGN.md).  ``W`` is always
snapped to a feasible multiple of the realised number of release classes.

The pipeline runs on the columns of ``instance.arrays()`` from start to
finish: rounding, grouping, the LP rows and the integral fill are
computations over row indices that end in one
:class:`~repro.core.arrays.PlacementBuilder` over the original rectangles.
``P(R)``, ``P(R,W)`` and ``S(R,W)`` as objects — :attr:`APTASResult.rounded`,
:attr:`APTASResult.grouping` and :attr:`APTASResult.integral` — are built
only when first read; only tests and experiments read them.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..core.errors import InvalidInstanceError
from ..core.instance import ReleaseInstance
from .fractional import FractionalSolution
from .grouping import GroupingResult, RowGrouping, group_rows
from .integralize import IntegralizeResult, fill_columns
from .lp import solve_columns
from .rounding import rounded_release_column, with_column

__all__ = ["APTASResult", "aptas_parameters", "aptas"]


class APTASResult:
    """Everything Algorithm 2 produced, end to end.

    ``placement`` is the final solution *of the original instance* and
    ``fractional`` the LP solution on ``P(R,W)``.  The intermediate
    artifacts the experiments verify each lemma's inequality on —
    ``rounded`` (``P(R)``), ``grouping`` (``P(R,W)`` and its trace) and
    ``integral`` (``S(R,W)``) — are built from the row-level results on
    first access.
    """

    def __init__(
        self,
        instance: ReleaseInstance,
        eps: float,
        R: int,
        W: int,
        release: np.ndarray,
        rows: RowGrouping,
        fractional: FractionalSolution,
        fill: IntegralizeResult,
    ):
        self.placement = fill.placement
        self.height = self.placement.height
        self.eps = eps
        self.R = R
        self.W = W
        self.fractional = fractional
        self._instance = instance
        self._release = release
        self._rows = rows
        self._fill = fill

    @cached_property
    def rounded(self) -> ReleaseInstance:
        """``P(R)``: the instance itself when rounding changed nothing."""
        return with_column(self._instance, "release", self._release)

    @cached_property
    def grouping(self) -> GroupingResult:
        return GroupingResult(self._rows, self.rounded)

    @cached_property
    def integral(self) -> IntegralizeResult:
        return self._fill.over(self.grouping.instance)

    @property
    def additive_budget(self) -> float:
        """The Theorem 3.5 additive term ``(W + 1) * (R + 1)`` — with the
        realised occurrence count (<= the bound) available via
        ``integral.n_occurrences``."""
        return (self.W + 1) * (self.R + 1)


def aptas_parameters(eps: float, K: int) -> tuple[int, int]:
    """The faithful Algorithm-2 parameters ``(R, W)`` for error ``eps``."""
    if not 0.0 < eps < math.inf:
        raise InvalidInstanceError(f"eps must be positive and finite, got {eps}")
    eps_prime = eps / 3.0
    R = math.ceil(1.0 / eps_prime)
    W = math.ceil(1.0 / eps_prime) * K * (R + 1)
    return R, W


def aptas(
    instance: ReleaseInstance,
    eps: float,
    *,
    W: int | None = None,
    groups_per_class: int | None = None,
    max_configs: int = 500_000,
) -> APTASResult:
    """Run Algorithm 2 on ``instance`` with error parameter ``eps``.

    Parameters
    ----------
    instance:
        Must satisfy the standard assumptions (``h <= 1``, ``w >= 1/K``);
        checked up front.
    eps:
        Target asymptotic error; ``eps' = eps/3`` drives both reductions.
    W:
        Optional explicit width budget (snapped up to a multiple of the
        realised release-class count).  Default: the faithful
        ``ceil(1/eps') * K * (R+1)``.
    groups_per_class:
        Alternative to ``W``: directly set ``G = W / n_classes``.
    max_configs:
        Safety cap on configuration enumeration (raises, never truncates).
    """
    instance.check_aptas_assumptions()
    eps_prime = eps / 3.0
    R_budget, W_default = aptas_parameters(eps, instance.K)
    arrays = instance.arrays()

    # Lemma 3.1 — at most ceil(1/eps') (+1) distinct release times.
    release = rounded_release_column(instance, eps_prime)
    n_classes = max(1, len(np.unique(release)))

    # Lemma 3.2 — width budget, snapped to a multiple of the class count.
    if groups_per_class is not None:
        if groups_per_class <= 0:
            raise InvalidInstanceError("groups_per_class must be positive")
        W_eff = groups_per_class * n_classes
    else:
        W_req = W if W is not None else W_default
        W_eff = max(n_classes, (W_req // n_classes) * n_classes)
        if W_eff < W_req:
            W_eff += n_classes
    rows = group_rows(arrays, release, W_eff)

    # Lemma 3.3 — configuration LP on P(R,W).
    fractional, wi, bj = solve_columns(
        rows.width, arrays.height, release, max_configs=max_configs
    )

    # Lemma 3.4 — integral conversion.  Coordinates go straight to the
    # original rectangles (same rows): the grouped rectangle at (x, y) is
    # wider and later-released than the original, so the original fits at
    # the same spot.
    fill = fill_columns(fractional, rows.width, arrays, wi, bj)

    return APTASResult(instance, eps, R_budget, W_eff, release, rows, fractional, fill)
