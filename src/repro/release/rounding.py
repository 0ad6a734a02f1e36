"""Lemma 3.1 — bounding the number of distinct release times.

Given an error parameter ``eps_r`` let ``rmax = max_s r_s`` (a lower bound
on any solution, as some rectangle only starts then) and ``delta = eps_r *
rmax``.  The grid points are ``rho_j = j * delta``.  Two derived instances:

* ``P_down`` — each release rounded *down* to the grid;
* ``P_up``   — ``P_down`` shifted up by one grid step (rounded down, plus
  ``delta``).

Any solution of ``P_down`` lifts by ``delta`` to one of ``P_up`` and the
original releases are sandwiched between the two, giving::

    OPT_f(P_up) <= OPT_f(P) + delta = OPT_f(P) + eps_r * rmax <= (1 + eps_r) * OPT_f(P)

``P_up`` is the paper's ``P(R)``: at most ``R = ceil(1/eps_r)`` (+1 boundary
case) distinct positive release times, every release at or above the
original — so a valid placement for ``P_up`` is valid for ``P`` verbatim.

Algorithm 2 rounds the release *column* (:func:`rounded_release_column`)
and never builds ``P(R)`` as objects; :func:`round_releases_up` wraps the
same column in a :class:`~repro.core.instance.ReleaseInstance`.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import tol
from ..core.errors import InvalidInstanceError
from ..core.instance import ReleaseInstance

__all__ = [
    "round_releases_up",
    "round_releases_down",
    "release_grid",
    "rounded_release_column",
    "with_column",
]


def release_grid(instance: ReleaseInstance, eps_r: float) -> float:
    """The grid step ``delta = eps_r * rmax`` (0 when all releases are 0)."""
    if eps_r <= 0.0:
        raise InvalidInstanceError(f"eps_r must be positive, got {eps_r}")
    release = instance.arrays().release
    return eps_r * (float(release.max()) if len(release) else 0.0)


def round_releases_down(instance: ReleaseInstance, eps_r: float) -> ReleaseInstance:
    """The ``P_down`` instance: releases rounded down to the grid.

    Release values become ``delta * floor(r / delta)``; dimensions and ids
    are untouched, preserving the paper's one-to-one correspondence.
    """
    delta = release_grid(instance, eps_r)
    if delta == 0.0:
        return instance
    rects = [
        r.replace(release=delta * math.floor(r.release / delta + tol.ATOL))
        for r in instance.rects
    ]
    return instance.with_rects(rects)


def rounded_release_column(instance: ReleaseInstance, eps_r: float) -> np.ndarray:
    """The ``P(R)`` releases of Lemma 3.1, in row order.

    ``delta * (np.floor(r / delta + ATOL) + 1.0)`` performs the same IEEE
    operations as the scalar ``math.floor`` form, so every value equals
    the object pipeline's bit for bit.  When all releases are zero the
    instance's own release column is returned (there is nothing to round).
    """
    release = instance.arrays().release
    delta = release_grid(instance, eps_r)
    if delta == 0.0:
        return release
    out = delta * (np.floor(release / delta + tol.ATOL) + 1.0)
    n_distinct = len(np.unique(out))
    budget = math.ceil(1.0 / eps_r) + 1
    assert n_distinct <= budget, (
        f"rounding produced {n_distinct} release values > budget {budget}"
    )
    return out


def with_column(instance: ReleaseInstance, field: str, column: np.ndarray) -> ReleaseInstance:
    """``instance`` with ``field`` (``"width"`` or ``"release"``) of row
    ``i`` replaced by ``column[i]`` — ids, order and ``K`` kept; the
    instance itself when ``column`` is its own column."""
    if column is getattr(instance.arrays(), field):
        return instance
    return instance.with_rects(
        [r.replace(**{field: v}) for r, v in zip(instance.rects, column.tolist())]
    )


def round_releases_up(instance: ReleaseInstance, eps_r: float) -> ReleaseInstance:
    """The ``P_up`` = ``P(R)`` instance of Lemma 3.1.

    Every release becomes ``delta * (floor(r / delta) + 1)`` — strictly above
    the original, on the grid, with at most ``ceil(1/eps_r) + 1`` distinct
    values.  When all releases are zero the instance is returned unchanged
    (there is nothing to round and zero remains a valid release).
    """
    return with_column(instance, "release", rounded_release_column(instance, eps_r))
