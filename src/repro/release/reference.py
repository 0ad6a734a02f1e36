"""Reference Algorithm 2 — the object pipeline, the executable specification.

This module preserves, verbatim, the pre-columnar Section-3 pipeline the
APTAS ran on ``Rect`` objects and ``ReleaseInstance`` copies:

* :func:`reference_round_releases_up` — Lemma 3.1 rounding, one
  ``Rect.replace`` per rectangle;
* :func:`reference_group_widths` — Lemma 3.2 grouping: a walk over a list
  of ``G`` cut heights per class, plus the ``P_sup``/``P_inf`` staircases
  built eagerly through ``Stacking.width_at`` scans;
* :func:`reference_build_demands`, :func:`reference_solve_configuration_lp`
  and :func:`reference_solve_fractional` — the Lemma 3.3 demand matrix and
  LP, assembled row by row in Python;
* :func:`reference_integralize` — Lemma 3.4 over ``Rect`` pools;
* :func:`reference_aptas` — the whole of Theorem 3.5, every artifact eager.

``tests/test_release_differential.py`` runs the production modules
(:mod:`repro.release.rounding`, ``grouping``, ``lp``, ``integralize`` and
``aptas``) and these over the same instances, and requires identical
placements (ids, coordinates and insertion order), LP solutions and
intermediate artifacts.  Do not optimize this module — its only job is to
be obviously correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..core import tol
from ..core.errors import InvalidInstanceError, SolverError
from ..core.instance import ReleaseInstance
from ..core.placement import Placement
from ..core.rectangle import Rect
from ..geometry.stacking import Stacking, stack
from .aptas import aptas_parameters
from .configurations import ConfigurationSet, enumerate_configurations
from .fractional import FractionalSolution
from .integralize import ColumnFill

__all__ = [
    "ReferenceGroupedClass",
    "ReferenceGroupingResult",
    "ReferenceIntegralizeResult",
    "ReferenceAPTASResult",
    "reference_round_releases_up",
    "reference_group_widths",
    "reference_phase_boundaries",
    "reference_build_demands",
    "reference_solve_configuration_lp",
    "reference_solve_fractional",
    "reference_integralize",
    "reference_aptas",
]


def reference_round_releases_up(instance: ReleaseInstance, eps_r: float) -> ReleaseInstance:
    """``P(R)`` of Lemma 3.1, one replaced ``Rect`` per rectangle."""
    if eps_r <= 0.0:
        raise InvalidInstanceError(f"eps_r must be positive, got {eps_r}")
    delta = eps_r * instance.rmax
    if delta == 0.0:
        return instance
    rects = [
        r.replace(release=delta * (math.floor(r.release / delta + tol.ATOL) + 1))
        for r in instance.rects
    ]
    out = instance.with_rects(rects)
    n_distinct = len({r.release for r in out.rects})
    budget = math.ceil(1.0 / eps_r) + 1
    assert n_distinct <= budget, (
        f"rounding produced {n_distinct} release values > budget {budget}"
    )
    return out


@dataclass(frozen=True)
class ReferenceGroupedClass:
    """Grouping outcome for one release class (every field eager)."""

    release: float
    stacking: Stacking
    thresholds: tuple[float, ...]
    group_of: dict

    @property
    def n_groups(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class ReferenceGroupingResult:
    """Outcome of the Lemma 3.2 reduction (every field eager)."""

    instance: ReleaseInstance
    classes: tuple[ReferenceGroupedClass, ...]
    sup_rects: tuple[Rect, ...]
    inf_rects: tuple[Rect, ...]

    @property
    def n_distinct_widths(self) -> int:
        return len({r.width for r in self.instance.rects})


def reference_group_widths(instance: ReleaseInstance, W: int) -> ReferenceGroupingResult:
    """Lemma 3.2 grouping by walking a list of ``G`` cut heights per class."""
    classes = instance.release_classes()
    n_classes = max(1, len(classes))
    if W <= 0 or W % n_classes != 0:
        raise InvalidInstanceError(
            f"W must be a positive multiple of the number of release classes "
            f"({n_classes}), got {W}"
        )
    G = W // n_classes

    new_rects: dict = {}
    grouped: list[ReferenceGroupedClass] = []
    sup_rects: list[Rect] = []
    inf_rects: list[Rect] = []

    for ci, (release, rects) in enumerate(classes.items()):
        st = stack(rects)
        H = st.height
        # Stacking order mirrors geometry.stacking.stack's deterministic sort.
        ordered = sorted(rects, key=lambda r: (-r.width, -r.height, str(r.rid)))
        cuts = [ell * H / G for ell in range(G)]
        # Walk the stack bottom-up; a rectangle is a threshold if any cut
        # line lands in [base, base + h) — interior or exactly at its base.
        thresholds: list[float] = []
        group_of: dict = {}
        y = 0.0
        cut_idx = 0
        for r in ordered:
            is_threshold = False
            while cut_idx < len(cuts) and tol.lt(cuts[cut_idx], y + r.height):
                # cut falls below the rectangle's top; if at/above its base
                # the rectangle is a threshold.
                if tol.geq(cuts[cut_idx], y):
                    is_threshold = True
                cut_idx += 1
            if is_threshold or not thresholds:
                thresholds.append(r.width)
            group_of[r.rid] = len(thresholds) - 1
            y += r.height
        for r in ordered:
            w_new = thresholds[group_of[r.rid]]
            assert tol.geq(w_new, r.width), "grouping must round widths up"
            new_rects[r.rid] = r.replace(width=min(1.0, w_new))
        grouped.append(
            ReferenceGroupedClass(
                release=release,
                stacking=st,
                thresholds=tuple(thresholds),
                group_of=group_of,
            )
        )
        # P_sup / P_inf staircases: G slabs of height H/G; widths w_{i,l}
        # (sup) vs w_{i,l+1} with w_{i,G} = 0 (inf -> slab omitted).
        if H > 0.0:
            # Slab widths come from the stacking's width profile at the cut
            # heights: sup slab l covers [c_l, c_{l+1}) at the profile value
            # of its *bottom* (over-approximation), inf at its *top*
            # (under-approximation; the top of the last slab is H, width 0).
            slab_h = H / G
            for ell in range(G):
                w_sup = st.width_at(cuts[ell])
                sup_rects.append(
                    Rect(rid=f"sup:{ci}:{ell}", width=w_sup, height=slab_h, release=release)
                )
                w_inf = st.width_at(cuts[ell + 1]) if ell + 1 < G else 0.0
                if w_inf > 0.0:
                    inf_rects.append(
                        Rect(rid=f"inf:{ci}:{ell}", width=w_inf, height=slab_h, release=release)
                    )

    out = instance.with_rects([new_rects[r.rid] for r in instance.rects])
    result = ReferenceGroupingResult(
        instance=out,
        classes=tuple(grouped),
        sup_rects=tuple(sup_rects),
        inf_rects=tuple(inf_rects),
    )
    if result.n_distinct_widths > W:
        raise AssertionError(
            f"grouping produced {result.n_distinct_widths} widths > budget {W}"
        )
    return result


def reference_phase_boundaries(instance: ReleaseInstance) -> tuple[float, ...]:
    """Phase starts: ``rho_0 = 0`` plus every distinct release value."""
    values = sorted({r.release for r in instance.rects})
    if not values or values[0] > 0.0:
        values = [0.0] + values
    return tuple(values)


def reference_build_demands(
    instance: ReleaseInstance,
    widths: tuple[float, ...],
    boundaries: tuple[float, ...],
) -> np.ndarray:
    """The demand matrix ``b^i_j``, one ``+=`` per rectangle."""
    W, P = len(widths), len(boundaries)
    demands = np.zeros((W, P))
    w_index = {round(w, 12): i for i, w in enumerate(widths)}
    b_index = {round(b, 12): j for j, b in enumerate(boundaries)}
    for r in instance.rects:
        wi = w_index.get(round(r.width, 12))
        if wi is None:
            raise SolverError(f"rect {r.rid!r}: width {r.width!r} not in the LP width list")
        bj = b_index.get(round(r.release, 12))
        if bj is None:
            raise SolverError(f"rect {r.rid!r}: release {r.release!r} not a phase boundary")
        demands[wi, bj] += r.height
    return demands


def reference_solve_configuration_lp(
    config_set: ConfigurationSet,
    boundaries: tuple[float, ...],
    demands: np.ndarray,
) -> FractionalSolution:
    """The Lemma 3.3 LP with its constraint rows assembled one by one."""
    Q = config_set.Q
    P = len(boundaries)
    W = len(config_set.widths)
    if demands.shape != (W, P):
        raise SolverError(f"demands shape {demands.shape} != ({W}, {P})")
    if Q == 0:
        raise SolverError("empty configuration set")
    n = Q * P  # variable layout: x[q, j] at index q * P + j

    c = np.zeros(n)
    c[np.arange(Q) * P + (P - 1)] = 1.0  # minimise phase-R usage

    A_rows: list[np.ndarray] = []
    b_vals: list[float] = []

    # (3.3) packing constraints for phases 0..P-2.
    for j in range(P - 1):
        row = np.zeros(n)
        row[np.arange(Q) * P + j] = 1.0
        A_rows.append(row)
        b_vals.append(boundaries[j + 1] - boundaries[j])

    # (3.4) covering constraints: -(suffix supply) <= -(suffix demand).
    A_mat = config_set.matrix  # (W, Q)
    for k in range(P):
        for i in range(W):
            row = np.zeros(n)
            for j in range(k, P):
                row[np.arange(Q) * P + j] -= A_mat[i, :]
            A_rows.append(row)
            b_vals.append(-float(demands[i, k:].sum()))

    A_ub = np.vstack(A_rows) if A_rows else None
    b_ub = np.array(b_vals) if b_vals else None

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverError(f"configuration LP failed: {res.message}")

    x = np.maximum(res.x, 0.0).reshape(Q, P)
    sol = FractionalSolution(
        config_set=config_set,
        boundaries=tuple(boundaries),
        x=x,
        demands=demands,
    )
    sol.verify()
    return sol


def reference_solve_fractional(
    instance: ReleaseInstance,
    *,
    max_configs: int = 500_000,
) -> FractionalSolution:
    """Configurations over the instance's distinct widths, demands, LP."""
    widths = tuple(sorted({r.width for r in instance.rects}, reverse=True))
    config_set = enumerate_configurations(widths, max_configs=max_configs)
    boundaries = reference_phase_boundaries(instance)
    demands = reference_build_demands(instance, config_set.widths, boundaries)
    return reference_solve_configuration_lp(config_set, boundaries, demands)


@dataclass
class ReferenceIntegralizeResult:
    """Integral packing plus the per-column trace (every field eager)."""

    placement: Placement
    columns: list[ColumnFill] = field(default_factory=list)
    n_occurrences: int = 0

    @property
    def height(self) -> float:
        return self.placement.height


def reference_integralize(
    solution: FractionalSolution,
    instance: ReleaseInstance,
) -> ReferenceIntegralizeResult:
    """Lemma 3.4 over per-width, per-phase pools of ``Rect`` objects."""
    widths = solution.config_set.widths
    boundaries = solution.boundaries
    w_index = {round(w, 12): i for i, w in enumerate(widths)}
    b_index = {round(b, 12): j for j, b in enumerate(boundaries)}

    # Pools: per width index, rectangles grouped by release phase.
    pools: dict[int, dict[int, list[Rect]]] = {i: {} for i in range(len(widths))}
    for r in instance.rects:
        wi = w_index.get(round(r.width, 12))
        bj = b_index.get(round(r.release, 12))
        if wi is None or bj is None:
            raise SolverError(
                f"rect {r.rid!r} (w={r.width}, r={r.release}) does not match the LP "
                "width/boundary structure — run the reductions first"
            )
        pools[wi].setdefault(bj, []).append(r)
    # Deterministic pop order: tallest first within a release class.
    for wi in pools:
        for bj in pools[wi]:
            pools[wi][bj].sort(key=lambda r: (r.height, str(r.rid)))  # pop() = tallest

    support = solution.support()  # (phase, config, height), ascending phase

    # 1. assign rectangles to columns, phases descending, latest release first.
    assignments: dict[tuple[int, int, int, int], list[Rect]] = {}

    def take(wi: int, max_phase: int) -> Rect | None:
        """Pop the available width-``wi`` rectangle with the latest release
        <= phase ``max_phase`` (then tallest)."""
        classes = pools[wi]
        for bj in sorted(classes, reverse=True):
            if bj <= max_phase and classes[bj]:
                return classes[bj].pop()
        return None

    for j, q, h in sorted(support, key=lambda t: -t[0]):
        counts = solution.config_set.configs[q].counts
        for wi, cnt in enumerate(counts):
            for occ in range(cnt):
                filled = 0.0
                got: list[Rect] = []
                while tol.lt(filled, h):
                    r = take(wi, j)
                    if r is None:
                        break
                    got.append(r)
                    filled += r.height
                assignments[(j, q, wi, occ)] = got

    leftover = sum(len(v) for cls in pools.values() for v in cls.values())
    if leftover:
        raise SolverError(
            f"{leftover} rectangles unassigned after greedy fill — covering "
            "constraints of the fractional solution do not hold"
        )

    # 2. realise the placement bottom-up, expanding reserved areas.
    result = ReferenceIntegralizeResult(placement=Placement())
    result.n_occurrences = len(support)
    cur_top = 0.0
    for j, q, h in support:  # ascending phase, stable config order
        y0 = max(boundaries[j], cur_top)
        counts = solution.config_set.configs[q].counts
        x_cursor = 0.0
        occ_top = y0
        for wi, cnt in enumerate(counts):
            for occ in range(cnt):
                col_rects = assignments.get((j, q, wi, occ), [])
                y = y0
                for r in col_rects:
                    result.placement.place(r, tol.clamp(x_cursor, 0.0, 1.0 - r.width), y)
                    y += r.height
                result.columns.append(
                    ColumnFill(
                        phase=j,
                        config=q,
                        width_index=wi,
                        capacity=h,
                        rects=tuple(col_rects),
                    )
                )
                occ_top = max(occ_top, y)
                x_cursor += widths[wi]
        if tol.gt(x_cursor, 1.0):
            raise SolverError(f"configuration {q} wider than the strip: {x_cursor}")
        cur_top = occ_top
    return result


@dataclass(frozen=True)
class ReferenceAPTASResult:
    """Everything Algorithm 2 produced, every artifact eager."""

    placement: Placement
    height: float
    eps: float
    R: int
    W: int
    rounded: ReleaseInstance
    grouping: ReferenceGroupingResult
    fractional: FractionalSolution
    integral: ReferenceIntegralizeResult


def reference_aptas(
    instance: ReleaseInstance,
    eps: float,
    *,
    W: int | None = None,
    groups_per_class: int | None = None,
    max_configs: int = 500_000,
) -> ReferenceAPTASResult:
    """Algorithm 2 through the object pipeline above."""
    instance.check_aptas_assumptions()
    eps_prime = eps / 3.0
    R_budget, W_default = aptas_parameters(eps, instance.K)

    rounded = reference_round_releases_up(instance, eps_prime)
    n_classes = max(1, len({r.release for r in rounded.rects}))

    if groups_per_class is not None:
        if groups_per_class <= 0:
            raise InvalidInstanceError("groups_per_class must be positive")
        W_eff = groups_per_class * n_classes
    else:
        W_req = W if W is not None else W_default
        W_eff = max(n_classes, (W_req // n_classes) * n_classes)
        if W_eff < W_req:
            W_eff += n_classes
    grouping = reference_group_widths(rounded, W_eff)

    fractional = reference_solve_fractional(grouping.instance, max_configs=max_configs)
    integral = reference_integralize(fractional, grouping.instance)

    by_id = instance.by_id()
    placement = Placement()
    for rid, pr in integral.placement.items():
        placement.place(by_id[rid], pr.x, pr.y)

    return ReferenceAPTASResult(
        placement=placement,
        height=placement.height,
        eps=eps,
        R=R_budget,
        W=W_eff,
        rounded=rounded,
        grouping=grouping,
        fractional=fractional,
        integral=integral,
    )
