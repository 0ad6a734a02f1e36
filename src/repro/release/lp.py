"""The Lemma 3.3 linear program, assembled and solved with HiGHS.

Variables ``x[q][j]`` (height of configuration ``q`` in phase ``j``),
objective ``min sum_q x[q][R]``, constraints:

* packing (3.3): ``sum_q x[q][j] <= rho_{j+1} - rho_j`` for ``j < R``
  (phase ``R`` is unbounded above);
* covering (3.4): for every suffix ``k`` and width ``i``:
  ``sum_{j>=k} (A . X_j)_i >= sum_{j>=k} b^i_j``;
* non-negativity.

HiGHS's simplex returns a *basic* optimal solution, so the support-size
bound of Lemma 3.3 — at most ``(W + 1) * (R + 1)`` distinct occurrences of
configurations — holds for the solution object and is asserted in tests.

The module also derives the phase boundaries and demand matrix from an
instance, and exposes :func:`optimal_fractional_height` — the quantity
``OPT_f(P(R,W)) = rho_R + LP*`` that upper- and lower-bounds everything in
Section 3's analysis chain.

Everything runs on columns: :func:`solve_columns` takes the width, height
and release columns of ``P(R,W)`` (Algorithm 2 never builds that instance)
and also returns each row's width and phase index, which Lemma 3.4 reuses;
the public functions are adapters that read ``instance.arrays()``.

The LP goes to HiGHS through the bindings scipy ships
(``scipy.optimize._highspy._core``), the ones scipy's own
``method="highs"`` LP front-end calls: the same CSC model and option set,
on a fresh solver per solve, so ``x`` is bit for bit the one
:mod:`repro.release.reference` gets from that front-end (the reference
keeps the call as the executable specification).  The extension is loaded
alone, from its file under scipy's package directory.  Reaching it through
the ``optimize`` package would also load scipy's ``sparse``, ``linalg`` and
``special`` subpackages: ~40 MB of RSS and ~0.5 s in a serving process on
a 2-CPU host, against ~3.5 MB and ~15 ms for the extension by itself.  It
is registered under its full name, so a later import of scipy's LP
front-end reuses it rather than loading it twice.

The LP's fixed part — the configuration set, the objective and the CSC
constraint arrays — depends only on the distinct widths, the phase count
and ``max_configs``, so two one-entry memos keep the last one and a solve
on a repeated structure builds only its right-hand side.  An entry holds
no more than the last solve allocated (~45 KB for 8 widths and 5 phases)
and memoizes a pure function of immutable inputs, so no answer depends on
request history.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np
import scipy

from ..core.errors import SolverError
from ..core.instance import ReleaseInstance
from .configurations import ConfigurationSet, enumerate_configurations
from .fractional import FractionalSolution

__all__ = [
    "phase_boundaries",
    "build_demands",
    "match_rows",
    "first_unmatched_row",
    "solve_columns",
    "solve_configuration_lp",
    "solve_fractional",
    "optimal_fractional_height",
]

#: The full name scipy imports its HiGHS extension under.
_HIGHS_NAME = "scipy.optimize._highspy._core"


def _load_highs(directory: str) -> ModuleType:
    """scipy's HiGHS extension: the module already imported under
    :data:`_HIGHS_NAME`, else the ``_core`` extension file in ``directory``,
    loaded by itself and registered under that name."""
    module = sys.modules.get(_HIGHS_NAME)
    if module is not None:
        return module
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(_HIGHS_NAME)
    if spec is None:
        raise ImportError(
            f"scipy {scipy.__version__} has no HiGHS extension '_core' in {directory}; "
            "the release-time APTAS needs scipy>=1.15"
        )
    module = module_from_spec(spec)
    sys.modules[_HIGHS_NAME] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_NAME]
        raise
    return module


highs = _load_highs(os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy"))


def _phase_starts(release: np.ndarray) -> tuple[float, ...]:
    """``rho_0 = 0`` plus every distinct value of the release column
    (each value as its first row holds it, like a ``set`` would keep)."""
    _, first = np.unique(release, return_index=True)
    values = release[first].tolist()
    if not values or values[0] > 0.0:
        values = [0.0] + values
    return tuple(values)


def phase_boundaries(instance: ReleaseInstance) -> tuple[float, ...]:
    """Phase starts: ``rho_0 = 0`` plus every distinct release value."""
    return _phase_starts(instance.arrays().release)


def match_rows(column: np.ndarray, values: Sequence[float]) -> np.ndarray:
    """Per row, the index of the entry of ``values`` the row's value
    matches on the 12-decimal key ``round(v, 12)`` (``-1`` for none).

    The keys are computed once per *distinct* column value, with Python's
    ``round`` (a later entry of ``values`` wins a key collision, as in a
    dict built in order).
    """
    index = {round(v, 12): i for i, v in enumerate(values)}
    distinct, inverse = np.unique(column, return_inverse=True)
    per_value = np.array(
        [index.get(round(v, 12), -1) for v in distinct.tolist()], dtype=np.intp
    )
    return per_value[inverse]


def first_unmatched_row(*indices: np.ndarray) -> int | None:
    """The first row some index column leaves unmatched, or ``None``."""
    bad = np.zeros(len(indices[0]), dtype=bool)
    for idx in indices:
        bad |= idx < 0
    return int(bad.argmax()) if bad.any() else None


def _demand_matrix(wi: np.ndarray, bj: np.ndarray, height: np.ndarray, shape) -> np.ndarray:
    """``b^i_j``: heights summed per (width, phase), in row order."""
    demands = np.zeros(shape)
    np.add.at(demands, (wi, bj), height)
    return demands


def build_demands(
    instance: ReleaseInstance,
    widths: tuple[float, ...],
    boundaries: tuple[float, ...],
) -> np.ndarray:
    """The demand matrix ``b^i_j``: summed heights of rectangles of width
    ``widths[i]`` released at ``boundaries[j]``.

    Every rectangle must match a width and a boundary exactly (the grouping
    and rounding reductions guarantee this); a mismatch raises
    :class:`SolverError` — it means the caller skipped a reduction.
    """
    arrays = instance.arrays()
    wi = match_rows(arrays.width, widths)
    bj = match_rows(arrays.release, boundaries)
    row = first_unmatched_row(wi, bj)
    if row is not None:
        r = arrays.rects[row]
        if wi[row] < 0:
            raise SolverError(f"rect {r.rid!r}: width {r.width!r} not in the LP width list")
        raise SolverError(f"rect {r.rid!r}: release {r.release!r} not a phase boundary")
    return _demand_matrix(wi, bj, arrays.height, (len(widths), len(boundaries)))


class _Skeleton(NamedTuple):
    """The LP's fixed part for one configuration set and phase count: the
    objective and ``A_ub`` in CSC form, all read-only arrays."""

    c: np.ndarray
    start: np.ndarray  # CSC column pointers
    index: np.ndarray  # CSC row indices
    value: np.ndarray  # CSC coefficients


def _build_skeleton(A_mat: np.ndarray, P: int) -> _Skeleton:
    """The objective and ``A_ub`` over ``P`` phases for the occurrence
    matrix ``A_mat`` (shape ``(W, Q)``).

    Variable layout: ``x[q, j]`` at index ``q * P + j``.  The CSC arrays
    are built with numpy and equal, values and dtypes alike, the
    ``csc_array`` scipy's LP front-end converts the dense ``A_ub`` to: the
    nonzeros column by column, rows ascending within a column, with
    ``int32`` pointers and row indices.
    """
    W, Q = A_mat.shape
    n = Q * P
    c = np.zeros(n)
    c[np.arange(Q) * P + (P - 1)] = 1.0  # minimise phase-R usage

    # One dense row per constraint: P-1 packing rows, then P*W covering
    # rows in (k, i) order.  Built as zeros minus entries, so every
    # coefficient equals the one a row-by-row ``-=`` assembly would hold.
    A_ub = np.zeros((P - 1 + P * W, n))
    phases = np.arange(P)

    # (3.3) packing constraints for phases 0..P-2: row j sums x[:, j].
    packing = A_ub[: P - 1].reshape(P - 1, Q, P)
    packing[phases[:-1], :, phases[:-1]] = 1.0

    # (3.4) covering constraints: -(suffix supply) <= -(suffix demand);
    # row (k, i) holds -A[i, q] at x[q, j] for every j >= k.
    suffix = phases[None, :] >= phases[:, None]  # [k, j]
    A_ub[P - 1 :] = np.where(
        suffix[:, None, None, :], 0.0 - A_mat[None, :, :, None], 0.0
    ).reshape(P * W, n)

    columns, rows = np.nonzero(A_ub.T)
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(columns, minlength=n), out=start[1:])
    skeleton = _Skeleton(c, start, rows.astype(np.int32), A_ub[rows, columns])
    for array in skeleton:
        array.setflags(write=False)
    return skeleton


# The two one-entry memos of the module docstring.  Each entry is one
# tuple, read once and replaced whole, so a concurrent solve sees an old or
# a new entry, never a mix; two racing misses at worst build it twice.
_last_configurations: tuple[tuple, ConfigurationSet] | None = None
_last_skeleton: tuple[ConfigurationSet, int, _Skeleton] | None = None


def _configurations(widths: tuple[float, ...], max_configs: int) -> ConfigurationSet:
    """``enumerate_configurations(widths, max_configs=max_configs)`` for the
    last key seen.  The cap is part of the key: it decides whether the
    enumeration raises."""
    global _last_configurations
    key = (widths, max_configs)
    last = _last_configurations
    if last is not None and last[0] == key:
        return last[1]
    config_set = enumerate_configurations(widths, max_configs=max_configs)
    _last_configurations = (key, config_set)
    return config_set


def _skeleton(config_set: ConfigurationSet, P: int) -> _Skeleton:
    """The LP's fixed part for the last set (by identity: the entry keeps
    it alive) and phase count seen."""
    global _last_skeleton
    last = _last_skeleton
    if last is not None and last[0] is config_set and last[1] == P:
        return last[2]
    skeleton = _build_skeleton(config_set.matrix, P)
    _last_skeleton = (config_set, P, skeleton)
    return skeleton


def _highs_options() -> highs.HighsOptions:
    """The options scipy's ``method="highs"`` LP front-end sets; every
    other option keeps its HiGHS default."""
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return options


_OPTIONS = _highs_options()  # copied into each solver, never mutated


def _solve_highs(skeleton: _Skeleton, b_ub: np.ndarray) -> np.ndarray:
    """``x`` minimising ``c @ x`` subject to ``A_ub @ x <= b_ub`` and
    ``x >= 0``, from a fresh HiGHS solver given the model scipy's LP
    front-end would build."""
    n, m = skeleton.c.size, b_ub.size
    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = skeleton.c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, highs.kHighsInf)
    lp.row_lower_ = np.full(m, -highs.kHighsInf)
    lp.row_upper_ = b_ub
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = skeleton.start
    matrix.index_ = skeleton.index
    matrix.value_ = skeleton.value

    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    status = highs.HighsModelStatus.kModelError  # a model HiGHS refuses
    if solver.passModel(lp) != highs.HighsStatus.kError:
        solver.run()
        status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(
            f"configuration LP failed: {solver.modelStatusToString(status)}"
        )
    return np.array(solver.getSolution().col_value)


def solve_configuration_lp(
    config_set: ConfigurationSet,
    boundaries: tuple[float, ...],
    demands: np.ndarray,
) -> FractionalSolution:
    """Solve the LP (building only its right-hand side when the fixed part
    is memoized); returns a verified fractional solution."""
    Q = config_set.Q
    P = len(boundaries)
    W = len(config_set.widths)
    if demands.shape != (W, P):
        raise SolverError(f"demands shape {demands.shape} != ({W}, {P})")
    if Q == 0:
        raise SolverError("empty configuration set")

    # The P-1 phase gaps (3.3), then -(suffix demand) per covering row (3.4).
    gaps = np.diff(np.asarray(boundaries, dtype=float))
    suffix_demand = np.stack([demands[:, k:].sum(axis=1) for k in range(P)])
    b_ub = np.concatenate([gaps, -suffix_demand.ravel()])

    x = _solve_highs(_skeleton(config_set, P), b_ub)
    sol = FractionalSolution(
        config_set=config_set,
        boundaries=tuple(boundaries),
        x=np.maximum(x, 0.0).reshape(Q, P),
        demands=demands,
    )
    sol.verify()
    return sol


def solve_columns(
    width: np.ndarray,
    height: np.ndarray,
    release: np.ndarray,
    *,
    max_configs: int = 500_000,
) -> tuple[FractionalSolution, np.ndarray, np.ndarray]:
    """The Lemma 3.3 LP over the rows of the given columns.

    Configurations range over the distinct widths, phases over the
    distinct releases.  Returns the verified solution and, per row, the
    index of its width in ``config_set.widths`` and of its phase in
    ``boundaries`` (every row matches both by construction).
    """
    widths = tuple(np.unique(width)[::-1].tolist())
    config_set = _configurations(widths, max_configs)
    boundaries = _phase_starts(release)
    wi = match_rows(width, config_set.widths)
    bj = match_rows(release, boundaries)
    demands = _demand_matrix(wi, bj, height, (len(config_set.widths), len(boundaries)))
    return solve_configuration_lp(config_set, boundaries, demands), wi, bj


def solve_fractional(
    instance: ReleaseInstance,
    *,
    max_configs: int = 500_000,
) -> FractionalSolution:
    """End-to-end: enumerate configurations over the instance's distinct
    widths, build demands, solve.  The instance must already have its final
    width/release structure (i.e. be a ``P(R,W)``-shaped instance — or any
    instance whose distinct widths/releases are few enough to afford)."""
    arrays = instance.arrays()
    return solve_columns(
        arrays.width, arrays.height, arrays.release, max_configs=max_configs
    )[0]


def optimal_fractional_height(
    instance: ReleaseInstance, *, max_configs: int = 500_000
) -> float:
    """``OPT_f`` of the instance: ``rho_R + LP*`` (Lemma 3.3)."""
    return solve_fractional(instance, max_configs=max_configs).height
