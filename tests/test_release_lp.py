"""Tests for the Lemma 3.3 configuration LP."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.core.errors import SolverError
from repro.core.instance import ReleaseInstance
from repro.core.rectangle import Rect
from repro.release.configurations import enumerate_configurations
from repro.release.lp import (
    _HIGHS_NAME,
    _load_highs,
    _skeleton,
    _solve_highs,
    build_demands,
    optimal_fractional_height,
    phase_boundaries,
    solve_configuration_lp,
    solve_fractional,
)
from repro.release.reference import reference_solve_configuration_lp
from repro.workloads.releases import bursty_release_instance

from .conftest import release_instances


def inst_of(specs, K=4):
    """specs: list of (cols, height, release)."""
    rects = [
        Rect(rid=i, width=c / K, height=h, release=r)
        for i, (c, h, r) in enumerate(specs)
    ]
    return ReleaseInstance(rects, K)


class TestBoundaries:
    def test_zero_prepended(self):
        inst = inst_of([(1, 0.5, 1.0), (2, 0.5, 3.0)])
        assert phase_boundaries(inst) == (0.0, 1.0, 3.0)

    def test_zero_release_not_duplicated(self):
        inst = inst_of([(1, 0.5, 0.0), (2, 0.5, 2.0)])
        assert phase_boundaries(inst) == (0.0, 2.0)


class TestDemands:
    def test_accumulates_heights(self):
        inst = inst_of([(2, 0.5, 0.0), (2, 0.7, 0.0), (1, 0.3, 1.0)])
        bounds = phase_boundaries(inst)
        widths = (0.5, 0.25)
        d = build_demands(inst, widths, bounds)
        assert math.isclose(d[0, 0], 1.2)  # width 0.5 at release 0
        assert math.isclose(d[1, 1], 0.3)  # width 0.25 at release 1

    def test_unknown_width_raises(self):
        inst = inst_of([(3, 0.5, 0.0)])
        with pytest.raises(SolverError, match="width"):
            build_demands(inst, (0.5,), (0.0,))

    def test_unknown_release_raises(self):
        inst = inst_of([(2, 0.5, 5.0)])
        with pytest.raises(SolverError, match="boundary"):
            build_demands(inst, (0.5,), (0.0,))


class TestSolve:
    def test_no_releases_equals_fractional_packing(self):
        # 4 quarter-width unit-height rects, no releases: fractional optimum
        # packs them side by side -> height 1.
        inst = inst_of([(1, 1.0, 0.0)] * 4)
        sol = solve_fractional(inst)
        assert math.isclose(sol.height, 1.0, rel_tol=1e-6)

    def test_full_width_stack(self):
        inst = inst_of([(4, 1.0, 0.0)] * 3)
        sol = solve_fractional(inst)
        assert math.isclose(sol.height, 3.0, rel_tol=1e-6)

    def test_release_forces_waiting(self):
        # One rect released at 5: fractional height is 5 + 1.
        inst = inst_of([(4, 1.0, 5.0)])
        sol = solve_fractional(inst)
        assert math.isclose(sol.height, 6.0, rel_tol=1e-6)

    def test_early_work_fits_in_gap(self):
        # Two full-width rects at release 0 and one at release 5: the early
        # ones fit below 5, so height stays 6.
        inst = inst_of([(4, 1.0, 0.0), (4, 1.0, 0.0), (4, 1.0, 5.0)])
        sol = solve_fractional(inst)
        assert math.isclose(sol.height, 6.0, rel_tol=1e-6)

    def test_phase_overflow_pushes_objective(self):
        # Release gap of 1 but 3 units of full-width work released at 0 and
        # one more at 1: total = 4, so top = 4 regardless of slicing.
        inst = inst_of([(4, 1.0, 0.0)] * 3 + [(4, 1.0, 1.0)])
        sol = solve_fractional(inst)
        assert math.isclose(sol.height, 4.0, rel_tol=1e-6)

    def test_fractional_beats_area_and_suffix_bounds(self):
        # NOTE: the paper's fractional relaxation allows slices of one
        # rectangle to run in parallel, so ``release + height`` per rectangle
        # is NOT a lower bound on OPT_f.  The valid fractional bounds are the
        # total area and, per release value rho, rho + area released at or
        # after rho (that work must all sit above rho).
        inst = inst_of([(2, 0.8, 0.0), (3, 0.6, 1.0), (1, 0.4, 2.0)])
        sol = solve_fractional(inst)
        area = sum(r.area for r in inst.rects)
        assert sol.height >= area - 1e-6
        for rho in {r.release for r in inst.rects}:
            suffix = sum(r.area for r in inst.rects if r.release >= rho)
            assert sol.height >= rho + suffix - 1e-6

    def test_parallel_slicing_beats_integral_bound(self):
        # The phenomenon itself, pinned: a 1-column rect of height 0.4
        # released at 2 can be sliced into 4 parallel strips of height 0.1,
        # so OPT_f = 2.1 < 2.4 = the integral bound release + height.
        inst = inst_of([(2, 0.8, 0.0), (3, 0.6, 1.0), (1, 0.4, 2.0)])
        sol = solve_fractional(inst)
        assert sol.height < 2.4 - 1e-6
        assert math.isclose(sol.height, 2.1, rel_tol=1e-6)

    def test_support_size_bound(self):
        """Lemma 3.3: a basic optimal solution uses at most (W+1)(R+1)
        distinct occurrences of configurations."""
        rng = np.random.default_rng(3)
        specs = [
            (int(rng.integers(1, 5)), float(rng.uniform(0.2, 1.0)), float(rng.choice([0.0, 1.0, 2.0])))
            for _ in range(30)
        ]
        inst = inst_of(specs)
        sol = solve_fractional(inst)
        W = len({r.width for r in inst.rects})
        R_plus_1 = len(sol.boundaries)
        assert len(sol.support()) <= (W + 1) * R_plus_1

    def test_verify_rejects_tampered_solution(self):
        inst = inst_of([(4, 1.0, 0.0)])
        sol = solve_fractional(inst)
        bad = sol.x.copy()
        bad[:, -1] = 0.0  # wipe out the supply
        from repro.release.fractional import FractionalSolution

        tampered = FractionalSolution(
            config_set=sol.config_set,
            boundaries=sol.boundaries,
            x=bad,
            demands=sol.demands,
        )
        with pytest.raises(SolverError):
            tampered.verify()

    def test_empty_configs_rejected(self):
        cs = enumerate_configurations([0.5])
        with pytest.raises(SolverError, match="demands shape"):
            solve_configuration_lp(cs, (0.0,), np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "solve", [solve_configuration_lp, reference_solve_configuration_lp]
    )
    def test_infeasible_lp_raises(self, solve):
        # Boundaries (0, -1) give phase 0 a capacity of -1: the packing row
        # asks for x <= -1 of non-negative heights.
        cs = enumerate_configurations((0.5,))
        with pytest.raises(SolverError, match="configuration LP failed") as info:
            solve(cs, (0.0, -1.0), np.zeros((1, 2)))
        assert "nfeasible" in str(info.value)


def dense_rows(config_set, P):
    """``(c, A_ub)`` assembled row by row, as the reference LP does."""
    Q, W = config_set.Q, len(config_set.widths)
    columns = np.arange(Q) * P
    c = np.zeros(Q * P)
    c[columns + (P - 1)] = 1.0
    rows = []
    for j in range(P - 1):
        row = np.zeros(Q * P)
        row[columns + j] = 1.0
        rows.append(row)
    for k in range(P):
        for i in range(W):
            row = np.zeros(Q * P)
            for j in range(k, P):
                row[columns + j] -= config_set.matrix[i, :]
            rows.append(row)
    return c, np.vstack(rows)


def suffix_rhs(sol):
    """``b_ub`` of a solved LP: phase gaps, then -(suffix demand)."""
    gaps = np.diff(np.asarray(sol.boundaries, dtype=float))
    P = sol.n_phases
    covering = [
        -float(sol.demands[i, k:].sum()) for k in range(P) for i in range(len(sol.demands))
    ]
    return np.concatenate([gaps, covering])


class TestFixedPart:
    """The memoized configuration set and LP skeleton."""

    def test_same_widths_share_one_configuration_set(self):
        first = solve_fractional(inst_of([(1, 0.5, 0.0), (2, 0.7, 1.0)]))
        again = solve_fractional(inst_of([(2, 0.3, 0.0), (1, 0.9, 2.0), (1, 0.1, 2.0)]))
        assert again.config_set is first.config_set
        other = solve_fractional(inst_of([(3, 0.5, 0.0), (2, 0.7, 1.0)]))
        assert other.config_set is not first.config_set
        assert other.config_set.widths == (0.75, 0.5)

    def test_max_configs_is_part_of_the_key(self):
        inst = inst_of([(c, 0.5, 0.0) for c in (1, 2, 3, 4)])
        warm = solve_fractional(inst)
        assert warm.config_set.Q == 11
        with pytest.raises(SolverError, match="configuration count exceeds max_configs"):
            solve_fractional(inst, max_configs=5)
        assert solve_fractional(inst).config_set is warm.config_set

    def test_cached_arrays_are_read_only(self):
        sol = solve_fractional(bursty_release_instance(60, 8, np.random.default_rng(1)))
        skeleton = _skeleton(sol.config_set, sol.n_phases)
        assert _skeleton(sol.config_set, sol.n_phases) is skeleton
        for array in skeleton:
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_a_model_highs_refuses_raises(self):
        # HiGHS refuses a NaN bound at passModel; run() on the empty model
        # it keeps would then report Optimal, so the refusal must raise.
        sol = solve_fractional(inst_of([(1, 0.5, 0.0), (2, 0.5, 1.0)]))
        m = sol.n_phases - 1 + sol.n_phases * len(sol.config_set.widths)
        with pytest.raises(SolverError, match="configuration LP failed: Model error"):
            _solve_highs(_skeleton(sol.config_set, sol.n_phases), np.full(m, np.nan))

    def test_concurrent_solves_get_their_own_structure(self):
        """Threads alternating two width tuples and phase counts each get
        their own answer: a miss on one thread never hands another the
        wrong configuration set or skeleton."""
        import sys
        import threading

        instances = [
            inst_of([(1, 0.5, 0.0), (2, 0.7, 1.0), (4, 0.2, 2.0)]),
            inst_of([(3, 0.4, 0.0), (2, 0.6, 3.0)]),
        ]
        expected = [solve_fractional(inst).x.tobytes() for inst in instances]
        wrong: list[int] = []

        def worker(offset):
            for i in range(40):
                k = (i + offset) % 2
                if solve_fractional(instances[k]).x.tobytes() != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csc_arrays_equal_scipy_csc_of_the_dense_rows(self, seed):
        from scipy.sparse import csc_array

        sol = solve_fractional(bursty_release_instance(200, 8, np.random.default_rng(seed)))
        c, A_ub = dense_rows(sol.config_set, sol.n_phases)
        skeleton = _skeleton(sol.config_set, sol.n_phases)
        A = csc_array(A_ub)
        assert skeleton.c.tobytes() == c.tobytes()
        for ours, scipys in (
            (skeleton.start, A.indptr), (skeleton.index, A.indices), (skeleton.value, A.data)
        ):
            assert ours.dtype == scipys.dtype and np.array_equal(ours, scipys)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direct_call_returns_linprogs_x(self, seed):
        from scipy.optimize import linprog

        sol = solve_fractional(bursty_release_instance(200, 8, np.random.default_rng(seed)))
        c, A_ub = dense_rows(sol.config_set, sol.n_phases)
        b_ub = suffix_rhs(sol)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        x = _solve_highs(_skeleton(sol.config_set, sol.n_phases), b_ub)
        assert x.tobytes() == res.x.tobytes()


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this ``repro``;
    returns its stdout."""
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_SOLVE_APTAS = """
import json, sys
import numpy as np
from repro.engine import run
from repro.workloads import bursty_release_instance
report = run(bursty_release_instance(200, 8, np.random.default_rng(1)), "aptas")
packages = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special")
print(json.dumps({
    "valid": report.valid,
    "highs": "scipy.optimize._highspy._core" in sys.modules,
    "loaded": [name for name in packages if name in sys.modules],
}))
"""

# Solves one LP through lp's direct call and through scipy's linprog, in
# the order argv[1] names, then reports both x and whether one module
# object, lp's, holds the HiGHS extension.
_LOAD_ORDER = """
import json, sys
import numpy as np
lp_data = np.load(sys.argv[2])

def lp_x():
    import repro.release.lp as lp
    skeleton = lp._build_skeleton(lp_data["A_mat"], int(lp_data["P"]))
    return lp._solve_highs(skeleton, lp_data["b_ub"])

def linprog_x():
    from scipy.optimize import linprog
    res = linprog(lp_data["c"], A_ub=lp_data["A_ub"], b_ub=lp_data["b_ub"],
                  bounds=(0, None), method="highs")
    return res.x

if sys.argv[1] == "lp-first":
    x_lp, x_linprog = lp_x(), linprog_x()
else:
    x_linprog = linprog_x()
    x_lp = lp_x()
import repro.release.lp as lp
import scipy.optimize._highspy._core as core
cores = [m for m in list(sys.modules.values()) if getattr(m, "__name__", None) == core.__name__]
print(json.dumps({
    "lp": x_lp.tobytes().hex(),
    "linprog": x_linprog.tobytes().hex(),
    "one_core": cores == [core] and lp.highs is core,
}))
"""


class TestHighsExtension:
    """lp loads scipy's HiGHS extension alone, and shares it with scipy."""

    def test_an_aptas_solve_loads_no_scipy_subpackage(self):
        seen = json.loads(run_python(_SOLVE_APTAS))
        assert seen == {"valid": True, "highs": True, "loaded": []}

    @pytest.mark.parametrize("order", ["lp-first", "linprog-first"])
    def test_either_load_order_shares_one_extension_and_one_x(self, order, tmp_path):
        sol = solve_fractional(bursty_release_instance(60, 8, np.random.default_rng(4)))
        c, A_ub = dense_rows(sol.config_set, sol.n_phases)
        b_ub = suffix_rhs(sol)
        data = tmp_path / "lp.npz"
        np.savez(data, A_mat=sol.config_set.matrix, P=sol.n_phases, c=c, A_ub=A_ub, b_ub=b_ub)
        seen = json.loads(run_python(_LOAD_ORDER, order, str(data)))
        x = _solve_highs(_skeleton(sol.config_set, sol.n_phases), b_ub).tobytes().hex()
        assert seen == {"lp": x, "linprog": x, "one_core": True}

    def test_a_missing_extension_names_the_scipy_floor(self, tmp_path, monkeypatch):
        import scipy

        monkeypatch.delitem(sys.modules, _HIGHS_NAME)
        with pytest.raises(ImportError) as info:
            _load_highs(str(tmp_path))
        message = str(info.value)
        assert f"scipy {scipy.__version__}" in message
        assert str(tmp_path) in message and "scipy>=1.15" in message
        assert _HIGHS_NAME not in sys.modules


@settings(deadline=None, max_examples=25)
@given(release_instances(K=3, max_size=8))
def test_lp_height_is_a_valid_lower_bound_structure(inst):
    """The fractional solution verifies and its height dominates the
    elementary *fractional* lower bounds (area and release-suffix area —
    per-rectangle release+height does not bound the fractional optimum
    because slices may run in parallel)."""
    sol = solve_fractional(inst)
    sol.verify()
    area = sum(r.area for r in inst.rects)
    assert sol.height >= area - 1e-6
    for rho in {r.release for r in inst.rects}:
        suffix = sum(r.area for r in inst.rects if r.release >= rho)
        assert sol.height >= rho + suffix - 1e-6
