"""Tests for Algorithm 1 (DC) — validity, the Theorem 2.3 guarantee, and
the band-structure trace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import area_bound, critical_path_bound, dc_guarantee
from repro.core.instance import PrecedenceInstance
from repro.core.placement import validate_placement
from repro.core.rectangle import Rect
from repro.dag.graph import TaskDAG
from repro.dag.validate import is_antichain
from repro.packing import bfdh, ffdh, nfdh
from repro.precedence.dc import dc_pack

from .conftest import dags_over, precedence_instances


class TestDCBasics:
    def test_empty(self):
        inst = PrecedenceInstance.without_constraints([])
        result = dc_pack(inst)
        assert result.height == 0.0 and len(result.placement) == 0

    def test_single_rect(self):
        r = Rect(rid=0, width=0.5, height=2.0)
        inst = PrecedenceInstance.without_constraints([r])
        result = dc_pack(inst)
        assert math.isclose(result.height, 2.0)
        validate_placement(inst, result.placement)

    def test_chain_is_fully_serial(self):
        rs = [Rect(rid=i, width=0.1, height=1.0) for i in range(5)]
        inst = PrecedenceInstance(rs, TaskDAG.chain(list(range(5))))
        result = dc_pack(inst)
        validate_placement(inst, result.placement)
        assert math.isclose(result.height, 5.0)

    def test_antichain_packs_in_parallel(self):
        rs = [Rect(rid=i, width=0.25, height=1.0) for i in range(4)]
        inst = PrecedenceInstance.without_constraints(rs)
        result = dc_pack(inst)
        assert math.isclose(result.height, 1.0)

    def test_diamond(self):
        rs = [Rect(rid=i, width=0.4, height=1.0) for i in range(4)]
        inst = PrecedenceInstance(rs, TaskDAG([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)]))
        result = dc_pack(inst)
        validate_placement(inst, result.placement)
        # critical path = 3; 1 and 2 fit side by side
        assert math.isclose(result.height, 3.0)

    def test_height_matches_placement(self, rng):
        from repro.workloads.dags import random_precedence_instance

        inst = random_precedence_instance(30, 0.1, rng)
        result = dc_pack(inst)
        assert math.isclose(result.height, result.placement.height, abs_tol=1e-9)


class TestDCBands:
    def test_bands_cover_all_ids(self, rng):
        from repro.workloads.dags import random_precedence_instance

        inst = random_precedence_instance(25, 0.15, rng)
        result = dc_pack(inst)
        covered = [rid for band in result.bands for rid in band.ids]
        assert sorted(map(str, covered)) == sorted(str(r.rid) for r in inst.rects)
        assert len(covered) == len(set(covered))

    def test_bands_are_antichains(self, rng):
        from repro.workloads.dags import random_precedence_instance

        inst = random_precedence_instance(25, 0.2, rng)
        result = dc_pack(inst)
        for band in result.bands:
            assert is_antichain(inst.dag, band.ids)

    def test_bands_ascending(self, rng):
        from repro.workloads.dags import layered_precedence_instance

        inst = layered_precedence_instance(30, 5, 0.2, rng)
        result = dc_pack(inst)
        ys = [b.y for b in result.bands]
        assert ys == sorted(ys)

    def test_max_depth_bounded_by_log_n(self, rng):
        from repro.workloads.dags import random_precedence_instance

        inst = random_precedence_instance(64, 0.1, rng)
        result = dc_pack(inst)
        # Each recursion level removes at least the middle band, so the
        # depth is at most log2(n+1) rounded up generously.
        assert result.max_depth <= math.ceil(math.log2(65)) + 1


class TestDCSubroutines:
    @pytest.mark.parametrize("sub", [nfdh, ffdh, bfdh])
    def test_works_with_all_level_packers(self, sub, rng):
        from repro.workloads.dags import random_precedence_instance

        inst = random_precedence_instance(25, 0.1, rng)
        result = dc_pack(inst, subroutine=sub)
        validate_placement(inst, result.placement)


class TestTheorem23:
    @pytest.mark.parametrize("seed", range(8))
    def test_guarantee_on_random_instances(self, seed):
        from repro.workloads.dags import random_precedence_instance

        rng = np.random.default_rng(seed)
        inst = random_precedence_instance(40, 0.08, rng)
        result = dc_pack(inst)
        bound = dc_guarantee(len(inst), area_bound(inst), critical_path_bound(inst))
        assert result.height <= bound + 1e-7

    def test_guarantee_on_adversarial_instance(self):
        from repro.workloads.adversarial import omega_log_n_instance

        adv = omega_log_n_instance(5)
        inst = adv.instance
        result = dc_pack(inst)
        validate_placement(inst, result.placement)
        bound = dc_guarantee(len(inst), area_bound(inst), critical_path_bound(inst))
        assert result.height <= bound + 1e-7


@settings(deadline=None)
@given(precedence_instances(max_size=12))
def test_dc_valid_and_within_theorem_bound(inst):
    result = dc_pack(inst)
    validate_placement(inst, result.placement)
    bound = dc_guarantee(len(inst), area_bound(inst), critical_path_bound(inst))
    assert result.height <= bound + 1e-7


@settings(deadline=None)
@given(precedence_instances(max_size=10))
def test_dc_height_at_least_lower_bounds(inst):
    result = dc_pack(inst)
    assert result.height >= critical_path_bound(inst) - 1e-9
    assert result.height >= area_bound(inst) - 1e-9


@st.composite
def tiny_height_instances(draw, max_size: int = 30):
    """DAGs whose heights mix 1.0 with values near or below ATOL, where a
    part's F(S) can fall within 2*ATOL of zero and the tolerant split
    leaves S_mid empty."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    height = st.one_of(
        st.sampled_from([1e-12, 3e-10, 1.5e-9, 1.0]),
        st.floats(min_value=1e-13, max_value=1e-9),
    )
    rects = [
        Rect(rid=i, width=draw(st.floats(0.05, 1.0)), height=draw(height))
        for i in range(n)
    ]
    return PrecedenceInstance(rects, draw(dags_over(n)))


@settings(deadline=None)
@given(tiny_height_instances())
def test_dc_valid_and_within_theorem_bound_on_tiny_heights(inst):
    result = dc_pack(inst)
    validate_placement(inst, result.placement)
    bound = dc_guarantee(len(inst), area_bound(inst), critical_path_bound(inst))
    assert result.height <= bound + 1e-9
