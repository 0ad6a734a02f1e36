"""Differential tests: the list-based level packers vs the reference kernels.

The production packers (:mod:`repro.packing` over
:func:`repro.geometry.levels.level_pack`: NFDH on plain floats, FFDH on a
min-``used`` tournament tree, BFDH on sorted ``(used, level)`` pairs) must
be *observationally identical* to the executable specification
(:mod:`repro.geometry.levels_reference`): same ``(x, y)`` for every
rectangle, same extents — on hypothesis-generated rectangle lists and on
the real workload generators at packing scale.  This is what makes the
``level_packers`` bench's speedup trustworthy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rectangle import Rect, decreasing_height_order
from repro.geometry.levels_reference import (
    reference_bfdh,
    reference_ffdh,
    reference_nfdh,
)
from repro.packing import bfdh, ffdh, nfdh

from .conftest import rect_lists

PAIRS = [
    pytest.param(nfdh, reference_nfdh, id="nfdh"),
    pytest.param(ffdh, reference_ffdh, id="ffdh"),
    pytest.param(bfdh, reference_bfdh, id="bfdh"),
]


def assert_identical(fast_result, ref_result, rects):
    """Placement-for-placement equality (exact float comparison)."""
    assert fast_result.extent == ref_result.extent
    for r in rects:
        assert fast_result.placement[r.rid] == ref_result.placement[r.rid], r.rid


@pytest.mark.parametrize("fast, ref", PAIRS)
@given(rect_lists(min_size=1, max_size=24, max_h=3.0))
def test_hypothesis_sequences_identical(fast, ref, rects):
    """Random rectangle lists land every rectangle identically."""
    assert_identical(fast(rects), ref(rects), rects)


@pytest.mark.parametrize("fast, ref", PAIRS)
@settings(max_examples=25)
@given(
    rect_lists(min_size=1, max_size=16, max_h=2.0),
    st.floats(min_value=0.0, max_value=7.5, allow_nan=False),
)
def test_base_offset_identical(fast, ref, rects, y):
    """The y-offset (subroutine-A calling convention) threads identically."""
    assert_identical(fast(rects, y=y), ref(rects, y=y), rects)


@pytest.mark.parametrize("fast, ref", PAIRS)
def test_mixed_id_types_share_tie_break(fast, ref):
    """Height/width ties fall through to the lexicographic str(rid)
    tie-break — including across int and str ids (and '10' < '9')."""
    rects = [
        Rect(rid=rid, width=0.3, height=1.0)
        for rid in (9, 10, "10", "9x", 2, "a")
    ]
    assert_identical(fast(rects), ref(rects), rects)


@pytest.mark.parametrize("fast, ref", PAIRS)
@pytest.mark.parametrize("generator", ["uniform_rects", "powerlaw_rects"])
@pytest.mark.parametrize("n", [200, 1000])
def test_workload_sweeps_identical(fast, ref, generator, n):
    """Placement-for-placement equality on the bench workloads."""
    from repro import workloads

    rects = getattr(workloads, generator)(n, np.random.default_rng(7))
    assert_identical(fast(rects), ref(rects), rects)


@pytest.mark.parametrize("fast, ref", PAIRS)
def test_powerlaw_400_identical(fast, ref):
    """Placement-for-placement equality on a 400-rect power-law workload."""
    from repro.workloads import powerlaw_rects

    rects = powerlaw_rects(400, np.random.default_rng(13))
    assert_identical(fast(rects), ref(rects), rects)


@pytest.mark.parametrize("fast, ref", PAIRS)
def test_engine_run_matches_reference(fast, ref):
    """``engine.run`` places a 150-rect power-law instance exactly as the
    executable spec does."""
    from repro.core.instance import StripPackingInstance
    from repro.engine import run
    from repro.workloads import powerlaw_rects

    instance = StripPackingInstance(powerlaw_rects(150, np.random.default_rng(9)))
    report = run(instance, fast.__name__)
    expected = ref(instance.rects).placement
    assert report.valid is True
    assert report.height == expected.height
    for r in instance.rects:
        assert report.placement[r.rid] == expected[r.rid], r.rid


@pytest.mark.slow
@pytest.mark.parametrize("fast, ref", PAIRS)
@pytest.mark.parametrize("seed", range(5))
def test_packer_differential_deep(fast, ref, seed):
    """Larger randomized sweep (CI): 5 seeds x 3000 powerlaw rectangles."""
    from repro.workloads import powerlaw_rects

    rects = powerlaw_rects(3000, np.random.default_rng(seed))
    assert_identical(fast(rects), ref(rects), rects)


def test_nul_suffixed_ids_keep_string_order():
    """``"a"`` sorts before ``"a\x00"`` in Python; a numpy string column
    drops the trailing NUL and would tie them, letting row order decide."""
    rects = [
        Rect(rid="a\x00", width=0.6, height=0.5),
        Rect(rid="a", width=0.6, height=0.5),
        Rect(rid="b", width=0.4, height=0.5),
    ]
    expected = [r.rid for r in decreasing_height_order(rects)]
    assert expected[0] == "a"
    for fast, ref in (p.values[:2] for p in PAIRS):
        assert_identical(fast(rects), ref(rects), rects)


def test_instance_arrays_are_cached():
    """``instance.arrays()`` builds the columns once per instance."""
    from repro.core.instance import StripPackingInstance

    rects = [Rect(rid=i, width=0.4, height=1.0 + i % 3) for i in range(9)]
    instance = StripPackingInstance(rects)
    assert instance.arrays() is instance.arrays()
