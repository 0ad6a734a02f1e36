"""Differential tests: optimized Skyline vs the reference implementation.

The optimized kernel (:mod:`repro.geometry.skyline`) must be
*observationally identical* to the executable specification
(:mod:`repro.geometry.skyline_reference`): same ``(x, y)`` from
``lowest_position``, same supports, same candidate sets, same segment
lists after every ``place`` — on hypothesis-generated operation sequences
and on the real workload generators at packing scale.  This is what makes
the ``skyline_bottom_left`` bench's speedup trustworthy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.skyline import Skyline
from repro.geometry.skyline_reference import ReferenceSkyline
from repro.packing.bottom_left import bottom_left, bottom_left_release

from .conftest import rect_lists


def _segments_equal(a, b):
    sa, sb = a.segments(), b.segments()
    assert len(sa) == len(sb), (sa, sb)
    for x, y in zip(sa, sb):
        assert x == y, (x, y)


dims = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=3.0),
)


@given(st.lists(dims, min_size=1, max_size=30))
def test_bottom_left_sequences_identical(seq):
    """Bottom-left driving both kernels lands every rectangle identically."""
    fast, ref = Skyline(), ReferenceSkyline()
    for w, h in seq:
        pos_fast = fast.lowest_position(w)
        pos_ref = ref.lowest_position(w)
        assert pos_fast == pos_ref
        x = pos_fast[0]
        assert fast.place(x, w, h) == ref.place(x, w, h)
        _segments_equal(fast, ref)
        assert fast.max_y == ref.max_y and fast.min_y == ref.min_y


@given(
    st.lists(dims, min_size=1, max_size=15),
    st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.01, 1.0)), min_size=1, max_size=8),
)
def test_support_and_candidates_identical(seq, queries):
    """After arbitrary placements, point queries agree on both kernels."""
    fast, ref = Skyline(), ReferenceSkyline()
    for w, h in seq:
        x, _ = ref.lowest_position(w)
        fast.place(x, w, h)
        ref.place(x, w, h)
    for x, w in queries:
        if x + w <= 1.0:
            assert fast.support_y(x, w) == ref.support_y(x, w)
    for w, _ in seq:
        # Same candidate set (the reference may repeat a clamped x; the
        # optimized kernel deduplicates, so compare as sets).
        assert set(fast.candidate_positions(w)) == set(ref.candidate_positions(w))
        assert fast.lowest_position(w) == ref.lowest_position(w)


@given(rect_lists(min_size=1, max_size=20))
def test_packer_differential_hypothesis(rects):
    """bottom_left with either kernel produces the same placement."""
    fast = bottom_left(rects)
    ref = bottom_left(rects, skyline_cls=ReferenceSkyline)
    for r in rects:
        assert fast.placement[r.rid] == ref.placement[r.rid]


@pytest.mark.parametrize("generator", ["uniform_rects", "powerlaw_rects"])
@pytest.mark.parametrize("n", [200, 1000])
def test_packer_differential_workloads(generator, n):
    """Placement-for-placement equality on the bench workloads."""
    from repro import workloads

    rects = getattr(workloads, generator)(n, np.random.default_rng(7))
    fast = bottom_left(rects)
    ref = bottom_left(rects, skyline_cls=ReferenceSkyline)
    assert fast.extent == ref.extent
    for r in rects:
        assert fast.placement[r.rid] == ref.placement[r.rid]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_packer_differential_deep(seed):
    """Larger randomized sweep (CI): 5 seeds x 3000 powerlaw rectangles."""
    from repro.workloads import powerlaw_rects

    rects = powerlaw_rects(3000, np.random.default_rng(seed))
    fast = bottom_left(rects)
    ref = bottom_left(rects, skyline_cls=ReferenceSkyline)
    for r in rects:
        assert fast.placement[r.rid] == ref.placement[r.rid]


@settings(max_examples=30)
@given(st.lists(dims, min_size=1, max_size=12))
def test_release_variant_unaffected(seq):
    """bottom_left_release (candidate_positions consumer) stays deterministic
    and valid with the optimized kernel."""
    from repro.core.instance import ReleaseInstance
    from repro.core.placement import validate_placement
    from repro.core.rectangle import Rect

    rects = [
        Rect(rid=i, width=w, height=h, release=float(i % 3))
        for i, (w, h) in enumerate(seq)
    ]
    result = bottom_left_release(rects)
    validate_placement(ReleaseInstance(rects, K=100), result.placement)


def test_bottom_left_powerlaw_300_identical():
    """Bottom-left lands a 300-rect power-law workload exactly as over the
    reference skyline."""
    from repro.workloads import powerlaw_rects

    rects = powerlaw_rects(300, np.random.default_rng(17))
    result = bottom_left(rects)
    expected = bottom_left(rects, skyline_cls=ReferenceSkyline)
    assert result.extent == expected.extent
    for r in rects:
        assert result.placement[r.rid] == expected.placement[r.rid]


def test_engine_bottom_left_matches_reference():
    """``engine.run`` places a 150-rect power-law instance exactly as
    bottom-left over the reference skyline does."""
    from repro.core.instance import StripPackingInstance
    from repro.engine import run
    from repro.workloads import powerlaw_rects

    instance = StripPackingInstance(powerlaw_rects(150, np.random.default_rng(9)))
    report = run(instance, "bottom_left")
    expected = bottom_left(instance.rects, skyline_cls=ReferenceSkyline).placement
    assert report.valid is True
    assert report.height == expected.height
    for r in instance.rects:
        assert report.placement[r.rid] == expected[r.rid], r.rid
