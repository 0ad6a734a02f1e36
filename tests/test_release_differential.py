"""Differential tests: the columnar Algorithm 2 vs the object pipeline.

:mod:`repro.release.reference` preserves the pre-columnar APTAS (Rect
objects, a cut list per class, LP rows assembled one by one) as the
executable specification.  The production pipeline must be
*observationally identical* to it: the same placement (ids, coordinates
bit for bit, insertion order), the same LP solution, and — once built on
first access — the same intermediate artifacts (``P(R)``, ``P(R,W)``, the
per-class groups and stackings, the ``P_sup``/``P_inf`` staircases and the
integral column trace).

Inputs: hypothesis release instances on a ``c/K`` width grid with heights
that put cut lines exactly on rectangle bases and mixed int/str ids
(unique ``str()`` forms, some ending in NUL); the ``workloads.releases``
generators; and K=8 bursty instances shaped like the service benchmark's
APTAS requests.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.instance import ReleaseInstance
from repro.core.rectangle import Rect
from repro.release import (
    aptas,
    build_demands,
    group_widths,
    integralize,
    phase_boundaries,
    round_releases_up,
    solve_fractional,
)
from repro.release.reference import (
    reference_aptas,
    reference_build_demands,
    reference_group_widths,
    reference_integralize,
    reference_phase_boundaries,
    reference_round_releases_up,
    reference_solve_fractional,
)
from repro.workloads.releases import (
    bursty_release_instance,
    poisson_release_instance,
    staircase_release_instance,
)

EPS = (0.5, 0.3, 0.1)


# ----------------------------------------------------------------------
# exact comparison helpers (floats by their bits, so -0.0 != 0.0)
# ----------------------------------------------------------------------

def _bits(value: float) -> str:
    assert type(value) is float, type(value)
    return value.hex()


def _rect_key(r: Rect) -> tuple:
    return (type(r.rid), r.rid, _bits(r.width), _bits(r.height), _bits(r.release))


def assert_same_rects(fast, ref) -> None:
    assert [_rect_key(r) for r in fast] == [_rect_key(r) for r in ref]


def assert_same_placement(fast, ref) -> None:
    """Same rectangles at the same bits, placed in the same order."""
    def keyed(placement):
        return [
            (rid, _rect_key(pr.rect), _bits(pr.x), _bits(pr.y))
            for rid, pr in placement.items()
        ]

    assert keyed(fast) == keyed(ref)


def assert_same_fractional(fast, ref) -> None:
    assert fast.config_set == ref.config_set
    assert [_bits(b) for b in fast.boundaries] == [_bits(b) for b in ref.boundaries]
    assert fast.x.shape == ref.x.shape and fast.x.tobytes() == ref.x.tobytes()
    assert fast.demands.tobytes() == ref.demands.tobytes()


def assert_same_grouping(fast, ref) -> None:
    assert_same_rects(fast.instance.rects, ref.instance.rects)
    assert fast.instance.K == ref.instance.K
    assert fast.n_distinct_widths == ref.n_distinct_widths
    assert len(fast.classes) == len(ref.classes)
    for fc, rc in zip(fast.classes, ref.classes):
        assert _bits(fc.release) == _bits(rc.release)
        assert [_bits(w) for w in fc.thresholds] == [_bits(w) for w in rc.thresholds]
        assert list(fc.group_of.items()) == list(rc.group_of.items())
        assert fc.n_groups == rc.n_groups
        assert [tuple(map(_bits, s)) for s in fc.stacking.steps] == [
            tuple(map(_bits, s)) for s in rc.stacking.steps
        ]
    assert_same_rects(fast.sup_rects, ref.sup_rects)
    assert_same_rects(fast.inf_rects, ref.inf_rects)


def assert_same_integral(fast, ref) -> None:
    assert fast.n_occurrences == ref.n_occurrences
    assert_same_placement(fast.placement, ref.placement)
    assert len(fast.columns) == len(ref.columns)
    for fc, rc in zip(fast.columns, ref.columns):
        assert (fc.phase, fc.config, fc.width_index) == (rc.phase, rc.config, rc.width_index)
        assert _bits(fc.capacity) == _bits(rc.capacity)
        assert_same_rects(fc.rects, rc.rects)


def assert_aptas_identical(instance: ReleaseInstance, eps: float, **kw) -> None:
    """Identical results — or the same error, message included."""
    try:
        ref = reference_aptas(instance, eps, **kw)
    except ReproError as exc:
        with pytest.raises(type(exc)) as raised:
            aptas(instance, eps, **kw)
        assert str(raised.value) == str(exc)
        return
    fast = aptas(instance, eps, **kw)
    assert_same_placement(fast.placement, ref.placement)
    assert _bits(fast.height) == _bits(ref.height)
    assert (fast.eps, fast.R, fast.W) == (ref.eps, ref.R, ref.W)
    assert fast.additive_budget == (ref.W + 1) * (ref.R + 1)
    assert_same_fractional(fast.fractional, ref.fractional)
    # Lazy artifacts, each built on this first access.
    assert (fast.rounded is instance) == (ref.rounded is instance)
    assert_same_rects(fast.rounded.rects, ref.rounded.rects)
    assert_same_grouping(fast.grouping, ref.grouping)
    assert_same_integral(fast.integral, ref.integral)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

#: Heights whose sums land cut lines exactly on rectangle bases, and
#: heights whose sums miss them by float noise (inside the tolerance).
EXACT_HEIGHTS = (0.5, 0.25, 1.0 / 3.0)
NOISY_HEIGHTS = (0.1, 0.2, 0.3, 0.7)


@st.composite
def release_instances(draw, K: int | None = None, max_size: int = 14):
    """Release instances on a ``c/K`` width grid (``K`` drawn when not
    given) with mixed int/str ids whose ``str()`` forms are unique (str
    ids may end in NUL)."""
    if K is None:
        K = draw(st.sampled_from((3, 4, 5, 8, 10)))
    n = draw(st.integers(min_value=1, max_value=max_size))
    heights = st.one_of(
        st.sampled_from(EXACT_HEIGHTS + NOISY_HEIGHTS),
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    )
    releases = st.one_of(
        st.sampled_from((0.0, 1.0, 2.0, 3.0)),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    # Str ids share stems, so "r1" and "r1\x00" can meet and tie on
    # every other sort key; duplicates of a str() form are dropped.
    ids: dict[str, object] = {}
    for i in range(n):
        kind = draw(st.sampled_from(("int", "str", "nul")))
        rid = i if kind == "int" else f"r{i // 2}" + ("\x00" if kind == "nul" else "")
        ids.setdefault(str(rid), rid)
    rects = [
        Rect(
            rid=rid,
            width=draw(st.integers(min_value=1, max_value=K)) / K,
            height=draw(heights),
            release=draw(releases),
        )
        for rid in ids.values()
    ]
    return ReleaseInstance(rects, K)


def paper_mix_instance(seed: int, n: int = 200, K: int = 8) -> ReleaseInstance:
    """Bursty K=8 instance shaped like the service benchmark's APTAS
    requests: four bursts at releases 0, 2, 4, 6."""
    rng = np.random.default_rng(seed)
    burst = rng.integers(0, 4, size=n)
    columns = rng.integers(1, K + 1, size=n)
    heights = rng.uniform(0.1, 1.0, size=n)
    rects = [
        Rect(rid=i, width=int(c) / K, height=float(h), release=float(b) * 2.0)
        for i, (b, c, h) in enumerate(zip(burst, columns, heights))
    ]
    return ReleaseInstance(rects, K)


# ----------------------------------------------------------------------
# the whole of Algorithm 2
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(release_instances(), st.sampled_from(EPS))
def test_aptas_identical_on_hypothesis_instances(instance, eps):
    assert_aptas_identical(instance, eps)


@settings(deadline=None, max_examples=25)
@given(
    release_instances(K=3, max_size=10),
    st.one_of(
        st.builds(dict, W=st.integers(min_value=1, max_value=40)),
        st.builds(dict, groups_per_class=st.integers(min_value=1, max_value=6)),
    ),
)
def test_aptas_identical_with_explicit_budgets(instance, budget):
    assert_aptas_identical(instance, 0.5, **budget)


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize(
    "generator", [poisson_release_instance, bursty_release_instance, staircase_release_instance]
)
def test_aptas_identical_on_release_workloads(generator, eps):
    instance = generator(40, 4, np.random.default_rng(13))
    assert_aptas_identical(instance, eps)


@pytest.mark.parametrize("seed", [77, 3, 11])
def test_aptas_identical_on_paper_mix_shape(seed):
    assert_aptas_identical(paper_mix_instance(seed), 0.5)


def test_aptas_identical_on_tied_nul_ids():
    """Ids differing only in a trailing NUL tie on every other key; the
    string-order tie-break must still put ``"a"`` first everywhere."""
    rects = [
        Rect(rid="a\x00", width=0.5, height=0.5, release=1.0),
        Rect(rid="a", width=0.5, height=0.5, release=1.0),
        Rect(rid="b", width=0.5, height=0.5, release=0.0),
        Rect(rid=7, width=0.25, height=0.25, release=1.0),
    ]
    instance = ReleaseInstance(rects, 4)
    for eps in EPS:
        assert_aptas_identical(instance, eps)


@pytest.mark.parametrize("seed", range(4))
def test_aptas_identical_on_signed_zero_releases(seed):
    """All releases zero, some of them -0.0: rounding is a no-op and the
    single phase (and class) is released at whichever zero the first row
    holds — as a ``set`` keeps it, whatever order a sort leaves."""
    rng = np.random.default_rng(seed)
    rects = [
        Rect(rid=i, width=0.25 * int(c), height=0.5, release=float(sign) * 0.0)
        for i, (c, sign) in enumerate(
            zip(rng.integers(1, 5, size=40), rng.choice([-1.0, 1.0], size=40))
        )
    ]
    assert_aptas_identical(ReleaseInstance(rects, 4), 0.5)


def test_empty_instance_identical():
    """No rectangles: an empty grouping, then the same refusal (the LP has
    no configuration to use)."""
    instance = ReleaseInstance([], 4)
    assert_same_grouping(group_widths(instance, 4), reference_group_widths(instance, 4))
    assert_aptas_identical(instance, 0.5)


def test_sub_tolerance_heights_identical():
    """A class whose widest rectangle is thinner than the tolerance: no
    cut lies below its top, yet it still opens the class's first group.
    (The LP's support drops such slivers, so both pipelines then refuse
    the instance with the same leftover error.)"""
    rects = [
        Rect(rid=0, width=1.0, height=1e-10, release=0.0),
        Rect(rid=1, width=0.5, height=0.5, release=0.0),
        Rect(rid=2, width=1.0, height=1e-10, release=3.0),
        Rect(rid=3, width=0.25, height=0.75, release=3.0),
        Rect(rid=4, width=0.5, height=0.5, release=3.0),
    ]
    instance = ReleaseInstance(rects, 4)
    for G in (1, 2, 3):
        assert_same_grouping(group_widths(instance, 2 * G), reference_group_widths(instance, 2 * G))
    assert_aptas_identical(instance, 0.5)


# ----------------------------------------------------------------------
# the public stage functions, one at a time
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(release_instances(max_size=12), st.sampled_from((0.5, 0.1, 1.0 / 3.0)))
def test_stages_identical(instance, eps_r):
    rounded = round_releases_up(instance, eps_r)
    assert_same_rects(rounded.rects, reference_round_releases_up(instance, eps_r).rects)

    n_classes = len({r.release for r in rounded.rects})
    for G in (1, 3, 7):
        assert_same_grouping(
            group_widths(rounded, G * n_classes), reference_group_widths(rounded, G * n_classes)
        )

    grouped = reference_group_widths(rounded, 2 * n_classes).instance
    assert phase_boundaries(grouped) == reference_phase_boundaries(grouped)
    fractional = solve_fractional(grouped)
    ref_fractional = reference_solve_fractional(grouped)
    assert_same_fractional(fractional, ref_fractional)
    widths, bounds = fractional.config_set.widths, fractional.boundaries
    assert (
        build_demands(grouped, widths, bounds).tobytes()
        == reference_build_demands(grouped, widths, bounds).tobytes()
    )
    assert_same_integral(
        integralize(fractional, grouped), reference_integralize(ref_fractional, grouped)
    )


def test_lazy_artifacts_are_built_once():
    res = aptas(paper_mix_instance(5, n=40), 0.5)
    assert res.grouping is res.grouping
    assert res.grouping.instance is res.grouping.instance
    assert res.integral.columns is res.integral.columns
    assert res.grouping.classes[0].stacking is res.grouping.classes[0].stacking


def test_grouping_memory_does_not_grow_with_W():
    """At eps=0.001 (W = 72 million) the object pipeline would hold a cut
    list of 18 million entries per class; the columnar grouping never
    builds one, so the whole solve stays within a few MB."""
    instance = bursty_release_instance(200, 8, np.random.default_rng(1))
    aptas(instance, 0.5)  # warm imports and caches outside the measurement
    tracemalloc.start()
    try:
        res = aptas(instance, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.W >= 70_000_000
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
