"""Unit tests for placements and the shared validator."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import tol
from repro.core.errors import InvalidPlacementError
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.placement import PlacedRect, Placement, find_overlap, validate_placement
from repro.core.rectangle import Rect
from repro.dag.graph import TaskDAG

from .conftest import rect_lists


def make_placement(pairs):
    p = Placement()
    for rect, x, y in pairs:
        p.place(rect, x, y)
    return p


class TestPlacedRect:
    def test_edges(self):
        pr = PlacedRect(Rect(rid=0, width=0.5, height=2.0), 0.25, 1.0)
        assert pr.x2 == 0.75 and pr.y2 == 3.0

    def test_overlap_detected(self):
        a = PlacedRect(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)
        b = PlacedRect(Rect(rid=1, width=0.5, height=1.0), 0.25, 0.5)
        assert a.overlaps(b) and b.overlaps(a)

    def test_shared_edge_not_overlap(self):
        a = PlacedRect(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)
        b = PlacedRect(Rect(rid=1, width=0.5, height=1.0), 0.5, 0.0)
        assert not a.overlaps(b)

    def test_stacked_not_overlap(self):
        a = PlacedRect(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)
        b = PlacedRect(Rect(rid=1, width=0.5, height=1.0), 0.0, 1.0)
        assert not a.overlaps(b)


class TestPlacement:
    def test_height_empty(self):
        assert Placement().height == 0.0

    def test_height(self):
        r = Rect(rid=0, width=0.5, height=2.0)
        p = make_placement([(r, 0.0, 1.0)])
        assert p.height == 3.0

    def test_double_place_rejected(self):
        r = Rect(rid=0, width=0.5, height=2.0)
        p = make_placement([(r, 0.0, 0.0)])
        with pytest.raises(InvalidPlacementError):
            p.place(r, 0.5, 0.0)

    def test_merge_disjoint(self):
        a = make_placement([(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)])
        b = make_placement([(Rect(rid=1, width=0.5, height=1.0), 0.5, 0.0)])
        a.merge(b)
        assert len(a) == 2

    def test_merge_conflict(self):
        a = make_placement([(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)])
        b = make_placement([(Rect(rid=0, width=0.5, height=1.0), 0.5, 0.0)])
        with pytest.raises(InvalidPlacementError):
            a.merge(b)

    def test_shifted(self):
        p = make_placement([(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0)])
        q = p.shifted(2.0)
        assert q[0].y == 2.0 and p[0].y == 0.0

    def test_extent(self):
        p = make_placement(
            [
                (Rect(rid=0, width=0.5, height=1.0), 0.0, 1.0),
                (Rect(rid=1, width=0.5, height=1.0), 0.5, 2.0),
            ]
        )
        assert p.base == 1.0 and p.extent() == 2.0

    def test_non_finite_rejected(self):
        p = Placement()
        with pytest.raises(InvalidPlacementError):
            p.place(Rect(rid=0, width=0.5, height=1.0), float("nan"), 0.0)


class TestFindOverlap:
    def test_none_for_valid(self):
        prs = [
            PlacedRect(Rect(rid=0, width=0.5, height=1.0), 0.0, 0.0),
            PlacedRect(Rect(rid=1, width=0.5, height=1.0), 0.5, 0.0),
            PlacedRect(Rect(rid=2, width=1.0, height=1.0), 0.0, 1.0),
        ]
        assert find_overlap(prs) is None

    def test_detects_pair(self):
        prs = [
            PlacedRect(Rect(rid=0, width=0.6, height=1.0), 0.0, 0.0),
            PlacedRect(Rect(rid=1, width=0.6, height=1.0), 0.3, 0.5),
        ]
        found = find_overlap(prs)
        assert found is not None
        assert {found[0].rect.rid, found[1].rect.rid} == {0, 1}


class TestValidatePlacement:
    def test_valid(self):
        rs = [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, 0.0), (rs[1], 0.5, 0.0)])
        validate_placement(inst, p)

    def test_missing_rect(self):
        rs = [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, 0.0)])
        with pytest.raises(InvalidPlacementError, match="unplaced"):
            validate_placement(inst, p)

    def test_stray_rect(self):
        rs = [Rect(rid=0, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, 0.0), (Rect(rid=9, width=0.1, height=0.1), 0.5, 0.0)])
        with pytest.raises(InvalidPlacementError, match="unknown"):
            validate_placement(inst, p)

    def test_out_of_strip_right(self):
        rs = [Rect(rid=0, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.6, 0.0)])
        with pytest.raises(InvalidPlacementError, match="horizontally"):
            validate_placement(inst, p)

    def test_below_base(self):
        rs = [Rect(rid=0, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, -0.5)])
        with pytest.raises(InvalidPlacementError, match="below"):
            validate_placement(inst, p)

    def test_overlap(self):
        rs = [Rect(rid=0, width=0.6, height=1.0), Rect(rid=1, width=0.6, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, 0.0), (rs[1], 0.2, 0.2)])
        with pytest.raises(InvalidPlacementError, match="overlap"):
            validate_placement(inst, p)

    def test_altered_dimensions_rejected(self):
        rs = [Rect(rid=0, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(Rect(rid=0, width=0.4, height=1.0), 0.0, 0.0)])
        with pytest.raises(InvalidPlacementError, match="altered"):
            validate_placement(inst, p)

    def test_height_budget(self):
        rs = [Rect(rid=0, width=0.5, height=1.0)]
        inst = StripPackingInstance(rs)
        p = make_placement([(rs[0], 0.0, 0.5)])
        with pytest.raises(InvalidPlacementError, match="budget"):
            validate_placement(inst, p, max_height=1.0)

    def test_precedence_ok(self):
        rs = [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=1.0)]
        inst = PrecedenceInstance(rs, TaskDAG([0, 1], [(0, 1)]))
        p = make_placement([(rs[0], 0.0, 0.0), (rs[1], 0.0, 1.0)])
        validate_placement(inst, p)

    def test_precedence_violated(self):
        rs = [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=1.0)]
        inst = PrecedenceInstance(rs, TaskDAG([0, 1], [(0, 1)]))
        p = make_placement([(rs[0], 0.0, 0.0), (rs[1], 0.5, 0.5)])
        with pytest.raises(InvalidPlacementError, match="precedence"):
            validate_placement(inst, p)

    def test_release_ok(self):
        rs = [Rect(rid=0, width=0.5, height=1.0, release=1.0)]
        inst = ReleaseInstance(rs, K=2)
        p = make_placement([(rs[0], 0.0, 1.0)])
        validate_placement(inst, p)

    def test_release_violated(self):
        rs = [Rect(rid=0, width=0.5, height=1.0, release=1.0)]
        inst = ReleaseInstance(rs, K=2)
        p = make_placement([(rs[0], 0.0, 0.5)])
        with pytest.raises(InvalidPlacementError, match="release"):
            validate_placement(inst, p)


@given(rect_lists(min_size=1, max_size=12))
def test_vertical_stack_always_valid(rects):
    """Stacking everything vertically is a universally valid placement."""
    inst = StripPackingInstance(rects)
    p = Placement()
    y = 0.0
    for r in rects:
        p.place(r, 0.0, y)
        y += r.height
    validate_placement(inst, p)
    assert abs(p.height - sum(r.height for r in rects)) < 1e-9


class TestColumnarValidator:
    """Placements of 64 rects or more, where the validator once switched to
    a numpy columnar path: every rule still holds at that size."""

    N = 80

    def stack(self, n=None, width=0.5):
        rects = [Rect(rid=i, width=width, height=1.0) for i in range(n or self.N)]
        p = make_placement([(r, 0.0, float(i)) for i, r in enumerate(rects)])
        return rects, p

    def test_large_valid_placement_passes(self):
        import numpy as np

        from repro.workloads.random_rects import uniform_rects
        from repro.packing import ffdh

        rects = uniform_rects(300, np.random.default_rng(11))
        validate_placement(StripPackingInstance(rects), ffdh(rects).placement)

    def test_overlap_detected_at_scale(self):
        rects, p = self.stack()
        bad = Rect(rid="bad", width=0.5, height=1.0)
        p.place(bad, 0.25, 0.5)  # overlaps rects 0 and 1
        inst = StripPackingInstance(rects + [bad])
        with pytest.raises(InvalidPlacementError, match="overlap"):
            validate_placement(inst, p)

    def test_containment_detected_at_scale(self):
        rects, p = self.stack(width=0.9)
        bad = Rect(rid="bad", width=0.9, height=1.0)
        p.place(bad, 0.2, float(self.N))  # sticks out on the right
        inst = StripPackingInstance(rects + [bad])
        with pytest.raises(InvalidPlacementError, match="sticks out"):
            validate_placement(inst, p)

    def test_below_base_detected_at_scale(self):
        rects, p = self.stack()
        bad = Rect(rid="bad", width=0.5, height=1.0)
        p.place(bad, 0.0, -0.5)
        inst = StripPackingInstance(rects + [bad])
        with pytest.raises(InvalidPlacementError, match="below the strip base"):
            validate_placement(inst, p)

    def test_height_budget_detected_at_scale(self):
        rects, p = self.stack()
        with pytest.raises(InvalidPlacementError, match="height budget"):
            validate_placement(StripPackingInstance(rects), p, max_height=self.N - 0.5)

    def test_precedence_detected_at_scale(self):
        rects, p = self.stack()
        # Edge demanding rect N-1 above rect 0 — violated (it is above, but
        # flip the edge: rect N-1 must precede rect 0).
        dag = TaskDAG(range(self.N), [(self.N - 1, 0)])
        inst = PrecedenceInstance(rects, dag)
        with pytest.raises(InvalidPlacementError, match="precedence violated"):
            validate_placement(inst, p)

    def test_release_detected_at_scale(self):
        rects = [
            Rect(rid=i, width=0.5, height=1.0, release=2.0 if i == 7 else 0.0)
            for i in range(self.N)
        ]
        p = make_placement([(r, 0.0, float(i)) for i, r in enumerate(rects)])
        # rid=7 sits at y=7 >= release 2 — valid; move its release up.
        inst = ReleaseInstance(
            [r.replace(release=50.0) if r.rid == 7 else r for r in rects], K=2
        )
        p7 = make_placement(
            [(inst.by_id()[r.rid], 0.0, float(i)) for i, r in enumerate(rects)]
        )
        with pytest.raises(InvalidPlacementError, match="release violated"):
            validate_placement(inst, p7)

    def defect_case(self, defect, n=None):
        """``(instance, placement, kwargs)``: a valid stack of ``n`` (default
        N) rectangles, or the same stack with one ``defect``."""
        n = n or self.N
        rects, p = self.stack(n, width=0.9 if defect == "sticks out" else 0.5)
        kwargs = {}
        if defect == "height budget":
            kwargs["max_height"] = n - 0.5
        elif defect == "precedence violated":
            return PrecedenceInstance(rects, TaskDAG(range(n), [(n - 1, 0)])), p, kwargs
        elif defect == "release violated":
            late = [r.replace(release=50.0) if r.rid == 7 else r for r in rects]
            p = make_placement([(r, 0.0, float(i)) for i, r in enumerate(late)])
            return ReleaseInstance(late, K=2), p, kwargs
        elif defect != "valid":
            bad = Rect(rid="bad", width=rects[0].width, height=1.0)
            p.place(bad, *{
                "overlap": (0.25, 0.5),
                "sticks out": (0.2, float(n)),
                "below the strip base": (0.0, -0.5),
            }[defect])
            rects = rects + [bad]
        return StripPackingInstance(rects), p, kwargs

    @pytest.mark.parametrize("defect", [
        "valid", "overlap", "sticks out", "below the strip base",
        "height budget", "precedence violated", "release violated",
    ], ids=[
        "valid", "overlap", "sticks-out", "below-base",
        "height-budget", "precedence", "release",
    ])
    def test_scalar_and_columnar_verdicts_agree(self, defect):
        """The verdict does not change across the old 64-rect switch: a
        16-rect stack (once the scalar loops) and an N-rect stack (once the
        columnar path) are both accepted when valid and both rejected,
        naming the rule, with each defect."""

        def verdict(n):
            instance, p, kwargs = self.defect_case(defect, n)
            try:
                validate_placement(instance, p, **kwargs)
            except InvalidPlacementError as exc:
                return str(exc)
            return None

        at_scale = verdict(self.N)
        small = verdict(16)
        if defect == "valid":
            assert at_scale is None and small is None
        else:
            assert defect in at_scale and defect in small

    @pytest.mark.parametrize("defects, edges, message", [
        # Containment runs rect by rect in placement order, so the earlier
        # rect is named even though "sticks out" is the first rule checked.
        (
            [("low", 0.0, -0.5), ("wide", 0.6, 100.0)], [],
            "rectangle 'low' below the strip base: y=-0.5",
        ),
        (
            [("wide", 0.6, 100.0), ("low", 0.0, -0.5)], [],
            "rectangle 'wide' sticks out horizontally: x in [0.6, 1.1]",
        ),
        # Containment is checked before overlap.
        (
            [("over", 0.25, 10.5), ("wide", 0.6, 100.0)], [],
            "rectangle 'wide' sticks out horizontally: x in [0.6, 1.1]",
        ),
        # Of two overlaps, the sweep meets the lower one first; the live
        # rect comes first in the message.
        (
            [("high", 0.25, 60.5), ("over", 0.25, 10.5)], [],
            "rectangles 10 and 'over' overlap: "
            "[0,0.5]x[10,11] vs [0.25,0.75]x[10.5,11.5]",
        ),
        # Overlap is checked before precedence.
        (
            [("over", 0.25, 20.5)], [(N - 1, 0)],
            "rectangles 20 and 'over' overlap: "
            "[0,0.5]x[20,21] vs [0.25,0.75]x[20.5,21.5]",
        ),
    ], ids=["below-base-first", "sticks-out-first", "containment-before-overlap",
            "lowest-overlap", "overlap-before-precedence"])
    def test_first_offender_is_named(self, defects, edges, message):
        rects, p = self.stack()
        for rid, x, y in defects:
            bad = Rect(rid=rid, width=0.5, height=1.0)
            p.place(bad, x, y)
            rects.append(bad)
        instance = PrecedenceInstance(rects, TaskDAG([r.rid for r in rects], edges))
        with pytest.raises(InvalidPlacementError) as info:
            validate_placement(instance, p)
        assert str(info.value) == message

    @given(rect_lists(min_size=64, max_size=96, max_h=1.5))
    def test_shelf_layouts_valid_both_paths(self, rects):
        """BFDH shelves of 64 to 96 rects validate."""
        from repro.packing import bfdh

        result = bfdh(rects)
        inst = StripPackingInstance(rects)
        validate_placement(inst, result.placement)
        for rid, pr in list(result.placement.items())[:8]:
            # spot-check the containment predicate on a sample
            assert 0.0 <= pr.x <= 1.0 - pr.rect.width + 1e-9


# ----------------------------------------------------------------------
# find_overlap against the pairwise predicate
# ----------------------------------------------------------------------

ATOL = tol.ATOL
#: ATOL multiples at and around the tolerance, both ways.
NEAR_ATOL = (0.0, 0.99, 1.0, 1.01, -0.99, -1.0, -1.01)


def assert_matches_pairwise(placed):
    """``find_overlap`` finds a pair exactly when the O(n^2) loop over
    :meth:`PlacedRect.overlaps` does, and the pair it names overlaps."""
    pairwise = any(a.overlaps(b) for a, b in itertools.combinations(placed, 2))
    found = find_overlap(placed)
    assert (found is not None) == pairwise, found
    if found is not None:
        a, b = found
        assert a is not b and a.overlaps(b)


# Coordinates on an eighths grid nudged by ATOL multiples, and sizes that
# include slivers narrower or lower than ATOL, which rect_lists (minimum
# 0.01) never draws.
coords = st.builds(
    lambda k, d: k / 8 + d * ATOL, st.integers(0, 16), st.sampled_from(NEAR_ATOL)
)
sizes = st.one_of(
    st.floats(0.01, 0.6),
    st.sampled_from([0.125, 0.25, 0.5]),
    st.floats(1e-12, 3 * ATOL),
)


@st.composite
def placed_rects(draw):
    n = draw(st.integers(0, 24))
    return [
        PlacedRect(Rect(rid=i, width=draw(sizes), height=draw(sizes)), draw(coords), draw(coords))
        for i in range(n)
    ]


@given(placed_rects())
def test_find_overlap_matches_pairwise_on_random_placements(placed):
    assert_matches_pairwise(placed)


def mutants(placed, rng):
    """One-rect mutants of a packing: shifted by ATOL multiples, widened,
    or dropped onto a neighbour."""
    for k, pr in enumerate(placed):
        other = placed[rng.randrange(len(placed))]
        f = rng.choice(NEAR_ATOL[1:])
        rect = pr.rect
        wider = rect.replace(width=min(1.0, rect.width + abs(f) * ATOL))
        for moved in (
            PlacedRect(rect, pr.x + f * ATOL, pr.y),
            PlacedRect(rect, pr.x, pr.y + f * ATOL),
            PlacedRect(wider, pr.x, pr.y),
            PlacedRect(rect, other.x + f * ATOL, other.y),
            PlacedRect(rect, other.x, other.y + other.rect.height + f * ATOL),
            PlacedRect(rect, other.x + other.rect.width + f * ATOL, other.y),
        ):
            yield placed[:k] + [moved] + placed[k + 1:]


def with_slivers(placed, rng):
    """``placed`` plus, shuffled in, a sliver narrower than ATOL on each
    rect's left edge and one lower than ATOL on its base: the slivers
    overlap nothing, but they sit between rects in x order or share a
    rect's base and x-range."""
    slivers = [
        PlacedRect(Rect(rid=(kind, pr.rect.rid), width=w, height=h), pr.x, pr.y)
        for pr in placed
        for kind, w, h in (
            ("narrow", ATOL / 10, pr.rect.height),
            ("flat", pr.rect.width, ATOL / 10),
        )
    ]
    out = placed + slivers
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("packer", ["nfdh", "ffdh", "bfdh", "bottom_left"])
def test_find_overlap_matches_pairwise_on_packer_mutants(packer):
    import numpy as np

    from repro import packing
    from repro.workloads.random_rects import powerlaw_rects, uniform_rects

    rng = random.Random(packer)
    for seed in range(4):
        make = powerlaw_rects if seed % 2 else uniform_rects
        rects = make(12, np.random.default_rng(seed))
        placed = list(getattr(packing, packer)(rects).placement)
        for base in (placed, with_slivers(placed, rng)):
            assert find_overlap(base) is None
            for mutant in mutants(base, rng):
                assert_matches_pairwise(mutant)


def test_find_overlap_walks_past_a_sliver():
    """A sliver between two overlapping rects in x order overlaps neither:
    testing only a new rect's x-neighbours misses the pair."""
    a = PlacedRect(Rect(rid="a", width=0.5, height=1.0), 0.0, 0.0)
    p = PlacedRect(Rect(rid="p", width=1e-10, height=1.0), 0.0, 0.0)
    b = PlacedRect(Rect(rid="b", width=0.2, height=1.0), 0.1, 0.5)
    for order in itertools.permutations([a, p, b]):
        assert {pr.rect.rid for pr in find_overlap(list(order))} == {"a", "b"}
