"""Unit tests for placements and the shared validator."""

import pytest
from hypothesis import given

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
    """The vectorized fast path (n >= 64) agrees with the scalar loops."""

    N = 80  # past the columnar threshold

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

    def defect_case(self, defect):
        """``(instance, placement, kwargs)``: a valid stack of N rectangles,
        or the same stack with one ``defect``."""
        rects, p = self.stack(width=0.9 if defect == "sticks out" else 0.5)
        kwargs = {}
        if defect == "height budget":
            kwargs["max_height"] = self.N - 0.5
        elif defect == "precedence violated":
            return PrecedenceInstance(rects, TaskDAG(range(self.N), [(self.N - 1, 0)])), p, kwargs
        elif defect == "release violated":
            late = [r.replace(release=50.0) if r.rid == 7 else r for r in rects]
            p = make_placement([(r, 0.0, float(i)) for i, r in enumerate(late)])
            return ReleaseInstance(late, K=2), p, kwargs
        elif defect != "valid":
            bad = Rect(rid="bad", width=rects[0].width, height=1.0)
            p.place(bad, *{
                "overlap": (0.25, 0.5),
                "sticks out": (0.2, float(self.N)),
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
    def test_scalar_and_columnar_verdicts_agree(self, monkeypatch, defect):
        """Both engines accept the valid stack and reject each defect."""
        import repro.core.placement as placement_module

        instance, p, kwargs = self.defect_case(defect)

        def verdict():
            try:
                validate_placement(instance, p, **kwargs)
            except InvalidPlacementError as exc:
                return str(exc)
            return None

        columnar = verdict()
        monkeypatch.setattr(placement_module, "_COLUMNAR_MIN_N", 10**9)
        scalar = verdict()
        if defect == "valid":
            assert columnar is None and scalar is None
        else:
            assert defect in columnar and defect in scalar

    @given(rect_lists(min_size=64, max_size=96, max_h=1.5))
    def test_shelf_layouts_valid_both_paths(self, rects):
        """The columnar path accepts what the scalar path accepts."""
        from repro.packing import bfdh

        result = bfdh(rects)
        inst = StripPackingInstance(rects)
        validate_placement(inst, result.placement)  # columnar (n >= 64)
        for rid, pr in list(result.placement.items())[:8]:
            # spot-check the scalar predicates on a sample
            assert 0.0 <= pr.x <= 1.0 - pr.rect.width + 1e-9


def test_find_overlap_engines_agree():
    """Scalar sweep and columnar sweep agree on overlap existence."""
    import numpy as np

    from repro.core.placement import find_overlap_columns

    rng = np.random.default_rng(5)
    for trial in range(20):
        n = 120
        ws = rng.uniform(0.05, 0.4, n)
        xs = rng.uniform(0.0, 0.6, n)
        ys = rng.uniform(0.0, 6.0, n)
        hs = rng.uniform(0.05, 0.8, n)
        placed = [
            PlacedRect(Rect(rid=i, width=float(ws[i]), height=float(hs[i])),
                       float(xs[i]), float(ys[i]))
            for i in range(n)
        ]
        scalar = find_overlap((pr for pr in placed))
        x2 = np.array([pr.x + pr.rect.width for pr in placed])
        y2 = np.array([pr.y + pr.rect.height for pr in placed])
        columnar = find_overlap_columns(
            np.asarray(xs), np.asarray(ys), x2, y2
        )
        assert (scalar is None) == (columnar is None)
        if columnar is not None:
            i, j = columnar
            assert placed[i].overlaps(placed[j])


def test_find_overlap_columns_small_pair_budget():
    """Chunked candidate batches find the pair regardless of budget."""
    import numpy as np

    from repro.core.placement import find_overlap_columns

    n = 70
    xs = np.zeros(n)
    ys = np.arange(n, dtype=float)
    x2 = np.full(n, 0.5)
    y2 = ys + 1.0
    ys[-1] = 10.25  # drop the last rect into the middle of the stack
    y2[-1] = 11.25
    pair = find_overlap_columns(xs, ys, x2, y2, pair_budget=4)
    assert pair is not None
    assert n - 1 in pair and (pair[0] in (10, 11) or pair[1] in (10, 11))
