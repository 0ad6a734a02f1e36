"""Tests for JSON serialization of instances and placements."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidInstanceError
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.placement import validate_placement
from repro.core.rectangle import Rect
from repro.core.serialize import (
    KEY_VERSION,
    canonical_hash,
    canonical_instance_dict,
    canonical_params,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    placement_from_dict,
    placement_to_dict,
    result_key,
)
from repro.core.tol import ATOL
from repro.dag.graph import TaskDAG

from .conftest import precedence_instances, rect_lists, release_instances


def rects3():
    return [
        Rect(rid="a", width=0.5, height=1.0),
        Rect(rid="b", width=0.25, height=0.5, release=1.0),
        Rect(rid="c", width=0.75, height=0.25),
    ]


class TestInstanceRoundTrip:
    def test_plain(self):
        inst = StripPackingInstance(rects3())
        out = loads_instance(dumps_instance(inst))
        assert type(out) is StripPackingInstance
        assert [r.rid for r in out.rects] == ["a", "b", "c"]
        assert out.rects[1].release == 1.0

    def test_precedence(self):
        inst = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "b")]))
        out = loads_instance(dumps_instance(inst))
        assert isinstance(out, PrecedenceInstance)
        assert out.dag.edges() == [("a", "b")]

    def test_release(self):
        inst = ReleaseInstance(rects3(), K=4)
        out = loads_instance(dumps_instance(inst))
        assert isinstance(out, ReleaseInstance)
        assert out.K == 4

    def test_unknown_type(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "quantum", "rects": []})

    def test_missing_K(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "release", "rects": []})

    def test_missing_field(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "plain", "rects": [{"id": 0, "width": 0.5}]})

    def test_dict_shape(self):
        inst = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "c")]))
        d = instance_to_dict(inst)
        assert d["type"] == "precedence"
        assert d["edges"] == [["a", "c"]]
        json.dumps(d)  # JSON-ready


class TestPlacementRoundTrip:
    def test_round_trip(self):
        inst = StripPackingInstance(rects3())
        from repro.core.registry import solve

        p = solve(inst, "nfdh")
        d = placement_to_dict(p)
        q = placement_from_dict(d, inst)
        validate_placement(inst, q)
        assert q.height == p.height

    def test_unknown_id_rejected(self):
        inst = StripPackingInstance(rects3())
        with pytest.raises(InvalidInstanceError):
            placement_from_dict({"placements": [{"id": "ghost", "x": 0, "y": 0}]}, inst)

    def test_sorted_output(self):
        inst = StripPackingInstance(rects3())
        from repro.core.registry import solve

        d = placement_to_dict(solve(inst, "nfdh"))
        ids = [e["id"] for e in d["placements"]]
        assert ids == sorted(ids)


# ----------------------------------------------------------------------
# canonical fingerprinting (the serving cache's identity function)
# ----------------------------------------------------------------------

def _permuted(instance, seed):
    """The same instance with its rectangle tuple reordered (ids kept)."""
    import numpy as np

    rects = list(instance.rects)
    order = np.random.default_rng(seed).permutation(len(rects))
    rects = [rects[i] for i in order]
    if isinstance(instance, ReleaseInstance):
        return ReleaseInstance(rects, instance.K)
    if isinstance(instance, PrecedenceInstance):
        return PrecedenceInstance(rects, instance.dag)
    return StripPackingInstance(rects)


#: Ids mixing ints and strings; ``1``/``"1"`` and ``10``/``"10"`` compare
#: unequal but share their ``str()`` form.
ID_POOL = (0, 1, 2, 10, "0", "1", "10", "a", "b")

MUTATIONS = ("none", "reorder", "noise", "negative_zero", "retype", "resize", "edges", "variant")


def _build(kind, K, ids, dims, edges, order):
    rects = [Rect(rid=ids[i], width=dims[i][0], height=dims[i][1], release=dims[i][2]) for i in order]
    if kind == "release":
        return ReleaseInstance(rects, K)
    if kind == "precedence":
        nodes = [r.rid for r in rects]  # node order follows the rect order
        return PrecedenceInstance(rects, TaskDAG(nodes, [(ids[u], ids[v]) for u, v in edges]))
    return StripPackingInstance(rects)


def _retyped(rid):
    """``1`` <-> ``"1"``; ``None`` for ids with no numeric twin."""
    if isinstance(rid, int):
        return str(rid)
    return int(rid) if rid.isdigit() else None


@st.composite
def instance_pairs(draw):
    """``(a, b, mutation)``: a random instance and a mutated copy of it.

    Dimensions are exact binary fractions, far from any tick's rounding
    boundary, so the ``ATOL / 10`` noise mutation never crosses one.
    """
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=len(ID_POOL), unique=True))
    n = len(ids)
    kind = draw(st.sampled_from(("plain", "precedence", "release")))
    K = draw(st.integers(1, 8))
    columns = st.lists(st.integers(1, 64), min_size=n, max_size=n)
    releases = (
        [c / 4 for c in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        if kind == "release"
        else [0.0] * n
    )
    dims = [(w / 64, h / 16, r) for w, h, r in zip(draw(columns), draw(columns), releases)]
    edges = []
    if kind == "precedence" and n > 1:
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1])
        edges = sorted(draw(st.sets(pairs, max_size=2 * n)))
    a = _build(kind, K, ids, dims, edges, range(n))

    mutation = draw(st.sampled_from(MUTATIONS))
    order = list(range(n))
    if mutation == "reorder":
        order = draw(st.permutations(range(n)))
        edges = draw(st.permutations(edges))
    elif mutation == "noise":
        noise = ATOL / 10
        dims = [(w - noise, h + noise, r + noise) for w, h, r in dims]
    elif mutation == "negative_zero":
        dims = [(w, h, -0.0 if r == 0.0 else r) for w, h, r in dims]
    elif mutation == "retype":
        twins = [j for j, rid in enumerate(ids) if _retyped(rid) is not None and _retyped(rid) not in ids]
        if not twins:
            return a, a, "none"
        j = draw(st.sampled_from(twins))
        ids = [_retyped(rid) if i == j else rid for i, rid in enumerate(ids)]
    elif mutation == "resize":
        j = draw(st.integers(0, n - 1))
        dims = [(w / 2, h, r) if i == j else (w, h, r) for i, (w, h, r) in enumerate(dims)]
    elif mutation == "edges":
        edges = edges[1:] if edges else ([(0, n - 1)] if n > 1 else [])
    elif mutation == "variant":
        kind, K = {"plain": ("precedence", K), "precedence": ("plain", K), "release": ("release", K + 1)}[kind]
    return a, _build(kind, K, ids, dims, edges, order), mutation


class TestCanonicalHash:
    @given(rects=rect_lists(min_size=1, max_size=12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rect_reordering(self, rects, seed):
        inst = StripPackingInstance(rects)
        shuffled = _permuted(inst, seed)
        assert canonical_instance_dict(inst) == canonical_instance_dict(shuffled)
        assert canonical_hash(inst) == canonical_hash(shuffled)

    @given(inst=precedence_instances(max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_precedence_invariant_under_reordering(self, inst, seed):
        assert canonical_hash(inst) == canonical_hash(_permuted(inst, seed))

    @given(inst=release_instances(max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_release_invariant_under_reordering(self, inst, seed):
        assert canonical_hash(inst) == canonical_hash(_permuted(inst, seed))

    @given(rects=rect_lists(min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_hash_inequality_implies_dict_inequality(self, rects):
        """The digest is a pure function of the canonical dict, so two
        instances with equal canonical dicts can never hash apart."""
        a = StripPackingInstance(rects)
        b = _permuted(a, 7)
        if canonical_hash(a) != canonical_hash(b):
            assert canonical_instance_dict(a) != canonical_instance_dict(b)
        if canonical_instance_dict(a) == canonical_instance_dict(b):
            assert canonical_hash(a) == canonical_hash(b)

    def test_subtolerance_noise_collapses(self):
        a = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        b = StripPackingInstance(
            [Rect(rid=0, width=0.5 + ATOL / 10, height=1.0 - ATOL / 10)]
        )
        assert canonical_hash(a) == canonical_hash(b)

    def test_super_tolerance_difference_separates(self):
        a = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        b = StripPackingInstance([Rect(rid=0, width=0.5 + 1e4 * ATOL, height=1.0)])
        assert canonical_hash(a) != canonical_hash(b)

    def test_ids_are_part_of_the_identity(self):
        a = StripPackingInstance([Rect(rid="a", width=0.5, height=1.0)])
        b = StripPackingInstance([Rect(rid="b", width=0.5, height=1.0)])
        assert canonical_hash(a) != canonical_hash(b)

    def test_variant_and_structure_separate(self):
        rects = rects3()
        plain = StripPackingInstance(rects)
        release = ReleaseInstance(rects, K=4)
        release8 = ReleaseInstance(rects, K=8)
        chain = PrecedenceInstance(rects, TaskDAG(["a", "b", "c"], [("a", "b")]))
        loose = PrecedenceInstance(rects, TaskDAG(["a", "b", "c"], []))
        hashes = [canonical_hash(i) for i in (plain, release, release8, chain, loose)]
        assert len(set(hashes)) == 5

    def test_edge_order_is_canonicalised(self):
        a = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "b"), ("b", "c")]))
        b = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("b", "c"), ("a", "b")]))
        assert canonical_hash(a) == canonical_hash(b)

    def test_dag_node_order_is_canonicalised(self):
        edges = [("a", "b"), ("a", "c"), ("b", "c")]
        a = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], edges))
        b = PrecedenceInstance(rects3()[::-1], TaskDAG(["c", "b", "a"], edges[::-1]))
        assert canonical_hash(a) == canonical_hash(b)

    def test_hash_is_hex_sha256(self):
        digest = canonical_hash(StripPackingInstance(rects3()))
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_int_and_str_ids_never_tie(self):
        one = StripPackingInstance([Rect(rid=1, width=0.5, height=1.0)])
        text = StripPackingInstance([Rect(rid="1", width=0.5, height=1.0)])
        assert canonical_hash(one) != canonical_hash(text)
        both = [Rect(rid=1, width=0.5, height=1.0), Rect(rid="1", width=0.25, height=2.0)]
        assert canonical_hash(StripPackingInstance(both)) == canonical_hash(
            StripPackingInstance(both[::-1])
        )

    def test_negative_zero_release_matches_zero(self):
        a = ReleaseInstance([Rect(rid="a", width=0.5, height=1.0, release=0.0)], K=2)
        b = ReleaseInstance([Rect(rid="a", width=0.5, height=1.0, release=-0.0)], K=2)
        assert canonical_hash(a) == canonical_hash(b)

    def test_ticks_beyond_int64_do_not_wrap(self):
        """Heights above ~9.2e9 have more than 2**63 ticks; the key keeps
        them as exact float64 integers, so they still hash apart."""
        heights = (9.3e9, 9.3e9 + 1.0, 1e10, 2e10, 1e12)
        dicts = [
            canonical_instance_dict(StripPackingInstance([Rect(rid=0, width=0.5, height=h)]))
            for h in heights
        ]
        assert all(d["rects"][0]["h"] > 2**63 for d in dicts)
        hashes = {
            canonical_hash(StripPackingInstance([Rect(rid=0, width=0.5, height=h)]))
            for h in heights
        }
        assert len(hashes) == len(heights)

    def test_tick_overflow_is_rejected(self):
        inst = StripPackingInstance([Rect(rid=0, width=0.5, height=1e300)])
        with pytest.raises(InvalidInstanceError, match="tick range"):
            canonical_hash(inst)

    @given(pair=instance_pairs())
    @settings(max_examples=300, deadline=None)
    def test_hash_equal_exactly_when_dicts_equal(self, pair):
        """The columnar key and the canonical dict are one equivalence:
        reordered rects and edges, sub-``ATOL`` noise and ``-0.0`` releases
        match; a retyped id (``1`` vs ``"1"``) or any real change differs."""
        a, b, mutation = pair
        same_dict = canonical_instance_dict(a) == canonical_instance_dict(b)
        assert (canonical_hash(a) == canonical_hash(b)) == same_dict
        if mutation in ("reorder", "noise", "negative_zero"):
            assert same_dict, mutation
        elif mutation == "retype":
            assert not same_dict


def _numpy_canonical_hash(instance, *, atol=ATOL):
    """The ``repro-key/2`` digest as the numpy encoder computed it, from the
    columns of ``instance.arrays()``: the oracle the pure-Python
    :func:`canonical_hash` must match byte for byte."""
    import numpy as np

    arrays = instance.arrays()
    rids = arrays.rids
    keys = [(type(rid).__name__, str(rid)) for rid in rids]
    order = sorted(range(len(rids)), key=keys.__getitem__)
    ids = json.dumps([rids[i] for i in order], separators=(",", ":")).encode("ascii")
    columns = np.stack((arrays.width, arrays.height, arrays.release))[:, order]
    with np.errstate(over="ignore"):
        ticks = np.rint(columns / atol) + 0.0
    if not np.isfinite(ticks).all():
        raise InvalidInstanceError("cannot canonicalise a value beyond the tick range")
    kind, K, edges = "plain", "", np.empty((2, 0), dtype="<i8")
    if isinstance(instance, ReleaseInstance):
        kind, K = "release", instance.K
    elif isinstance(instance, PrecedenceInstance):
        kind = "precedence"
        pos = {rids[i]: p for p, i in enumerate(order)}
        succ = instance.dag.successor_sets()
        edges = np.array(
            [[pos[u] for u, vs in succ.items() for _ in vs],
             [pos[v] for vs in succ.values() for v in vs]],
            dtype="<i8",
        )
        edges = edges[:, np.lexsort(edges[::-1])]
    digest = hashlib.sha256(f"{KEY_VERSION}|{kind}|{K}|{len(rids)}|{len(ids)}|".encode("ascii"))
    digest.update(ids)
    digest.update(ticks.astype("<f8", copy=False).tobytes())
    digest.update(edges.tobytes())
    return digest.hexdigest()


#: A power-of-two tolerance: ``(k + 0.5) * HALF_ATOL`` divides back to an
#: exact half-integer, so the quotient sits on a rounding tie.
HALF_ATOL = 2.0**-20


class TestKeyMatchesNumpyEncoding:
    """The pure-Python key computes the numpy encoder's bytes, on inputs
    the golden corpus does not hold."""

    @given(pair=instance_pairs())
    @settings(max_examples=300, deadline=None)
    def test_mutated_pairs(self, pair):
        a, b, _ = pair
        assert canonical_hash(a) == _numpy_canonical_hash(a)
        assert canonical_hash(b) == _numpy_canonical_hash(b)

    @given(
        ties=st.lists(
            st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 2**40), st.integers(0, 2**40)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_half_integer_quotients_round_to_even(self, ties):
        rects = [
            Rect(
                rid=i,
                width=(w + 0.5) * HALF_ATOL,
                height=(h + 0.5) * HALF_ATOL,
                release=(r + 0.5) * HALF_ATOL,
            )
            for i, (w, h, r) in enumerate(ties)
        ]
        inst = ReleaseInstance(rects, K=4)
        assert canonical_hash(inst, atol=HALF_ATOL) == _numpy_canonical_hash(inst, atol=HALF_ATOL)

    @pytest.mark.parametrize(
        "height",
        [2.0**53 * ATOL, 2.0**53 * ATOL + 3e-9, 9.3e9, 2.0**63 * ATOL, 1e12, 1e200, 10**20],
        ids=["2^53", "past-2^53", "9.3e9", "2^63", "1e12", "1e200", "int-1e20"],
    )
    def test_ticks_beyond_2_53_and_2_63(self, height):
        inst = ReleaseInstance(
            [Rect(rid="a", width=0.5, height=height, release=height / 3),
             Rect(rid="b", width=1.0, height=0.5)],
            K=2,
        )
        assert canonical_hash(inst) == _numpy_canonical_hash(inst)

    def test_bool_ids(self):
        rects = [
            Rect(rid=True, width=0.5, height=1.0),
            Rect(rid="True", width=0.25, height=2.0),
            Rect(rid=False, width=0.75, height=0.5),
            Rect(rid="true", width=0.5, height=0.5),
        ]
        for inst in (StripPackingInstance(rects), StripPackingInstance(rects[::-1])):
            assert canonical_hash(inst) == _numpy_canonical_hash(inst)

    def test_precedence_edges_out_of_order(self):
        ids = ["d", 3, "a", 10, "b"]
        rects = [Rect(rid=rid, width=0.2 * (k + 1), height=0.5 + k) for k, rid in enumerate(ids)]
        edges = [("b", 3), (10, "a"), ("d", "b"), (3, "a"), ("d", 10), (10, 3)]
        for nodes, order in ((ids, edges), (ids[::-1], edges[::-1])):
            inst = PrecedenceInstance(rects, TaskDAG(nodes, order))
            assert canonical_hash(inst) == _numpy_canonical_hash(inst)
        empty = PrecedenceInstance(rects, TaskDAG(ids, []))
        assert canonical_hash(empty) == _numpy_canonical_hash(empty)

    @pytest.mark.parametrize(
        "rect, atol",
        [
            (Rect(rid=0, width=0.5, height=1e300), ATOL),
            (Rect(rid=0, width=0.5, height=10**300), ATOL),
            (Rect(rid=0, width=0.5, height=1.0, release=1e308), ATOL),
            (Rect(rid=0, width=0.5, height=2.0), 1e-308 * 1e-10),
        ],
        ids=["height-1e300", "int-height-1e300", "release-1e308", "subnormal-atol"],
    )
    def test_overflow_raises_the_same_error(self, rect, atol):
        inst = ReleaseInstance([rect], K=2)
        with pytest.raises(InvalidInstanceError) as ours:
            canonical_hash(inst, atol=atol)
        with pytest.raises(InvalidInstanceError) as oracle:
            _numpy_canonical_hash(inst, atol=atol)
        assert str(ours.value) == str(oracle.value) == "cannot canonicalise a value beyond the tick range"


class TestResultKey:
    def test_key_structure_and_determinism(self):
        inst = StripPackingInstance(rects3())
        key = result_key(inst, "nfdh", {"x": 1})
        assert key == result_key(inst, "nfdh", {"x": 1})
        assert key.split("|")[0] == canonical_hash(inst)
        assert key.split("|")[1] == "nfdh"

    def test_spec_and_params_separate_keys(self):
        inst = StripPackingInstance(rects3())
        keys = {
            result_key(inst, "nfdh"),
            result_key(inst, "ffdh"),
            result_key(inst, "aptas", {"eps": 0.5}),
            result_key(inst, "aptas", {"eps": 0.25}),
        }
        assert len(keys) == 4

    def test_none_and_empty_params_share_a_key(self):
        inst = StripPackingInstance(rects3())
        assert result_key(inst, "nfdh", None) == result_key(inst, "nfdh", {})

    def test_param_floats_are_tolerance_aware(self):
        inst = StripPackingInstance(rects3())
        assert result_key(inst, "aptas", {"eps": 0.5}) == result_key(
            inst, "aptas", {"eps": 0.5 + ATOL / 10}
        )

    def test_param_key_order_is_canonical(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params({"b": 2, "a": 1})

    def test_nested_and_scalar_param_values(self):
        out = canonical_params({"names": ("a", "b"), "flag": True, "depth": 2})
        parsed = json.loads(out)
        assert parsed["names"] == ["s:a", "s:b"] and parsed["flag"] is True
        assert parsed["depth"].startswith("n:")  # numbers are tagged ticks

    def test_params_never_alias_across_types(self):
        # 4 and 4.0 are the same parameter value (JSON clients emit either)
        assert canonical_params({"K": 4}) == canonical_params({"K": 4.0})
        # a float never collides with the raw integer equal to its tick
        # count (both quantise, so 0.5 -> n:5e8 but 500000000 -> n:5e17)
        assert canonical_params({"eps": 0.5}) != canonical_params({"eps": 500000000})
        # a string can't forge a number's canonical form (the "s:" tag)
        assert canonical_params({"eps": 0.5}) != canonical_params({"eps": "n:500000000"})
        # and bools stay bools, never numbers
        assert canonical_params({"x": True}) != canonical_params({"x": 1})

    def test_empty_spec_name_rejected(self):
        with pytest.raises(InvalidInstanceError):
            result_key(StripPackingInstance(rects3()), "")

    def test_unserialisable_param_rejected(self):
        with pytest.raises(InvalidInstanceError):
            canonical_params({"fn": object()})


class TestCanonicalMemo:
    """The per-instance memo caches only the default-``atol`` form."""

    def test_default_atol_memoizes(self):
        inst = StripPackingInstance(rects3())
        first = canonical_instance_dict(inst)
        assert canonical_instance_dict(inst) is first
        assert canonical_instance_dict(inst, atol=ATOL) is first

    def test_non_default_atol_never_poisons_the_memo(self):
        """An exotic-tolerance call neither reads nor writes the memo.

        Ordering matters both ways: a coarse-grid call *before* the first
        default call must not seed the memo with coarse ticks, and one
        *after* must not evict or overwrite the default-grid entry the
        serving cache keys on.
        """
        coarse = 1e-3
        inst = StripPackingInstance(rects3())
        before = canonical_instance_dict(inst, atol=coarse)
        assert inst.__dict__.get("_canonical_dict") is None  # not written
        default = canonical_instance_dict(inst)
        assert default != before  # different grids, different ticks
        after = canonical_instance_dict(inst, atol=coarse)
        assert after == before
        assert canonical_instance_dict(inst) is default  # memo intact

    def test_memo_entry_matches_fresh_computation(self):
        """The memoized dict equals what an unmemoized instance computes."""
        inst = StripPackingInstance(rects3())
        canonical_instance_dict(inst, atol=1e-5)  # exotic call first
        memoized = canonical_instance_dict(inst)
        fresh = canonical_instance_dict(StripPackingInstance(rects3()))
        assert memoized == fresh
        assert canonical_hash(inst) == canonical_hash(StripPackingInstance(rects3()))
