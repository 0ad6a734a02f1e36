"""Differential tests: Algorithm F and DC against their executable specs.

Algorithm F's ready set (per-rectangle counts of predecessors not yet on a
closed shelf), ``compute_F`` (no per-node predecessor copies),
``TaskDAG.induced`` (no cycle re-check) and DC on row indices (one ``F``
per instance, reused for ``S_bot`` and recomputed in one pass for
``S_top``) must be observationally identical to the pre-optimisation
versions kept in :mod:`repro.precedence.reference`: the same placement
for every rectangle, the same shelf records (ids, used width and
``closed_by_skip``, so Lemma 2.5's skip count cannot move), the same
``F`` maps and sub-DAGs, and the same DC band decomposition.  The ``S_bot``
reuse rests on an identity that is pinned here too: at every recursion of
the reference DC, ``F`` on the sub-DAG induced by ``S_bot`` equals the
parent's ``F`` bit for bit.

Generated ids mix ints and strings but keep their ``str()`` forms unique.
Both versions queue fresh rectangles sorted by ``str(id)``; on a tie the
reference falls back to set iteration order, which depends on the hash
seed, so tied ids have no reproducible order to compare against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidInstanceError
from repro.core.instance import PrecedenceInstance
from repro.core.rectangle import Rect
from repro.dag.critical_path import F_of_set, compute_F
from repro.dag.graph import TaskDAG
from repro.precedence import reference
from repro.precedence.dc import dc_pack
from repro.precedence.reference import (
    reference_compute_F,
    reference_dc_pack,
    reference_induced,
    reference_shelf_next_fit,
)
from repro.precedence.shelf_nextfit import shelf_next_fit
from repro.workloads.adversarial import ratio3_instance
from repro.workloads.dags import layered_precedence_instance

from .conftest import dags_over


@st.composite
def mixed_id_instances(draw, max_size: int = 14, uniform: bool = True):
    """Precedence instances whose ids are ``i`` or ``str(i)`` (unique
    ``str()`` forms), in a shuffled rect order; one common height when
    ``uniform``, else heights with frequent exact-half ties."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    ids = [i if draw(st.booleans()) else str(i) for i in range(n)]
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    if uniform:
        heights = [draw(st.sampled_from([1.0, 0.5, 3.0]))] * n
    else:
        heights = draw(
            st.lists(
                st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 2.0)),
                min_size=n,
                max_size=n,
            )
        )
    order = draw(st.permutations(range(n)))
    rects = [Rect(rid=ids[i], width=widths[i], height=heights[i]) for i in order]
    dag = draw(dags_over(n))
    return PrecedenceInstance(rects, TaskDAG(ids, [(ids[u], ids[v]) for u, v in dag.edges()]))


def unit_heights(instance: PrecedenceInstance) -> PrecedenceInstance:
    """The same ids and DAG with every height set to 1."""
    return PrecedenceInstance([r.replace(height=1.0) for r in instance.rects], instance.dag)


def assert_same_shelf_run(instance: PrecedenceInstance) -> None:
    fast, ref = shelf_next_fit(instance), reference_shelf_next_fit(instance)
    assert list(fast.placement.items()) == list(ref.placement.items())
    assert fast.shelves == ref.shelves
    assert fast.shelf_height == ref.shelf_height and fast.n_skips == ref.n_skips


def assert_same_dc(instance: PrecedenceInstance) -> None:
    fast, ref = dc_pack(instance), reference_dc_pack(instance)
    assert fast.bands == ref.bands
    assert fast.height == ref.height
    assert list(fast.placement.items()) == list(ref.placement.items())


def assert_same_induced(dag: TaskDAG, keep) -> None:
    fast, ref = dag.induced(keep), reference_induced(dag, keep)
    assert fast.nodes() == ref.nodes()
    assert fast.n_edges == ref.n_edges
    assert fast.successor_sets() == ref.successor_sets()
    assert fast.predecessor_sets() == ref.predecessor_sets()
    assert fast.topological_order() == ref.topological_order()


def layered(seed: int, n: int = 120) -> PrecedenceInstance:
    return layered_precedence_instance(n, 8, 0.1, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# Algorithm F
# ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(mixed_id_instances())
def test_shelf_next_fit_matches_reference(instance):
    assert_same_shelf_run(instance)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
def test_shelf_next_fit_matches_reference_on_ratio3(k):
    """Lemma 2.7's family: every shelf but the narrow chain's is a skip."""
    assert_same_shelf_run(ratio3_instance(k, eps=1e-4).instance)


@pytest.mark.parametrize("seed", range(4))
def test_shelf_next_fit_matches_reference_on_layered(seed):
    assert_same_shelf_run(unit_heights(layered(seed)))


def test_shelf_next_fit_rejects_mixed_heights_like_reference():
    instance = layered(0, n=20)
    for solve in (shelf_next_fit, reference_shelf_next_fit):
        with pytest.raises(InvalidInstanceError, match="uniform heights"):
            solve(instance)


# ----------------------------------------------------------------------
# DC: rows and one F per instance against the line-by-line reference
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(mixed_id_instances(uniform=False))
def test_dc_matches_reference(instance):
    assert_same_dc(instance)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_dc_matches_reference_on_ratio3(k):
    assert_same_dc(ratio3_instance(k, eps=1e-4).instance)


@pytest.mark.parametrize("seed", range(4))
def test_dc_matches_reference_on_layered(seed):
    assert_same_dc(layered(seed))


def assert_bottom_parts_keep_parent_F(instance: PrecedenceInstance) -> int:
    """Run the reference DC, and at every split check that ``F`` on the
    sub-DAG induced by ``S_bot`` is the parent's ``F`` on ``S_bot``, bit
    for bit.  Returns the number of non-empty bottom parts checked."""
    heights = instance.heights()
    split = reference.reference_dc_split
    splits = []

    def recording_split(ids, dag, F, heights_):
        parts = split(ids, dag, F, heights_)
        splits.append((dag, F, parts[0]))
        return parts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "reference_dc_split", recording_split)
        reference_dc_pack(instance)
    checked = 0
    for dag, F, s_bot in splits:
        if s_bot:
            sub = compute_F(dag.induced(s_bot), heights)
            assert {s: v.hex() for s, v in sub.items()} == {s: F[s].hex() for s in s_bot}
            checked += 1
    return checked


@settings(max_examples=100, deadline=None)
@given(mixed_id_instances(uniform=False))
def test_bottom_parts_keep_parent_F(instance):
    assert_bottom_parts_keep_parent_F(instance)


@pytest.mark.parametrize("seed", range(4))
def test_bottom_parts_keep_parent_F_on_layered(seed):
    assert assert_bottom_parts_keep_parent_F(layered(seed)) > 0


@settings(max_examples=100, deadline=None)
@given(mixed_id_instances(uniform=False))
def test_compute_F_matches_reference(instance):
    heights = instance.heights()
    fast = compute_F(instance.dag, heights)
    assert list(fast.items()) == list(reference_compute_F(instance.dag, heights).items())
    assert F_of_set(instance.dag, heights) == max(fast.values(), default=0.0)


def test_compute_F_reports_missing_heights_like_reference():
    dag = TaskDAG.chain([0, 1, 2])
    for compute in (compute_F, reference_compute_F):
        with pytest.raises(InvalidInstanceError, match="heights missing"):
            compute(dag, {0: 1.0})


@settings(max_examples=100, deadline=None)
@given(mixed_id_instances(uniform=False), st.data())
def test_induced_matches_reference(instance, data):
    nodes = instance.dag.nodes()
    keep = data.draw(st.lists(st.sampled_from(nodes), unique=True) if nodes else st.just([]))
    assert_same_induced(instance.dag, keep)


@pytest.mark.parametrize("seed", range(3))
def test_induced_matches_reference_on_layered(seed):
    dag = layered(seed).dag
    nodes = dag.nodes()
    rng = np.random.default_rng(seed)
    for size in (0, 1, len(nodes) // 2, len(nodes)):
        keep = [nodes[i] for i in rng.permutation(len(nodes))[:size]]
        assert_same_induced(dag, keep)


def test_induced_still_rejects_unknown_nodes_and_later_cycles():
    dag = TaskDAG(["a", 1, "1"], [("a", 1), (1, "1")])
    for induce in (dag.induced, lambda keep: reference_induced(dag, keep)):
        with pytest.raises(InvalidInstanceError, match="unknown nodes"):
            induce(["a", 2])
    sub = dag.induced(["a", 1, "1"])
    with pytest.raises(InvalidInstanceError, match="cycle"):
        sub.add_edge("1", "a")  # the skipped check is only the construction one
