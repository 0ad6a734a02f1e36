"""Spec registrations for the thirteen shipped algorithms.

Importing this module populates the registry in :mod:`repro.engine.spec`.
Runners keep the dispatch conventions of the old closure table:

* plain packers read ``instance.rects`` and ignore extra constraints;
* precedence algorithms wrap a plain instance in an edgeless DAG;
* release algorithms hard-require a :class:`~repro.core.instance.ReleaseInstance`
  (declared via ``requires="release"`` and enforced by the engine);
* online policies (``online_*``) replay the instance through the
  event-driven simulator in :mod:`repro.sim`, so every policy of
  :mod:`repro.sim.policies` races in portfolios next to the offline
  algorithms.
"""

from __future__ import annotations

from ..core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from ..core.placement import Placement
from .spec import (
    INTEGER,
    NUMBER,
    OPTIONAL_INTEGER,
    OPTIONAL_NUMBER,
    AlgorithmSpec,
    register,
)

__all__ = ["APTAS_DEFAULT_EPS"]

#: The one true APTAS error-parameter default (CLI and library both read it).
APTAS_DEFAULT_EPS = 0.5

#: What a request may pass each runner family (callable and class
#: arguments, such as DC's ``subroutine``, are library-only).
_LEVEL_PARAMS = {"y": NUMBER}
_ONLINE_PARAMS = {"max_tasks": OPTIONAL_INTEGER, "horizon": OPTIONAL_NUMBER}


def _plain(packer_name: str):
    def run(instance: StripPackingInstance, **kw) -> Placement:
        from .. import packing

        packer = getattr(packing, packer_name)
        return packer(list(instance.rects), **kw).placement

    return run


def _as_precedence(instance: StripPackingInstance) -> PrecedenceInstance:
    if isinstance(instance, PrecedenceInstance):
        return instance
    return PrecedenceInstance.without_constraints(list(instance.rects))


def _dc(instance: StripPackingInstance, **kw) -> Placement:
    from ..precedence.dc import dc_pack

    return dc_pack(_as_precedence(instance), **kw).placement


def _shelf_next_fit(instance: StripPackingInstance, **kw) -> Placement:
    from ..precedence.shelf_nextfit import shelf_next_fit

    return shelf_next_fit(_as_precedence(instance), **kw).placement


def _list_schedule(instance: StripPackingInstance, **kw) -> Placement:
    from ..precedence.list_schedule import list_schedule

    return list_schedule(_as_precedence(instance), **kw)


def _aptas(instance: ReleaseInstance, eps: float = APTAS_DEFAULT_EPS, **kw) -> Placement:
    from ..release.aptas import aptas

    return aptas(instance, eps, **kw).placement


def _release_shelf(instance: ReleaseInstance, **kw) -> Placement:
    from ..release.heuristics import release_shelf_pack

    return release_shelf_pack(instance, **kw)


def _release_bl(instance: ReleaseInstance, **kw) -> Placement:
    from ..release.heuristics import release_bottom_left

    return release_bottom_left(instance, **kw)


def _online_policy(policy: str):
    def run(instance: ReleaseInstance, **kw) -> Placement:
        from ..sim import simulate_instance

        return simulate_instance(instance, policy, **kw).placement

    return run


register(AlgorithmSpec(
    name="nfdh",
    variants=("plain",),
    guarantee="2*AREA + hmax",
    runner=_plain("nfdh"),
    param_types=_LEVEL_PARAMS,
    summary="Next Fit Decreasing Height level packing",
))
register(AlgorithmSpec(
    name="ffdh",
    variants=("plain",),
    guarantee="1.7*OPT + hmax (asymptotic)",
    runner=_plain("ffdh"),
    param_types=_LEVEL_PARAMS,
    summary="First Fit Decreasing Height level packing",
))
register(AlgorithmSpec(
    name="bfdh",
    variants=("plain",),
    guarantee="heuristic",
    runner=_plain("bfdh"),
    param_types=_LEVEL_PARAMS,
    summary="Best Fit Decreasing Height level packing",
))
register(AlgorithmSpec(
    name="bottom_left",
    variants=("plain",),
    guarantee="heuristic",
    runner=_plain("bottom_left"),
    param_types=_LEVEL_PARAMS,
    flags=frozenset({"anytime"}),
    summary="Bottom-left skyline heuristic",
))
register(AlgorithmSpec(
    name="dc",
    variants=("plain", "precedence"),
    guarantee="(2 + log2(n+1)) * OPT",
    runner=_dc,
    summary="Algorithm 1 (divide & conquer), Theorem 2.3",
))
register(AlgorithmSpec(
    name="shelf_next_fit",
    variants=("plain", "precedence"),
    guarantee="3 * OPT (uniform heights)",
    runner=_shelf_next_fit,
    summary="Algorithm F shelves, Theorem 2.6",
))
register(AlgorithmSpec(
    name="list_schedule",
    variants=("plain", "precedence"),
    guarantee="heuristic",
    runner=_list_schedule,
    flags=frozenset({"anytime"}),
    summary="Greedy earliest-slot list scheduling",
))
register(AlgorithmSpec(
    name="aptas",
    variants=("release",),
    guarantee="(1+eps)*OPT_f + (W+1)(R+1)",
    runner=_aptas,
    default_params={"eps": APTAS_DEFAULT_EPS},
    param_types={
        "eps": NUMBER,
        "W": OPTIONAL_INTEGER,
        "groups_per_class": OPTIONAL_INTEGER,
        "max_configs": INTEGER,
    },
    requires="release",
    summary="Algorithm 2 (asymptotic PTAS), Theorem 3.5",
))
register(AlgorithmSpec(
    name="release_shelf",
    variants=("release",),
    guarantee="heuristic",
    runner=_release_shelf,
    requires="release",
    summary="Release-aware shelf packing",
))
register(AlgorithmSpec(
    name="release_bl",
    variants=("release",),
    guarantee="heuristic",
    runner=_release_bl,
    requires="release",
    flags=frozenset({"anytime"}),
    summary="Release-aware bottom-left",
))
register(AlgorithmSpec(
    name="online_ff",
    variants=("release",),
    guarantee="online policy (no lookahead)",
    runner=_online_policy("first_fit"),
    param_types=_ONLINE_PARAMS,
    requires="release",
    flags=frozenset({"online"}),
    summary="Online first fit over release events",
))
register(AlgorithmSpec(
    name="online_best_fit",
    variants=("release",),
    guarantee="online policy (no lookahead)",
    runner=_online_policy("best_fit_column"),
    param_types=_ONLINE_PARAMS,
    requires="release",
    flags=frozenset({"online"}),
    summary="Online best-fit column window (least idle)",
))
register(AlgorithmSpec(
    name="online_shelf",
    variants=("release",),
    guarantee="online policy (no lookahead)",
    runner=_online_policy("shelf_online"),
    param_types=_ONLINE_PARAMS,
    requires="release",
    flags=frozenset({"online"}),
    summary="Online next-fit shelves over release events",
))
