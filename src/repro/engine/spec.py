"""Declarative algorithm specifications and the spec registry.

Every solver the library ships is described by one :class:`AlgorithmSpec`:
which problem variant(s) it handles, the guarantee the paper (or folklore)
proves for it, its default parameters, and capability flags.  The spec is
the *single source of truth* — the CLI help, the README algorithm table,
default-parameter resolution, and portfolio candidate selection all read
the registry instead of hard-coding names or defaults.

Specs are registered once at import time by :mod:`repro.engine.specs`;
user code normally goes through :func:`repro.engine.run` /
:func:`repro.solve` and never touches a runner directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.errors import InvalidInstanceError
from ..core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from ..core.placement import Placement

__all__ = [
    "VARIANTS",
    "NUMBER",
    "INTEGER",
    "OPTIONAL_INTEGER",
    "OPTIONAL_NUMBER",
    "AlgorithmSpec",
    "register",
    "get_spec",
    "all_specs",
    "specs_for_variant",
    "variant_of",
    "default_algorithm",
    "default_params",
    "spec_table_rows",
    "spec_table_markdown",
]

#: The three problem variants of the paper, in presentation order.
VARIANTS = ("plain", "precedence", "release")

Runner = Callable[..., Placement]

#: Value types a declared parameter accepts.  JSON numbers arrive as
#: ``int`` or ``float``; ``bool`` (an ``int`` subclass) never counts.
NUMBER = (int, float)
INTEGER = (int,)
OPTIONAL_INTEGER = (int, type(None))
OPTIONAL_NUMBER = (int, float, type(None))

_TYPE_NAMES = {int: "int", float: "float", type(None): "null"}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One solver, declaratively.

    ``variants`` lists every instance kind the algorithm can *meaningfully*
    solve (portfolio mode races all specs matching the instance's variant);
    ``requires`` names the instance type it cannot run without (``None``
    means any instance is accepted — plain packers simply ignore the extra
    constraints, and validation catches the violations afterwards).
    ``param_types`` declares the parameters a request may pass: name ->
    accepted value types (see :meth:`check_params`).
    """

    name: str
    variants: tuple[str, ...]
    guarantee: str
    runner: Runner
    default_params: Mapping[str, float] = field(default_factory=dict)
    param_types: Mapping[str, tuple[type, ...]] = field(default_factory=dict)
    flags: frozenset = frozenset()
    requires: str | None = None
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an AlgorithmSpec needs a name")
        bad = set(self.variants) - set(VARIANTS)
        if bad or not self.variants:
            raise ValueError(
                f"spec {self.name!r}: variants must be a non-empty subset of "
                f"{VARIANTS}, got {self.variants!r}"
            )
        if self.requires is not None and self.requires not in VARIANTS:
            raise ValueError(f"spec {self.name!r}: unknown requires {self.requires!r}")
        undeclared = set(self.default_params) - set(self.param_types)
        if undeclared:
            raise ValueError(
                f"spec {self.name!r}: default params {sorted(undeclared)} have no declared type"
            )

    def supports(self, variant: str) -> bool:
        """Whether the algorithm is a sensible candidate for ``variant``."""
        return variant in self.variants

    def accepts(self, instance: StripPackingInstance) -> bool:
        """Whether :meth:`check_instance` would pass (hard requirement only)."""
        if self.requires == "release":
            return isinstance(instance, ReleaseInstance)
        if self.requires == "precedence":
            return isinstance(instance, PrecedenceInstance)
        return True

    def check_instance(self, instance: StripPackingInstance) -> None:
        """Raise :class:`InvalidInstanceError` if the hard requirement fails."""
        if not self.accepts(instance):
            raise InvalidInstanceError(
                f"{self.name} requires a {self.requires.capitalize()}Instance"
            )

    def check_params(self, params: Mapping[str, object] | None) -> None:
        """Raise :class:`InvalidInstanceError` unless every parameter is one
        ``param_types`` declares, with a value of a declared type — the
        service edge runs this so a bad request is refused before it is
        queued instead of failing inside the solver."""
        for name, value in (params or {}).items():
            types = self.param_types.get(name)
            if types is None:
                takes = ", ".join(sorted(self.param_types)) or "none"
                raise InvalidInstanceError(
                    f"{self.name} does not take parameter {name!r} (takes: {takes})"
                )
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join(_TYPE_NAMES[t] for t in types)
                raise InvalidInstanceError(
                    f"{self.name} parameter {name!r} must be {expected}, got {value!r}"
                )

    def resolve_params(self, overrides: Mapping[str, object] | None = None) -> dict:
        """Spec defaults merged with caller overrides (overrides win)."""
        params = dict(self.default_params)
        if overrides:
            params.update(overrides)
        return params


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_SPECS: dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the registry (idempotent re-registration is an error)."""
    if spec.name in _SPECS:
        raise ValueError(f"algorithm {spec.name!r} registered twice")
    _SPECS[spec.name] = spec
    return spec


def get_spec(name: str) -> AlgorithmSpec:
    """Look up a spec by name, raising the dispatcher's canonical error."""
    _load_specs()
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise InvalidInstanceError(
            f"unknown algorithm {name!r}; available: {known}"
        ) from None


def all_specs() -> list[AlgorithmSpec]:
    """Every registered spec, sorted by name."""
    _load_specs()
    return [_SPECS[name] for name in sorted(_SPECS)]


def specs_for_variant(variant: str) -> list[AlgorithmSpec]:
    """Specs that list ``variant`` among their supported variants."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return [s for s in all_specs() if s.supports(variant)]


def variant_of(instance: StripPackingInstance) -> str:
    """The problem variant an instance belongs to."""
    if isinstance(instance, ReleaseInstance):
        return "release"
    if isinstance(instance, PrecedenceInstance):
        return "precedence"
    return "plain"


def default_algorithm(instance: StripPackingInstance) -> str:
    """Variant-aware default selection (the paper's headline algorithm each).

    * release    -> ``aptas`` (Theorem 3.5);
    * precedence -> ``shelf_next_fit`` when the DAG is non-trivial and all
      heights are equal (Theorem 2.6's absolute 3-approximation applies),
      else ``dc`` (Theorem 2.3);
    * plain      -> ``nfdh``.
    """
    variant = variant_of(instance)
    if variant == "release":
        return "aptas"
    if variant == "precedence":
        if instance.dag.n_edges and instance.uniform_height():
            return "shelf_next_fit"
        return "dc"
    return "nfdh"


def default_params(name: str) -> dict:
    """A copy of the spec's default parameters (the CLI reads ``eps`` here)."""
    return dict(get_spec(name).default_params)


def spec_table_rows() -> list[tuple[str, str, str, str, str]]:
    """(name, variants, guarantee, flags, defaults) rows — the one source
    for ``repro info`` and the README algorithm table."""
    rows = []
    for s in all_specs():
        rows.append(
            (
                s.name,
                "+".join(v for v in VARIANTS if v in s.variants),
                s.guarantee,
                ",".join(sorted(s.flags)) or "-",
                ",".join(f"{k}={v:g}" for k, v in sorted(s.default_params.items())) or "-",
            )
        )
    return rows


def spec_table_markdown() -> str:
    """The algorithm table as GitHub markdown — the generated block in
    README.md and docs/ALGORITHMS.md (``tests/test_docs_sync.py`` fails
    when either file drifts from this rendering)."""
    lines = [
        "| algorithm | variants | guarantee | flags | defaults |",
        "|---|---|---|---|---|",
    ]
    for name, variants, guarantee, flags, defaults in spec_table_rows():
        flags_md = flags.replace("-", "—") if flags == "-" else flags
        defaults_md = defaults.replace("-", "—") if defaults == "-" else defaults
        lines.append(
            f"| `{name}` | {variants} | `{guarantee}` | {flags_md} | {defaults_md} |"
        )
    return "\n".join(lines)


def _load_specs() -> None:
    # Specs live in repro.engine.specs; importing it populates the registry.
    # Deferred to avoid a cycle (specs import algorithm modules which import
    # core, and core.registry shims onto this module).  Always import — the
    # import system's own lock makes this a safe barrier even when worker
    # threads race here while another thread is mid-registration; guarding
    # on `_SPECS` being non-empty would let them see a partial registry.
    from . import specs  # noqa: F401
