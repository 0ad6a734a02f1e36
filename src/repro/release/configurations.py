"""Configuration enumeration for the Lemma 3.3 linear program.

A *configuration* is a multiset of widths (drawn from the <= W distinct
widths of ``P(R,W)``) whose sum is at most 1 — one feasible horizontal
cross-section of the strip.  Because every width is at least ``1/K`` a
configuration holds at most ``K`` rectangles, so the configuration count is
exponential in ``K`` only (the paper's stated running-time caveat).

Configurations are represented as count vectors over the sorted width list;
the module enumerates all *maximal-or-not* multisets via DFS with a
monotone width order (non-increasing), which enumerates each multiset
exactly once.  ``max_configs`` guards against parameter choices that would
explode (raise, never silently truncate — a truncated configuration set
would silently break the LP's optimality).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ..core import tol
from ..core.errors import SolverError

__all__ = ["Configuration", "ConfigurationSet", "enumerate_configurations"]


@dataclass(frozen=True)
class Configuration:
    """One multiset of widths; ``counts[i]`` copies of ``widths[i]``."""

    counts: tuple[int, ...]
    total_width: float

    def n_items(self) -> int:
        return sum(self.counts)

    def is_empty(self) -> bool:
        return self.n_items() == 0


@dataclass(frozen=True)
class ConfigurationSet:
    """All configurations over a width list, plus the occurrence matrix.

    ``matrix`` is the paper's ``A``: shape ``(W, Q)``, entry ``(i, q)`` the
    number of occurrences of width ``i`` in configuration ``q`` — built
    once per set, read-only.
    """

    widths: tuple[float, ...]
    configs: tuple[Configuration, ...]

    @property
    def Q(self) -> int:
        return len(self.configs)

    @cached_property
    def matrix(self) -> np.ndarray:
        counts = np.array([cfg.counts for cfg in self.configs], dtype=float)
        A = np.ascontiguousarray(counts.reshape(self.Q, len(self.widths)).T)
        A.setflags(write=False)
        return A

    def config_index(self, counts: Sequence[int]) -> int:
        """Index of the configuration with the given count vector."""
        target = tuple(counts)
        for q, cfg in enumerate(self.configs):
            if cfg.counts == target:
                return q
        raise KeyError(f"no configuration with counts {target}")


def enumerate_configurations(
    widths: Sequence[float],
    *,
    include_empty: bool = False,
    max_configs: int = 500_000,
) -> ConfigurationSet:
    """Enumerate every multiset of ``widths`` with sum <= 1.

    Parameters
    ----------
    widths:
        Distinct width values (duplicates are rejected); any order.
    include_empty:
        Whether to include the empty configuration (the LP never needs it —
        empty height contributes nothing to covering and only pads phases).
    max_configs:
        Hard cap; exceeded -> :class:`SolverError` (never truncates).
    """
    ws = sorted(set(float(w) for w in widths), reverse=True)
    if len(ws) != len(list(widths)):
        raise SolverError("width list for configuration enumeration must be distinct")
    for w in ws:
        if not 0.0 < w <= 1.0 + tol.ATOL:
            raise SolverError(f"configuration widths must lie in (0,1], got {w}")

    configs: list[Configuration] = []
    counts = [0] * len(ws)

    def dfs(start: int, remaining: float) -> None:
        if len(configs) > max_configs:
            raise SolverError(
                f"configuration count exceeds max_configs={max_configs}; "
                "reduce W/K or raise the cap"
            )
        for i in range(start, len(ws)):
            if tol.leq(ws[i], remaining):
                counts[i] += 1
                configs.append(
                    Configuration(
                        counts=tuple(counts),
                        total_width=float(np.dot(counts, ws)),
                    )
                )
                dfs(i, remaining - ws[i])
                counts[i] -= 1

    dfs(0, 1.0)
    if include_empty:
        configs.insert(0, Configuration(counts=tuple([0] * len(ws)), total_width=0.0))
    return ConfigurationSet(widths=tuple(ws), configs=tuple(configs))
