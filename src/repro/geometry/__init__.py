"""Geometric substrate: skyline, shelves, occupancy metrics, stackings.

* :mod:`repro.geometry.skyline` — the optimized skyline kernel behind
  bottom-left packing, branch-and-bound, and the release heuristics;
* :mod:`repro.geometry.skyline_reference` — the original linear-scan
  kernel, kept as the executable specification for differential tests and
  the ``skyline_bottom_left`` bench;
* :mod:`repro.geometry.levels` — shelf/level bookkeeping: the list-based
  NFDH/FFDH/BFDH kernels behind :func:`~repro.geometry.levels.level_pack`
  that the offline packers use, plus the object-based shelf the online
  policy keeps;
* :mod:`repro.geometry.levels_reference` — the original object-based
  level-packing loops, kept as the executable specification for
  differential tests and the ``level_packers`` bench;
* :mod:`repro.geometry.occupancy` — union area, occupancy profiles, and
  band densities (with vectorised fast paths);
* :mod:`repro.geometry.stacking` — the paper's stacking abstraction.

The occupancy names load on first use (PEP 562): that module imports
numpy, and no solver measures occupancy.
"""

from .levels import Level
from .skyline import Skyline, SkySegment
from .skyline_reference import ReferenceSkyline
from .stacking import Stacking, contains, stack

# Imported last: levels_reference pulls in repro.packing (for PackResult),
# which imports the modules above from this partially-initialised package.
from .levels_reference import (  # noqa: E402  (deliberate late import)
    ReferenceLevel,
    ReferenceLevelStack,
    reference_bfdh,
    reference_ffdh,
    reference_nfdh,
)

__all__ = [
    "Skyline",
    "SkySegment",
    "ReferenceSkyline",
    "Level",
    "ReferenceLevel",
    "ReferenceLevelStack",
    "reference_nfdh",
    "reference_ffdh",
    "reference_bfdh",
    "union_area",
    "occupancy_profile",
    "band_density",
    "utilisation",
    "Stacking",
    "stack",
    "contains",
]


#: Names whose module loads on first use (PEP 562).
_LAZY = {
    "union_area": "occupancy",
    "occupancy_profile": "occupancy",
    "band_density": "occupancy",
    "utilisation": "occupancy",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
