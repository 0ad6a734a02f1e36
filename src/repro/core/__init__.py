"""Core types: rectangles, instances, placements, bounds, tolerances."""

from . import tol
from .arrays import PlacementBuilder, RectArrays
from .bounds import (
    area_bound,
    combined_lower_bound,
    critical_path_bound,
    dc_guarantee,
    hmax_bound,
    release_bound,
)
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    InvalidPlacementError,
    ReproError,
    SolverError,
)
from .instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from .placement import (
    PlacedRect,
    Placement,
    find_overlap,
    find_overlap_columns,
    validate_placement,
)
from .rectangle import (
    Rect,
    decreasing_height_order,
    max_height,
    max_width,
    total_area,
)
from .serialize import (
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    placement_from_dict,
    placement_to_dict,
)

__all__ = [
    "tol",
    "Rect",
    "RectArrays",
    "PlacementBuilder",
    "decreasing_height_order",
    "total_area",
    "max_height",
    "max_width",
    "StripPackingInstance",
    "PrecedenceInstance",
    "ReleaseInstance",
    "Placement",
    "PlacedRect",
    "validate_placement",
    "find_overlap",
    "find_overlap_columns",
    "area_bound",
    "hmax_bound",
    "critical_path_bound",
    "release_bound",
    "combined_lower_bound",
    "dc_guarantee",
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "placement_to_dict",
    "placement_from_dict",
    "ReproError",
    "InvalidInstanceError",
    "InvalidPlacementError",
    "SolverError",
    "BudgetExceededError",
]
