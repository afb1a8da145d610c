"""D-antimagic labelings of oriented stars and star forests.

Construct closed-form labelings, verify any labeling against any
distance set, decide star instances outright, and search or scan the
rest exhaustively.
"""

from .graph import (
    UNREACHABLE,
    DistanceSet,
    GraphError,
    Labeling,
    LabelingError,
    OrientedGraph,
    WeightReport,
    d_neighborhood,
    finite_diameter,
    is_admissible,
    verify_labeling,
)
from .stars import (
    ForestSpec,
    StarGroup,
    StarShape,
    build_forest,
    build_forest_pi,
    build_homogeneous_forest,
    build_star,
    center_vertex,
    enumerate_forest_orientations,
    enumerate_star_orientations,
    leaf_vertex,
    orientation_class_count,
)
from .constructions import (
    PI_DISTANCE_SETS,
    STAR_DISTANCE_SETS,
    ConstructionStatus,
    Decision,
    ForestConstruction,
    Reason,
    UnsupportedDistanceSetError,
    characterize_star,
    closed_form_forest_labeling,
    construct_homogeneous_forest_labeling,
    construct_pi_forest_labeling,
    construct_star_labeling,
    star_forest_necessary_condition,
)
from .search import (
    SearchResult,
    SearchStatus,
    refute_antimagic,
    search_joint_labeling,
    search_labeling,
    vertex_cap,
)
from .scan import ScanRow, ScanVerdict, format_scan_table, scan_orientations
from .io import GraphDocument

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE",
    "DistanceSet",
    "GraphError",
    "Labeling",
    "LabelingError",
    "OrientedGraph",
    "WeightReport",
    "d_neighborhood",
    "finite_diameter",
    "is_admissible",
    "verify_labeling",
    "ForestSpec",
    "StarGroup",
    "StarShape",
    "build_forest",
    "build_forest_pi",
    "build_homogeneous_forest",
    "build_star",
    "center_vertex",
    "enumerate_forest_orientations",
    "enumerate_star_orientations",
    "leaf_vertex",
    "orientation_class_count",
    "PI_DISTANCE_SETS",
    "STAR_DISTANCE_SETS",
    "ConstructionStatus",
    "Decision",
    "ForestConstruction",
    "Reason",
    "UnsupportedDistanceSetError",
    "characterize_star",
    "closed_form_forest_labeling",
    "construct_homogeneous_forest_labeling",
    "construct_pi_forest_labeling",
    "construct_star_labeling",
    "star_forest_necessary_condition",
    "SearchResult",
    "SearchStatus",
    "refute_antimagic",
    "search_joint_labeling",
    "search_labeling",
    "vertex_cap",
    "ScanRow",
    "ScanVerdict",
    "format_scan_table",
    "scan_orientations",
    "GraphDocument",
    "__version__",
]
