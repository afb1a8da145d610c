"""D-antimagic labelings of oriented stars and star forests.

Construct closed-form labelings, verify any labeling against any
distance set, decide star instances outright, and search or scan the
rest exhaustively.

The names below are re-exported lazily (PEP 562): ``import antimagic``
loads no submodule, and the first access to a name loads only the
module that defines it, so a command line request pays for the layers
it uses.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "graph": (
        "DistanceSet",
        "GraphError",
        "Labeling",
        "LabelingError",
        "OrientedGraph",
        "UnsupportedDistanceSetError",
        "WeightReport",
        "is_admissible",
        "verify_labeling",
        "vertex_cap",
    ),
    "stars": (
        "ForestSpec",
        "StarGroup",
        "StarShape",
        "build_forest",
        "build_homogeneous_forest",
        "build_star",
        "center_vertex",
        "enumerate_forest_orientations",
        "leaf_vertex",
        "single_sink_orientation",
    ),
    "constructions": (
        "PI_DISTANCE_SETS",
        "STAR_DISTANCE_SETS",
        "Reason",
        "characterize_star",
        "closed_form_forest_labeling",
        "construct_homogeneous_forest_labeling",
        "construct_pi_forest_labeling",
    ),
    "search": (
        "SearchResult",
        "SearchStatus",
        "search_joint_labeling",
        "search_labeling",
    ),
    "scan": ("ScanRow", "format_scan_table", "scan_orientations"),
    "io": ("GraphDocument",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{module}"
    __import__(path)  # listed by ``python -X importtime``, unlike import_module
    value = getattr(sys.modules[path], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
