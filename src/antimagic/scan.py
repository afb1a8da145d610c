"""Sweep every orientation class of a star forest against distance sets.

Each cell of the resulting table is decided by, in order: the
positive-minimum-distance obstruction, the distance-set fit against the
forest's diameter, a known closed-form labeling, and finally the
backtracking oracle (exhaustive within the vertex cap, budgeted
beyond it).  Verdicts are backed by a verified witness or by recorded
exhaustion; budget-limited cells stay honestly undecided.

The tables are empirical surveys of the scanned instances, not general
statements about larger forests.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import (
    closed_form_forest_labeling,
    star_forest_necessary_condition,
)
from .graph import (
    UNFIT_DISTANCE_SET,
    DistanceSet,
    Labeling,
    is_admissible,
    verify_labeling,
)
from .search import (
    DEFAULT_CELL_BUDGET,
    SearchStatus,
    search_labeling,
    vertex_cap,
)
from .stars import ForestSpec, build_forest, enumerate_forest_orientations

ANTIMAGIC = "antimagic"
NOT_ANTIMAGIC = "not-antimagic"
ABORTED = "aborted"

BY_CONSTRUCTION = "construction"
BY_SEARCH = "search"
BY_NECESSARY_CONDITION = "necessary-condition"
BY_UNFIT_DISTANCE_SET = UNFIT_DISTANCE_SET


class ScanVerdict(NamedTuple):
    """One table cell: verdict, how it was reached, and its evidence."""

    status: str
    method: str
    witness: Labeling | None = None
    nodes_explored: int = 0


class ScanRow(NamedTuple):
    """Verdicts for one orientation class, keyed by distance set."""

    orientation: tuple[tuple[int, ...], ...]
    verdicts: dict[DistanceSet, ScanVerdict]


def _cell(spec, orientation, g, D, budget) -> ScanVerdict:
    if not star_forest_necessary_condition(D):
        return ScanVerdict(status=NOT_ANTIMAGIC, method=BY_NECESSARY_CONDITION)
    if not is_admissible(g, D):
        return ScanVerdict(status=NOT_ANTIMAGIC, method=BY_UNFIT_DISTANCE_SET)
    labeling = closed_form_forest_labeling(spec, orientation, D)
    if labeling is not None:
        return ScanVerdict(status=ANTIMAGIC, method=BY_CONSTRUCTION, witness=labeling)
    if len(g) > vertex_cap() and budget is None:
        budget = DEFAULT_CELL_BUDGET
    result = search_labeling(g, D, mode="first", budget=budget)
    if result.status is SearchStatus.FOUND:
        if not verify_labeling(g, result.witness, D).antimagic:
            raise RuntimeError("search returned an invalid witness")
        return ScanVerdict(
            status=ANTIMAGIC,
            method=BY_SEARCH,
            witness=result.witness,
            nodes_explored=result.nodes_explored,
        )
    if result.status is SearchStatus.EXHAUSTED:
        return ScanVerdict(
            status=NOT_ANTIMAGIC,
            method=BY_SEARCH,
            nodes_explored=result.nodes_explored,
        )
    return ScanVerdict(
        status=ABORTED, method=BY_SEARCH, nodes_explored=result.nodes_explored
    )


def scan_orientations(
    spec: ForestSpec,
    distance_sets,
    *,
    budget: int | None = None,
) -> list[ScanRow]:
    """One row per orientation class, one verdict per distance set.

    Rows follow the canonical enumeration order and columns the given
    distance set order, so repeated scans are identical.
    """
    sets = [DistanceSet.of(D) for D in distance_sets]
    if not sets:
        raise ValueError("need at least one distance set")
    rows = []
    for orientation in enumerate_forest_orientations(spec):
        g = build_forest(spec, orientation)
        verdicts = {D: _cell(spec, orientation, g, D, budget) for D in sets}
        rows.append(ScanRow(orientation=orientation, verdicts=verdicts))
    return rows


def format_orientation(orientation: tuple[tuple[int, ...], ...]) -> str:
    """Compact text form of an orientation class, e.g. ``0,1 | 2,2``."""
    return " | ".join(",".join(str(t) for t in part) for part in orientation)


def format_scan_table(rows: list[ScanRow]) -> str:
    """Aligned text table of scan verdicts."""
    if not rows:
        return ""
    sets = list(rows[0].verdicts)
    header = ["orientation"] + [str(D) for D in sets]
    cells = {ANTIMAGIC: "yes", NOT_ANTIMAGIC: "no", ABORTED: "abort"}
    body = [
        [format_orientation(row.orientation)]
        + [cells[row.verdicts[D].status] for D in sets]
        for row in rows
    ]
    widths = [
        max(len(line[col]) for line in [header] + body)
        for col in range(len(header))
    ]
    lines = [
        "  ".join(value.ljust(width) for value, width in zip(line, widths)).rstrip()
        for line in [header] + body
    ]
    return "\n".join(lines)
