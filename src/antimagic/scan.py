"""Sweep every orientation class of a star forest against distance sets.

Each cell of the resulting table is one :func:`~antimagic.constructions.decide`
question: the positive-minimum-distance obstruction, the distance-set
fit against the forest's diameter, a known closed-form labeling, a
witness already found for another set of the same row, and finally the
backtracking oracle (exhaustive within the vertex cap, budgeted beyond
it).  Verdicts are backed by a verified witness or by recorded
exhaustion; budget-limited cells stay honestly undecided.

The tables are empirical surveys of the scanned instances, not general
statements about larger forests.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import (
    ABORTED,
    ANTIMAGIC,
    NOT_ANTIMAGIC,
    Verdict,
    decide,
    forest_rule,
)
from .graph import DistanceSet
from .stars import (
    ForestSpec,
    build_forest,
    enumerate_forest_orientations,
    orientation_sources,
)


class ScanRow(NamedTuple):
    """Verdicts for one orientation class, keyed by distance set."""

    orientation: tuple[tuple[int, ...], ...]
    verdicts: dict[DistanceSet, Verdict]


def scan_orientations(
    spec: ForestSpec,
    distance_sets,
    *,
    budget: int | None = None,
) -> list[ScanRow]:
    """One row per orientation class, one verdict per distance set.

    Rows follow the canonical enumeration order and columns the given
    distance set order, so repeated scans are identical.  A row decides
    its sets widest first (ties in column order), each reusing a witness
    the row already found if it verifies: one for {0,1,2} often serves.
    """
    sets = [DistanceSet.of(D) for D in distance_sets]
    if not sets:
        raise ValueError("need at least one distance set")
    widest_first = sorted(sets, key=lambda D: -len(D))
    sizes = spec.star_sizes()
    rows = []
    for orientation in enumerate_forest_orientations(spec):
        g = build_forest(spec, orientation)
        rule = forest_rule(sizes, orientation_sources(spec, orientation))
        found = {}
        for D in widest_first:
            found[D] = decide(g, (D,), rule, budget, known=tuple(found.values()))
        rows.append(ScanRow(orientation, {D: found[D] for D in sets}))
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
