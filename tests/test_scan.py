import sys
from pathlib import Path

import pytest

from antimagic import DistanceSet, ForestSpec, verify_labeling
from antimagic.scan import (
    ABORTED,
    ANTIMAGIC,
    BY_CONSTRUCTION,
    BY_NECESSARY_CONDITION,
    BY_SEARCH,
    BY_UNFIT_DISTANCE_SET,
    NOT_ANTIMAGIC,
    decide,
    forest_rule,
    format_orientation,
    format_scan_table,
    scan_orientations,
)
from antimagic.stars import build_forest, orientation_sources

D1 = DistanceSet.of([1])
D01 = DistanceSet.of([0, 1])
D02 = DistanceSet.of([0, 2])

TWO_BY_TWO = ForestSpec.parse("2x2")


def column(rows, D):
    return [row.verdicts[D] for row in rows]


def test_scan_covers_all_orientation_classes_in_order():
    rows = scan_orientations(TWO_BY_TWO, [D01])
    assert [row.orientation for row in rows] == [
        ((0, 0),),
        ((0, 1),),
        ((0, 2),),
        ((1, 1),),
        ((1, 2),),
        ((2, 2),),
    ]


def test_positive_distance_column_falls_to_necessary_condition():
    rows = scan_orientations(TWO_BY_TWO, [D1])
    for verdict in column(rows, D1):
        assert verdict.status == NOT_ANTIMAGIC
        assert verdict.method == BY_NECESSARY_CONDITION
        assert verdict.witness is None
        assert verdict.nodes_explored == 0


def test_zero_one_column_is_all_antimagic():
    rows = scan_orientations(TWO_BY_TWO, [D01])
    verdicts = column(rows, D01)
    assert [v.status for v in verdicts] == [ANTIMAGIC] * 6
    assert [v.method for v in verdicts] == [
        BY_CONSTRUCTION,
        BY_SEARCH,
        BY_SEARCH,
        BY_CONSTRUCTION,
        BY_SEARCH,
        BY_CONSTRUCTION,
    ]
    for v in verdicts:
        if v.method == BY_CONSTRUCTION:
            assert v.nodes_explored == 0
        else:
            assert v.nodes_explored > 0


def test_zero_two_column_mixes_all_three_negative_and_positive_routes():
    rows = scan_orientations(TWO_BY_TWO, [D02])
    verdicts = column(rows, D02)
    assert [v.status for v in verdicts] == [
        NOT_ANTIMAGIC,
        ANTIMAGIC,
        NOT_ANTIMAGIC,
        ANTIMAGIC,
        ANTIMAGIC,
        NOT_ANTIMAGIC,
    ]
    assert verdicts[0].method == BY_UNFIT_DISTANCE_SET
    assert verdicts[2].method == BY_UNFIT_DISTANCE_SET
    assert verdicts[5].method == BY_UNFIT_DISTANCE_SET
    assert verdicts[1].method == BY_SEARCH
    assert verdicts[3].method == BY_CONSTRUCTION
    assert verdicts[4].method == BY_SEARCH


def test_scan_witnesses_verify():
    rows = scan_orientations(TWO_BY_TWO, [D01, D02])
    for row in rows:
        g = build_forest(TWO_BY_TWO, row.orientation)
        for D, verdict in row.verdicts.items():
            if verdict.status == ANTIMAGIC:
                assert verdict.witness is not None
                assert verify_labeling(g, verdict.witness, D).antimagic
            else:
                assert verdict.witness is None


def test_tiny_budget_aborts_exactly_the_search_cells():
    rows = scan_orientations(TWO_BY_TWO, [D01], budget=1)
    verdicts = column(rows, D01)
    assert [v.status for v in verdicts] == [
        ANTIMAGIC,
        ABORTED,
        ABORTED,
        ANTIMAGIC,
        ABORTED,
        ANTIMAGIC,
    ]
    for v in verdicts:
        if v.status == ABORTED:
            assert v.method == BY_SEARCH
            assert v.witness is None


def test_scan_is_deterministic():
    first = scan_orientations(TWO_BY_TWO, [D01, D02])
    second = scan_orientations(TWO_BY_TWO, [D01, D02])
    assert first == second


def test_format_orientation():
    assert format_orientation(((0, 0),)) == "0,0"
    assert format_orientation(((0, 1), (2, 2))) == "0,1 | 2,2"


def test_format_scan_table_frozen():
    rows = scan_orientations(TWO_BY_TWO, [D01, D1])
    assert format_scan_table(rows) == (
        "orientation  {0,1}  {1}\n"
        "0,0          yes    no\n"
        "0,1          yes    no\n"
        "0,2          yes    no\n"
        "1,1          yes    no\n"
        "1,2          yes    no\n"
        "2,2          yes    no"
    )


def test_format_scan_table_marks_aborted_cells():
    rows = scan_orientations(TWO_BY_TWO, [D01], budget=1)
    table = format_scan_table(rows)
    assert "abort" in table.splitlines()[2]


# -- reuse of a row's witnesses -----------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _scan_pool():
    # The benchmark's scan specs, read from bench/workloads.py (which
    # imports its sibling modules by plain name).
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import SCAN_POOL, SCAN_REFERENCE
    finally:
        sys.path.remove(str(BENCH))
    return (SCAN_REFERENCE,) + SCAN_POOL


SCAN_SETS = [D01, D02, DistanceSet.of([0, 1, 2])]


@pytest.mark.parametrize("text", _scan_pool())
def test_reuse_gives_every_cell_its_own_decision(text):
    spec = ForestSpec.parse(text)
    sizes = spec.star_sizes()
    for row in scan_orientations(spec, SCAN_SETS):
        g = build_forest(spec, row.orientation)
        rule = forest_rule(sizes, orientation_sources(spec, row.orientation))
        assert list(row.verdicts) == SCAN_SETS
        for D, verdict in row.verdicts.items():
            assert verdict.status == decide(g, (D,), rule).status
            if verdict.witness is not None:
                assert verify_labeling(g, verdict.witness, D).antimagic


def test_a_closed_form_row_keeps_its_construction():
    spec = ForestSpec.parse("2x3,2x4")
    (row,) = [
        row
        for row in scan_orientations(spec, SCAN_SETS)
        if row.orientation == ((2, 2), (3, 3))  # t = n - 1 on every star
    ]
    for verdict in row.verdicts.values():
        assert (verdict.status, verdict.method) == (ANTIMAGIC, BY_CONSTRUCTION)
        assert verdict.nodes_explored == 0


def test_a_reused_witness_comes_from_a_wider_set_without_a_search():
    spec = ForestSpec.parse("2x3,2x4")
    reused = 0
    for row in scan_orientations(spec, SCAN_SETS):
        wide = row.verdicts[SCAN_SETS[2]]
        for D in SCAN_SETS[:2]:
            verdict = row.verdicts[D]
            if wide.method == BY_SEARCH and verdict.witness is wide.witness:
                assert verdict.method == BY_SEARCH
                assert verdict.nodes_explored == 0 < wide.nodes_explored
                reused += 1
    assert reused > 0


def test_decide_takes_a_known_witness_only_when_it_verifies():
    spec = ForestSpec.parse("2x2")
    orientation = ((0, 1),)
    g = build_forest(spec, orientation)
    rule = forest_rule(spec.star_sizes(), orientation_sources(spec, orientation))
    found = decide(g, (D01,), rule)
    assert found.method == BY_SEARCH and found.nodes_explored > 0
    again = decide(g, (D01,), rule, known=(found,))
    assert again.witness is found.witness
    assert (again.status, again.method, again.nodes_explored) == (
        ANTIMAGIC, BY_SEARCH, 0,
    )
    # A known verdict without a witness, or one whose witness fails the
    # set, leaves the decision to the search.
    other = decide(g, (D02,), rule, known=(decide(g, (D1,), rule), found))
    assert not verify_labeling(g, found.witness, D02).antimagic
    assert other.witness is not found.witness
    assert other.nodes_explored > 0
