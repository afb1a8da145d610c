"""The compiled exhaustive walk: the same tree as the interpreted one.

Modes ``count`` and ``all`` run the walk ``antimagic.exhaustive``
generates per engine; ``first`` runs the interpreted loop of
``antimagic.search``.  Both walk one tree, so the first labeling of
``all`` is the ``first`` witness, and the node totals of the benchmark's
count-cap instances are pinned here for every prune and symmetry
setting.
"""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naive_oracle as oracle
from antimagic import (
    DistanceSet,
    ForestSpec,
    Labeling,
    OrientedGraph,
    StarShape,
    build_forest,
    build_star,
    exhaustive,
    search_joint_labeling,
)
from antimagic.cli import main
from antimagic.search import EQUAL_NEIGHBORHOODS, _Engine
from forest_strategies import STAR_SETS, forest_specs, repeated_star_forests, star_shapes

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import COUNT_SLOTS, forest_document, instance_stars  # noqa: E402

SETTINGS = [(True, True), (True, False), (False, True), (False, False)]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        star_shapes.map(build_star),
        forest_specs(max_stars=2, max_leaves=2).map(build_forest),
        repeated_star_forests(max_vertices=8),
    ),
    st.lists(st.sampled_from(STAR_SETS), min_size=1, max_size=3, unique=True),
)
def test_first_is_row_zero_of_all_and_counts_match_the_oracle(g, sets):
    assume(len(g) <= 7)
    diameter = oracle.finite_diameter(g.vertices, g.arcs)
    want = (
        oracle.count_joint_antimagic(g.vertices, g.arcs, sets)
        if all(max(D) <= diameter for D in sets) else 0
    )
    for prune, symmetry in SETTINGS:
        runs = {
            mode: search_joint_labeling(g, sets, mode, prune=prune, symmetry=symmetry)
            for mode in ("first", "count", "all")
        }
        first, count, every = runs["first"], runs["count"], runs["all"]
        rows = every.labelings
        assert first.witness == (Labeling(zip(g.vertices, rows[0])) if rows else None)
        assert count.witness == every.witness == first.witness
        assert count.count == every.count == len(rows)
        assert count.nodes_explored == every.nodes_explored
        assert every.count * every.symmetry_order == want, (prune, symmetry)


#: Node totals of the 28 count-cap instances of ``bench/workloads.py``,
#: in slot order, measured before the exhaustive modes were compiled.
#: The last six, the ``first`` refutations of star9, have two vertices
#: with one neighborhood and are refused with no node walked.
DEFAULT_NODES = (
    109_166, 196_883, 126_101, 164_251, 118_495, 302_131, 360_291, 108_490,
    126_101, 164_215, 195_703, 196_883, 109_202, 123_143, 6_045, 6_045,
    2_935, 2_935, 8_314, 13_505, 12_324, 14_364, 0, 0, 0, 0, 0, 0,
)
NO_PRUNE_NODES = (
    423_730, 609_941, 126_101, 164_251, 118_495, 302_851, 360_371, 423_730,
    126_101, 164_215, 608_051, 609_941, 423_766, 145_365, 6_045, 6_045,
    2_935, 2_935, 18_684, 13_505, 14_484, 18_684, 0, 0, 0, 0, 0, 0,
)
#: Fourteen of these trees hold 8.2-9.9 M nodes (9,864,101 is every
#: partial permutation of 10 labels, the root included) and take about
#: 20 s together, so the test walks only the trees below
#: ``NO_SYMMETRY_WALKED``; the total of all 28 is 131,790,078.
NO_SYMMETRY_NODES = (
    2_059_845, 2_933_205, 9_864_101, 9_864_101, 9_825_701, 9_835_301,
    9_861_221, 1_946_533, 9_864_101, 9_864_101, 2_923_845, 2_933_205,
    2_057_253, 8_179_589, 9_864_101, 9_864_101, 9_864_101, 9_864_101,
    43_169, 109_601, 88_001, 80_801, 0, 0, 0, 0, 0, 0,
)
NO_SYMMETRY_WALKED = 3_000_000


def count_slot_instances():
    for slot in COUNT_SLOTS:
        for name, sets, mode, unreduced in slot:
            doc = forest_document(instance_stars(name))
            g = OrientedGraph(doc["vertices"], [tuple(arc) for arc in doc["arcs"]])
            yield g, sets, mode, unreduced


@pytest.mark.parametrize(
    "prune, symmetry, nodes",
    [(True, True, DEFAULT_NODES), (False, True, NO_PRUNE_NODES),
     (True, False, NO_SYMMETRY_NODES)],
    ids=["default", "no-prune", "no-symmetry"],
)
def test_count_slot_node_totals_are_pinned(prune, symmetry, nodes):
    assert sum(DEFAULT_NODES) == 2_467_522
    assert sum(NO_PRUNE_NODES) == 4_690_226
    assert sum(NO_SYMMETRY_NODES) == 131_790_078
    instances = list(count_slot_instances())
    assert len(instances) == len(nodes) == 28
    for i, (g, sets, mode, unreduced) in enumerate(instances):
        if nodes[i] >= NO_SYMMETRY_WALKED:
            continue
        result = search_joint_labeling(g, sets, mode, prune=prune, symmetry=symmetry)
        assert result.nodes_explored == nodes[i], i
        assert (result.shortcut == EQUAL_NEIGHBORHOODS) == (nodes[i] == 0), i
        assert (result.count or 0) * result.symmetry_order == unreduced, i


@pytest.mark.parametrize("depths", [1, 2, 3])
@pytest.mark.parametrize("prune", [True, False])
def test_a_walk_split_into_chained_functions_is_the_same_walk(depths, prune, monkeypatch):
    # Orders deeper than DEPTHS_PER_FUNCTION chain generated functions;
    # splitting a 10-vertex walk at every depth must change nothing.
    cases = [
        (build_forest(ForestSpec.parse("1x4@2,1x4@2")), ((0, 1), (0, 2)), "count"),
        (build_forest(ForestSpec.parse("1x1@0,1x5@2")), ((0, 1, 2),), "all"),
        (build_star(StarShape(n=9, t=3)), ((0, 2),), "count"),
    ]
    whole = [search_joint_labeling(g, sets, mode, prune=prune) for g, sets, mode in cases]
    monkeypatch.setattr(exhaustive, "DEPTHS_PER_FUNCTION", depths)
    split = [search_joint_labeling(g, sets, mode, prune=prune) for g, sets, mode in cases]
    assert split == whole


@pytest.mark.parametrize("spec", ["1x15@5,1x16@5", "2x16@3", "3x11@1", "10x19@1"])
def test_no_generated_line_names_more_labels_than_one_function_places(spec):
    # Labels placed in earlier functions reach a chained function as one
    # tuple, so the source grows linearly with the order.  A function
    # places DEPTHS_PER_FUNCTION labels in its loops, and the last one
    # may also hold the loop-free last depth.
    g = build_forest(ForestSpec.parse(spec))
    most = exhaustive.DEPTHS_PER_FUNCTION + 1
    for prune in (True, False):
        engine = _Engine(g, (DistanceSet.of((0, 1)), DistanceSet.of((0, 2))), prune, True)
        for mode in ("count", "all"):
            source = exhaustive._source(engine, mode)
            for line in source.splitlines():
                assert len(re.findall(r"\bl\d+\b", line)) <= most, line[:80]


@pytest.mark.parametrize("prune", [True, False])
def test_the_source_grows_linearly_with_a_twin_class(prune):
    # The m leaves of K_{1,m} under {0,1}, bar the one source, form one
    # twin class; each skips the labels its chain successors need in one
    # loop line rather than one line per successor.
    lines = {}
    for m in (30, 60, 120):
        engine = _Engine(build_star(StarShape(n=m, t=1)), (DistanceSet.of((0, 1)),),
                         prune, True)
        lines[m] = len(exhaustive._source(engine, "count").splitlines())
    assert lines[60] <= 2 * lines[30]
    assert lines[120] <= 2 * lines[60]


def forest_doc_path(tmp_path, stars, rename=str, name="forest.json"):
    doc = forest_document(stars)
    names = {v: rename(v) for v in doc["vertices"]}
    doc["vertices"] = [names[v] for v in doc["vertices"]]
    doc["arcs"] = [[names[a], names[b]] for a, b in doc["arcs"]]
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "extra", [[], ["--no-prune"], ["--no-symmetry"], ["--mode", "all"]],
    ids=["count", "no-prune", "no-symmetry", "all"],
)
def test_a_deep_order_stops_on_its_budget(extra, tmp_path, capsys, monkeypatch):
    # 36 vertices: the walk is split across three generated functions.
    monkeypatch.setenv("ANTIMAGIC_NODE_CAP", "40")
    path = forest_doc_path(tmp_path, [(4, 1)] * 6 + [(5, 2)])
    argv = ["search", str(path), "--d", "0,1", "--mode", "count", "--budget", "5000"]
    code = main(argv + extra)
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["status"] == "aborted-budget"
    assert payload["nodes_explored"] == 5001


HOSTILE = ["'", '"', "\n", "__import__('os')", "\\", "x = 1", "#", "l0", "a0 ) or (1"]


def test_vertex_names_never_reach_the_generated_source(tmp_path, capsys):
    stars = [(2, 1), (3, 1), (1, 0)]
    renamed = iter(HOSTILE)
    hostile = forest_doc_path(tmp_path, stars, lambda v: next(renamed), "hostile.json")
    plain = forest_doc_path(tmp_path, stars)
    outputs = []
    for path in (hostile, plain):
        for mode in ("count", "all"):
            code = main(["search", str(path), "--d", "0,1", "--d", "0,2", "--mode", mode])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            outputs.append(
                (payload["count"], payload["nodes_explored"], payload["symmetry_order"],
                 list(payload["witness"].values()))
            )
    assert outputs[:2] == outputs[2:]
    g = OrientedGraph(HOSTILE, [tuple(arc) for arc in json.loads(hostile.read_text())["arcs"]])
    engine = _Engine(g, (DistanceSet.of((0, 1)), DistanceSet.of((0, 2))), True, True)
    for mode in ("count", "all"):
        source = exhaustive._source(engine, mode)
        assert re.fullmatch(r"[A-Za-z0-9_ \n=+\-&|^<>(),:.]*", source), source
