import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracle as oracle
from antimagic import (
    DistanceSet,
    GraphError,
    Labeling,
    LabelingError,
    OrientedGraph,
    StarShape,
    build_star,
    is_admissible,
    verify_labeling,
)
from forest_strategies import oriented_graphs, small_graphs, star_shapes


# -- DistanceSet ------------------------------------------------------

def test_distance_set_normalizes_and_sorts():
    assert DistanceSet([2, 0, 2]) == (0, 2)
    assert str(DistanceSet([2, 0])) == "{0,2}"
    assert repr(DistanceSet([2, 0])) == "DistanceSet([0, 2])"


def test_distance_set_parse_round_trip():
    D = DistanceSet.parse("0,1,2")
    assert D == (0, 1, 2)
    assert DistanceSet.parse(str(D)[1:-1]) == D
    assert DistanceSet.parse(" 2, 0") == DistanceSet([0, 2])


def test_distance_set_rejects_bad_members():
    with pytest.raises(ValueError):
        DistanceSet([])
    with pytest.raises(ValueError):
        DistanceSet([-1])
    with pytest.raises(ValueError):
        DistanceSet([0, 1.5])
    with pytest.raises(ValueError):
        DistanceSet([True])
    for text in ("0,x", "1_0", "+0,1", "-1", "0,,1", "\u0661,\u0662"):
        with pytest.raises(ValueError, match="cannot parse distance set"):
            DistanceSet.parse(text)


def test_distance_set_of_passes_through():
    D = DistanceSet([0, 1])
    assert DistanceSet.of(D) is D
    assert DistanceSet.of({1, 0}) == D


def test_distance_set_ordering_and_hash():
    assert DistanceSet([0]) < DistanceSet([0, 1]) < DistanceSet([1])
    assert len({DistanceSet([0, 1]), DistanceSet([1, 0])}) == 1
    assert 1 in DistanceSet([0, 1]) and 2 not in DistanceSet([0, 1])
    assert DistanceSet([0, 2]).smallest == 0
    assert DistanceSet([0, 2]).largest == 2


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8))
def test_distance_set_is_its_sorted_tuple(xs, ys):
    D, E = DistanceSet(xs), DistanceSet(ys)
    want = tuple(sorted(set(xs)))
    assert type(D) is DistanceSet and isinstance(D, tuple)
    assert D == want and hash(D) == hash(want)
    assert (D < E) == (want < tuple(sorted(set(ys))))
    assert DistanceSet.parse(str(D)[1:-1]) == D
    for copied in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D)):
        assert type(copied) is DistanceSet and copied == D


# -- OrientedGraph ----------------------------------------------------

def test_graph_rejects_duplicate_vertices():
    with pytest.raises(GraphError):
        OrientedGraph(["a", "a"], [])


def test_graph_rejects_undeclared_endpoints():
    with pytest.raises(GraphError):
        OrientedGraph(["a"], [("a", "b")])
    with pytest.raises(GraphError):
        OrientedGraph(["a"], [("b", "a")])


def test_graph_rejects_loops_duplicates_two_cycles():
    with pytest.raises(GraphError):
        OrientedGraph(["a", "b"], [("a", "a")])
    with pytest.raises(GraphError):
        OrientedGraph(["a", "b"], [("a", "b"), ("a", "b")])
    with pytest.raises(GraphError):
        OrientedGraph(["a", "b"], [("a", "b"), ("b", "a")])


def test_graph_preserves_vertex_order_and_sorts_arcs():
    g = OrientedGraph(["b", "a", "c"], [("c", "a"), ("b", "c")])
    assert g.vertices == ("b", "a", "c")
    assert g.arcs == (("b", "c"), ("c", "a"))
    assert len(g) == 3
    assert "a" in g and "z" not in g
    assert list(g) == ["b", "a", "c"]


def test_graph_keeps_only_vertices_arcs_and_distance_rows():
    g = OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert set(vars(g)) == {"_vertices", "_arcs", "_index", "_layers"}


@settings(max_examples=60)
@given(st.one_of(oriented_graphs(), small_graphs()), st.data())
def test_arcs_do_not_depend_on_input_order(g, data):
    arcs = data.draw(st.permutations(g.arcs))
    h = OrientedGraph(g.vertices, arcs)
    assert h.arcs == g.arcs
    assert h.neighborhoods({1}) == g.neighborhoods({1})


@settings(max_examples=40)
@given(st.one_of(oriented_graphs(), small_graphs()))
def test_graph_contains_exactly_its_vertices(g):
    assert "z" not in g
    assert all(v in g for v in g.vertices)


def named(g, D) -> dict:
    """``g.neighborhoods(D)`` keyed by vertex, as sets of vertices."""
    return {
        u: {g.vertices[i] for i in nb}
        for u, nb in zip(g.vertices, g.neighborhoods(D))
    }


def test_distances_on_a_directed_path():
    g = OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.neighborhoods({0}) == [(0,), (1,), (2,)]
    assert g.neighborhoods({2}) == [(2,), (), ()]
    # Nothing reaches back: c reaches no vertex, b only c.
    assert g.neighborhoods({1, 2}) == [(1, 2), (2,), ()]


def test_distance_takes_the_shorter_route():
    # Direct arc a->d beats the two-step route through b.
    g = OrientedGraph(
        ["a", "b", "d"], [("a", "b"), ("b", "d"), ("a", "d")]
    )
    assert named(g, {1})["a"] == {"b", "d"}
    assert named(g, {2})["a"] == set()


@settings(max_examples=60)
@given(small_graphs())
def test_distances_match_path_enumeration(g):
    # Distances never reach |V|, so these layers hold every reachable pair.
    got = {}
    for d in range(len(g)):
        for u, nb in named(g, {d}).items():
            got.update(((u, v), d) for v in nb)
    for u in g.vertices:
        for v in g.vertices:
            assert got.get((u, v)) == oracle.path_distance(g.arcs, u, v)


# -- neighborhoods ----------------------------------------------------

def test_star_neighborhoods_by_role():
    g = build_star(StarShape(n=4, t=2))
    sinks = {"l3", "l4"}
    # from a source leaf: the center at distance 1, sinks at distance 2
    assert named(g, {2})["l1"] == sinks
    assert named(g, {1})["l1"] == {"c"}
    assert named(g, {1})["c"] == sinks
    assert named(g, {1, 2})["l3"] == set()
    assert named(g, {0, 2})["c"] == {"c"}


@settings(max_examples=60)
@given(small_graphs())
def test_zero_neighborhood_is_the_vertex_itself(g):
    assert g.neighborhoods({0}) == [(i,) for i in range(len(g))]


@settings(max_examples=40)
@given(small_graphs(), st.data())
def test_neighborhood_of_union_is_union_of_neighborhoods(g, data):
    d1 = data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=2))
    d2 = data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=2))
    for whole, nb1, nb2 in zip(
        g.neighborhoods(d1 | d2), g.neighborhoods(d1), g.neighborhoods(d2)
    ):
        assert set(whole) == set(nb1) | set(nb2)


@settings(max_examples=60)
@given(
    st.one_of(oriented_graphs(), small_graphs()),
    st.sets(st.integers(0, 3), min_size=1),
)
def test_neighborhoods_match_path_oracle(g, D):
    want = oracle._index_neighborhoods(g.vertices, g.arcs, D)
    assert g.neighborhoods(D) == [tuple(sorted(nb)) for nb in want]


# -- labelings and weights --------------------------------------------

def test_sequential_labeling():
    g = build_star(StarShape(n=2, t=0))
    assert dict(Labeling.sequential(g)) == {"c": 1, "l1": 2, "l2": 3}


def test_validate_reports_missing_and_extra_vertices():
    g = build_star(StarShape(n=2, t=0))
    with pytest.raises(LabelingError, match="missing"):
        Labeling({"c": 1, "l1": 2}).validate_for(g)
    with pytest.raises(LabelingError, match="extra"):
        Labeling({"c": 1, "l1": 2, "l2": 3, "ghost": 4}).validate_for(g)


def test_validate_reports_duplicate_and_missing_labels():
    g = build_star(StarShape(n=2, t=0))
    with pytest.raises(LabelingError, match="duplicates"):
        Labeling({"c": 1, "l1": 1, "l2": 3}).validate_for(g)
    with pytest.raises(LabelingError, match="missing"):
        Labeling({"c": 1, "l1": 2, "l2": 9}).validate_for(g)


def test_validate_rejects_bool_labels():
    # True == 1 in Python, but a bool is not a label
    g = build_star(StarShape(n=2, t=0))
    with pytest.raises(LabelingError, match="integers"):
        Labeling({"c": 2, "l1": True, "l2": 3}).validate_for(g)


def test_labeling_equality_and_mapping_protocol():
    lab = Labeling({"a": 1, "b": 2})
    assert lab == {"a": 1, "b": 2}
    assert lab == Labeling({"b": 2, "a": 1})
    assert lab["a"] == 1 and len(lab) == 2 and set(lab) == {"a", "b"}


def test_weight_of_empty_neighborhood_is_zero():
    g = build_star(StarShape(n=2, t=2))
    lab = Labeling.sequential(g)
    # both leaves are sources, so the centre reaches nothing at distance 1
    assert verify_labeling(g, lab, {1}).weights["c"] == 0


def test_weight_requires_a_bijection():
    g = build_star(StarShape(n=2, t=0))
    with pytest.raises(LabelingError):
        verify_labeling(g, Labeling({"c": 1, "l1": 1, "l2": 2}), {0, 1})


def test_verify_lists_every_collision_in_vertex_order():
    # Two tied pairs: both orders must appear, grouped deterministically.
    g = OrientedGraph(["a", "b", "c", "d"], [])
    report = verify_labeling(g, {"a": 1, "b": 2, "c": 3, "d": 4}, {0, 1})
    assert report.antimagic
    g2 = build_star(StarShape(n=4, t=0))
    # all four sink leaves weigh their own label; make two ties
    report2 = verify_labeling(
        g2, {"c": 5, "l1": 1, "l2": 2, "l3": 3, "l4": 4}, {1}
    )
    assert not report2.antimagic
    assert report2.collisions == (
        ("l1", "l2"),
        ("l1", "l3"),
        ("l1", "l4"),
        ("l2", "l3"),
        ("l2", "l4"),
        ("l3", "l4"),
    )


def test_identity_labeling_on_two_sink_star_ties_the_leaves():
    g = build_star(StarShape(n=2, t=0))
    report = verify_labeling(g, Labeling.sequential(g), {1})
    assert not report.antimagic
    assert report.collisions == (("l1", "l2"),)
    assert report.weights == {"c": 5, "l1": 0, "l2": 0}


@settings(max_examples=40)
@given(small_graphs(), st.data())
def test_verifier_weights_match_path_oracle(g, data):
    n = len(g)
    perm = data.draw(st.permutations(range(1, n + 1)))
    labels = dict(zip(g.vertices, perm))
    D = data.draw(st.sampled_from([(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]))
    report = verify_labeling(g, labels, D)
    assert dict(report.weights) == oracle.weights(g.vertices, g.arcs, labels, D)
    assert report.antimagic == oracle.is_weight_distinct(
        g.vertices, g.arcs, labels, D
    )


@settings(max_examples=60)
@given(st.one_of(oriented_graphs(), small_graphs()), st.data())
def test_collisions_come_grouped_in_order_of_first_vertex(g, data):
    perm = data.draw(st.permutations(range(1, len(g) + 1)))
    labels = dict(zip(g.vertices, perm))
    D = data.draw(st.sampled_from([(1,), (2,), (1, 2), (0, 1), (0, 2)]))
    weights = oracle.weights(g.vertices, g.arcs, labels, D)
    position = {v: i for i, v in enumerate(g.vertices)}
    groups = sorted(
        (
            [v for v in g.vertices if weights[v] == weight]
            for weight in set(weights.values())
        ),
        key=lambda vs: position[vs[0]],
    )
    want = tuple(pair for vs in groups for pair in combinations(vs, 2))
    assert verify_labeling(g, labels, D).collisions == want


@settings(max_examples=40)
@given(small_graphs(), st.data())
def test_any_bijection_is_zero_distance_antimagic(g, data):
    perm = data.draw(st.permutations(range(1, len(g) + 1)))
    assert verify_labeling(g, dict(zip(g.vertices, perm)), {0}).antimagic


# -- diameter, admissibility, classification --------------------------

def test_finite_diameter_cases():
    # A set fits exactly when its largest distance is at most the finite
    # diameter: 0 arcless, 1 for a star with a source or sink center, 2
    # for an internal center.
    for g, diameter in [
        (OrientedGraph(["a", "b"], []), 0),
        (build_star(StarShape(n=3, t=0)), 1),
        (build_star(StarShape(n=3, t=3)), 1),
        (build_star(StarShape(n=3, t=1)), 2),
    ]:
        assert oracle.finite_diameter(g.vertices, g.arcs) == diameter
        assert is_admissible(g, {diameter})
        assert not is_admissible(g, {0, diameter + 1})


@given(star_shapes)
def test_star_diameter_is_two_exactly_when_center_is_internal(shape):
    g = build_star(shape)
    want = 2 if 1 <= shape.t <= shape.n - 1 else 1
    assert oracle.finite_diameter(g.vertices, g.arcs) == want
    assert is_admissible(g, {0, 2}) == (want == 2)
    assert is_admissible(g, {0, 1})


@settings(max_examples=40)
@given(small_graphs())
def test_diameter_matches_path_oracle(g):
    diameter = oracle.finite_diameter(g.vertices, g.arcs)
    for largest in range(4):
        assert is_admissible(g, {largest}) == (largest <= diameter), largest
