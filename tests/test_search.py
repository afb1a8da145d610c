import hashlib
import json
import random
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naive_oracle as oracle
from antimagic import (
    DistanceSet,
    ForestSpec,
    Labeling,
    OrientedGraph,
    SearchStatus,
    StarShape,
    build_forest,
    build_homogeneous_forest,
    build_star,
    enumerate_forest_orientations,
    is_admissible,
    search_joint_labeling,
    search_labeling,
    vertex_cap,
    verify_labeling,
)
from antimagic.search import EQUAL_NEIGHBORHOODS, UNFIT_DISTANCE_SET, _Engine
from forest_strategies import STAR_SETS, oriented_graphs, repeated_star_forests


def test_count_all_bijections_work_for_distance_one_two_on_k12():
    g = build_star(StarShape(n=2, t=1))
    result = search_labeling(g, {1, 2}, mode="count", symmetry=False)
    assert result.status is SearchStatus.FOUND
    assert result.count == 6


def test_count_on_k12_under_zero_one():
    # exactly the two bijections with sink label 3 = 1 + 2 fail
    g = build_star(StarShape(n=2, t=1))
    result = search_labeling(g, {0, 1}, mode="count", symmetry=False)
    assert result.count == 4


def test_first_is_deterministic_and_verified():
    g = build_star(StarShape(n=4, t=2))
    a = search_labeling(g, {0, 1})
    b = search_labeling(g, {0, 1})
    assert a.status is SearchStatus.FOUND
    assert a.witness == b.witness
    assert verify_labeling(g, a.witness, {0, 1}).antimagic


@pytest.mark.parametrize("mode", ["first", "count", "all"])
def test_a_witness_failing_the_verifier_is_an_internal_error(mode, monkeypatch):
    # The search gates its own witness, so no caller sees one that the
    # verifier has not passed.
    import antimagic.search as search

    g = build_star(StarShape(n=4, t=2))
    monkeypatch.setattr(
        search, "verify_labeling", lambda *args: SimpleNamespace(antimagic=False)
    )
    with pytest.raises(RuntimeError, match="invalid witness"):
        search_labeling(g, {0, 1}, mode)


def test_a_joint_witness_is_verified_under_every_set(monkeypatch):
    import antimagic.search as search

    g = build_star(StarShape(n=4, t=2))
    sets = ((0, 1), (0, 2), (0, 1, 2))
    checked = []

    def fails_the_last_set(graph, labeling, D):
        checked.append(D)
        return SimpleNamespace(antimagic=D != DistanceSet.of(sets[-1]))

    monkeypatch.setattr(search, "verify_labeling", fails_the_last_set)
    with pytest.raises(RuntimeError, match="invalid witness"):
        search_joint_labeling(g, sets)
    assert checked == [DistanceSet.of(D) for D in sets]


def test_mode_all_returns_every_labeling():
    g = build_star(StarShape(n=2, t=1))
    result = search_labeling(g, {1, 2}, mode="all", symmetry=False)
    assert result.count == 6
    # Each labeling is a row of labels in vertex order.
    labelings = [Labeling(zip(g.vertices, row)) for row in result.labelings]
    assert len(labelings) == 6
    assert len(set(labelings)) == 6
    for labeling in labelings:
        assert verify_labeling(g, labeling, {1, 2}).antimagic
    assert result.witness == labelings[0]


def test_counts_match_brute_force_on_all_small_stars():
    """Dual route: the pruned backtracker against plain permutation
    enumeration with path-based weights, over every star with n <= 4.

    When the distance set exceeds the star's finite diameter the search
    reports a decision-level zero with a shortcut, while the mechanical
    count can be positive (every neighborhood degenerates); both halves
    of that split are asserted.  A fitting set under which two vertices
    share a neighborhood is refused by the other shortcut, and the
    mechanical count is zero there too.
    """
    for n in range(1, 5):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            diameter = oracle.finite_diameter(g.vertices, g.arcs)
            for D in STAR_SETS:
                got = search_labeling(g, D, mode="count", symmetry=False)
                if max(D) <= diameter:
                    want = oracle.count_antimagic(g.vertices, g.arcs, D)
                    assert got.count == want, (n, t, D)
                    if oracle.has_equal_neighborhoods(g.vertices, g.arcs, D):
                        assert want == 0, (n, t, D)
                        assert got.shortcut == EQUAL_NEIGHBORHOODS
                        assert got.nodes_explored == 0
                    else:
                        assert got.shortcut is None
                else:
                    assert got.count == 0, (n, t, D)
                    assert got.shortcut == UNFIT_DISTANCE_SET
                verdict = oracle.decides_antimagic(g.vertices, g.arcs, D)
                assert (got.status is SearchStatus.FOUND) == verdict, (n, t, D)


def test_counts_match_brute_force_on_a_forest():
    spec = ForestSpec.parse("2x2")
    for orientation in [((0, 1),), ((1, 1),), ((1, 2),)]:
        g = build_forest(spec, orientation)
        for D in ((0, 1), (1,), (0, 2)):
            want = oracle.count_antimagic(g.vertices, g.arcs, D)
            got = search_labeling(g, D, mode="count", symmetry=False)
            assert got.count == want, (orientation, D)


def test_symmetry_reduction_preserves_the_total_count():
    # reduced count times the reduction group order = raw count
    for n, t, D in [(3, 0, (0, 1)), (4, 2, (0, 1)), (4, 4, (0, 1)), (3, 1, (0, 2))]:
        g = build_star(StarShape(n=n, t=t))
        raw = search_labeling(g, D, mode="count", symmetry=False)
        reduced = search_labeling(g, D, mode="count", symmetry=True)
        assert raw.symmetry_order == 1
        assert reduced.count * reduced.symmetry_order == raw.count, (n, t, D)


def test_symmetry_groups_interchangeable_leaves():
    g = build_star(StarShape(n=4, t=2))
    result = search_labeling(g, {0, 1}, mode="count")
    # two source leaves and two sink leaves are interchangeable: 2! * 2!
    assert result.symmetry_order == 4


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))
    ),
    st.sampled_from(STAR_SETS),
)
def test_pruning_never_changes_the_count(shape, D):
    # the unpruned run walks the whole uncut tree; keep instances tiny
    g = build_star(StarShape(*shape))
    pruned = search_labeling(g, D, mode="count", symmetry=False)
    unpruned = search_labeling(g, D, mode="count", symmetry=False, prune=False)
    assert pruned.count == unpruned.count
    assert pruned.status == unpruned.status


def test_pruning_never_changes_the_count_on_a_forest():
    g = build_forest(ForestSpec.parse("2x2"), ((1, 2),))
    for D in ((0, 1), (0, 2), (1, 2)):
        pruned = search_labeling(g, D, mode="count", symmetry=False)
        unpruned = search_labeling(g, D, mode="count", symmetry=False, prune=False)
        assert pruned.count == unpruned.count


def test_unfit_distance_set_shortcuts_to_exhausted():
    g = build_star(StarShape(n=3, t=0))
    result = search_labeling(g, {0, 2}, mode="count")
    assert result.status is SearchStatus.EXHAUSTED
    assert result.count == 0
    assert result.nodes_explored == 0
    assert result.shortcut == UNFIT_DISTANCE_SET


def test_the_empty_graph_takes_the_diameter_shortcut():
    # No vertex means no finite diameter, so no set fits and the search
    # never starts.
    g = OrientedGraph([], [])
    for mode in ("first", "count", "all"):
        result = search_labeling(g, {0}, mode=mode)
        assert result.status is SearchStatus.EXHAUSTED
        assert result.witness is None
        assert result.count == (None if mode == "first" else 0)
        assert result.labelings == (() if mode == "all" else None)
        assert result.nodes_explored == 0
        assert result.shortcut == UNFIT_DISTANCE_SET


def test_refute_confirms_no_distance_two_labeling():
    # Under {2} the centre and both sink leaves reach nothing: three
    # empty neighborhoods, refused before any walk.
    g = build_star(StarShape(n=3, t=1))
    result = search_labeling(g, {2}, mode="first")
    assert result.status is SearchStatus.EXHAUSTED
    assert result.witness is None
    assert result.nodes_explored == 0
    assert result.shortcut == EQUAL_NEIGHBORHOODS
    assert oracle.count_antimagic(g.vertices, g.arcs, (2,)) == 0


def test_refute_fails_with_a_counterexample_when_labelings_exist():
    g = build_star(StarShape(n=2, t=1))
    result = search_labeling(g, {0, 1}, mode="first")
    assert result.status is SearchStatus.FOUND
    assert verify_labeling(g, result.witness, {0, 1}).antimagic


def test_budget_abort_is_deterministic():
    g = build_star(StarShape(n=5, t=2))
    tight = search_labeling(g, {0, 1}, mode="count", budget=7)
    again = search_labeling(g, {0, 1}, mode="count", budget=7)
    assert tight.status is SearchStatus.ABORTED
    # the empty root plus the seven budgeted nodes
    assert tight.nodes_explored == again.nodes_explored == 8
    assert tight.count is None and tight.witness is None


def test_budget_large_enough_is_invisible():
    g = build_star(StarShape(n=3, t=1))
    free = search_labeling(g, {0, 1}, mode="count")
    capped = search_labeling(g, {0, 1}, mode="count", budget=10**6)
    assert capped == free


@pytest.mark.parametrize(
    "n, t, D, mode",
    [(5, 2, (0, 1), "count"), (5, 3, (0, 1), "first"), (4, 3, (1, 2), "first")],
    ids=["count", "first-found", "first-refute"],
)
def test_every_budget_aborts_at_its_node_or_matches_the_free_run(n, t, D, mode):
    # Every node, at the last depth as at any other, passes the budget
    # test before it is counted: budget b aborts on node b + 1 (the root
    # included), and a budget that covers every node changes nothing.
    # A tied graph is refused with 0 nodes before any walk, so every
    # budget, 0 included, gives the free answer.
    g = build_star(StarShape(n=n, t=t))
    free = search_labeling(g, D, mode=mode)
    total = free.nodes_explored
    if free.shortcut is None:
        assert total > n + 1  # the instance backtracks
    else:
        assert (free.shortcut, total) == (EQUAL_NEIGHBORHOODS, 0)
    for b in range(total + 2):
        capped = search_labeling(g, D, mode=mode, budget=b)
        if b < total - 1:
            assert capped.status is SearchStatus.ABORTED, b
            assert capped.nodes_explored == b + 1, b
        else:
            assert capped == free, b


def test_negative_budget_is_rejected():
    g = build_star(StarShape(n=2, t=1))
    with pytest.raises(ValueError, match="budget"):
        search_labeling(g, {0, 1}, budget=-5)
    with pytest.raises(ValueError, match="budget"):
        search_joint_labeling(g, ((0, 1), (1, 2)), mode="count", budget=-1)
    with pytest.raises(ValueError, match="budget"):
        search_labeling(g, {2}, mode="first", budget=-3)
    # zero is a valid budget: the root alone, then an abort
    zero = search_labeling(g, {0, 1}, budget=0)
    assert zero.status is SearchStatus.ABORTED
    assert zero.nodes_explored == 1


def test_dead_label_prune_keeps_labelings_with_an_empty_neighborhood():
    # The prune may only fire once every unassigned vertex weighs its own
    # label; v1 is isolated, always weighs 0 under {1,2}, and must hold
    # it back while unassigned.
    g = OrientedGraph(
        ["v0", "v1", "v2", "v3"], [("v0", "v2"), ("v2", "v3"), ("v3", "v0")]
    )
    want = oracle.count_antimagic(g.vertices, g.arcs, (1, 2))
    assert want == 24
    for prune in (True, False):
        got = search_labeling(g, {1, 2}, mode="count", symmetry=False, prune=prune)
        assert got.count == want, prune


@settings(max_examples=100, deadline=None)
@given(
    oriented_graphs(max_vertices=7, min_vertices=4),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
)
def test_pruned_and_unpruned_counts_match_the_oracle(g, distance_sets):
    diameter = oracle.finite_diameter(g.vertices, g.arcs)
    fits = all(max(D) <= diameter for D in distance_sets)
    want = (
        oracle.count_joint_antimagic(g.vertices, g.arcs, distance_sets)
        if fits else 0
    )
    raw = {}
    for prune in (True, False):
        raw[prune] = search_joint_labeling(
            g, distance_sets, mode="count", symmetry=False, prune=prune
        )
        assert raw[prune].count == want, prune
    # Pruning only removes subtrees, and only ones holding no labeling, so
    # it visits no more nodes and finds the same first labeling.
    assert raw[True].nodes_explored <= raw[False].nodes_explored
    first = [
        search_joint_labeling(g, distance_sets, symmetry=False, prune=prune).witness
        for prune in (True, False)
    ]
    assert first[0] == first[1]
    reduced = search_joint_labeling(g, distance_sets, mode="count")
    assert reduced.count * reduced.symmetry_order == want


@pytest.mark.parametrize(
    "g, D, mode, nodes, unreduced",
    [
        (build_star(StarShape(n=9, t=3)), (0, 2), "count", 6_045, 840 * 4_320),
        (build_forest(ForestSpec.parse("1x3@1,1x3@1")), (0, 1), "all", 8_314,
         2_652 * 4),
        # Tied, so refused by the shortcut with no node walked.
        (build_star(StarShape(n=9, t=4)), (1,), "refute", 0, 0),
        (build_forest(ForestSpec.parse("1x4@2,1x4@2")), (0, 1), "count",
         109_166, 13_379 * 32),
        (build_forest(ForestSpec.parse("1x4@1,1x4@1")), (0, 2), "count",
         118_495, 23_704 * 144),
        (build_forest(ForestSpec.parse("1x4@2,1x4@2")), ((0, 1), (0, 2)),
         "count", 108_490, 7_779 * 32),
        # The sets' dead-label checks start at different depths (3 and 2).
        (build_star(StarShape(n=9, t=3)), ((0, 1), (0, 2)), "count", 2_865,
         310 * 4_320),
        # A weight closed one depth past the first check depth can leave
        # a dead label here.
        (build_forest(ForestSpec.parse("1x1@0,1x5@2")), (0, 1, 2), "all", 12_324,
         2_520 * 12),
    ],
    ids=["star9@3-count", "1x3@1,1x3@1-all", "star9@4-refute",
         "1x4@2,1x4@2-01-count", "1x4@1,1x4@1-02-count",
         "1x4@2,1x4@2-01+02-count", "star9@3-01+02-count",
         "1x1@0,1x5@2-012-all"],
)
def test_exhaustive_node_totals_do_not_depend_on_value_order(
    g, D, mode, nodes, unreduced
):
    # Exact node totals of the exhaustive modes: every unpruned child is
    # visited whatever order siblings are tried in, so the totals pin the
    # canonical tree itself.  count x symmetry_order is the unreduced count.
    # A refutation is an exhausted first-mode search; a tuple of sets is
    # a joint search.
    sets = D if isinstance(D[0], tuple) else (D,)
    result = search_joint_labeling(
        g, sets, mode="first" if mode == "refute" else mode
    )
    assert result.nodes_explored == nodes
    assert result.shortcut == (EQUAL_NEIGHBORHOODS if nodes == 0 else None)
    assert (result.count or 0) * result.symmetry_order == unreduced


#: SHA-256 of the 1,326 ``all``-mode labelings of ``1x3@1,1x3@1`` under
#: {0,1}, in the order the search returns them (JSON, keys sorted).
ALL_ORDER_DIGEST = "26b045f34e77351f19371f77db9f18a08817cc14c11d79c881fbc26b0b522192"


def test_all_mode_returns_the_same_labelings_in_the_same_order():
    g = build_forest(ForestSpec.parse("1x3@1,1x3@1"))
    result = search_labeling(g, (0, 1), mode="all")
    assert len(result.labelings) == result.count == 1_326
    text = json.dumps(
        [dict(zip(g.vertices, row)) for row in result.labelings], sort_keys=True
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_ORDER_DIGEST


def test_first_mode_runs_on_two_thousand_vertices():
    # 100 copies of K_{1,19} with one source leaf: twice as deep as the
    # interpreter's default recursion limit, found without backtracking.
    g = build_homogeneous_forest(100, StarShape(n=19, t=1))
    assert len(g) == 2000
    result = search_labeling(g, {0, 1})
    assert result.status is SearchStatus.FOUND
    assert result.nodes_explored == 2001
    assert verify_labeling(g, result.witness, {0, 1}).antimagic


def tied(engine: _Engine) -> bool:
    """Do two vertices share a neighborhood under one of the engine's sets?"""
    return any(len(set(nbs)) < len(nbs) for nbs in engine.nbs)


@settings(max_examples=100, deadline=None)
@given(
    oriented_graphs(max_vertices=7),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
    st.sampled_from(["first", "count", "all"]),
    st.one_of(st.none(), st.integers(0, 50)),
)
def test_equal_neighborhoods_are_refused_before_any_walk(g, distance_sets, mode, budget):
    # Two vertices with one D-neighborhood weigh the same under every
    # labeling, so the shortcut fires exactly on fitting tied graphs,
    # at any budget, and the oracle finds no labeling there.
    result = search_joint_labeling(g, distance_sets, mode, budget)
    diameter = oracle.finite_diameter(g.vertices, g.arcs)
    fits = all(max(D) <= diameter for D in distance_sets)
    tie = any(
        oracle.has_equal_neighborhoods(g.vertices, g.arcs, D) for D in distance_sets
    )
    assert (result.shortcut == EQUAL_NEIGHBORHOODS) == (fits and tie)
    if result.shortcut == EQUAL_NEIGHBORHOODS:
        assert oracle.count_joint_antimagic(g.vertices, g.arcs, distance_sets) == 0
        assert result.status is SearchStatus.EXHAUSTED
        assert (result.nodes_explored, result.symmetry_order) == (0, 1)
        assert result.count == (None if mode == "first" else 0)
        assert result.labelings == (() if mode == "all" else None)


def test_a_tie_handed_straight_to_an_engine_is_an_internal_error():
    # Without the search's refusal in front, two empty neighborhoods
    # would tie at weight 0 unseen; the schedule refuses them instead.
    g = build_star(StarShape(n=3, t=1))
    engine = _Engine(g, (DistanceSet.of((2,)),), True, True)
    for mode in ("first", "count", "all"):
        with pytest.raises(RuntimeError, match="empty neighborhoods"):
            engine.run(mode, None)


@settings(max_examples=150, deadline=None)
@given(
    oriented_graphs(),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
)
def test_the_order_places_every_chain_predecessor_first(g, distance_sets):
    engine = _Engine(
        g, tuple(DistanceSet.of(D) for D in distance_sets), True, True
    )
    depth = {v: i for i, v in enumerate(engine.order)}
    for v, prev in enumerate(engine.orbit_prev):
        if prev >= 0:
            assert depth[prev] < depth[v]
    if not tied(engine):  # a tie never reaches a walk
        engine.run("count", 0)  # the guard passes; the budget stops at once


@settings(max_examples=100, deadline=None)
@given(
    oriented_graphs(max_vertices=7),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
)
def test_an_engine_runs_again_like_a_fresh_one(g, distance_sets):
    # Index order respects every chain (orbit_prev[v] < v), so it can
    # replace the degree order between runs.  Nothing of the first run,
    # above all its tables of final weights, may reach the next.
    sets = tuple(DistanceSet.of(D) for D in distance_sets)
    engine = _Engine(g, sets, True, True)
    assume(not tied(engine))  # a tie never reaches a walk
    engine.run("count", None)
    engine.order = list(range(len(g)))
    for mode in ("count", "first"):
        fresh = _Engine(g, sets, True, True)
        fresh.order = list(range(len(g)))
        outcomes = [(e.run(mode, None), e.symmetry_order) for e in (engine, fresh)]
        assert outcomes[0] == outcomes[1], mode


def test_an_order_breaking_a_chain_is_an_internal_error():
    # The two source leaves and the two sink leaves form two twin
    # chains; the reversed order places each successor first.
    engine = _Engine(
        build_star(StarShape(n=4, t=2)), (DistanceSet.of((0, 1)),), True, True
    )
    assert engine.symmetry_order == 4
    engine.order.reverse()
    with pytest.raises(RuntimeError, match="chain predecessor"):
        engine.run("count", None)


@settings(max_examples=150, deadline=None)
@given(
    oriented_graphs(),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
)
def test_twin_classes_match_the_pairwise_reference(g, distance_sets):
    # Twin classes alone, before whole components are chained.
    engine = _Engine(
        g, tuple(DistanceSet.of(D) for D in distance_sets), True, False
    )
    engine._compute_orbits()
    want = oracle.symmetry_orbits(g.vertices, g.arcs, distance_sets)
    assert (engine.orbit_prev, engine.symmetry_order) == want


@settings(max_examples=150, deadline=None)
@given(
    oriented_graphs(),
    st.lists(
        st.sets(st.integers(0, 3), min_size=1).map(sorted), min_size=1, max_size=2
    ),
)
def test_component_chains_match_the_swap_reference(g, distance_sets):
    engine = _Engine(
        g, tuple(DistanceSet.of(D) for D in distance_sets), True, True
    )
    want = oracle.symmetry_chains(g.vertices, g.arcs, distance_sets)
    assert (engine.orbit_prev, engine.symmetry_order) == want


@pytest.mark.parametrize(
    "spec, D, chained",
    [
        ("2x3@1", (0, 1), True),      # centres c1, c2 swap with their stars
        ("3x2@0", (0, 1, 2), True),
        ("1x3@0,1x3@1", (0, 1), False),  # same size, different t
        ("2x2@1", (0,), False),       # every vertex a twin: nothing is fixed
        ("1x2@1,1x3@1", (0, 1), False),
    ],
)
def test_component_chain_needs_isomorphic_stars_and_a_fixed_vertex(spec, D, chained):
    forest = ForestSpec.parse(spec)
    g = build_forest(forest)
    sets = (DistanceSet.of(D),)
    twins = _Engine(g, sets, True, False)
    twins._compute_orbits()
    engine = _Engine(g, sets, True, True)
    stars = forest.star_count
    if chained:
        centres = [g.vertices.index(f"c{j}") for j in range(1, stars + 1)]
        assert [engine.orbit_prev[c] for c in centres] == [-1] + centres[:-1]
        assert engine.symmetry_order == twins.symmetry_order * factorial(stars)
    else:
        assert engine.orbit_prev == twins.orbit_prev
        assert engine.symmetry_order == twins.symmetry_order


@settings(max_examples=15, deadline=None)
@given(
    repeated_star_forests(max_vertices=9),
    st.lists(st.sampled_from(STAR_SETS), min_size=1, max_size=2, unique=True),
)
def test_whole_star_swaps_keep_the_unreduced_count(g, distance_sets):
    diameter = oracle.finite_diameter(g.vertices, g.arcs)
    fits = all(max(D) <= diameter for D in distance_sets)
    want = (
        oracle.count_joint_antimagic(g.vertices, g.arcs, distance_sets)
        if fits else 0
    )
    raw = search_joint_labeling(g, distance_sets, mode="count", symmetry=False)
    reduced = search_joint_labeling(g, distance_sets, mode="count")
    assert raw.count == want
    assert reduced.count * reduced.symmetry_order == want


@pytest.mark.parametrize("m, n, nodes", [(7, 15, 128), (9, 19, 200)])
def test_first_mode_on_the_t1_diagonal_barely_backtracks(m, n, nodes):
    # Odd m with n = 2m + 1 is the family's worst line; the twin-room
    # bound keeps it to 2m + 1 nodes beyond the root and one per vertex.
    g = build_homogeneous_forest(m, StarShape(n=n, t=1))
    result = search_labeling(g, {0, 1})
    assert result.status is SearchStatus.FOUND
    assert result.nodes_explored == nodes == len(g) + 1 + 2 * m + 1
    assert verify_labeling(g, result.witness, {0, 1}).antimagic


#: SHA-256 of the 432 first-mode witnesses of ``scan --spec 2x3,2x4``
#: under {0,1}, {0,2} and {0,1,2} (every cell whose set fits), as the
#: search found them before the twin-room bound and component chains.
SCAN_WITNESS_DIGEST = "00553b8af8b170713844546635274fb62cb98f60ab474207c57d1fb276c17bd2"


def test_twin_room_bound_keeps_the_scan_witnesses():
    spec = ForestSpec.parse("2x3,2x4")
    twins_only, full = [], []
    for orientation in enumerate_forest_orientations(spec):
        g = build_forest(spec, orientation)
        for D in ((0, 1), (0, 2), (0, 1, 2)):
            if not is_admissible(g, D):
                continue
            # The bound on twin classes alone, without component chains.
            engine = _Engine(g, (DistanceSet.of(D),), True, False)
            engine._compute_orbits()
            _, _, first, _, _ = engine.run("first", None)
            twins_only.append(dict(zip(g.vertices, first)))
            full.append(dict(search_labeling(g, D).witness))

    def digest(witnesses):
        text = json.dumps(witnesses, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    assert len(full) == 432
    assert digest(twins_only) == digest(full) == SCAN_WITNESS_DIGEST


#: SHA-256 of (status, nodes_explored, symmetry_order, witness in vertex
#: order) of every first-mode search, budget 3,000, over the orientation
#: classes of 2x3,2x4 and 3x2,2x4 under {0,1}, {0,2} and {0,1,2}, each
#: with pruning and symmetry reduction on and off.
FIRST_TREE_DIGEST = "842d23c52134e5d1e1d8129f438311e7d628ce3cea23272f5731b7dbffd73bbf"


def test_first_mode_trees_are_pinned_for_every_setting():
    # Under {1,2} each star of these forests has a vertex with no
    # out-arc, whose neighborhood is empty, so each search there that
    # fits is refused before any walk.
    digest = hashlib.sha256()
    searches = nodes = refused = 0
    for text in ("2x3,2x4", "3x2,2x4"):
        spec = ForestSpec.parse(text)
        for orientation in enumerate_forest_orientations(spec):
            g = build_forest(spec, orientation)
            for D in ((0, 1), (0, 2), (0, 1, 2), (1, 2)):
                for prune in (True, False):
                    for symmetry in (True, False):
                        r = search_labeling(g, D, budget=3000,
                                            prune=prune, symmetry=symmetry)
                        if D == (1, 2):
                            assert r.status is SearchStatus.EXHAUSTED
                            assert r.nodes_explored == 0
                            refused += r.shortcut == EQUAL_NEIGHBORHOODS
                            continue
                        witness = None if r.witness is None else [
                            r.witness[v] for v in g.vertices
                        ]
                        digest.update(json.dumps([
                            r.status.value, r.nodes_explored,
                            r.symmetry_order, witness,
                        ]).encode())
                        searches += 1
                        nodes += r.nodes_explored
    assert (searches, nodes, refused) == (3600, 504_644, 1116)
    assert digest.hexdigest() == FIRST_TREE_DIGEST


#: SHA-256 of (order, orbit_prev, symmetry_order) of every engine, pruning
#: and symmetry reduction on, over 400 seeded random documents, each
#: under one or two of STAR_SETS, and over the orientation classes of
#: 2x3,2x4 and 3x2,2x4 under {0,1}, {0,2}, {0,1,2} and {1,2}.
SETUP_DIGEST = "4816b43df1531982b08d74340cfb98432cbb20b0b3c68bc31c6e379c3317cf72"


def _interleaved_document(rng: random.Random) -> OrientedGraph:
    # One to three random oriented trees of one to five vertices, one to
    # three copies of each, with every vertex list shuffled, so copies of
    # one component interleave and meet in any index order.
    vertices, arcs = [], []
    for c in range(rng.randint(1, 3)):
        size = rng.randint(1, 5)
        tree = []
        for j in range(1, size):
            i = rng.randrange(j)
            tree.append((i, j) if rng.random() < 0.5 else (j, i))
        for k in range(rng.randint(1, 3)):
            names = [f"c{c}.{k}.{i}" for i in range(size)]
            vertices += names
            arcs += [(names[a], names[b]) for a, b in tree]
    rng.shuffle(vertices)
    return OrientedGraph(vertices, arcs)


def test_engine_setup_is_pinned():
    rng = random.Random(28)
    cases = []
    for _ in range(400):
        g = _interleaved_document(rng)
        cases.append((g, rng.sample(STAR_SETS, rng.randint(1, 2))))
    for text in ("2x3,2x4", "3x2,2x4"):
        spec = ForestSpec.parse(text)
        for orientation in enumerate_forest_orientations(spec):
            g = build_forest(spec, orientation)
            cases += [(g, [D]) for D in ((0, 1), (0, 2), (0, 1, 2), (1, 2))]
    digest = hashlib.sha256()
    chained = 0
    for g, sets in cases:
        engine = _Engine(g, tuple(map(DistanceSet.of, sets)), True, True)
        digest.update(json.dumps([
            engine.order, engine.orbit_prev, engine.symmetry_order,
        ]).encode())
        chained += engine.symmetry_order > 1
    assert (len(cases), chained) == (1600, 1522)
    assert digest.hexdigest() == SETUP_DIGEST


def test_exhaustive_modes_respect_the_vertex_cap(monkeypatch):
    g = build_star(StarShape(n=10, t=5))  # 11 vertices, cap is 10
    with pytest.raises(ValueError, match="capped"):
        search_labeling(g, {0, 1}, mode="count")
    # first mode stays available beyond the cap
    assert search_labeling(g, {0, 1}).status is SearchStatus.FOUND
    monkeypatch.setenv("ANTIMAGIC_NODE_CAP", "12")
    assert vertex_cap() == 12
    assert search_labeling(g, {0, 1}, mode="count", budget=50).status is (
        SearchStatus.ABORTED
    )
    monkeypatch.setenv("ANTIMAGIC_NODE_CAP", "many")
    with pytest.raises(ValueError, match="integer"):
        vertex_cap()


def test_joint_search_counts_intersection():
    g = build_star(StarShape(n=2, t=1))
    sets = ((0, 1), (0, 2))
    want = oracle.count_joint_antimagic(g.vertices, g.arcs, sets)
    got = search_joint_labeling(g, sets, mode="count", symmetry=False)
    assert got.count == want
    single = search_labeling(g, (0, 1), mode="count", symmetry=False)
    assert got.count <= single.count


def test_joint_search_with_unfit_member_is_exhausted():
    g = build_star(StarShape(n=3, t=0))
    result = search_joint_labeling(g, ((0, 1), (0, 2)), mode="first")
    assert result.status is SearchStatus.EXHAUSTED
    assert result.shortcut == UNFIT_DISTANCE_SET


def test_joint_witness_serves_every_set():
    g = build_star(StarShape(n=4, t=2))
    sets = ((0, 1), (0, 2), (0, 1, 2))
    result = search_joint_labeling(g, sets)
    assert result.status is SearchStatus.FOUND
    for D in sets:
        assert verify_labeling(g, result.witness, D).antimagic


def test_mode_validation():
    g = build_star(StarShape(n=2, t=0))
    with pytest.raises(ValueError, match="mode"):
        search_labeling(g, {0}, mode="everything")
    with pytest.raises(ValueError):
        search_joint_labeling(g, (), mode="first")
