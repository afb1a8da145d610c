import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    ForestSpec,
    GraphError,
    OrientedGraph,
    StarGroup,
    StarShape,
    build_forest,
    build_homogeneous_forest,
    build_star,
    center_vertex,
    enumerate_forest_orientations,
    leaf_vertex,
    single_sink_orientation,
)
from antimagic.stars import forest_parts
from naive_oracle import orientation_class_count, orientation_classes_from_arcs


def test_star_shape_bounds():
    with pytest.raises(ValueError):
        StarShape(n=0, t=0)
    with pytest.raises(ValueError):
        StarShape(n=2, t=3)
    with pytest.raises(ValueError):
        StarShape(n=2, t=-1)


def test_build_star_arc_directions():
    g = build_star(StarShape(n=4, t=2))
    assert g.vertices == ("c", "l1", "l2", "l3", "l4")
    assert set(g.arcs) == {
        ("l1", "c"),
        ("l2", "c"),
        ("c", "l3"),
        ("c", "l4"),
    }


def test_build_star_extremes():
    assert build_star(StarShape(n=1, t=0)).arcs == (("c", "l1"),)
    assert build_star(StarShape(n=1, t=1)).arcs == (("l1", "c"),)
    g = build_star(StarShape(n=3, t=3))
    assert tuple(tail for tail, head in g.arcs if head == "c") == ("l1", "l2", "l3")


def test_vertex_name_helpers():
    assert center_vertex() == "c" and center_vertex(3) == "c3"
    assert leaf_vertex(2) == "l2" and leaf_vertex(2, 3) == "l3.2"


def test_star_group_source_forms():
    assert StarGroup(count=2, leaves=3, sources=[1, 1]).sources == (1, 1)
    assert StarGroup(count=2, leaves=3, sources=(0, 3)).sources == (0, 3)
    with pytest.raises(ValueError):
        StarGroup(count=2, leaves=3, sources=(1,))
    with pytest.raises(ValueError):
        StarGroup(count=1, leaves=3, sources=(4,))
    with pytest.raises(TypeError):
        StarGroup(count=2, leaves=3, sources=1)
    with pytest.raises(ValueError, match="group orientation is unspecified"):
        build_forest(ForestSpec(groups=(StarGroup(count=2, leaves=3),)))


def test_forest_spec_parse_terms():
    spec = ForestSpec.parse("3x5@2")
    assert spec.groups == (StarGroup(count=3, leaves=5, sources=(2, 2, 2)),)
    spec2 = ForestSpec.parse("3x3,2x4")
    assert [g.leaves for g in spec2.groups] == [3, 4]
    assert all(g.sources is None for g in spec2.groups)


def test_forest_spec_parse_merges_equal_sizes():
    spec = ForestSpec.parse("1x3@0,2x3@2")
    assert spec.groups == (StarGroup(count=3, leaves=3, sources=(0, 2, 2)),)


def test_forest_spec_parse_rejects_garbage():
    for bad in (
        "3y5", "x5", "3x", "3x5@x", "3xx5", "",
        "2x2@", "1_0x2", "+2x3", "2x 3", "2x3@-1", "2 x3", "\u0662x3",
    ):
        with pytest.raises(ValueError, match="cannot parse forest term"):
            ForestSpec.parse(bad)
    with pytest.raises(ValueError, match="every 3-leaf star"):
        ForestSpec.parse("1x3@0,2x3")


def test_forest_spec_orders_groups_by_size():
    spec = ForestSpec.parse("2x4,1x2")
    assert [g.leaves for g in spec.groups] == [2, 4]
    with pytest.raises(ValueError, match="strictly increase"):
        ForestSpec(
            groups=(
                StarGroup(count=1, leaves=3),
                StarGroup(count=1, leaves=3),
            )
        )


def test_forest_spec_counts():
    spec = ForestSpec.parse("3x3,2x4,1x5")
    assert spec.star_count == 6
    assert len(build_forest(spec, single_sink_orientation(spec))) == 28
    assert spec.star_sizes() == (3, 3, 3, 4, 4, 5)


def test_single_star_spec_is_expressible_but_not_buildable():
    spec = ForestSpec.parse("1x3@1")
    assert spec.star_count == 1
    with pytest.raises(GraphError, match="at least two"):
        build_forest(spec)


def test_build_forest_uses_spec_orientations():
    g = build_forest(ForestSpec.parse("2x2@1"))
    assert g.vertices == ("c1", "l1.1", "l1.2", "c2", "l2.1", "l2.2")
    assert ("l1.1", "c1") in g.arcs and ("c1", "l1.2") in g.arcs
    assert ("l2.1", "c2") in g.arcs and ("c2", "l2.2") in g.arcs


def test_build_forest_orientation_override():
    spec = ForestSpec.parse("2x2")
    g = build_forest(spec, ((0, 2),))
    heads = g.neighborhoods({1})[g.vertices.index("c1")]
    assert tuple(g.vertices[i] for i in heads) == ("l1.1", "l1.2")
    assert tuple(tail for tail, head in g.arcs if head == "c2") == ("l2.1", "l2.2")
    with pytest.raises(ValueError):
        build_forest(spec, ((0,),))
    with pytest.raises(ValueError):
        build_forest(spec, ((0, 2), (1,)))
    with pytest.raises(ValueError):
        build_forest(spec, ((0, 3),))


def test_build_homogeneous_forest_requires_two_copies():
    with pytest.raises(GraphError):
        build_homogeneous_forest(1, StarShape(n=3, t=1))
    g = build_homogeneous_forest(2, StarShape(n=1, t=1))
    assert g.arcs == (("l1.1", "c1"), ("l2.1", "c2"))


def test_build_forest_pi_fixes_one_sink_leaf_per_star():
    spec = ForestSpec.parse("2x3,1x4")
    assert single_sink_orientation(spec) == ((2, 2), (3,))
    g = build_forest(spec, single_sink_orientation(spec))
    heads = dict(zip(g.vertices, g.neighborhoods({1})))
    for k, n in enumerate(spec.star_sizes(), start=1):
        center = f"c{k}"
        assert heads[center] == (g.vertices.index(f"l{k}.{n}"),)
        assert sum(head == center for _, head in g.arcs) == n - 1


def test_build_forest_pi_single_leaf_stars_degenerate():
    spec = ForestSpec.parse("2x1")
    g = build_forest(spec, single_sink_orientation(spec))
    # one leaf means zero source leaves; the center keeps its sink leaf
    assert g.arcs == (("c1", "l1.1"), ("c2", "l2.1"))


def test_forest_parts_list_what_the_graph_lists():
    # A document written from the parts must equal one written from the
    # graph, so the arcs must already be in the graph's sorted order.
    for sizes, ts in [((3, 3), (1, 2)), ((1, 2, 4), (0, 2, 1)), ((2, 2), (0, 2))]:
        vertices, arcs = forest_parts(sizes, ts)
        g = OrientedGraph(vertices, arcs)
        assert (g.vertices, g.arcs) == (vertices, arcs)


def test_enumerate_star_orientations():
    # A single star has one orientation class per t in 0..n.
    classes = enumerate_forest_orientations(ForestSpec.parse("1x3"))
    assert classes == [((0,),), ((1,),), ((2,),), ((3,),)]


def test_enumerate_forest_orientations_two_identical_stars():
    spec = ForestSpec.parse("2x2")
    classes = enumerate_forest_orientations(spec)
    assert classes == [
        ((0, 0),),
        ((0, 1),),
        ((0, 2),),
        ((1, 1),),
        ((1, 2),),
        ((2, 2),),
    ]
    assert orientation_class_count(spec) == 6


def test_enumeration_agrees_with_arc_flip_oracle():
    """The canonical enumerator must cover exactly the classes that
    survive quotienting all 2^edges arc assignments."""
    for text in ("2x2", "1x1,1x2", "3x2", "1x2,2x3"):
        spec = ForestSpec.parse(text)
        canonical = set(enumerate_forest_orientations(spec))
        raw = orientation_classes_from_arcs(spec)
        assert canonical == raw, text
        assert orientation_class_count(spec) == len(raw)


@settings(max_examples=30)
@given(st.data())
def test_orientation_count_formula_matches_enumeration(data):
    sizes = data.draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)
    )
    sizes.sort()
    groups = tuple(
        StarGroup(count=data.draw(st.integers(1, 3)), leaves=n) for n in sizes
    )
    spec = ForestSpec(groups=groups)
    assert len(enumerate_forest_orientations(spec)) == orientation_class_count(spec)
