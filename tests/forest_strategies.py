"""Hypothesis strategies for small oriented graphs, stars and star forests."""

from hypothesis import strategies as st

from antimagic import (
    ForestSpec,
    OrientedGraph,
    StarGroup,
    StarShape,
    build_forest,
    build_star,
)

STAR_SETS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]

star_shapes = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=0, max_value=n).map(
        lambda t: StarShape(n=n, t=t)
    )
)


@st.composite
def forest_specs(draw, max_stars=3, max_leaves=4):
    """A small oriented forest spec with every star's t fixed."""
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_leaves),
            min_size=2,
            max_size=max_stars,
            unique=True,
        )
    )
    sizes.sort()
    groups = []
    for leaves in sizes:
        count = draw(st.integers(min_value=1, max_value=2))
        ts = draw(
            st.tuples(
                *[st.integers(min_value=0, max_value=leaves)] * count
            )
        )
        groups.append(StarGroup(count=count, leaves=leaves, sources=ts))
    return ForestSpec(groups=tuple(groups))


@st.composite
def repeated_star_forests(draw, max_vertices=9):
    """A built oriented forest in which one oriented star repeats: two or
    more copies of K_{1,n} with the same t, sometimes next to one other
    star, max_vertices vertices at most."""
    leaves = draw(st.integers(min_value=1, max_value=3))
    copies = draw(st.integers(min_value=2, max_value=max_vertices // (leaves + 1)))
    t = draw(st.integers(min_value=0, max_value=leaves))
    groups = [StarGroup(count=copies, leaves=leaves, sources=(t,) * copies)]
    room = max_vertices - copies * (leaves + 1)
    others = [n for n in range(1, room) if n != leaves]
    if others and draw(st.booleans()):
        n = draw(st.sampled_from(others))
        groups.append(
            StarGroup(count=1, leaves=n, sources=(draw(st.integers(0, n)),))
        )
    groups.sort(key=lambda group: group.leaves)
    return build_forest(ForestSpec(groups=tuple(groups)))


@st.composite
def small_graphs(draw):
    """Either a lone oriented star or an oriented forest, built."""
    if draw(st.booleans()):
        return build_star(draw(star_shapes))
    return build_forest(draw(forest_specs()))


distance_sets = st.sampled_from(STAR_SETS)


@st.composite
def oriented_graphs(draw, max_vertices=9, min_vertices=1):
    """Any oriented graph on min_vertices to max_vertices vertices, sparse
    ones favoured so that twins actually occur."""
    n = draw(st.integers(min_vertices, max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(("none", "none", "forward", "backward")))
            if kind == "forward":
                arcs.append((vertices[i], vertices[j]))
            elif kind == "backward":
                arcs.append((vertices[j], vertices[i]))
    return OrientedGraph(vertices, arcs)
