"""Builders for oriented stars and star forests, plus orientation enumeration.

A star K_{1,n} has one center and n leaves.  An orientation is summarised
by t, the number of leaves whose arc points into the center: leaves
1..t are sources, leaves t+1..n are sinks.  Up to isomorphism t fully
determines the orientation, so enumeration works over t values, and for
forests over multisets of t values per group of same-size stars.

Vertex naming is deterministic: a lone star uses center ``c`` and leaves
``l1``..``ln``; forests number their stars 1..M across groups and use
``c3`` / ``l3.2`` style names.

The records are named tuples that check their fields in ``__new__``,
which pickling and copying call but ``_make`` and ``_replace`` skip.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product

from .graph import GraphError, OrientedGraph


class StarShape(namedtuple("StarShape", "n t")):
    """Oriented star parameters: n leaves of which the first t are sources."""

    __slots__ = ()

    def __new__(cls, n: int, t: int):
        if n < 1:
            raise ValueError(f"a star needs at least one leaf, got n={n}")
        if not 0 <= t <= n:
            raise ValueError(f"t must lie in 0..n, got t={t} for n={n}")
        return super().__new__(cls, n, t)


class StarGroup(namedtuple("StarGroup", "count leaves sources")):
    """``count`` copies of K_{1,leaves} inside a forest.

    ``sources`` fixes the orientation, one t per copy, or is None for a
    group left unoriented (for enumeration, or for an orientation
    passed to :func:`build_forest` separately).
    """

    __slots__ = ()

    def __new__(
        cls, count: int, leaves: int, sources: tuple[int, ...] | None = None
    ):
        if count < 1:
            raise ValueError(f"group needs at least one star, got {count}")
        if leaves < 1:
            raise ValueError(f"stars need at least one leaf, got {leaves}")
        if sources is not None:
            sources = tuple(sources)
            if len(sources) != count:
                raise ValueError(
                    f"need one t per copy: got {len(sources)} for {count} stars"
                )
            for t in sources:
                if not 0 <= t <= leaves:
                    raise ValueError(f"t must lie in 0..{leaves}, got {t}")
        return super().__new__(cls, count, leaves, sources)


class ForestSpec(namedtuple("ForestSpec", "groups")):
    """A star forest: groups of same-size stars with increasing leaf counts.

    Leaf counts strictly increase from group to group: same-size stars
    form one group, with per-copy orientations for a mixed case.
    """

    __slots__ = ()

    def __new__(cls, groups: tuple[StarGroup, ...]):
        groups = tuple(groups)
        if not groups:
            raise ValueError("forest needs at least one group")
        sizes = [group.leaves for group in groups]
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(
                f"group leaf counts must strictly increase, got {sizes}"
            )
        return super().__new__(cls, groups)

    @classmethod
    def parse(cls, text: str) -> "ForestSpec":
        """Read the command line mini-grammar, e.g. ``"3x5@2"`` or ``"3x3,2x4"``.

        Each comma-separated term is ``<count>x<leaves>`` with an
        optional ``@<t>`` orientation.  Terms with equal leaf counts are
        merged into one group with per-copy orientations.
        """
        collected: dict[int, list] = {}
        for term in text.split(","):
            term = term.strip()
            body, at, t_part = term.partition("@")
            count_part, sep, leaves_part = body.partition("x")
            # Plain ASCII digits only: int() would also take signs,
            # spaces, underscores and any other script's digits.
            fields = (count_part, leaves_part, t_part) if at else (count_part, leaves_part)
            if not sep or not all(f.isascii() and f.isdecimal() for f in fields):
                raise ValueError(f"cannot parse forest term {term!r}")
            count = int(count_part)
            leaves = int(leaves_part)
            ts = [int(t_part) if at else None] * count
            collected.setdefault(leaves, []).append((count, ts))
        groups = []
        for leaves in sorted(collected):
            count = sum(c for c, _ in collected[leaves])
            ts = [t for _, part in collected[leaves] for t in part]
            if all(t is None for t in ts):
                sources = None
            elif any(t is None for t in ts):
                raise ValueError(
                    f"either give every {leaves}-leaf star a @t or none of them"
                )
            else:
                sources = tuple(ts)
            groups.append(StarGroup(count=count, leaves=leaves, sources=sources))
        return cls(groups=tuple(groups))

    @property
    def star_count(self) -> int:
        return sum(group.count for group in self.groups)

    def star_sizes(self) -> tuple[int, ...]:
        """Leaf count of every star, in star numbering order."""
        return tuple(
            group.leaves for group in self.groups for _ in range(group.count)
        )


def center_vertex(star: int | None = None) -> str:
    """Center name: ``c`` for a lone star, ``c<k>`` inside a forest."""
    return "c" if star is None else f"c{star}"


def leaf_vertex(i: int, star: int | None = None) -> str:
    """Leaf name: ``l<i>`` for a lone star, ``l<k>.<i>`` inside a forest."""
    return f"l{i}" if star is None else f"l{star}.{i}"


def build_star(shape: StarShape) -> OrientedGraph:
    """Oriented star with leaves 1..t pointing in and the rest pointing out."""
    n, t = shape.n, shape.t
    vertices = [center_vertex()] + [leaf_vertex(i) for i in range(1, n + 1)]
    arcs = [(leaf_vertex(i), center_vertex()) for i in range(1, t + 1)]
    arcs += [(center_vertex(), leaf_vertex(i)) for i in range(t + 1, n + 1)]
    return OrientedGraph(vertices, arcs)


def forest_parts(
    sizes: tuple[int, ...], ts: tuple[int, ...]
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Vertices and arcs of a star forest, listed as its graph lists them.

    Star k has ``sizes[k-1]`` leaves, the first ``ts[k-1]`` of them
    sources.  The arcs come in vertex-index order, the order
    :class:`OrientedGraph` sorts them into, so a graph document written
    from these parts equals one written from the graph, and needs none
    of the graph's all-pairs distances.
    """
    vertices = []
    arcs = []
    for k, (n, t) in enumerate(zip(sizes, ts), start=1):
        center = center_vertex(k)
        leaves = [leaf_vertex(i, k) for i in range(1, n + 1)]
        vertices.append(center)
        vertices += leaves
        arcs += [(center, leaf) for leaf in leaves[t:]]
        arcs += [(leaf, center) for leaf in leaves[:t]]
    return tuple(vertices), tuple(arcs)


def _build_from_sizes(sizes: tuple[int, ...], ts: tuple[int, ...]) -> OrientedGraph:
    return OrientedGraph(*forest_parts(sizes, ts))


def build_homogeneous_forest(m: int, shape: StarShape) -> OrientedGraph:
    """m disjoint copies of the same oriented star, m >= 2."""
    if m < 2:
        raise GraphError(f"a star forest needs at least two stars, got m={m}")
    return _build_from_sizes((shape.n,) * m, (shape.t,) * m)


def orientation_sources(
    spec: ForestSpec, orientation: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """Per-star t values of an orientation, in star numbering order.

    Raises as :func:`build_forest` does for a spec of fewer than two
    stars or an orientation that does not fit the spec or leaves a
    group unspecified, without building the graph.
    """
    if spec.star_count < 2:
        raise GraphError("a star forest needs at least two stars")
    if len(orientation) != len(spec.groups):
        raise ValueError("need one orientation tuple per group")
    ts = []
    for group, part in zip(spec.groups, orientation):
        if part is None:
            raise ValueError("group orientation is unspecified")
        if len(part) != group.count:
            raise ValueError(
                f"need {group.count} t values for the {group.leaves}-leaf group"
            )
        for t in part:
            if not 0 <= t <= group.leaves:
                raise ValueError(f"t must lie in 0..{group.leaves}, got {t}")
        ts.extend(part)
    return tuple(ts)


def build_forest(
    spec: ForestSpec,
    orientation: tuple[tuple[int, ...], ...] | None = None,
) -> OrientedGraph:
    """Star forest from a spec, with per-star orientations.

    ``orientation`` overrides the spec's own t values; it must give one
    tuple of t values per group, such as :func:`single_sink_orientation`.
    Stars are numbered consecutively across groups in spec order.
    """
    if orientation is None:
        orientation = tuple(group.sources for group in spec.groups)
    return _build_from_sizes(spec.star_sizes(), orientation_sources(spec, orientation))


def single_sink_orientation(spec: ForestSpec) -> tuple[tuple[int, ...], ...]:
    """The forced pattern: every leaf but the last points in.

    Each star keeps a single sink leaf (its highest-numbered one), i.e.
    t = n - 1 per star; single-leaf stars degenerate to t = 0.
    """
    return tuple((group.leaves - 1,) * group.count for group in spec.groups)


def enumerate_forest_orientations(
    spec: ForestSpec,
) -> list[tuple[tuple[int, ...], ...]]:
    """All orientation classes of a forest, in lexicographic order.

    A class is a tuple of sorted t-multisets, one per group: copies of
    the same star size are interchangeable, so only the multiset of
    their t values matters.  The list has
    ``prod(comb(n_j + m_j, m_j))`` entries.
    """
    per_group = [
        list(combinations_with_replacement(range(group.leaves + 1), group.count))
        for group in spec.groups
    ]
    return [tuple(choice) for choice in product(*per_group)]

