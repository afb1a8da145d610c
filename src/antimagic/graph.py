"""Oriented-graph core: directed distances, D-neighborhoods, weight checks.

An oriented graph is a digraph with no loops and at most one arc between
any pair of vertices (so no two-cycles).  Distances are directed shortest
path lengths.

Given a distance set D, the D-neighborhood of a vertex u collects every
vertex whose directed distance from u lies in D, and the D-weight of u
under a labeling is the sum of the labels in that neighborhood.  A
labeling is D-antimagic when all D-weights are pairwise distinct.
"""

from __future__ import annotations

import os
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, NamedTuple


class GraphError(ValueError):
    """Raised when vertices or arcs violate the oriented-graph restrictions."""


class LabelingError(ValueError):
    """Raised when a labeling is not a bijection onto 1..|V|."""


# The next two belong to the search and the star constructions, and the
# vertex cap below to the search; they live here so that the CLI maps
# the errors to exit codes, and a decision reads the cap, without
# loading either module.  Both modules re-export them.


class VertexCapError(ValueError):
    """An exhaustive search refused by the vertex cap, or a malformed cap."""


ENV_VERTEX_CAP = "ANTIMAGIC_NODE_CAP"
DEFAULT_VERTEX_CAP = 10

#: Node budget for a first-mode search on a graph above the vertex cap
#: when the caller gives none.
DEFAULT_CELL_BUDGET = 200_000


def vertex_cap() -> int:
    """Vertex limit for exhaustive modes; ANTIMAGIC_NODE_CAP overrides it."""
    raw = os.environ.get(ENV_VERTEX_CAP)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    if not (raw.isascii() and raw.isdecimal()):
        raise VertexCapError(
            f"{ENV_VERTEX_CAP} must be an integer of plain digits, got {raw!r}"
        )
    return int(raw)


class UnsupportedDistanceSetError(ValueError):
    """Distance set outside the star domain (some member above 2)."""


class DistanceSet:
    """A nonempty set of nonnegative integer distances, kept sorted.

    Accepts any iterable of ints.  ``DistanceSet.parse`` reads the
    comma-separated command line form, e.g. ``"0,2"``.
    """

    __slots__ = ("members",)

    def __init__(self, distances: Iterable[int]):
        members = tuple(sorted(set(distances)))
        if not members:
            raise ValueError("distance set must be nonempty")
        for d in members:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"distances must be nonnegative integers, got {d!r}")
        self.members = members

    @classmethod
    def of(cls, value: "DistanceSet | Iterable[int]") -> "DistanceSet":
        if isinstance(value, cls):
            return value
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "DistanceSet":
        parts = [part.strip() for part in text.split(",")]
        if not all(part.isascii() and part.isdecimal() for part in parts):
            raise ValueError(f"cannot parse distance set {text!r}: use plain digits")
        return cls(map(int, parts))

    @property
    def smallest(self) -> int:
        return self.members[0]

    @property
    def largest(self) -> int:
        return self.members[-1]

    def __contains__(self, distance: object) -> bool:
        return distance in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistanceSet) and self.members == other.members

    def __lt__(self, other: "DistanceSet") -> bool:
        return self.members < other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(d) for d in self.members) + "}"

    def __repr__(self) -> str:
        return f"DistanceSet({list(self.members)!r})"


class OrientedGraph:
    """An immutable oriented graph with eagerly cached all-pairs distances.

    :param vertices: iterable of hashable vertex identifiers; their order
        is preserved and used for deterministic output everywhere.
    :param arcs: iterable of (tail, head) pairs over declared vertices.

    Loops, duplicate arcs, two-cycles and undeclared endpoints raise
    :class:`GraphError`.  Instances never mutate after construction, so
    they are safe to share between threads.  Vertices are known by their
    index in ``vertices``: ``_layers[u][d]`` holds the sorted indices of
    the vertices at distance d from vertex u, one tuple per distance
    0, 1, 2, ... up to the farthest vertex u reaches.
    """

    def __init__(self, vertices: Iterable, arcs: Iterable[tuple]):
        self._vertices = tuple(vertices)
        self._index = index = {v: i for i, v in enumerate(self._vertices)}
        if len(index) != len(self._vertices):
            raise GraphError("duplicate vertex identifiers")
        out: list[list[int]] = [[] for _ in self._vertices]
        seen: set[tuple] = set()
        for tail, head in arcs:
            if tail not in index:
                raise GraphError(f"arc uses undeclared vertex {tail!r}")
            if head not in index:
                raise GraphError(f"arc uses undeclared vertex {head!r}")
            if tail == head:
                raise GraphError(f"loop at {tail!r}")
            if (tail, head) in seen:
                raise GraphError(f"duplicate arc ({tail!r}, {head!r})")
            if (head, tail) in seen:
                raise GraphError(f"two-cycle between {tail!r} and {head!r}")
            seen.add((tail, head))
            out[index[tail]].append(index[head])
        self._arcs = tuple(sorted(seen, key=lambda a: (index[a[0]], index[a[1]])))
        layers = []
        for start, heads in enumerate(out):
            rows = [(start,)]
            reached = {start, *heads}
            frontier = heads
            while frontier:
                rows.append(tuple(sorted(frontier)))
                after = []
                for u in frontier:
                    for w in out[u]:
                        if w not in reached:
                            reached.add(w)
                            after.append(w)
                frontier = after
            layers.append(tuple(rows))
        self._layers = tuple(layers)

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def arcs(self) -> tuple:
        return self._arcs

    def neighborhoods(self, D) -> list[tuple[int, ...]]:
        """Per vertex, in vertex order, the sorted indices of the vertices
        whose directed distance from it lies in the distance set."""
        members = DistanceSet.of(D).members
        result = []
        for layers in self._layers:
            parts = [layers[d] for d in members if d < len(layers)]
            # A single layer is already sorted, and shared rather than copied.
            result.append(parts[0] if len(parts) == 1 else tuple(sorted(chain(*parts))))
        return result

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: object) -> bool:
        return v in self._index

    def __iter__(self) -> Iterator:
        return iter(self._vertices)

    def __repr__(self) -> str:
        return f"OrientedGraph({len(self._vertices)} vertices, {len(self._arcs)} arcs)"


class Labeling(Mapping):
    """A vertex -> label map intended to be a bijection onto 1..|V|.

    The bijectivity requirement depends on the target graph, so it is
    checked by :meth:`validate_for` (and by every verification entry
    point) rather than at construction.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping):
        self._map = dict(mapping)

    @classmethod
    def sequential(cls, g: OrientedGraph) -> "Labeling":
        """Label vertices 1..|V| in vertex order."""
        return cls({v: i + 1 for i, v in enumerate(g.vertices)})

    def validate_for(self, g: OrientedGraph) -> None:
        """Raise :class:`LabelingError` unless this is a bijection onto 1..|V|."""
        missing_vertices = [v for v in g.vertices if v not in self._map]
        extra_vertices = [v for v in self._map if v not in g]
        if missing_vertices or extra_vertices:
            raise LabelingError(
                f"labeling does not cover the vertex set exactly: "
                f"missing {missing_vertices!r}, extra {extra_vertices!r}"
            )
        not_ints = {
            v: label for v, label in self._map.items()
            if not isinstance(label, int) or isinstance(label, bool)
        }
        if not_ints:
            raise LabelingError(f"labels must be integers, got {not_ints!r}")
        n = len(g)
        seen: dict[int, list] = {}
        for v in g.vertices:
            seen.setdefault(self._map[v], []).append(v)
        duplicates = {
            label: vs for label, vs in seen.items() if len(vs) > 1
        }
        missing = sorted(set(range(1, n + 1)) - set(seen))
        if duplicates or missing:
            raise LabelingError(
                f"labels must be a bijection onto 1..{n}: "
                f"duplicates {duplicates!r}, missing {missing!r}"
            )

    def __getitem__(self, v):
        return self._map[v]

    def __iter__(self) -> Iterator:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Labeling):
            return self._map == other._map
        if isinstance(other, Mapping):
            return self._map == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        return f"Labeling({self._map!r})"


class WeightReport(NamedTuple):
    """Outcome of checking one labeling against one distance set.

    ``collisions`` lists every unordered pair of vertices sharing a
    weight, in vertex order, so a failed check carries the complete
    certificate rather than just the first clash found.
    """

    weights: Mapping
    collisions: tuple[tuple, ...]

    @property
    def antimagic(self) -> bool:
        return not self.collisions


def verify_labeling(g: OrientedGraph, labeling: Labeling, D) -> WeightReport:
    """Compute every D-weight and report all weight collisions.

    Raises :class:`LabelingError` for a non-bijective labeling.  The
    report's ``antimagic`` flag is true exactly when no two vertices
    share a weight.
    """
    members = DistanceSet.of(D).members
    labeling = labeling if isinstance(labeling, Labeling) else Labeling(labeling)
    labeling.validate_for(g)
    label = [labeling[v] for v in g.vertices].__getitem__
    weights = {}
    for u, layers in zip(g.vertices, g._layers):
        weight = 0
        for d in members:
            if d < len(layers):
                weight += sum(map(label, layers[d]))
        weights[u] = weight
    # Filled in vertex order, so the groups come in the order of their
    # first vertex.
    by_weight: dict[int, list] = {}
    for v in g.vertices:
        by_weight.setdefault(weights[v], []).append(v)
    pairs: list[tuple] = []
    for group in by_weight.values():
        pairs.extend(combinations(group, 2))
    return WeightReport(weights=weights, collisions=tuple(pairs))


#: Refusal reason for a distance set that :func:`is_admissible` rejects.
UNFIT_DISTANCE_SET = "distance-set-exceeds-diameter"


def is_admissible(g: OrientedGraph, D) -> bool:
    """Whether the distance set fits the graph (max(D) <= finite diameter).

    A distance set is only meaningful for a graph whose largest finite
    directed distance reaches it; a graph cannot be D-antimagic for a
    distance set it does not fit.
    """
    largest = DistanceSet.of(D).largest
    return any(len(layers) > largest for layers in g._layers)
