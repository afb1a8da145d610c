"""Backtracking search for D-antimagic labelings.

The engine assigns labels 1..|V| by depth-first backtracking, branching
on vertices in decreasing D-degree order (largest D-neighborhood first)
and trying labels in descending order, |V| down to 1, which makes every
result deterministic.  Large labels first make large, spread-out
weights, so ``first`` mode rarely backtracks.  Free labels sit in a
doubly linked list (one int of bits in the compiled walk below), so
stepping to the next one costs O(1).

The order is fixed before a run starts, and with it the depth at which
each weight becomes final: the member of a D-neighborhood placed last
closes that weight, and every other member only adds its label to a
partial sum.  ``_Engine._schedule`` derives this close schedule from
the order before each run, and only closing a weight touches the table
of final weights.

With pruning on, a partial assignment is cut as soon as two final
weights collide, or as soon as an unused label equals a final weight
while every unassigned vertex weighs its own label.  Such a dead label
is looked for by one walk of the free list at the first depth where
that holds; the search only goes deeper when the walk finds none, so
below that depth a dead label can only be a weight just closed, and it
is checked where the weight is closed.  Nothing needs undoing.

With symmetry reduction on, the count is over canonical
representatives of a group that acts freely on bijections, so count
times ``symmetry_order`` is the unreduced count:

* twins, vertices with identical D-neighborhood structure under
  swapping, take strictly decreasing labels in index order;
* two weakly connected components that match vertex for vertex in
  index order (two stars with the same n and t) can be swapped
  wholesale; for each family of m such components, the first vertex
  alone in its twin class is chained across the family the same way,
  and the group order gains m!.

Both rules link a vertex to its predecessor in a chain.  A vertex with
r chain successors still to place leaves r free labels below its own,
so it only tries labels above the r-th smallest free label (the
twin-room bound); that cuts only subtrees without a canonical
labeling.  The bound needs every chain predecessor placed before its
successor; the engine checks that the order does so and raises
RuntimeError (an internal error) if not.

Each mode has one walk.  ``first`` is one loop over an explicit stack,
not recursion, so its depth (one level per vertex) is bounded only by
memory; it runs here because it must start at once on thousands of
vertices.  ``count`` and ``all`` visit the whole tree of at most a few
dozen vertices, so ``exhaustive`` compiles the walk per engine (about
1 ms at that size) into nested loops that run each node about three
times as fast.

Each walk returns its outcome.  ``search_joint_labeling`` alone makes
it a ``SearchResult``, and lets a witness out only once
``verify_labeling`` passes it under every set; a failure is a bug and
raises RuntimeError.

Two refutations need no walk, and the search reports ``exhausted-none``
at once with the shortcut named, at any order and in every mode: the
vertex cap of ``count`` and ``all`` holds only for a graph that would
be walked.  A distance set that does not fit the
graph (max(D) above the finite diameter) admits no D-antimagic labeling
at all.  Neither does a graph in which two vertices have the same
D-neighborhood, for they weigh the same under every labeling.  That is
read off the neighborhood tables the engine builds anyway, so no walk
ever sees a tie.

Budgets are non-negative node counts, not wall-clock, so aborts are
reproducible.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from math import factorial
from typing import NamedTuple

# The vertex cap and its default budget live in ``graph`` so that a
# decision reads them without loading this module; re-exported here.
from .graph import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_VERTEX_CAP,
    ENV_VERTEX_CAP,
    UNFIT_DISTANCE_SET,
    DistanceSet,
    Labeling,
    OrientedGraph,
    VertexCapError,
    is_admissible,
    verify_labeling,
    vertex_cap,
)


#: The shortcut of a graph in which two vertices share a D-neighborhood.
EQUAL_NEIGHBORHOODS = "equal-neighborhoods"


class SearchStatus(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-none"
    ABORTED = "aborted-budget"


class SearchResult(NamedTuple):
    """Outcome of one search run.

    ``nodes_explored`` counts visited search-tree nodes, the empty root
    included, so an exhaustion certificate records how much space was
    actually covered.  A ``witness`` has passed the verifier under
    every set searched.  ``symmetry_order`` is the order of the declared
    reduction group (1 when reduction is off); a reduced count times
    this order gives the unreduced count.  ``shortcut`` names a
    non-enumerative refutation when one applied.  ``labelings``, in
    mode ``all`` only, holds one row per labeling: its labels in
    ``g.vertices`` order, with no ``Labeling`` copy;
    ``Labeling(zip(g.vertices, row))`` is the labeling itself.
    """

    status: SearchStatus
    witness: Labeling | None
    count: int | None
    nodes_explored: int
    symmetry_order: int = 1
    shortcut: str | None = None
    labelings: tuple[tuple[int, ...], ...] | None = None


class _Engine:
    """Mutable search state for one graph and one or more distance sets.

    Joint mode (several distance sets) requires the labeling to be
    antimagic under every set at once; the single-set search is just the
    one-element case.
    """

    def __init__(self, g: OrientedGraph, sets: tuple[DistanceSet, ...],
                 prune: bool, symmetry: bool):
        self.n = len(g)
        self.k = len(sets)
        self.prune = prune
        self.verts = g.vertices
        self.nbs = [g.neighborhoods(D) for D in sets]
        degree = [sum(map(len, column)) for column in zip(*self.nbs)]
        # Largest D-neighborhoods first; the sort is stable, so ties
        # keep index order.
        self.order = sorted(range(self.n), key=degree.__getitem__, reverse=True)
        self.orbit_prev = [-1] * self.n
        self.symmetry_order = 1
        if symmetry:
            self._compute_orbits()
            self._chain_components(g)

    def _compute_orbits(self) -> None:
        # A transposition (u v) preserves one set's neighborhood structure
        # exactly when u and v are twins there (every vertex is in its own
        # neighborhood iff 0 is in D): open twins share (N \ self,
        # watchers \ self), closed twins (N + self, watchers + self).  No
        # vertex has both kinds, so per set each vertex takes its open key
        # when another vertex shares it and its closed key otherwise, and
        # the joint classes are the tuples of those keys.  Vertex sets
        # are bitmasks here.
        n = self.n
        classes: list[tuple] = [()] * n
        for d in range(self.k):
            nbs = [0] * n
            watch = [0] * n
            for v, nb in enumerate(self.nbs[d]):
                bit = 1 << v
                mask = 0
                for u in nb:
                    mask |= 1 << u
                    watch[u] |= bit
                nbs[v] = mask
            open_keys = [(nbs[v] & ~(1 << v), watch[v] & ~(1 << v)) for v in range(n)]
            shared = Counter(open_keys)
            for v in range(n):
                if shared[open_keys[v]] > 1:
                    key = (False, open_keys[v])
                else:
                    key = (True, nbs[v] | 1 << v, watch[v] | 1 << v)
                classes[v] += (key,)
        orbits: dict[tuple, list[int]] = {}
        for v in range(n):
            orbits.setdefault(classes[v], []).append(v)
        for members in orbits.values():
            self._chain(members)

    def _chain(self, members: list[int]) -> None:
        # m interchangeable members take decreasing labels: one labeling in m!.
        self.symmetry_order *= factorial(len(members))
        for prev, nxt in zip(members, members[1:]):
            self.orbit_prev[nxt] = prev

    def _chain_components(self, g: OrientedGraph) -> None:
        # Two weakly connected components whose vertices, paired off in
        # index order, map arcs onto arcs can be swapped wholesale.  A
        # vertex alone in its twin class is fixed by every twin swap, so
        # chaining such vertices of a family of m components in index
        # order picks one labeling out of every m! component
        # permutations, and the group stays free.
        n = self.n
        out = g.neighborhoods((1,))
        # Union-find that always keeps the smaller index as the root, so
        # each root is its component's first vertex.
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v
        for a, heads in enumerate(out):
            for b in heads:
                ra, rb = find(a), find(b)
                if ra < rb:
                    root[rb] = ra
                elif rb < ra:
                    root[ra] = rb
        components: dict[int, list[int]] = {}
        for v in range(n):
            components.setdefault(find(v), []).append(v)
        if len({len(members) for members in components.values()}) == len(components):
            return
        # A family's key is its shape, the arcs by position in index
        # order.  Every vertex of a component is an endpoint of an arc,
        # so the shape fixes the size; only a lone vertex has none.
        families: dict[tuple, list[list[int]]] = {}
        for members in components.values():
            at = {v: i for i, v in enumerate(members)}
            shape = tuple((at[a], at[b]) for a in members for b in out[a])
            families.setdefault(shape, []).append(members)
        alone = [True] * n
        for v, prev in enumerate(self.orbit_prev):
            if prev >= 0:
                alone[v] = alone[prev] = False
        for family in families.values():
            fixed = next((i for i, v in enumerate(family[0]) if alone[v]), None)
            if len(family) > 1 and fixed is not None:
                self._chain(sorted(members[fixed] for members in family))

    def _schedule(self) -> tuple:
        """Every table that ``order`` fixes, with fresh final-weight dicts.

        ``search_joint_labeling`` refuses a graph with two equal
        D-neighborhoods before any walk starts, so no walk sees a tie.
        Raises RuntimeError if ``order`` places a vertex before its chain
        predecessor, or if one set has two empty neighborhoods.
        """
        n, order = self.n, self.order
        last = n - 1
        pos = [0] * n
        for depth, v in enumerate(order):
            pos[v] = depth
        # room[v]: chain successors of v, each needing a free label below
        # v's.  The twin-room floor assumes a chain predecessor is placed
        # before its successor.
        room = [0] * n
        for v in range(last, -1, -1):
            prev = self.orbit_prev[v]
            if prev >= 0:
                if pos[prev] > pos[v]:
                    raise RuntimeError(
                        f"search order places {self.verts[v]!r} before its "
                        f"chain predecessor {self.verts[prev]!r}"
                    )
                room[prev] = room[v] + 1
        # Dead-label prune: once every vertex after ``depth`` in the order
        # is its own whole D-neighborhood (weight = label), an unused
        # label equal to a final weight is doomed.  After placing at the
        # first such depth, the free list is walked against each of the
        # finals in sweep[depth].  The search only goes deeper when no
        # label is dead, so further down a dead label can only be a weight
        # just closed, and the close loop checks those.
        sweep: list[tuple[dict, ...]] = [()] * n
        # Close schedule: a weight is final once the member of its
        # D-neighborhood placed last has its label.  That vertex closes
        # the flat slot d * n + w (weight of w under set d); every other
        # member only adds its label to partial[slot].  A close flagged
        # True lies past the set's first check depth, where the weight
        # it closes must not be a free label.
        adds: list[list[int]] = [[] for _ in range(n)]
        closes: list[list[tuple]] = [[] for _ in range(n)]
        slot = 0
        depth_of = pos.__getitem__
        for nbs in self.nbs:
            fin: dict[int, int] = {}
            first = n
            if self.prune:
                depth = last
                while depth >= 0 and nbs[order[depth]] == (order[depth],):
                    depth -= 1
                if depth < last:
                    first = depth = max(depth, 0)
                    sweep[depth] += (fin,)
            if nbs.count(()) > 1:
                raise RuntimeError("two empty neighborhoods reached the search")
            for nb in nbs:
                if not nb:
                    # An empty neighborhood weighs 0, below every label,
                    # so it closes nothing.
                    slot += 1
                    continue
                if len(nb) == 1:
                    closer = nb[0]
                else:
                    closer = max(nb, key=depth_of)
                    for u in nb:
                        if u != closer:
                            adds[u].append(slot)
                closes[closer].append((slot, fin, pos[closer] > first))
                slot += 1
        return pos, room, sweep, adds, closes

    def run(self, mode: str, budget: int | None) -> tuple:
        """One DFS from the empty assignment; returns ``(aborted, nodes,
        first, count, rows)``: nodes without the root, the first labeling
        as a row of labels in vertex order (or None), ``count`` None in
        mode ``first`` and on abort, and ``rows`` only in mode ``all``.

        Modes ``count`` and ``all`` run the walk ``exhaustive`` compiles.
        Mode ``first`` keeps an explicit stack: ``order[depth]`` is the
        vertex placed at each depth.  Labels go from high to low along a
        doubly linked list of free labels, and a vertex with an orbit
        predecessor takes a label below the predecessor's.  The last
        depth takes the same step as every other; a placement there that
        leaves no two final weights equal is the witness.
        """
        if mode != "first":
            from . import exhaustive
            return exhaustive.run(self, mode, budget)
        n, order, prune = self.n, self.order, self.prune
        orbit_prev = self.orbit_prev
        _, room, sweep, adds, closes = self._schedule()
        last = n - 1
        conflicts = 0
        label_of = [0] * n
        used = [False] * (n + 1)
        # Free labels, linked both ways: down[l] is the next smaller free
        # label, up[l] the next larger; 0 and n + 1 are the sentinels.
        # Labels are unlinked and relinked last-in first-out, so a used
        # label keeps pointers that still lead down to the free list.
        down = list(range(-1, n + 1))
        up = list(range(1, n + 3))
        partial = [0] * (self.k * n)
        first = None
        nodes = 0
        limit = -1 if budget is None else budget
        floor = [0] * n
        depth = 0
        while True:
            v = order[depth]
            label = label_of[v]
            if label:
                # Back at this depth: undo the assignment tried last.
                for s in adds[v]:
                    partial[s] -= label
                for s, fin, _ in closes[v]:
                    weight = partial[s] + label
                    seen = fin[weight]
                    if seen > 1:
                        fin[weight] = seen - 1
                        conflicts -= 1
                    else:
                        del fin[weight]
                used[label] = False
                up[down[label]] = label
                down[up[label]] = label
                label_of[v] = 0
                label = down[label]
            else:
                # Arrived at this depth: start below the chain predecessor's
                # label, and stay above the twin-room floor.
                prev = orbit_prev[v]
                if prev >= 0:
                    label = down[label_of[prev]]
                    while used[label]:
                        label = down[label]
                else:
                    label = down[n + 1]
                low = 0
                if room[v]:
                    low = up[0]
                    for _ in range(room[v] - 1):
                        low = up[low]
                floor[depth] = low
            if label <= floor[depth]:
                if not depth:
                    break
                depth -= 1
                continue
            if nodes == limit:
                return True, nodes, None, None, None
            nodes += 1
            label_of[v] = label
            used[label] = True
            up[down[label]] = up[label]
            down[up[label]] = down[label]
            for s in adds[v]:
                partial[s] += label
            dead = False
            for s, fin, checked in closes[v]:
                weight = partial[s] + label
                if weight in fin:
                    fin[weight] += 1
                    conflicts += 1
                else:
                    fin[weight] = 1
                    if checked and weight <= n and not used[weight]:
                        dead = True
            if dead or conflicts and (prune or depth == last):
                continue
            if depth == last:
                first = tuple(label_of)
                break
            for fin in sweep[depth]:
                free = down[n + 1]
                while free and free not in fin:
                    free = down[free]
                if free:
                    break
            else:
                depth += 1
        return False, nodes, first, None, None


def search_labeling(
    g: OrientedGraph,
    D,
    mode: str = "first",
    budget: int | None = None,
    *,
    prune: bool = True,
    symmetry: bool = True,
) -> SearchResult:
    """Search for D-antimagic labelings of g.

    ``first`` stops at the first labeling in deterministic order;
    ``count`` visits the whole (symmetry-reduced) space and counts;
    ``all`` additionally returns every labeling found, as rows of
    labels in ``g.vertices`` order.  The exhaustive modes are capped
    by :func:`vertex_cap` unless a refutation that walks nothing
    answers; ``first`` is not, but a budget is recommended beyond the
    cap.  A witness is returned only once the verifier passes it.
    """
    return search_joint_labeling(
        g, (D,), mode, budget, prune=prune, symmetry=symmetry
    )


def search_joint_labeling(
    g: OrientedGraph,
    distance_sets,
    mode: str = "first",
    budget: int | None = None,
    *,
    prune: bool = True,
    symmetry: bool = True,
) -> SearchResult:
    """Like :func:`search_labeling` but antimagic under every given set at once."""
    if mode not in ("first", "all", "count"):
        raise ValueError(f"mode must be first, all or count, got {mode!r}")
    n = len(g)
    # Read now, so a malformed cap is refused whatever the graph, but
    # enforced only after the two refutations that walk nothing.
    cap = vertex_cap() if mode in ("all", "count") else n
    sets = tuple(DistanceSet.of(D) for D in distance_sets)
    if not sets:
        raise ValueError("need at least one distance set")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be a non-negative node count, got {budget!r}")
    if not all(is_admissible(g, D) for D in sets):
        return _refuted(mode, UNFIT_DISTANCE_SET)
    engine = _Engine(g, sets, prune, symmetry)
    if any(len(set(nbs)) < len(nbs) for nbs in engine.nbs):
        return _refuted(mode, EQUAL_NEIGHBORHOODS)
    if n > cap:
        raise VertexCapError(
            f"mode={mode} is exhaustive and capped at {cap} vertices "
            f"(graph has {n}; raise {ENV_VERTEX_CAP} to override)"
        )
    aborted, nodes, first, count, rows = engine.run(mode, budget)
    witness = None
    if first is not None:
        witness = Labeling(zip(g.vertices, first))
        # Only the witness: verifying every row of ``all`` would outcost the search.
        if not all(verify_labeling(g, witness, D).antimagic for D in sets):
            raise RuntimeError("search returned an invalid witness")
    status = (SearchStatus.ABORTED if aborted else
              SearchStatus.EXHAUSTED if witness is None else SearchStatus.FOUND)
    return SearchResult(
        status=status,
        witness=witness,
        count=count,
        # The empty root counts as a visited node.
        nodes_explored=nodes + 1,
        symmetry_order=engine.symmetry_order,
        labelings=None if rows is None else tuple(rows),
    )


def _refuted(mode: str, shortcut: str) -> SearchResult:
    """The result of a refutation that walked no tree."""
    return SearchResult(
        status=SearchStatus.EXHAUSTED,
        witness=None,
        count=0 if mode in ("all", "count") else None,
        nodes_explored=0,
        shortcut=shortcut,
        labelings=() if mode == "all" else None,
    )
