"""Backtracking search for D-antimagic labelings.

The engine assigns labels 1..|V| by depth-first backtracking, branching
on vertices in decreasing D-degree order (largest D-neighborhood first)
and trying labels in descending order, |V| down to 1, which makes every
result deterministic.  Large labels first make large, spread-out
weights, so ``first`` mode rarely backtracks.  Free labels sit in a
doubly linked list, so stepping to the next one costs O(1).  With
pruning on, a partial assignment is cut as soon as two
fully-determined weights collide, or as soon as an unused label equals
a final weight while every unassigned vertex weighs its own label
(counted incrementally, checked only at the depths where that holds).

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
labeling.

The DFS is one loop over an explicit stack, not recursion, so its depth
(one level per vertex) is bounded only by memory.

A distance set that does not fit the graph (max(D) above the finite
diameter) admits no D-antimagic labeling at all, so the search reports
``exhausted-none`` immediately and marks the shortcut.

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
    d_neighborhood,
    is_admissible,
    vertex_cap,
)


class SearchStatus(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-none"
    ABORTED = "aborted-budget"


class SearchResult(NamedTuple):
    """Outcome of one search run.

    ``nodes_explored`` counts visited search-tree nodes, the empty root
    included, so an exhaustion certificate records how much space was
    actually covered.  ``symmetry_order`` is the order of the declared
    reduction group (1 when reduction is off); a reduced count times
    this order gives the unreduced count.  ``shortcut`` names a
    non-enumerative refutation when one applied.
    """

    status: SearchStatus
    witness: Labeling | None
    count: int | None
    nodes_explored: int
    symmetry_order: int = 1
    shortcut: str | None = None
    labelings: tuple[Labeling, ...] | None = None


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
        verts = g.vertices
        self.verts = verts
        index = {v: i for i, v in enumerate(verts)}
        self.nbs: list[list[tuple[int, ...]]] = []
        for D in sets:
            self.nbs.append([
                tuple(sorted(map(index.__getitem__, d_neighborhood(g, v, D))))
                for v in verts
            ])
        self.watchers: list[list[list[int]]] = []
        for nbs in self.nbs:
            watch: list[list[int]] = [[] for _ in range(self.n)]
            for v, nb in enumerate(nbs):
                for u in nb:
                    watch[u].append(v)
            self.watchers.append(watch)
        degree = [sum(map(len, column)) for column in zip(*self.nbs)]
        # Largest D-neighborhoods first; the sort is stable, so ties
        # keep index order.
        self.order = sorted(range(self.n), key=degree.__getitem__, reverse=True)
        self.self_only = [
            [nb == (v,) for v, nb in enumerate(nbs)] for nbs in self.nbs
        ]
        self.orbit_prev = [-1] * self.n
        self.symmetry_order = 1
        if symmetry:
            self._compute_orbits()
            self._chain_components(g, index)

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
            self.symmetry_order *= factorial(len(members))
            for prev, nxt in zip(members, members[1:]):
                self.orbit_prev[nxt] = prev

    def _chain_components(self, g: OrientedGraph, index: dict) -> None:
        # Two weakly connected components whose vertices, paired off in
        # index order, map arcs onto arcs can be swapped wholesale.  A
        # vertex alone in its twin class is fixed by every twin swap, so
        # chaining such vertices of a family of m components through
        # orbit_prev (labels decreasing in index order) picks one
        # labeling out of every m! component permutations, and the
        # group stays free: its order is the twin order times m!.
        n = self.n
        arcs = [(index[a], index[b]) for a, b in g.arcs]
        # Union-find that always keeps the smaller index as the root, so
        # each root is its component's first vertex.
        root = list(range(n))
        for a, b in arcs:
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
        components: dict[int, list[int]] = {}
        position = [0] * n
        for v in range(n):
            r = root[v]
            while root[r] != r:
                r = root[r]
            root[v] = r
            members = components.setdefault(r, [])
            position[v] = len(members)
            members.append(v)
        if len({len(members) for members in components.values()}) == len(components):
            return
        # g.arcs is sorted by endpoint index and positions follow index
        # within a component, so each shape below is already canonical.
        shapes: dict[int, list[tuple[int, int]]] = {r: [] for r in components}
        for a, b in arcs:
            shapes[root[a]].append((position[a], position[b]))
        families: dict[tuple, list[list[int]]] = {}
        for r, members in components.items():
            families.setdefault((len(members), tuple(shapes[r])), []).append(members)
        alone = [True] * n
        for v, prev in enumerate(self.orbit_prev):
            if prev >= 0:
                alone[v] = alone[prev] = False
        for family in families.values():
            if len(family) < 2:
                continue
            fixed = next((i for i, v in enumerate(family[0]) if alone[v]), None)
            if fixed is None:
                continue
            chain = sorted(members[fixed] for members in family)
            for prev, nxt in zip(chain, chain[1:]):
                self.orbit_prev[nxt] = prev
            self.symmetry_order *= factorial(len(family))

    def run(self, mode: str, budget: int | None) -> bool:
        """One DFS from the empty assignment; True if the budget ran out.

        The DFS keeps an explicit stack: ``order[depth]`` is the vertex
        placed at each depth.  Labels go from high to low along a doubly
        linked list of free labels, and a vertex with an orbit
        predecessor takes a label below the predecessor's.
        """
        n, k, order, prune = self.n, self.k, self.order, self.prune
        orbit_prev = self.orbit_prev
        # room[v]: chain successors of v, each needing a free label below v's.
        room = [0] * n
        for v in range(n - 1, -1, -1):
            if orbit_prev[v] >= 0:
                room[orbit_prev[v]] = room[v] + 1
        label_of = [0] * n
        used = [False] * (n + 1)
        # Free labels, linked both ways: down[l] is the next smaller free
        # label, up[l] the next larger; 0 and n + 1 are the sentinels.
        # Labels are unlinked and relinked last-in first-out, so a used
        # label keeps pointers that still lead down to the free list.
        down = list(range(-1, n + 1))
        up = list(range(1, n + 3))
        partial = [[0] * n for _ in range(k)]
        remaining = [[len(nb) for nb in self.nbs[d]] for d in range(k)]
        finals: list[dict[int, int]] = [{} for _ in range(k)]
        conflicts = 0
        for d in range(k):
            empty = remaining[d].count(0)
            if empty:
                finals[d][0] = empty
                conflicts += empty - 1
        # Dead-label prune: once every vertex after ``depth`` in the order
        # is its own whole D-neighborhood (weight = label), an unused
        # label equal to a final weight is doomed.  dead[d] counts such
        # labels, and checks[depth] lists the sets where that holds.
        checks: list[tuple[int, ...]] = [()] * n
        tracked = []
        if prune:
            for d, self_only in enumerate(self.self_only):
                last = n - 1
                while last >= 0 and self_only[order[last]]:
                    last -= 1
                if last < n - 1:
                    tracked.append(d)
                    for depth in range(max(last, 0), n - 1):
                        checks[depth] += (d,)
        dead = [0] * k
        effects = [
            [(self.watchers[d][v], partial[d], remaining[d], finals[d],
              d if d in tracked else -1)
             for d in range(k)]
            for v in range(n)
        ]
        tracked_finals = [(d, finals[d]) for d in tracked]
        self.count = 0
        self.witness: dict | None = None
        self.labelings: list[dict] = []
        nodes = 0
        limit = -1 if budget is None else budget
        aborted = False
        floor = [0] * n
        depth = 0
        while True:
            v = order[depth]
            label = label_of[v]
            if label:
                # Back at this depth: undo the assignment tried last.
                for watch, part, left, fin, track in effects[v]:
                    for w in watch:
                        weight = part[w]
                        if not left[w]:
                            seen = fin[weight]
                            if seen > 1:
                                fin[weight] = seen - 1
                                conflicts -= 1
                            else:
                                del fin[weight]
                                if track >= 0 and weight <= n and not used[weight]:
                                    dead[track] -= 1
                        left[w] += 1
                        part[w] = weight - label
                for d, fin in tracked_finals:
                    if label in fin:
                        dead[d] += 1
                used[label] = False
                up[down[label]] = label
                down[up[label]] = label
                label_of[v] = 0
                label = down[label]
            else:
                # Arrived at this depth: start below the chain
                # predecessor's label, and stay above the twin-room floor.
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
                aborted = True
                break
            nodes += 1
            label_of[v] = label
            used[label] = True
            up[down[label]] = up[label]
            down[up[label]] = down[label]
            for d, fin in tracked_finals:
                if label in fin:
                    dead[d] -= 1
            for watch, part, left, fin, track in effects[v]:
                for w in watch:
                    weight = part[w] + label
                    part[w] = weight
                    left[w] -= 1
                    if not left[w]:
                        if weight in fin:
                            fin[weight] += 1
                            conflicts += 1
                        else:
                            fin[weight] = 1
                            if track >= 0 and weight <= n and not used[weight]:
                                dead[track] += 1
            if prune and (conflicts or checks[depth] and any(
                    dead[d] for d in checks[depth])):
                continue
            if depth + 1 < n:
                depth += 1
                continue
            if conflicts:  # a complete labeling, reachable unpruned
                continue
            self.count += 1
            if self.witness is None or mode == "all":
                snapshot = {self.verts[u]: label_of[u] for u in range(n)}
                if self.witness is None:
                    self.witness = snapshot
                if mode == "all":
                    self.labelings.append(snapshot)
            if mode == "first":
                break
        self.nodes = nodes
        return aborted


def _search(g, sets, mode, budget, prune, symmetry):
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be a non-negative node count, got {budget!r}")
    n = len(g)
    for D in sets:
        if not is_admissible(g, D):
            return SearchResult(
                status=SearchStatus.EXHAUSTED,
                witness=None,
                count=0 if mode in ("all", "count") else None,
                nodes_explored=0,
                shortcut=UNFIT_DISTANCE_SET,
                labelings=() if mode == "all" else None,
            )
    if n == 0:
        empty = Labeling({})
        return SearchResult(
            status=SearchStatus.FOUND,
            witness=empty,
            count=1 if mode in ("all", "count") else None,
            nodes_explored=1,
            labelings=(empty,) if mode == "all" else None,
        )
    engine = _Engine(g, sets, prune, symmetry)
    aborted = engine.run(mode, budget)
    # The empty root counts as a visited node.
    nodes = engine.nodes + 1
    if aborted:
        return SearchResult(
            status=SearchStatus.ABORTED,
            witness=None,
            count=None,
            nodes_explored=nodes,
            symmetry_order=engine.symmetry_order,
        )
    witness, count = engine.witness, engine.count
    status = SearchStatus.FOUND if (
        witness is not None if mode == "first" else count > 0
    ) else SearchStatus.EXHAUSTED
    return SearchResult(
        status=status,
        witness=Labeling(witness) if witness is not None else None,
        count=count if mode in ("all", "count") else None,
        nodes_explored=nodes,
        symmetry_order=engine.symmetry_order,
        labelings=(
            tuple(Labeling(m) for m in engine.labelings) if mode == "all" else None
        ),
    )


def _check_mode(mode: str) -> None:
    if mode not in ("first", "all", "count"):
        raise ValueError(f"mode must be first, all or count, got {mode!r}")


def _check_cap(g: OrientedGraph, what: str) -> None:
    cap = vertex_cap()
    if len(g) > cap:
        raise VertexCapError(
            f"{what} is exhaustive and capped at {cap} vertices "
            f"(graph has {len(g)}; raise {ENV_VERTEX_CAP} to override)"
        )


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
    ``all`` additionally returns every labeling found.  The exhaustive
    modes are capped by :func:`vertex_cap`; ``first`` is not, but a
    budget is recommended beyond the cap.
    """
    _check_mode(mode)
    if mode in ("all", "count"):
        _check_cap(g, "mode=" + mode)
    sets = (DistanceSet.of(D),)
    return _search(g, sets, mode, budget, prune, symmetry)


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
    _check_mode(mode)
    if mode in ("all", "count"):
        _check_cap(g, "mode=" + mode)
    sets = tuple(DistanceSet.of(D) for D in distance_sets)
    if not sets:
        raise ValueError("need at least one distance set")
    return _search(g, sets, mode, budget, prune, symmetry)
