"""Backtracking search for D-antimagic labelings.

The engine assigns labels 1..|V| by depth-first backtracking, branching
on vertices in decreasing D-degree order (largest D-neighborhood first)
and trying labels in descending order, |V| down to 1, which makes every
result deterministic.  Large labels first make large, spread-out
weights, so ``first`` mode rarely backtracks.  Free labels sit in a
doubly linked list, so stepping to the next one costs O(1).

The order is fixed before a run starts, and with it the depth at which
each weight becomes final: the member of a D-neighborhood placed last
closes that weight, and every other member only adds its label to a
partial sum.  ``_Engine._schedule`` derives this close schedule from
the order before each run, and only closing a weight touches the table
of final weights.  At the last depth a single free label is left; it
is tested in place (against the chain predecessor, the budget, and the
weights it closes, both against the final ones and against each
other), then counted or recorded without being placed.

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
labeling.  The bound and the last-depth step both need every chain
predecessor placed before its successor; the engine checks that the
order does so and raises RuntimeError (an internal error) if not.

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
        verts = g.vertices
        self.verts = verts
        index = {v: i for i, v in enumerate(verts)}
        self.nbs: list[list[tuple[int, ...]]] = []
        for D in sets:
            self.nbs.append([
                tuple(sorted(map(index.__getitem__, d_neighborhood(g, v, D))))
                for v in verts
            ])
        degree = [sum(map(len, column)) for column in zip(*self.nbs)]
        # Largest D-neighborhoods first; the sort is stable, so ties
        # keep index order.
        self.order = sorted(range(self.n), key=degree.__getitem__, reverse=True)
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
            self._chain(members)

    def _chain(self, members: list[int]) -> None:
        # m interchangeable members take decreasing labels: one labeling in m!.
        self.symmetry_order *= factorial(len(members))
        for prev, nxt in zip(members, members[1:]):
            self.orbit_prev[nxt] = prev

    def _chain_components(self, g: OrientedGraph, index: dict) -> None:
        # Two weakly connected components whose vertices, paired off in
        # index order, map arcs onto arcs can be swapped wholesale.  A
        # vertex alone in its twin class is fixed by every twin swap, so
        # chaining such vertices of a family of m components in index
        # order picks one labeling out of every m! component
        # permutations, and the group stays free.
        n = self.n
        arcs = [(index[a], index[b]) for a, b in g.arcs]
        # Union-find that always keeps the smaller index as the root, so
        # each root is its component's first vertex.
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v
        for a, b in arcs:
            a, b = find(a), find(b)
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
        components: dict[int, list[int]] = {}
        position = [0] * n
        for v in range(n):
            r = root[v] = find(v)
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
            fixed = next((i for i, v in enumerate(family[0]) if alone[v]), None)
            if len(family) > 1 and fixed is not None:
                self._chain(sorted(members[fixed] for members in family))

    def _schedule(self) -> tuple:
        """Every table that ``order`` fixes, with fresh final-weight dicts.

        Raises RuntimeError if ``order`` places a vertex before its chain
        predecessor.
        """
        n, order = self.n, self.order
        last = n - 1
        pos = [0] * n
        for depth, v in enumerate(order):
            pos[v] = depth
        # room[v]: chain successors of v, each needing a free label below
        # v's.  Both the twin-room floor and the last-depth step assume a
        # chain predecessor is placed before its successor.
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
        # it closes must not be a free label.  The last vertex closes
        # every slot it is in; last_closes groups those by set, to test
        # its one free label against finals and against each other.
        adds: list[list[int]] = [[] for _ in range(n)]
        closes: list[list[tuple]] = [[] for _ in range(n)]
        last_closes = []
        conflicts = 0
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
            slots = []
            for nb in nbs:
                if not nb:
                    # An empty neighborhood weighs 0 from the start.
                    conflicts += 0 in fin
                    fin[0] = fin.get(0, 0) + 1
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
                if pos[closer] == last:
                    slots.append(slot)
                slot += 1
            if slots:
                last_closes.append((slots, fin))
        return room, sweep, adds, closes, last_closes, conflicts

    def run(self, mode: str, budget: int | None) -> bool:
        """One DFS from the empty assignment; True if the budget ran out.

        The DFS keeps an explicit stack: ``order[depth]`` is the vertex
        placed at each depth.  Labels go from high to low along a doubly
        linked list of free labels, and a vertex with an orbit
        predecessor takes a label below the predecessor's.
        """
        n, order, prune = self.n, self.order, self.prune
        orbit_prev = self.orbit_prev
        room, sweep, adds, closes, last_closes, conflicts = self._schedule()
        last = n - 1
        label_of = [0] * n
        used = [False] * (n + 1)
        # Free labels, linked both ways: down[l] is the next smaller free
        # label, up[l] the next larger; 0 and n + 1 are the sentinels.
        # Labels are unlinked and relinked last-in first-out, so a used
        # label keeps pointers that still lead down to the free list.
        down = list(range(-1, n + 1))
        up = list(range(1, n + 3))
        partial = [0] * (self.k * n)
        verts = self.verts
        self.count = 0
        self.witness: dict | None = None
        # One row of labels in vertex order per labeling of mode "all".
        self.labelings: list[tuple[int, ...]] = []
        nodes = 0
        limit = -1 if budget is None else budget
        aborted = False
        floor = [0] * n
        depth = 0
        while True:
            v = order[depth]
            if depth == last:
                # One free label is left: test it in place, placing nothing.
                label = down[n + 1]
                prev = orbit_prev[v]
                if prev < 0 or label < label_of[prev]:
                    if nodes == limit:
                        aborted = True
                        break
                    nodes += 1
                    complete = not conflicts
                    for slots, fin in last_closes:
                        if not complete:
                            break
                        weights = set()
                        for s in slots:
                            weight = partial[s] + label
                            if weight in fin or weight in weights:
                                complete = False
                                break
                            weights.add(weight)
                    if complete:
                        self.count += 1
                        if self.witness is None or mode == "all":
                            # The last vertex's label goes in only for the copy.
                            label_of[v] = label
                            row = tuple(label_of)
                            label_of[v] = 0
                            if self.witness is None:
                                self.witness = dict(zip(verts, row))
                            if mode == "all":
                                self.labelings.append(row)
                        if mode == "first":
                            break
                if not depth:
                    break
                depth -= 1
                continue
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
                aborted = True
                break
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
            if dead or prune and conflicts:
                continue
            for fin in sweep[depth]:
                free = down[n + 1]
                while free and free not in fin:
                    free = down[free]
                if free:
                    break
            else:
                depth += 1
        self.nodes = nodes
        return aborted


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
    labels in ``g.vertices`` order.  The exhaustive
    modes are capped by :func:`vertex_cap`; ``first`` is not, but a
    budget is recommended beyond the cap.
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
    if mode in ("all", "count"):
        cap = vertex_cap()
        if n > cap:
            raise VertexCapError(
                f"mode={mode} is exhaustive and capped at {cap} vertices "
                f"(graph has {n}; raise {ENV_VERTEX_CAP} to override)"
            )
    sets = tuple(DistanceSet.of(D) for D in distance_sets)
    if not sets:
        raise ValueError("need at least one distance set")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be a non-negative node count, got {budget!r}")
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
        labelings=tuple(engine.labelings) if mode == "all" else None,
    )
