"""Backtracking search for D-antimagic labelings.

The engine assigns labels 1..|V| by depth-first backtracking, branching
on vertices in decreasing D-degree order (largest D-neighborhood first)
and trying labels in descending order, |V| down to 1, which makes every
result deterministic.  Large labels first make large, spread-out
weights, so ``first`` mode rarely backtracks; exhaustive modes visit
the same number of nodes under either order.  With pruning on, a
partial assignment is cut as soon as two fully-determined weights
collide; with symmetry reduction on, provably interchangeable vertices
(twins: identical D-neighborhood structure under swapping) take
strictly decreasing labels in index order, and the count is over those
canonical representatives.

The DFS is one loop over an explicit stack, not recursion, so its depth
(one level per vertex) is bounded only by memory.

A distance set that does not fit the graph (max(D) above the finite
diameter) admits no D-antimagic labeling at all, so the search reports
``exhausted-none`` immediately and marks the shortcut.

Budgets are non-negative node counts, not wall-clock, so aborts are
reproducible.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import factorial

from .graph import (
    DistanceSet,
    Labeling,
    OrientedGraph,
    d_neighborhood,
    is_admissible,
)

ENV_VERTEX_CAP = "ANTIMAGIC_NODE_CAP"
DEFAULT_VERTEX_CAP = 10

UNFIT_DISTANCE_SET = "distance-set-exceeds-diameter"


class SearchStatus(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-none"
    ABORTED = "aborted-budget"


@dataclass(frozen=True)
class SearchResult:
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


class VertexCapError(ValueError):
    """An exhaustive search refused by the vertex cap, or a malformed cap."""


def vertex_cap() -> int:
    """Vertex limit for exhaustive modes; ANTIMAGIC_NODE_CAP overrides it."""
    raw = os.environ.get(ENV_VERTEX_CAP)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        return int(raw)
    except ValueError:
        raise VertexCapError(f"{ENV_VERTEX_CAP} must be an integer, got {raw!r}") from None


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
                tuple(sorted(index[w] for w in d_neighborhood(g, v, D)))
                for v in verts
            ])
        self.watchers: list[list[list[int]]] = []
        for d in range(self.k):
            watch: list[list[int]] = [[] for _ in range(self.n)]
            for v in range(self.n):
                for u in self.nbs[d][v]:
                    watch[u].append(v)
            self.watchers.append(watch)
        degree = [
            sum(len(self.nbs[d][v]) for d in range(self.k)) for v in range(self.n)
        ]
        self.order = sorted(range(self.n), key=lambda v: (-degree[v], v))
        self.self_only = [
            [self.nbs[d][v] == (v,) for v in range(self.n)] for d in range(self.k)
        ]
        self.orbit_prev = [-1] * self.n
        self.symmetry_order = 1
        if symmetry:
            self._compute_orbits()

    def _compute_orbits(self) -> None:
        # A transposition (u v) preserves one set's neighborhood structure
        # exactly when u and v are twins there (every vertex is in its own
        # neighborhood iff 0 is in D): open twins share (N \ self,
        # watchers \ self), closed twins (N + self, watchers + self).  No
        # vertex has both kinds, so per set each vertex takes its open key
        # when another vertex shares it and its closed key otherwise, and
        # the joint classes are the tuples of those keys.
        classes: list[tuple] = [()] * self.n
        for d in range(self.k):
            nbs = [frozenset(nb) for nb in self.nbs[d]]
            watch = [frozenset(ws) for ws in self.watchers[d]]
            open_keys = [(nbs[v] - {v}, watch[v] - {v}) for v in range(self.n)]
            shared = Counter(open_keys)
            for v in range(self.n):
                if shared[open_keys[v]] > 1:
                    key = (False, open_keys[v])
                else:
                    key = (True, (nbs[v] | {v}, watch[v] | {v}))
                classes[v] += (key,)
        orbits: dict[tuple, list[int]] = {}
        for v in range(self.n):
            orbits.setdefault(classes[v], []).append(v)
        for members in orbits.values():
            self.symmetry_order *= factorial(len(members))
            for prev, nxt in zip(members, members[1:]):
                self.orbit_prev[nxt] = prev

    def run(self, mode: str, budget: int | None) -> bool:
        """One DFS from the empty assignment; True if the budget ran out.

        The DFS keeps an explicit stack: ``order[depth]`` is the vertex
        placed at each depth and ``next_label[depth]`` the next label to
        try there.  Labels go from high to low, and a twin takes a label
        below its orbit predecessor's.
        """
        n, k, order, prune = self.n, self.k, self.order, self.prune
        orbit_prev = self.orbit_prev
        label_of = [0] * n
        used = [False] * (n + 1)
        partial = [[0] * n for _ in range(k)]
        remaining = [[len(nb) for nb in self.nbs[d]] for d in range(k)]
        finals: list[dict[int, int]] = [{} for _ in range(k)]
        # Vertices not yet assigned whose weight is not just their own
        # label, per set; vertices with an empty neighborhood count too.
        pending = [self.self_only[d].count(False) for d in range(k)]
        conflicts = 0
        for d in range(k):
            empty = remaining[d].count(0)
            if empty:
                finals[d][0] = empty
                conflicts += empty - 1
        effects = [
            [(self.watchers[d][v], partial[d], remaining[d], finals[d])
             for d in range(k)]
            for v in range(n)
        ]
        nonself = [
            [d for d in range(k) if not self.self_only[d][v]] for v in range(n)
        ]
        self.count = 0
        self.witness: dict | None = None
        self.labelings: list[dict] = []
        nodes = 0
        aborted = False
        next_label = [0] * n
        next_label[0] = n
        depth = 0
        while True:
            v = order[depth]
            label = label_of[v]
            if label:
                # Back at this depth: undo the assignment tried last.
                for watch, part, left, fin in effects[v]:
                    for w in watch:
                        weight = part[w]
                        if not left[w]:
                            seen = fin[weight]
                            if seen > 1:
                                fin[weight] = seen - 1
                                conflicts -= 1
                            else:
                                del fin[weight]
                        left[w] += 1
                        part[w] = weight - label
                for d in nonself[v]:
                    pending[d] += 1
                used[label] = False
                label_of[v] = 0
            label = next_label[depth]
            while label and used[label]:
                label -= 1
            if not label:
                if not depth:
                    break
                depth -= 1
                continue
            next_label[depth] = label - 1
            if budget is not None and nodes >= budget:
                aborted = True
                break
            nodes += 1
            label_of[v] = label
            used[label] = True
            for d in nonself[v]:
                pending[d] -= 1
            for watch, part, left, fin in effects[v]:
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
            if prune and (conflicts or _dead_label(n, used, pending, finals)):
                continue
            if depth + 1 < n:
                depth += 1
                prev = orbit_prev[order[depth]]
                next_label[depth] = label_of[prev] - 1 if prev >= 0 else n
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


def _dead_label(n: int, used: list[bool], pending: list[int],
                finals: list[dict[int, int]]) -> bool:
    # Once every unassigned vertex is its own whole D-neighborhood, an
    # unused label equal to an already-final weight is doomed: whichever
    # vertex receives it will repeat that weight.
    for d, left in enumerate(pending):
        if not left:
            for weight in finals[d]:
                if 0 < weight <= n and not used[weight]:
                    return True
    return False


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


def refute_antimagic(
    g: OrientedGraph,
    D,
    budget: int | None = None,
) -> SearchResult:
    """Exhaustively confirm that no D-antimagic labeling of g exists.

    Returns ``exhausted-none`` with the node count of the covered space,
    or ``found`` with the counterexample labeling if the refutation
    fails.  Capped by :func:`vertex_cap` since it must be exhaustive.
    """
    _check_cap(g, "refutation")
    sets = (DistanceSet.of(D),)
    return _search(g, sets, "first", budget, True, True)
