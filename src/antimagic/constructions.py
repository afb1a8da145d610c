"""Closed-form D-antimagic labelings, and the one decision ladder.

Oriented stars are fully characterized for every distance set with
maximum at most 2; star forests have closed-form labelings for the
orientation families where one is known.  :func:`decide` answers every
construct and scan question the same way: a refusal by theorem or by
the graph's shape, else a closed form, else a witness the caller
already found for the graph, else the exhaustive search oracle, which
is loaded only when a question reaches it.

Every labeling returned here passed the verifier first; a closed form
never reaches a caller unverified.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .graph import (
    DEFAULT_CELL_BUDGET,
    UNFIT_DISTANCE_SET,
    DistanceSet,
    Labeling,
    LabelingError,
    OrientedGraph,
    UnsupportedDistanceSetError,
    is_admissible,
    verify_labeling,
    vertex_cap,
)
from .stars import (
    ForestSpec,
    StarShape,
    build_forest,
    build_homogeneous_forest,
    build_star,
    center_vertex,
    leaf_vertex,
    orientation_sources,
    single_sink_orientation,
)

if TYPE_CHECKING:
    from .search import SearchResult

#: The seven usable distance sets for stars and star forests (directed
#: distances never exceed 2 there), smallest first.
STAR_DISTANCE_SETS: tuple[DistanceSet, ...] = (
    DistanceSet([0]),
    DistanceSet([1]),
    DistanceSet([2]),
    DistanceSet([0, 1]),
    DistanceSet([0, 2]),
    DistanceSet([1, 2]),
    DistanceSet([0, 1, 2]),
)

# Verdict statuses, and the methods that reach them.
ANTIMAGIC = "antimagic"
NOT_ANTIMAGIC = "not-antimagic"
ABORTED = "aborted"

BY_CONSTRUCTION = "construction"
BY_SEARCH = "search"
BY_THEOREM = "theorem"
BY_NECESSARY_CONDITION = "necessary-condition"
BY_UNFIT_DISTANCE_SET = UNFIT_DISTANCE_SET


def search_labeling(*args, **kwargs):
    """The search oracle, loaded on first call so closed forms never load it."""
    from .search import search_labeling as search

    return search(*args, **kwargs)


def search_joint_labeling(*args, **kwargs):
    """The joint search oracle, loaded on first call like :func:`search_labeling`."""
    from .search import search_joint_labeling as search

    return search(*args, **kwargs)


class Reason(Enum):
    """Why a star or forest cannot be D-antimagic."""

    CENTER_SOURCE_OR_SINK = "CENTER_SOURCE_OR_SINK"
    TWO_SINK_LEAVES = "TWO_SINK_LEAVES"
    TWO_SOURCE_LEAVES = "TWO_SOURCE_LEAVES"
    N_EXCEEDS_BOUND = "N_EXCEEDS_BOUND"
    ZERO_WEIGHT_TIE = "ZERO_WEIGHT_TIE"
    MIN_D_POSITIVE = "MIN_D_POSITIVE"
    UNFIT_DISTANCE_SET = UNFIT_DISTANCE_SET


class Verdict(NamedTuple):
    """The answer of :func:`decide`, with its evidence.

    Every construct and every scan cell gets one.  ``status`` is
    ANTIMAGIC, NOT_ANTIMAGIC or ABORTED, and ``method`` says how it was
    reached.  A refusal names its ``reason`` and the distance set it
    ``refuted``; a positive verdict carries a verified ``witness``; a
    verdict the search reached carries the search's result.
    """

    status: str
    method: str
    witness: Labeling | None = None
    reason: Reason | None = None
    refuted: DistanceSet | None = None
    search: SearchResult | None = None

    @property
    def nodes_explored(self) -> int:
        return 0 if self.search is None else self.search.nodes_explored


#: What a family knows about one distance set: a theorem that refutes
#: it, a closed-form labeling (vertex -> label) to try, or nothing.
Rule = Callable[[DistanceSet], Reason | dict | None]


def require_star_domain(D: DistanceSet) -> None:
    """Refuse a distance set reaching past 2, which no star or forest has."""
    if D.largest > 2:
        raise UnsupportedDistanceSetError(
            f"distances in a star never exceed 2, got {D}"
        )


def _gate(g: OrientedGraph, labels: dict, D: DistanceSet) -> Labeling:
    """Verify a closed-form labeling under its own set.  Failing the
    check, a labeling that is not a bijection onto 1..|V| included, is
    a bug and raises RuntimeError."""
    labeling = Labeling(labels)
    try:
        if verify_labeling(g, labeling, D).antimagic:
            return labeling
    except LabelingError:
        pass
    raise RuntimeError(f"closed form failed verification under {D}")


# -- the decision ladder ----------------------------------------------

def decide(
    g: OrientedGraph, sets, rule: Rule, budget: int | None = None, known=()
) -> Verdict:
    """Is g antimagic under every given distance set at once?

    One ladder, tried in order:

    1. per set, a refusal: the family's theorem from ``rule``; then,
       without distance 0, two vertices with no out-arc (both weigh
       zero); then a set reaching past the graph's finite diameter;
    2. the first closed form, gated by the verifier under its own set,
       that is antimagic under every set (under {0} a weight is the
       vertex's own label, so the sequential labeling serves);
    3. the witness of the first earlier verdict on g in ``known`` that
       the verifier passes under every set, with that verdict's method
       and no search of its own;
    4. one search over all the sets, whose witness the search itself
       has passed through the verifier under every set.

    ``budget`` caps that search; without one, a graph above
    :func:`vertex_cap` gets ``DEFAULT_CELL_BUDGET`` and a smaller one
    is searched to the end.  A closed form that fails its own set, or a
    witness that fails any set, is a bug and raises RuntimeError.
    """
    sets = tuple(DistanceSet.of(D) for D in sets)
    if budget is None and len(g) > vertex_cap():
        budget = DEFAULT_CELL_BUDGET
    candidates = []
    for D in sets:
        if D == (0,):
            candidates.append((D, Labeling.sequential(g)))
            continue
        answer = rule(D)
        if isinstance(answer, Reason):
            return _refusal(BY_THEOREM, answer, D)
        if 0 not in D and sum(not heads for heads in g.neighborhoods((1,))) > 1:
            return _refusal(BY_NECESSARY_CONDITION, Reason.MIN_D_POSITIVE, D)
        if not is_admissible(g, D):
            return _refusal(BY_UNFIT_DISTANCE_SET, Reason.UNFIT_DISTANCE_SET, D)
        if answer is not None:
            candidates.append((D, answer))
    for D, labels in candidates:
        labeling = _gate(g, labels, D)
        if all(verify_labeling(g, labeling, E).antimagic for E in sets if E != D):
            return Verdict(ANTIMAGIC, BY_CONSTRUCTION, witness=labeling)
    for earlier in known:
        if earlier.witness is not None and all(
            verify_labeling(g, earlier.witness, D).antimagic for D in sets
        ):
            return Verdict(ANTIMAGIC, earlier.method, witness=earlier.witness)
    if len(sets) == 1:
        result = search_labeling(g, sets[0], mode="first", budget=budget)
    else:
        result = search_joint_labeling(g, sets, mode="first", budget=budget)
    if result.witness is not None:
        return Verdict(ANTIMAGIC, BY_SEARCH, witness=result.witness, search=result)
    from .search import SearchStatus

    status = ABORTED if result.status is SearchStatus.ABORTED else NOT_ANTIMAGIC
    return Verdict(status, BY_SEARCH, search=result)


def _refusal(method: str, reason: Reason, D: DistanceSet) -> Verdict:
    return Verdict(NOT_ANTIMAGIC, method, reason=reason, refuted=D)


# -- single stars -----------------------------------------------------

def _leaf_index_labels(n: int) -> dict:
    """Leaves labeled by index, center last: serves D={0,1} for every t,
    and {1} and {1,2} wherever the star is positive, as any bijection
    does there (l1 -> c -> l2 weighs l(c), l(l2), 0 or l(c)+l(l2),
    l(l2), 0; a one-leaf star weighs 0 and one label)."""
    labels = {leaf_vertex(i): i for i in range(1, n + 1)}
    labels[center_vertex()] = n + 1
    return labels


def _center_mid_labels(n: int, t: int) -> dict:
    """Center labeled t+1 between source and sink leaves.

    Serves D={0,2} and D={0,1,2} whenever the center is internal
    (1 <= t <= n-1).
    """
    labels = {center_vertex(): t + 1}
    for i in range(1, t + 1):
        labels[leaf_vertex(i)] = i
    for i in range(t + 1, n + 1):
        labels[leaf_vertex(i)] = i + 1
    return labels


def star_rule(n: int, t: int) -> Rule:
    """The star characterization as a :func:`decide` rule.

    K_{1,n} with t sources, under a set D other than {0} (which
    :func:`decide` labels sequentially); the first line that matches wins:

    * 2 in D, t = 0 or t = n: CENTER_SOURCE_OR_SINK (no distance 2);
    * {2}: ZERO_WEIGHT_TIE;
    * {0,2}, {0,1,2}: the center-mid labeling;
    * {0,1}; {1} at n = 1; {1}, {1,2} at (n, t) = (2, 1): leaf-index;
    * else N_EXCEEDS_BOUND if n >= 3, TWO_SINK_LEAVES if t = 0,
      TWO_SOURCE_LEAVES otherwise.

    Every refusal names its obstruction, and every positive answer has
    a closed form, so no star reaches the search.
    """

    def rule(D: DistanceSet):
        if 2 in D and t in (0, n):
            return Reason.CENTER_SOURCE_OR_SINK
        if D == (2,):
            return Reason.ZERO_WEIGHT_TIE
        if D in ((0, 2), (0, 1, 2)):
            return _center_mid_labels(n, t)
        if D == (0, 1) or D == (1,) and n == 1 or (n, t) == (2, 1):
            return _leaf_index_labels(n)
        if n >= 3:
            return Reason.N_EXCEEDS_BOUND
        return Reason.TWO_SINK_LEAVES if t == 0 else Reason.TWO_SOURCE_LEAVES

    return rule


def characterize_star(n: int, t: int, D) -> Verdict:
    """Decide D-antimagicness of the oriented star K_{1,n} with t sources.

    Supported distance sets have maximum at most 2 (larger values raise
    :class:`UnsupportedDistanceSetError`).
    """
    require_star_domain(DistanceSet.of(D))
    return decide(build_star(StarShape(n=n, t=t)), (D,), star_rule(n, t))


# -- star forests -----------------------------------------------------

def _all_sink_labels(m: int, n: int) -> dict:
    """Homogeneous forest, every center a source (t=0), D={0,1}."""
    labels = {}
    for j in range(1, m + 1):
        labels[center_vertex(j)] = m * n + j
        for i in range(1, n + 1):
            labels[leaf_vertex(i, j)] = n * (j - 1) + i
    return labels


def _all_source_labels(m: int, n: int) -> dict:
    """Homogeneous forest, every center a sink (t=n), D={0,1}."""
    labels = {}
    for j in range(1, m + 1):
        labels[center_vertex(j)] = j
        for i in range(1, n + 1):
            labels[leaf_vertex(i, j)] = m + (j - 1) * n + i
    return labels


def _mixed_labels(m: int, n: int, t: int) -> dict:
    """Homogeneous forest with internal centers, D={0,1} (1 <= t <= n-2).

    Sources take 1..mt in star-major blocks, sinks fill up to mn in
    index-major order, centers sit on top.  At t = 1 star j's source,
    sinks and center get j, m(i-1)+j (i = 2..n) and mn+j, so a sink
    weighs at most mn, star j's source mn+2j <= mn+2m, and its center
    mn + m*n(n-1)/2 + n*j, increasing in j and, for n >= 3, at least
    mn+3m+3: three disjoint ranges, each without a tie.
    """
    labels = {}
    for j in range(1, m + 1):
        labels[center_vertex(j)] = m * n + j
        for i in range(1, t + 1):
            labels[leaf_vertex(i, j)] = (j - 1) * t + i
        for i in range(t + 1, n + 1):
            labels[leaf_vertex(i, j)] = m * (i - 1) + j
    return labels


def _distance_two_labels(m: int, n: int, t: int) -> dict:
    """Homogeneous forest with internal centers, D={0,2} and D={0,1,2}."""
    labels = {}
    for j in range(1, m + 1):
        labels[center_vertex(j)] = m * (n - t) + j
        for i in range(1, t + 1):
            labels[leaf_vertex(i, j)] = m * (n - t + 1) + t * (j - 1) + i
        for i in range(t + 1, n + 1):
            labels[leaf_vertex(i, j)] = m * (i - t - 1) + j
    return labels


def _single_sink_labels(sizes: tuple[int, ...]) -> dict:
    """Forest where each star keeps exactly one sink leaf, its last.

    Sink leaves take 1..M in star order, centers M+1..2M, the remaining
    leaves fill 2M+1 upward; serves D={0,1}, {0,2} and {0,1,2} alike.
    """
    total = len(sizes)
    labels = {}
    offset = 2 * total
    for k, n in enumerate(sizes, start=1):
        labels[leaf_vertex(n, k)] = k
        labels[center_vertex(k)] = total + k
        for i in range(1, n):
            offset += 1
            labels[leaf_vertex(i, k)] = offset
    return labels


def forest_rule(sizes: tuple[int, ...], ts: tuple[int, ...]) -> Rule:
    """The star-forest closed forms as a :func:`decide` rule.

    ``sizes`` and ``ts`` give each star's leaf and source counts in
    star order.  One sink leaf per star takes the single-sink pattern;
    m >= 2 copies of one oriented star under {0,1} take the all-sink
    (t=0), all-source (t=n) or mixed (1 <= t <= n-2) form, and under
    {0,2} or {0,1,2} the distance-two form when the centers are
    internal.  Any other forest has no known closed form.
    """
    single_sink = all(t == n - 1 for n, t in zip(sizes, ts))
    uniform = len(sizes) >= 2 and len(set(sizes)) == 1 and len(set(ts)) == 1

    def rule(D: DistanceSet):
        if single_sink:
            return _single_sink_labels(sizes)
        if not uniform:
            return None
        m, n, t = len(sizes), sizes[0], ts[0]
        if D == (0, 1):
            if t == 0:
                return _all_sink_labels(m, n)
            if t == n:
                return _all_source_labels(m, n)
            if 1 <= t <= n - 2:
                return _mixed_labels(m, n, t)
        elif D in ((0, 2), (0, 1, 2)) and 1 <= t <= n - 1:
            return _distance_two_labels(m, n, t)
        return None

    return rule


def homogeneous_rule(m: int, n: int, t: int) -> Rule:
    """:func:`forest_rule` for m copies of one star, plus its theorem.

    {0,2} and {0,1,2} need internal centers (1 <= t <= n-1): without
    them no vertex is two steps from another.  The two overrides below
    answer with the same mapping as :func:`forest_rule`, which takes the
    single-sink form at t = n-1 and n = 1; they stay because the emitted
    labeling lists its vertices in the order of the form that built it,
    so this family's documents keep the distance-two and all-sink order.
    Every orientation has a closed form under each set not refuted.
    """
    forest = forest_rule((n,) * m, (t,) * m)

    def rule(D: DistanceSet):
        if D in ((0, 2), (0, 1, 2)):
            if not 1 <= t <= n - 1:
                return Reason.CENTER_SOURCE_OR_SINK
            return _distance_two_labels(m, n, t)
        if D == (0, 1) and t == 0:
            return _all_sink_labels(m, n)
        return forest(D)

    return rule


def construct_homogeneous_forest_labeling(m: int, n: int, t: int, D) -> Verdict:
    """Decide m disjoint copies of K_{1,n} with t sources under D.

    The family's rule is :func:`homogeneous_rule`, whose closed forms
    leave no single set to the search.
    """
    D = DistanceSet.of(D)
    require_star_domain(D)
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    return decide(g, (D,), homogeneous_rule(m, n, t))


PI_DISTANCE_SETS: tuple[DistanceSet, ...] = (
    DistanceSet([0, 1]),
    DistanceSet([0, 2]),
    DistanceSet([0, 1, 2]),
)


def construct_pi_forest_labeling(spec: ForestSpec, D) -> Labeling:
    """Labeling of the forced-orientation forest (one sink leaf per star).

    Valid for D={0,1}, {0,2} and {0,1,2}.  When every star has a single
    leaf the forest has no distance-2 pair; the labeling still
    distinguishes all weights, but decision-level verdicts for sets
    containing 2 then report not-antimagic because the set does not fit
    the graph.
    """
    D = DistanceSet.of(D)
    if D not in PI_DISTANCE_SETS:
        raise UnsupportedDistanceSetError(
            f"the single-sink-leaf construction serves "
            f"{{0,1}}, {{0,2}} and {{0,1,2}}, got {D}"
        )
    g = build_forest(spec, single_sink_orientation(spec))
    return _gate(g, _single_sink_labels(spec.star_sizes()), D)


def closed_form_forest_labeling(
    spec: ForestSpec,
    orientation: tuple[tuple[int, ...], ...],
    D,
) -> Labeling | None:
    """Try every known closed form against one oriented forest.

    Returns a verified labeling when some closed form applies to this
    orientation class and distance set, else None (which only means no
    closed form is known, not that the forest is refractory).  A closed
    form that fails verification is a bug and raises RuntimeError.
    """
    D = DistanceSet.of(D)
    require_star_domain(D)
    # Every oriented star contains a sink, so a forest has at least two
    # vertices of empty positive-distance neighborhood; without distance
    # 0 those weights tie at zero.
    if D.smallest != 0:
        return None
    # Checks the orientation as build_forest would; the graph itself is
    # built only once a closed form applies.
    ts = orientation_sources(spec, orientation)
    if D == (0,):
        g = build_forest(spec, orientation)
        labels = dict(Labeling.sequential(g))
    else:
        labels = forest_rule(spec.star_sizes(), ts)(D)
        if labels is None:
            return None
        g = build_forest(spec, orientation)
    return _gate(g, labels, D)
