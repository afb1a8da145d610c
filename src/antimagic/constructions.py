"""Closed-form D-antimagic labelings and decision procedures for stars.

Oriented stars are fully characterized for every distance set with
maximum at most 2; star forests have closed-form labelings for the
orientation families where one is known, and fall back to the
exhaustive search oracle where the known arguments leave a hole (the
single-source orientation t=1 of homogeneous forests).

Every labeling built here is re-checked through the verifier before it
is returned; a closed form never reaches a caller unverified.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .graph import (
    DistanceSet,
    Labeling,
    OrientedGraph,
    UnsupportedDistanceSetError,
    verify_labeling,
)
from .stars import (
    ForestSpec,
    StarShape,
    build_forest,
    build_forest_pi,
    build_homogeneous_forest,
    build_star,
    center_vertex,
    leaf_vertex,
    orientation_sources,
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

#: Node budget for the search fallback inside forest construction.
FALLBACK_SEARCH_BUDGET = 2_000_000


def search_labeling(*args, **kwargs):
    """The search oracle, loaded on first call so closed forms never load it."""
    from .search import search_labeling as search

    return search(*args, **kwargs)


class Reason(Enum):
    """Why a star or forest is, or cannot be, D-antimagic."""

    CONSTRUCTION_EXISTS = "CONSTRUCTION_EXISTS"
    CENTER_SOURCE_OR_SINK = "CENTER_SOURCE_OR_SINK"
    TWO_SINK_LEAVES = "TWO_SINK_LEAVES"
    TWO_SOURCE_LEAVES = "TWO_SOURCE_LEAVES"
    N_EXCEEDS_BOUND = "N_EXCEEDS_BOUND"
    ZERO_WEIGHT_TIE = "ZERO_WEIGHT_TIE"
    MIN_D_POSITIVE = "MIN_D_POSITIVE"


class Decision(NamedTuple):
    """Antimagic verdict with its structural reason and, if true, a witness."""

    antimagic: bool
    reason: Reason
    witness: Labeling | None = None


class ConstructionStatus(str, Enum):
    CONSTRUCTED = "constructed"
    SEARCH_FOUND = "search-found"
    NOT_ANTIMAGIC = "not-antimagic"
    SEARCH_EXHAUSTED = "search-exhausted"
    SEARCH_ABORTED = "search-aborted"


class ForestConstruction(NamedTuple):
    """Outcome of a forest labeling request.

    A present labeling is always verifier-checked.  ``reason`` is set
    for theorem-backed impossibility; a ``search-exhausted`` status is
    empirical impossibility (the oracle covered the whole space);
    ``search-aborted`` decides nothing.
    """

    status: ConstructionStatus
    labeling: Labeling | None = None
    reason: Reason | None = None
    search: SearchResult | None = None


def star_forest_necessary_condition(D) -> bool:
    """A star forest can only be D-antimagic when 0 lies in D.

    Every oriented star contains a sink, so a forest has at least two
    vertices of empty positive-distance neighborhood; without distance
    0 those weights tie at zero.
    """
    return DistanceSet.of(D).smallest == 0


def _require_star_domain(D: DistanceSet) -> None:
    if D.largest > 2:
        raise UnsupportedDistanceSetError(
            f"distances in a star never exceed 2, got {D}"
        )


def _gate(g: OrientedGraph, labels: dict, D: DistanceSet) -> Labeling | None:
    """Verify a candidate labeling; None when it fails the check."""
    labeling = Labeling(labels)
    labeling.validate_for(g)
    report = verify_labeling(g, labeling, D)
    return labeling if report.antimagic else None


# -- single stars -----------------------------------------------------

def _leaf_index_labels(n: int) -> dict:
    """Leaves labeled by index, center last: serves D={0,1} for every t."""
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


def _star_verdict(n: int, t: int, D: DistanceSet) -> bool:
    key = D.members
    if key == (0,) or key == (0, 1):
        return True
    if key == (1,):
        return n == 1 or (n == 2 and t == 1)
    if key == (2,):
        return False
    if key == (0, 2) or key == (0, 1, 2):
        return 1 <= t <= n - 1
    if key == (1, 2):
        return n == 2 and t == 1
    raise UnsupportedDistanceSetError(f"no star verdict for {D}")


def _star_obstruction(n: int, t: int, D: DistanceSet) -> Reason:
    if D.largest == 2 and not 1 <= t <= n - 1:
        # Distance 2 exists in a star exactly when the center is
        # internal; otherwise no labeling can use the full set.
        return Reason.CENTER_SOURCE_OR_SINK
    if D.members == (2,):
        return Reason.ZERO_WEIGHT_TIE
    if n >= 3:
        return Reason.N_EXCEEDS_BOUND
    if t == 0:
        return Reason.TWO_SINK_LEAVES
    return Reason.TWO_SOURCE_LEAVES


def construct_star_labeling(n: int, t: int, D) -> Labeling | None:
    """A D-antimagic labeling of the oriented star, or None if none exists.

    Closed forms cover D={0}, {0,1}, {0,2} and {0,1,2}; the small
    positive cases of D={1} and {1,2} come from the exhaustive oracle.
    """
    shape = StarShape(n=n, t=t)
    D = DistanceSet.of(D)
    _require_star_domain(D)
    if not _star_verdict(n, t, D):
        return None
    g = build_star(shape)
    key = D.members
    if key == (0,):
        labels = dict(Labeling.sequential(g))
    elif key == (0, 1):
        labels = _leaf_index_labels(n)
    elif key in ((0, 2), (0, 1, 2)):
        labels = _center_mid_labels(n, t)
    else:
        # D={1} with n<=2, or D={1,2} with n=2: no closed form is
        # known, but the instances are tiny.
        from .search import SearchStatus

        result = search_labeling(g, D, mode="first")
        if result.status is not SearchStatus.FOUND:
            raise RuntimeError(f"expected a witness for {shape} under {D}")
        return result.witness
    labeling = _gate(g, labels, D)
    if labeling is None:
        raise RuntimeError(f"closed form failed verification for {shape} under {D}")
    return labeling


def characterize_star(n: int, t: int, D) -> Decision:
    """Decide D-antimagicness of the oriented star K_{1,n} with t sources.

    Supported distance sets have maximum at most 2 (larger values raise
    :class:`UnsupportedDistanceSetError`).  A true decision carries a
    verified witness labeling.
    """
    StarShape(n=n, t=t)
    D = DistanceSet.of(D)
    _require_star_domain(D)
    if _star_verdict(n, t, D):
        return Decision(
            antimagic=True,
            reason=Reason.CONSTRUCTION_EXISTS,
            witness=construct_star_labeling(n, t, D),
        )
    return Decision(antimagic=False, reason=_star_obstruction(n, t, D))


# -- homogeneous forests ----------------------------------------------

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
    """Homogeneous forest with internal centers, D={0,1} (2 <= t <= n-2).

    Sources take 1..mt in star-major blocks, sinks fill up to mn in
    index-major order, centers sit on top.
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


def construct_homogeneous_forest_labeling(
    m: int,
    n: int,
    t: int,
    D,
    *,
    search_budget: int | None = FALLBACK_SEARCH_BUDGET,
) -> ForestConstruction:
    """A D-antimagic labeling of m disjoint copies of K_{1,n} with t sources.

    Closed forms cover D={0} and, for D={0,1}, the orientations t=0,
    t=n, t=n-1 and 2 <= t <= n-2; D={0,2} and {0,1,2} are covered for
    every internal-center orientation and impossible otherwise.  The
    remaining orientation t=1 (n >= 3) has no known closed form and is
    delegated to the search oracle, whose verdict for the instance is
    reported as found or exhausted rather than assumed.
    """
    shape = StarShape(n=n, t=t)
    D = DistanceSet.of(D)
    _require_star_domain(D)
    if not star_forest_necessary_condition(D):
        return ForestConstruction(
            status=ConstructionStatus.NOT_ANTIMAGIC, reason=Reason.MIN_D_POSITIVE
        )
    g = build_homogeneous_forest(m, shape)
    if D.members == (0,):
        labels = dict(Labeling.sequential(g))
        return _emit(g, labels, D)
    if D.members in ((0, 2), (0, 1, 2)):
        if not 1 <= t <= n - 1:
            return ForestConstruction(
                status=ConstructionStatus.NOT_ANTIMAGIC,
                reason=Reason.CENTER_SOURCE_OR_SINK,
            )
        return _emit(g, _distance_two_labels(m, n, t), D)
    # D = {0,1}: pick the closed form for the orientation family.
    labels = None
    if t == 0:
        labels = _all_sink_labels(m, n)
    elif t == n:
        labels = _all_source_labels(m, n)
    elif t == n - 1:
        labels = _single_sink_labels((n,) * m)
    elif 2 <= t <= n - 2:
        labels = _mixed_labels(m, n, t)
    if labels is not None:
        outcome = _emit(g, labels, D, fallback_budget=search_budget)
        return outcome
    return _search_fallback(g, D, search_budget)


def _emit(
    g: OrientedGraph,
    labels: dict,
    D: DistanceSet,
    fallback_budget: int | None = None,
) -> ForestConstruction:
    labeling = _gate(g, labels, D)
    if labeling is not None:
        return ForestConstruction(
            status=ConstructionStatus.CONSTRUCTED,
            labeling=labeling,
            reason=Reason.CONSTRUCTION_EXISTS,
        )
    if fallback_budget is None:
        raise RuntimeError(f"closed form failed verification under {D}")
    return _search_fallback(g, D, fallback_budget)


def _search_fallback(
    g: OrientedGraph, D: DistanceSet, budget: int | None
) -> ForestConstruction:
    from .search import SearchStatus

    result = search_labeling(g, D, mode="first", budget=budget)
    if result.status is SearchStatus.FOUND:
        report = verify_labeling(g, result.witness, D)
        if not report.antimagic:
            raise RuntimeError("search returned an invalid witness")
        return ForestConstruction(
            status=ConstructionStatus.SEARCH_FOUND,
            labeling=result.witness,
            search=result,
        )
    if result.status is SearchStatus.EXHAUSTED:
        return ForestConstruction(
            status=ConstructionStatus.SEARCH_EXHAUSTED, search=result
        )
    return ForestConstruction(status=ConstructionStatus.SEARCH_ABORTED, search=result)


# -- heterogeneous forests --------------------------------------------

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
    g = build_forest_pi(spec)
    labeling = _gate(g, _single_sink_labels(spec.star_sizes()), D)
    if labeling is None:
        raise RuntimeError(f"closed form failed verification under {D}")
    return labeling


def closed_form_forest_labeling(
    spec: ForestSpec,
    orientation: tuple[tuple[int, ...], ...],
    D,
) -> Labeling | None:
    """Try every known closed form against one oriented forest.

    Returns a verified labeling when some closed form applies to this
    orientation class and distance set, else None (which only means no
    closed form is known, not that the forest is refractory).
    """
    D = DistanceSet.of(D)
    _require_star_domain(D)
    if not star_forest_necessary_condition(D):
        return None
    # Checks the orientation as build_forest would; the graph itself is
    # built only once a closed form applies.
    ts = orientation_sources(spec, orientation)
    if D.members == (0,):
        g = build_forest(spec, orientation)
        return _gate(g, dict(Labeling.sequential(g)), D)
    sizes = spec.star_sizes()
    labels = None
    uniform = len(set(sizes)) == 1 and len(set(ts)) == 1
    if all(t == n - 1 for n, t in zip(sizes, ts)):
        labels = _single_sink_labels(sizes)
    elif uniform and len(sizes) >= 2:
        m, n, t = len(sizes), sizes[0], ts[0]
        if D.members == (0, 1):
            if t == 0:
                labels = _all_sink_labels(m, n)
            elif t == n:
                labels = _all_source_labels(m, n)
            elif 2 <= t <= n - 2:
                labels = _mixed_labels(m, n, t)
        elif D.members in ((0, 2), (0, 1, 2)) and 1 <= t <= n - 1:
            labels = _distance_two_labels(m, n, t)
    if labels is None:
        return None
    return _gate(build_forest(spec, orientation), labels, D)
