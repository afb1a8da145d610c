import pytest

import naive_oracle as oracle
from antimagic import (
    PI_DISTANCE_SETS,
    STAR_DISTANCE_SETS,
    DistanceSet,
    ForestSpec,
    GraphError,
    Labeling,
    LabelingError,
    Reason,
    SearchStatus,
    StarShape,
    UnsupportedDistanceSetError,
    build_forest,
    build_homogeneous_forest,
    build_star,
    characterize_star,
    closed_form_forest_labeling,
    construct_homogeneous_forest_labeling,
    construct_pi_forest_labeling,
    search_labeling,
    single_sink_orientation,
    verify_labeling,
)
from antimagic.constructions import (
    ABORTED,
    ANTIMAGIC,
    BY_CONSTRUCTION,
    BY_SEARCH,
    NOT_ANTIMAGIC,
    decide,
    forest_rule,
    homogeneous_rule,
    star_rule,
)

D0 = DistanceSet([0])
D1 = DistanceSet([1])
D2 = DistanceSet([2])
D01 = DistanceSet([0, 1])
D02 = DistanceSet([0, 2])
D12 = DistanceSet([1, 2])
D012 = DistanceSet([0, 1, 2])


def star_verdict(n, t, D):
    return decide(build_star(StarShape(n=n, t=t)), (D,), star_rule(n, t))


def mstar_verdict(m, n, t, D, budget=None):
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    return decide(g, (D,), homogeneous_rule(m, n, t), budget)


def test_star_distance_sets_are_the_seven_usable_ones():
    assert STAR_DISTANCE_SETS == (D0, D1, D2, D01, D02, D12, D012)


def test_necessary_condition_is_zero_in_d():
    # Every oriented star has a sink, so two stars give two vertices of
    # empty positive-distance neighborhood, which tie at zero without 0.
    spec, ts = ForestSpec.parse("2x3"), (1, 2)
    g = build_forest(spec, (ts,))
    rule = forest_rule(spec.star_sizes(), ts)
    assert decide(g, (D01,), rule).reason is None
    for D in (D1, D12):
        assert decide(g, (D,), rule).reason is Reason.MIN_D_POSITIVE
        assert closed_form_forest_labeling(spec, (ts,), D) is None


def test_unsupported_distance_sets_raise():
    with pytest.raises(UnsupportedDistanceSetError):
        characterize_star(3, 1, {3})
    with pytest.raises(UnsupportedDistanceSetError):
        characterize_star(3, 1, {0, 3})
    with pytest.raises(UnsupportedDistanceSetError):
        construct_homogeneous_forest_labeling(2, 3, 1, {0, 4})


# -- star characterization --------------------------------------------

def test_star_verdicts_frozen_table():
    cases = [
        (1, 0, D1, True),
        (2, 1, D1, True),
        (2, 0, D1, False),
        (3, 1, D1, False),
        (5, 2, D01, True),
        (4, 0, D02, False),
        (4, 4, D02, False),
        (4, 2, D02, True),
        (2, 1, D12, True),
        (1, 1, D12, False),
        (3, 1, D12, False),
        (5, 0, D2, False),
        (5, 3, D2, False),
        (5, 3, D012, True),
        (5, 5, D012, False),
    ]
    for n, t, D, want in cases:
        assert (star_verdict(n, t, D).status == ANTIMAGIC) == want, (n, t, D)


def test_star_obstruction_reasons():
    assert star_verdict(3, 1, D1).reason is Reason.N_EXCEEDS_BOUND
    assert star_verdict(2, 0, D1).reason is Reason.TWO_SINK_LEAVES
    assert star_verdict(2, 2, D1).reason is Reason.TWO_SOURCE_LEAVES
    assert star_verdict(5, 2, D2).reason is Reason.ZERO_WEIGHT_TIE
    assert star_verdict(5, 0, D2).reason is Reason.CENTER_SOURCE_OR_SINK
    assert star_verdict(4, 0, D02).reason is Reason.CENTER_SOURCE_OR_SINK
    positive = star_verdict(4, 2, D01)
    assert (positive.method, positive.reason) == (BY_CONSTRUCTION, None)


def paper_star_reason(n, t, D):
    """The paper's table for K_{1,n} with t sources: None when the star
    is D-antimagic, else the obstruction that rules it out."""
    internal = 1 <= t <= n - 1
    antimagic = {
        D1: n == 1 or (n, t) == (2, 1),
        D2: False,
        D01: True,
        D02: internal,
        D12: (n, t) == (2, 1),
        D012: internal,
    }[D]
    if antimagic:
        return None
    if 2 in D and not internal:
        # Distance 2 exists in a star exactly when the center is internal.
        return Reason.CENTER_SOURCE_OR_SINK
    if D == D2:
        # Every sink leaf weighs 0 under {2}, and so does the center.
        return Reason.ZERO_WEIGHT_TIE
    if n >= 3:
        return Reason.N_EXCEEDS_BOUND
    return Reason.TWO_SINK_LEAVES if t == 0 else Reason.TWO_SOURCE_LEAVES


def test_every_star_reason_matches_the_paper_table():
    for n in range(1, 7):
        for t in range(n + 1):
            for D in STAR_DISTANCE_SETS[1:]:
                want = paper_star_reason(n, t, D)
                verdict = star_verdict(n, t, D)
                assert verdict.reason is want, (n, t, D)
                assert (verdict.witness is not None) == (want is None), (n, t, D)


def test_positive_decisions_carry_verified_witnesses():
    for n in range(1, 7):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            for D in STAR_DISTANCE_SETS:
                verdict = decide(g, (D,), star_rule(n, t))
                if verdict.status == ANTIMAGIC:
                    assert verdict.witness is not None
                    assert verify_labeling(g, verdict.witness, D).antimagic
                else:
                    assert verdict.witness is None


def test_characterization_matches_brute_force_decision():
    """Decision-level dual route on every star with n <= 4."""
    for n in range(1, 5):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            for D in STAR_DISTANCE_SETS:
                want = oracle.decides_antimagic(g.vertices, g.arcs, D)
                verdict = decide(g, (D,), star_rule(n, t))
                assert (verdict.status == ANTIMAGIC) == want, (n, t, D)


def test_leaf_index_star_labeling_weights():
    g = build_star(StarShape(n=5, t=2))
    labeling = decide(g, (D01,), star_rule(5, 2)).witness
    assert dict(labeling) == {"c": 6, "l1": 1, "l2": 2, "l3": 3, "l4": 4, "l5": 5}
    report = verify_labeling(g, labeling, D01)
    assert dict(report.weights) == {
        "c": 18,
        "l1": 7,
        "l2": 8,
        "l3": 3,
        "l4": 4,
        "l5": 5,
    }


def test_center_mid_star_labeling_weights():
    g = build_star(StarShape(n=5, t=2))
    labeling = decide(g, (D02,), star_rule(5, 2)).witness
    assert dict(labeling) == {"c": 3, "l1": 1, "l2": 2, "l3": 4, "l4": 5, "l5": 6}
    report = verify_labeling(g, labeling, D02)
    assert dict(report.weights) == {
        "c": 3,
        "l1": 16,
        "l2": 17,
        "l3": 4,
        "l4": 5,
        "l5": 6,
    }


def test_tiny_positive_cases_come_from_the_oracle():
    for n, t, D in [(1, 0, D1), (1, 1, D1), (2, 1, D1), (2, 1, D12)]:
        g = build_star(StarShape(n=n, t=t))
        labeling = decide(g, (D,), star_rule(n, t)).witness
        assert verify_labeling(g, labeling, D).antimagic


# -- homogeneous forests ----------------------------------------------

def test_forest_rejects_positive_minimum_distance():
    for D in (D1, D2, D12):
        verdict = mstar_verdict(2, 3, 1, D)
        assert verdict.status == NOT_ANTIMAGIC
        assert verdict.reason is Reason.MIN_D_POSITIVE


def test_forest_distance_two_needs_internal_centers():
    for t in (0, 3):
        verdict = mstar_verdict(2, 3, t, D02)
        assert verdict.status == NOT_ANTIMAGIC
        assert verdict.reason is Reason.CENTER_SOURCE_OR_SINK


def test_forest_zero_distance_uses_sequential_labels():
    verdict = mstar_verdict(2, 3, 1, D0)
    assert verdict.method == BY_CONSTRUCTION
    g = build_homogeneous_forest(2, StarShape(n=3, t=1))
    assert verdict.witness == Labeling.sequential(g)


def test_all_sink_forest_center_weights():
    # centers mn+j over their leaf blocks: closed form (n^2+1)j + n(2m-n+1)/2
    verdict = mstar_verdict(2, 3, 0, D01)
    assert verdict.method == BY_CONSTRUCTION
    g = build_homogeneous_forest(2, StarShape(n=3, t=0))
    report = verify_labeling(g, verdict.witness, D01)
    assert report.weights["c1"] == 13
    assert report.weights["c2"] == 23
    for j in (1, 2):
        assert report.weights[f"c{j}"] == 10 * j + 3


def test_single_sink_routing_for_one_sink_orientation():
    # t = n-1 goes through the single-sink pattern, not the mixed formula
    verdict = mstar_verdict(2, 3, 2, D01)
    assert verdict.method == BY_CONSTRUCTION
    labeling = verdict.witness
    assert labeling["l1.3"] == 1 and labeling["l2.3"] == 2
    assert labeling["c1"] == 3 and labeling["c2"] == 4


def test_mixed_orientation_closed_form_range():
    for m in (2, 3):
        for n in (4, 5, 6):
            for t in range(2, n - 1):
                verdict = mstar_verdict(m, n, t, D01)
                assert verdict.method == BY_CONSTRUCTION, (m, n, t)


def joint_mstar_verdict(m, n, t, sets, budget=None):
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    return g, decide(g, sets, homogeneous_rule(m, n, t), budget)


def test_single_source_orientation_is_delegated_to_search():
    # 4x3@1 has a closed form under {0,1} and under {0,2}; neither
    # serves both, so the pair is left to the search.
    g, verdict = joint_mstar_verdict(4, 3, 1, (D01, D02))
    assert (verdict.status, verdict.method) == (ANTIMAGIC, BY_SEARCH)
    assert verdict.search is not None
    assert verdict.search.status is SearchStatus.FOUND
    for D in (D01, D02):
        assert verify_labeling(g, verdict.witness, D).antimagic


def test_single_source_search_can_be_budgeted_out():
    _, verdict = joint_mstar_verdict(4, 3, 1, (D01, D02), budget=10)
    assert (verdict.status, verdict.method) == (ABORTED, BY_SEARCH)
    assert verdict.witness is None


def single_source_census(ms, ns):
    """The (m, n) pairs whose t=1 forest {0,1} does not answer by construction."""
    missed = []
    for m in ms:
        for n in ns:
            try:
                verdict = mstar_verdict(m, n, 1, D01)
            except RuntimeError:  # a closed form that fails the verifier
                verdict = None
            if verdict is None or verdict.method != BY_CONSTRUCTION:
                missed.append((m, n))
    return missed


def test_single_source_family_is_constructed():
    # 342 pairs; every closed form is gated by the verifier inside decide.
    assert single_source_census(range(2, 21), range(3, 21)) == []


def test_single_source_census_catches_reversed_centers(monkeypatch):
    """With the centers in reverse star order, star j's source weighs
    j + (mn + m+1-j) = mn+m+1 for every j, so every pair fails."""
    import antimagic.constructions as constructions

    real = constructions._mixed_labels

    def reversed_centers(m, n, t):
        labels = real(m, n, t)
        for j in range(1, m + 1):
            labels[f"c{j}"] = m * n + m + 1 - j
        return labels

    monkeypatch.setattr(constructions, "_mixed_labels", reversed_centers)
    ms, ns = range(2, 21), range(3, 21)
    assert len(single_source_census(ms, ns)) == len(ms) * len(ns) == 342


def test_distance_two_closed_form_small_example():
    verdict = mstar_verdict(2, 3, 1, D02)
    assert verdict.method == BY_CONSTRUCTION
    assert dict(verdict.witness) == {
        "c1": 5,
        "l1.1": 7,
        "l1.2": 1,
        "l1.3": 3,
        "c2": 6,
        "l2.1": 8,
        "l2.2": 2,
        "l2.3": 4,
    }


def test_distance_two_closed_form_serves_both_sets():
    for m in (2, 4):
        for n in (3, 6):
            for t in range(1, n):
                for D in (D02, D012):
                    verdict = mstar_verdict(m, n, t, D)
                    assert verdict.method == BY_CONSTRUCTION, (m, n, t, D)
                    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
                    assert verify_labeling(g, verdict.witness, D).antimagic


# -- the forced single-sink forest ------------------------------------

def test_pi_distance_sets():
    assert PI_DISTANCE_SETS == (D01, D02, D012)


def test_pi_forest_labeling_pattern():
    spec = ForestSpec.parse("3x3,2x4,1x5")
    labeling = construct_pi_forest_labeling(spec, D012)
    sizes = spec.star_sizes()
    total = len(sizes)
    # sink leaves first, then centers, then the rest in star order
    for k, n in enumerate(sizes, start=1):
        assert labeling[f"l{k}.{n}"] == k
        assert labeling[f"c{k}"] == total + k
    rest = [
        labeling[f"l{k}.{i}"]
        for k, n in enumerate(sizes, start=1)
        for i in range(1, n)
    ]
    assert rest == list(range(2 * total + 1, 29))


def test_pi_forest_labeling_verifies_for_all_three_sets():
    for text in ("2x2", "2x3,1x4", "3x3,2x4,1x5"):
        spec = ForestSpec.parse(text)
        g = build_forest(spec, single_sink_orientation(spec))
        for D in PI_DISTANCE_SETS:
            labeling = construct_pi_forest_labeling(spec, D)
            assert verify_labeling(g, labeling, D).antimagic, (text, D)


def test_pi_forest_rejects_other_sets():
    spec = ForestSpec.parse("2x2")
    for D in (D0, D1, D2, D12):
        with pytest.raises(UnsupportedDistanceSetError):
            construct_pi_forest_labeling(spec, D)


def test_pi_forest_of_single_leaf_stars_splits_the_two_routes():
    """Mechanically the labeling separates weights, but the decision
    level rejects sets with distance 2 because the forest's diameter
    is 1; both halves are intended behavior."""
    spec = ForestSpec.parse("2x1")
    g = build_forest(spec, single_sink_orientation(spec))
    labeling = construct_pi_forest_labeling(spec, D02)
    assert verify_labeling(g, labeling, D02).antimagic
    result = search_labeling(g, D02, mode="first")
    assert result.status is SearchStatus.EXHAUSTED
    assert result.shortcut is not None


# -- closed-form registry (used by the scan) --------------------------

def test_closed_form_registry_routes():
    spec = ForestSpec.parse("2x3")
    assert closed_form_forest_labeling(spec, ((0, 0),), D01) is not None
    assert closed_form_forest_labeling(spec, ((3, 3),), D01) is not None
    assert closed_form_forest_labeling(spec, ((2, 2),), D01) is not None
    assert closed_form_forest_labeling(spec, ((1, 1),), D02) is not None
    assert closed_form_forest_labeling(spec, ((1, 1),), D01) is not None
    # mixed orientations and non-uniform single-source forests have none
    assert closed_form_forest_labeling(spec, ((0, 1),), D01) is None
    assert closed_form_forest_labeling(ForestSpec.parse("1x3,1x4"), ((1,), (1,)), D01) is None


def test_closed_form_builds_the_forest_only_when_a_form_applies(monkeypatch):
    import antimagic.constructions as constructions

    builds = []

    def counted(spec, orientation=None):
        builds.append(orientation)
        return build_forest(spec, orientation)

    monkeypatch.setattr(constructions, "build_forest", counted)
    spec = ForestSpec.parse("2x3")
    assert closed_form_forest_labeling(spec, ((0, 1),), D01) is None
    assert closed_form_forest_labeling(ForestSpec.parse("1x3,1x4"), ((1,), (1,)), D01) is None
    assert closed_form_forest_labeling(spec, ((0, 0),), D1) is None
    assert builds == []
    assert closed_form_forest_labeling(spec, ((2, 2),), D01) is not None
    assert closed_form_forest_labeling(spec, ((0, 1),), D0) is not None
    assert builds == [((2, 2),), ((0, 1),)]


def test_closed_form_rejects_what_build_forest_rejects():
    # Orientation errors surface even when no closed form would apply.
    spec = ForestSpec.parse("2x3")
    with pytest.raises(ValueError, match="one orientation tuple per group"):
        closed_form_forest_labeling(spec, ((0, 1), (1,)), D01)
    with pytest.raises(ValueError, match="need 2 t values"):
        closed_form_forest_labeling(spec, ((1,),), D01)
    with pytest.raises(ValueError, match="t must lie in 0..3, got 4"):
        closed_form_forest_labeling(spec, ((0, 4),), D01)
    with pytest.raises(GraphError, match="at least two stars"):
        closed_form_forest_labeling(ForestSpec.parse("1x3"), ((1,),), D01)
    with pytest.raises(UnsupportedDistanceSetError):
        closed_form_forest_labeling(spec, ((0, 1),), DistanceSet([0, 3]))


def test_closed_form_registry_zero_distance_and_necessary_condition():
    spec = ForestSpec.parse("1x2,1x3")
    assert closed_form_forest_labeling(spec, ((1,), (0,)), D0) is not None
    assert closed_form_forest_labeling(spec, ((1,), (0,)), D1) is None


def test_closed_form_registry_single_sink_across_sizes():
    spec = ForestSpec.parse("1x2,1x3")
    labeling = closed_form_forest_labeling(spec, ((1,), (2,)), D012)
    assert labeling is not None
    g = build_forest(spec, ((1,), (2,)))
    assert verify_labeling(g, labeling, D012).antimagic


def test_closed_form_results_always_verify():
    for text, orientation in [("2x3", ((0, 0),)), ("2x4", ((2, 2),)), ("3x2", ((1, 1, 1),))]:
        spec = ForestSpec.parse(text)
        for D in (D0, D01, D02, D012):
            labeling = closed_form_forest_labeling(spec, orientation, D)
            if labeling is not None:
                g = build_forest(spec, orientation)
                assert verify_labeling(g, labeling, D).antimagic, (text, D)


def test_a_closed_form_failing_its_gate_raises_everywhere(monkeypatch):
    # A broken form is a bug, never "no closed form known": both entry
    # points to the single-sink form raise instead of returning None.
    import antimagic.constructions as constructions

    labels = constructions._single_sink_labels
    monkeypatch.setattr(
        constructions, "_single_sink_labels",
        lambda sizes: dict.fromkeys(labels(sizes), 1),
    )
    spec = ForestSpec.parse("1x2,1x3")
    with pytest.raises(RuntimeError, match="failed verification"):
        closed_form_forest_labeling(spec, single_sink_orientation(spec), D01)
    with pytest.raises(RuntimeError, match="failed verification"):
        construct_pi_forest_labeling(spec, D01)


# -- printed-formula regressions --------------------------------------

def test_published_mixed_source_rule_is_not_bijective():
    """The once-printed source rule i + j(t-1) repeats labels at
    m=3, n=5, t=2; the bijectivity check must catch it."""
    m, n, t = 3, 5, 2
    labels = {}
    for j in range(1, m + 1):
        labels[f"c{j}"] = m * n + j
        for i in range(1, t + 1):
            labels[f"l{j}.{i}"] = i + j * (t - 1)
        for i in range(t + 1, n + 1):
            labels[f"l{j}.{i}"] = m * (i - 1) + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    with pytest.raises(LabelingError, match="duplicates"):
        Labeling(labels).validate_for(g)


def test_published_all_source_rule_collides_weights():
    """The once-printed leaf rule mi + j is bijective at m=2, n=2, t=2
    but ties two leaf weights under {0,1}; the verifier must catch it."""
    m, n, t = 2, 2, 2
    labels = {}
    for j in range(1, m + 1):
        labels[f"c{j}"] = j
        for i in range(1, n + 1):
            labels[f"l{j}.{i}"] = m * i + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    report = verify_labeling(g, labels, D01)
    assert not report.antimagic
    assert ("l1.2", "l2.1") in report.collisions


def test_corrected_mixed_rule_still_fails_at_one_sink_leaf():
    """The repaired mixed formula collides for the t = n-1 family
    (center weight meets a source weight); this pins why that family
    is routed to the single-sink pattern instead."""
    m, n, t = 2, 3, 2
    labels = {}
    for j in range(1, m + 1):
        labels[f"c{j}"] = m * n + j
        for i in range(1, t + 1):
            labels[f"l{j}.{i}"] = (j - 1) * t + i
        for i in range(t + 1, n + 1):
            labels[f"l{j}.{i}"] = m * (i - 1) + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    Labeling(labels).validate_for(g)
    report = verify_labeling(g, labels, D01)
    assert not report.antimagic
    assert ("c1", "l2.2") in report.collisions
