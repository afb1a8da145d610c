"""End-to-end checks, one per advertised guarantee.

Each test prints a single PASS line with the numbers it measured; a
failure reads as the missing line plus the usual traceback.  Several
tests carry a wall-clock ceiling so a performance regression fails
loudly instead of silently stretching the suite.
"""

import time

from antimagic import (
    DistanceSet,
    ForestSpec,
    Labeling,
    LabelingError,
    PI_DISTANCE_SETS,
    STAR_DISTANCE_SETS,
    SearchStatus,
    StarShape,
    build_forest,
    build_homogeneous_forest,
    build_star,
    construct_pi_forest_labeling,
    enumerate_forest_orientations,
    search_joint_labeling,
    search_labeling,
    single_sink_orientation,
    verify_labeling,
)
from antimagic.constructions import ANTIMAGIC, decide, homogeneous_rule, star_rule
from antimagic.scan import scan_orientations

D01 = DistanceSet.of([0, 1])
D02 = DistanceSet.of([0, 2])
D012 = DistanceSet.of([0, 1, 2])


def report(line: str) -> None:
    print(f"PASS: {line}")


def test_characterization_agrees_with_exhaustive_search():
    """Every star verdict up to n = 8 must match a full search."""
    start = time.monotonic()
    checked = 0
    for n in range(1, 9):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            for D in STAR_DISTANCE_SETS:
                claimed = decide(g, (D,), star_rule(n, t)).status == ANTIMAGIC
                found = search_labeling(g, D, mode="first").status is SearchStatus.FOUND
                assert claimed == found, (n, t, D)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(
        f"star characterization vs search, {checked} instances, "
        f"0 mismatches, {elapsed:.1f}s"
    )


def test_every_emitted_construction_verifies():
    start = time.monotonic()
    emitted = 0

    for n in range(1, 9):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            for D in STAR_DISTANCE_SETS:
                verdict = decide(g, (D,), star_rule(n, t))
                if verdict.status == ANTIMAGIC:
                    assert verify_labeling(g, verdict.witness, D).antimagic
                    emitted += 1

    for m in range(2, 5):
        for n in range(2, 7):
            for D in (D01, D02, D012):
                valid_ts = range(n + 1) if D == D01 else range(1, n)
                for t in valid_ts:
                    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
                    verdict = decide(g, (D,), homogeneous_rule(m, n, t))
                    assert verdict.status == ANTIMAGIC, (m, n, t, D)
                    assert verify_labeling(g, verdict.witness, D).antimagic
                    emitted += 1

    for text in ("2x2", "3x3", "2x3,1x4", "2x2,1x3,1x4", "3x3,2x4,1x5"):
        spec = ForestSpec.parse(text)
        g = build_forest(spec, single_sink_orientation(spec))
        for D in PI_DISTANCE_SETS:
            labeling = construct_pi_forest_labeling(spec, D)
            assert verify_labeling(g, labeling, D).antimagic
            emitted += 1
    spec = ForestSpec.parse("3x3,2x4,1x5")
    assert len(build_forest(spec, single_sink_orientation(spec))) == 28

    elapsed = time.monotonic() - start
    report(f"all {emitted} emitted labelings verify, {elapsed:.1f}s")


def test_rejected_formula_variants_stay_rejected():
    """Two once-published label rules and one near-miss repair must
    keep failing validation; the working constructions replace them."""
    # source rule i + j(t-1) is not injective at m=3, n=5, t=2
    m, n, t = 3, 5, 2
    labels = {f"c{j}": m * n + j for j in range(1, m + 1)}
    for j in range(1, m + 1):
        for i in range(1, t + 1):
            labels[f"l{j}.{i}"] = i + j * (t - 1)
        for i in range(t + 1, n + 1):
            labels[f"l{j}.{i}"] = m * (i - 1) + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    try:
        Labeling(labels).validate_for(g)
    except LabelingError:
        pass
    else:
        raise AssertionError("duplicate labels went unnoticed")

    # leaf rule mi + j ties two weights under {0,1} at m=2, n=2, t=2
    m, n, t = 2, 2, 2
    labels = {f"c{j}": j for j in range(1, m + 1)}
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            labels[f"l{j}.{i}"] = m * i + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    assert not verify_labeling(g, labels, D01).antimagic

    # repaired mixed rule still collides for the one-sink-leaf family
    m, n, t = 2, 3, 2
    labels = {f"c{j}": m * n + j for j in range(1, m + 1)}
    for j in range(1, m + 1):
        for i in range(1, t + 1):
            labels[f"l{j}.{i}"] = (j - 1) * t + i
        for i in range(t + 1, n + 1):
            labels[f"l{j}.{i}"] = m * (i - 1) + j
    g = build_homogeneous_forest(m, StarShape(n=n, t=t))
    report_01 = verify_labeling(g, labels, D01)
    assert not report_01.antimagic

    report("all three rejected label rules still fail their checks")


def test_negative_claims_are_backed_by_exhaustion():
    start = time.monotonic()
    refuted = 0

    for n in range(1, 6):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            result = search_labeling(g, DistanceSet.of([2]), mode="first")
            assert result.status is SearchStatus.EXHAUSTED, (n, t)
            refuted += 1

    for n in (3, 4):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            result = search_labeling(g, DistanceSet.of([1]), mode="first")
            assert result.status is SearchStatus.EXHAUSTED, (n, t)
            refuted += 1

    spec = ForestSpec.parse("2x2")
    for orientation in enumerate_forest_orientations(spec):
        g = build_forest(spec, orientation)
        for D in ([1], [2], [1, 2]):
            result = search_labeling(g, DistanceSet.of(D), mode="first")
            assert result.status is SearchStatus.EXHAUSTED, (orientation, D)
            refuted += 1

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(f"{refuted} non-existence claims re-proven by exhaustion, {elapsed:.1f}s")


def test_scan_finds_new_all_positive_orientations():
    """The orientation scan must surface all-positive rows beyond the
    single forced one the closed forms cover."""
    start = time.monotonic()
    spec = ForestSpec.parse("2x3,2x4")
    sets = [D01, D02, D012]
    rows = scan_orientations(spec, sets)
    forced = tuple(
        tuple(n - 1 for _ in range(count))
        for count, n in ((g.count, g.leaves) for g in spec.groups)
    )
    fresh = []
    for row in rows:
        verdicts = [row.verdicts[D] for D in sets]
        if all(v.status == ANTIMAGIC for v in verdicts) and row.orientation != forced:
            g = build_forest(spec, row.orientation)
            for D, verdict in zip(sets, verdicts):
                assert verify_labeling(g, verdict.witness, D).antimagic
            fresh.append(row.orientation)
    assert fresh
    elapsed = time.monotonic() - start
    report(
        f"scan of 2x3,2x4 found {len(fresh)} all-positive orientation "
        f"classes beyond the forced one, witnesses verified, {elapsed:.1f}s"
    )


def test_pruning_and_symmetry_preserve_answers():
    start = time.monotonic()
    compared = 0
    for n in range(1, 7):
        for t in range(n + 1):
            g = build_star(StarShape(n=n, t=t))
            for D in STAR_DISTANCE_SETS:
                plain = search_labeling(
                    g, D, mode="count", prune=False, symmetry=False
                )
                pruned = search_labeling(
                    g, D, mode="count", prune=True, symmetry=False
                )
                assert plain.count == pruned.count, (n, t, D)
                reduced = search_labeling(g, D, mode="count")
                assert reduced.count * reduced.symmetry_order == plain.count
                compared += 1

    elapsed = time.monotonic() - start
    report(
        f"prune/symmetry agreement on {compared} count instances, "
        f"{elapsed:.1f}s"
    )


def test_single_source_family_is_constructed():
    """m copies of K_{1,n} with one source leaf each, under {0,1}: the
    closed form answers every 2 <= m <= 40, 3 <= n <= 40, each witness
    gated by the verifier inside decide."""
    start = time.monotonic()
    pairs = 0
    for m in range(2, 41):
        for n in range(3, 41):
            g = build_homogeneous_forest(m, StarShape(n=n, t=1))
            verdict = decide(g, (D01,), homogeneous_rule(m, n, 1))
            assert verdict.method == "construction", (m, n)
            pairs += 1
    elapsed = time.monotonic() - start
    assert pairs == 1482
    report(f"single-source {{0,1}} closed form on {pairs} (m, n) pairs  {elapsed:.1f}s")


def test_single_source_family_probe():
    """The single-source family by search alone: search each small
    instance and record what actually happened rather than assuming."""
    start = time.monotonic()
    outcomes = []
    for m in (2, 3):
        for n in (2, 3, 4):
            g = build_homogeneous_forest(m, StarShape(n=n, t=1))
            result = search_labeling(g, D01, mode="first")
            if result.status is SearchStatus.FOUND:
                assert verify_labeling(g, result.witness, D01).antimagic
                outcomes.append(f"{m}x{n}:found")
            else:
                assert result.status is SearchStatus.EXHAUSTED
                outcomes.append(f"{m}x{n}:none")
    elapsed = time.monotonic() - start
    report(
        "single-source {0,1} probe  " + "  ".join(outcomes) + f"  {elapsed:.1f}s"
    )


def test_exhaustive_search_throughput():
    """The six reference count-cap searches, in-process: exact node
    totals and unreduced counts, and the DFS rate in nodes/s."""
    def forest(text):
        return build_forest(ForestSpec.parse(text))

    cases = [
        (forest("1x4@2,1x4@2"), ((0, 1),), "count", 26_758 * 16),
        (forest("1x4@1,1x4@1"), ((0, 2),), "count", 47_408 * 72),
        (forest("1x4@2,1x4@2"), ((0, 1), (0, 2)), "count", 15_558 * 16),
        (build_star(StarShape(n=9, t=3)), ((0, 2),), "count", 840 * 4_320),
        (forest("1x3@1,1x3@1"), ((0, 1),), "all", 2_652 * 4),
        (build_star(StarShape(n=9, t=4)), ((1,),), "first", 0),
    ]
    start = time.perf_counter()
    nodes = 0
    for g, sets, mode, unreduced in cases:
        result = search_joint_labeling(g, sets, mode=mode)
        assert (result.count or 0) * result.symmetry_order == unreduced, (sets, mode)
        nodes += result.nodes_explored
    elapsed = time.perf_counter() - start
    assert nodes == 350_521
    assert elapsed < 60
    report(
        f"exhaustive DFS, 6 reference count-cap searches, {nodes:,} nodes "
        f"in {elapsed:.2f}s, {nodes / elapsed / 1e6:.2f} M nodes/s"
    )
