"""Seeded workload generation with known answers.

Each workload is a list of command-line requests for
``python -m antimagic`` plus, for every request, a check of its exit
code and output against an answer the benchmark knows independently.
Seed 0 gives the reference instances; any other seed draws instances
of the same shape from the pools below.  The pools hold, per slot of a
workload, instances whose search cost at the seed commit is close to
the reference instance of that slot, so a pass costs about the same
for every seed and the run-to-run spread stays within the bounds in
``BENCHMARK.json``.  Every pool entry carries its known answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import Callable

from checks import (
    EXIT_BUDGET,
    EXIT_NONE,
    EXIT_NOT_ANTIMAGIC,
    EXIT_OK,
    CheckFailure,
    antimagic,
    check_document,
    check_witness,
    diameter,
    document_graph,
    fmt_set,
    parse_dot,
    parse_json,
    require,
    weights,
)

STAR_SETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
PI_SETS = ((0, 1), (0, 2), (0, 1, 2))
SCAN_SETS = ((0, 1), (0, 2), (0, 1, 2))
#: Node budget the t1-family requests pass to ``construct``.
T1_BUDGET = 200_000


@dataclass
class Outcome:
    """What one checked request contributed."""

    decisions: int = 0
    decided: int = 0
    nodes: int = 0


@dataclass
class Request:
    """One CLI invocation and the check of its result.

    ``prepare`` runs just before the process starts (inside the pass
    wall time); it writes the input document a request depends on.
    ``check`` receives (exit code, stdout) and raises CheckFailure.
    ``stdout`` names the file the output is kept in, when a later
    request reads it.
    """

    argv: list
    check: Callable[[int, str], Outcome]
    prepare: Callable[[], None] | None = None
    label: str = ""
    stdout: Path | None = None


@dataclass
class Workload:
    name: str
    requests: list
    description: str
    reset: Callable[[], None] | None = None


# -- star forests as plain documents ------------------------------------

def forest_document(stars) -> dict:
    """Document of a star forest given (leaves, sources) per star.

    Vertex names and order follow the program's own builders, so
    search trees (and node counts) match those of ``construct``.
    """
    single = len(stars) == 1
    vertices, arcs = [], []
    for k, (n, t) in enumerate(stars, start=1):
        center = "c" if single else f"c{k}"
        leaves = [f"l{i}" if single else f"l{k}.{i}" for i in range(1, n + 1)]
        vertices.append(center)
        vertices += leaves
        arcs += [[leaf, center] for leaf in leaves[:t]]
        arcs += [[center, leaf] for leaf in leaves[t:]]
    return {"vertices": vertices, "arcs": arcs, "labeling": None, "metadata": None}


def d_args(sets) -> list:
    args = []
    for D in sets:
        args += ["--d", fmt_set(D)]
    return args


# -- scan-mixed -----------------------------------------------------------

#: Two-group specs of 18-19 vertices whose three-set scan took within
#: 10% of the reference's wall time at the seed commit (medians of three
#: interleaved CLI runs on 2 cores).  Every cell that fits its set is
#: antimagic: the seed commit found a witness for each cell it decided,
#: and a descending-order search found one for each cell it aborted.
SCAN_POOL = ("2x1,3x4", "2x4,1x8", "2x5,1x6", "3x2,2x4")
SCAN_REFERENCE = "2x3,2x4"


def orientation_classes(spec: str) -> list:
    """Orientation classes of an unoriented spec, in lexicographic order.

    Each class is (t-multiset per group, (leaves, sources) per star).
    """
    groups = {}
    for term in spec.split(","):
        count, _, leaves = term.partition("x")
        groups[int(leaves)] = groups.get(int(leaves), 0) + int(count)
    sizes = sorted(groups)
    per_group = [
        [list(c) for c in combinations_with_replacement(range(n + 1), groups[n])]
        for n in sizes
    ]
    return [
        ([list(part) for part in choice],
         [(n, t) for n, part in zip(sizes, choice) for t in part])
        for choice in product(*per_group)
    ]


def scan_workload(seed: int, work: Path) -> Workload:
    pool = (SCAN_REFERENCE,) + SCAN_POOL
    spec = SCAN_REFERENCE if seed == 0 else random.Random(seed).choice(pool)
    out = work / "scan"
    classes = orientation_classes(spec)

    def reset():
        if out.exists():
            for path in out.iterdir():
                path.unlink()

    def check(code: int, stdout: str) -> Outcome:
        report = json.loads((out / "scan.json").read_text(encoding="utf-8"))
        rows = report.get("rows")
        require(
            isinstance(rows, list)
            and [row.get("orientation") for row in rows] == [o for o, _ in classes],
            "scan rows are not the orientation classes in order",
        )
        outcome = Outcome()
        aborted = False
        for row, (_, stars) in zip(rows, classes):
            doc = forest_document(stars)
            diam = diameter(doc["vertices"], [tuple(a) for a in doc["arcs"]])
            for D in SCAN_SETS:
                cell = row["cells"]["{" + fmt_set(D) + "}"]
                outcome.decisions += 1
                outcome.nodes += cell.get("nodes_explored", 0)
                fits = max(D) <= diam
                status = cell.get("status")
                if status == "antimagic":
                    require(fits, f"witness for a set that does not fit {row}")
                    witness = json.loads(
                        (out / cell["witness"]).read_text(encoding="utf-8")
                    )
                    check_document(witness, stars, [D])
                    outcome.decided += 1
                elif status == "not-antimagic":
                    require(not fits, f"fitting cell declared not antimagic: {row}")
                    outcome.decided += 1
                else:
                    require(status == "aborted", f"unknown cell status {status!r}")
                    aborted = True
        require(code == (EXIT_BUDGET if aborted else EXIT_OK), f"scan exit {code}")
        require(len(stdout.splitlines()) == len(classes) + 1, "scan table has wrong rows")
        return outcome

    argv = ["scan", "--spec", spec, *d_args(SCAN_SETS), "--out", str(out)]
    return Workload(
        "scan-mixed",
        [Request(argv, check, label=f"scan {spec}")],
        f"scan {spec}: {len(classes)} classes x {len(SCAN_SETS)} sets",
        reset,
    )


# -- t1-family ------------------------------------------------------------

#: Reference (m, n) per slot, then pairs of the same outcome whose CLI
#: request took about as long at the seed commit.  The last slot keeps
#: m = 20: at the seed commit those requests alone spend ~1.4 s of system
#: time in ~200,000 page faults, as the allocator maps and unmaps memory
#: during engine setup, while every other 180-220 vertex pair tried spent
#: none.  Every pair is antimagic under {0,1}: the seed commit finds a
#: witness for the first seven slots, and a descending-order search found
#: one for each pair of the last three, which the seed commit aborts at
#: 200,000 nodes.
T1_SLOTS = (
    ((2, 3), ((2, 4), (2, 5))),
    ((3, 3), ((2, 8), (5, 3))),
    ((2, 6), ((2, 7), (2, 9))),
    ((3, 6), ((3, 5), (4, 3), (6, 3), (3, 7))),
    ((4, 4), ((3, 9), (3, 10))),
    ((4, 5), ((3, 13), (3, 14))),
    ((4, 6), ((3, 17), (3, 18))),
    ((5, 7), ((4, 9), (4, 10), (5, 6), (7, 5))),
    ((10, 10), ((11, 9), (9, 11), (12, 8), (10, 9), (8, 13))),
    ((20, 10), ((20, 9), (20, 8))),
)


def t1_workload(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    pairs = [
        ref if seed == 0 else rng.choice((ref,) + pool)
        for ref, pool in T1_SLOTS
    ]
    requests = []
    for m, n in pairs:
        argv = [
            "construct", "--family", "mstar", "--m", str(m), "--n", str(n),
            "--t", "1", "--d", "0,1", "--budget", str(T1_BUDGET),
        ]
        requests.append(Request(argv, _t1_check(m, n), label=f"mstar {m}x{n}@1"))
    return Workload(
        "t1-family",
        requests,
        "mstar t=1 under {0,1}: " + " ".join(f"{m}x{n}" for m, n in pairs),
    )


def _t1_check(m: int, n: int):
    def check(code: int, stdout: str) -> Outcome:
        if code == EXIT_OK:
            check_document(parse_json(stdout), [(n, 1)] * m, [(0, 1)])
            return Outcome(decisions=1, decided=1)
        require(code == EXIT_BUDGET, f"exit {code}, but {m}x{n}@1 is antimagic")
        payload = parse_json(stdout)
        require(payload.get("status") == "search-aborted", "abort without status")
        nodes = payload.get("nodes_explored")
        require(
            type(nodes) is int and 0 < nodes <= T1_BUDGET + 1,
            "abort node count out of range",
        )
        return Outcome(decisions=1, nodes=nodes)

    return check


# -- count-cap ------------------------------------------------------------

#: Slots of (spec or star, sets, mode, unreduced count), reference first.
#: A spec such as "1x4@2,1x4@2" is a forest; "star9@3" is the 9-leaf star
#: with t=3.  Within a slot, node totals at the seed commit lie within 10%
#: of the reference's (15% for the cheap star slot), CLI request times
#: within about 15%, and the ``all`` slot's counts, which set the size of
#: its output, within 6%.  Unreduced
#: counts are count x symmetry order at the seed commit; the refutations
#: are negative by the star characterization theorem.
COUNT_SLOTS = (
    (
        ("1x4@2,1x4@2", ((0, 1),), "count", 26758 * 16),
        ("1x4@1,1x4@2", ((0, 1),), "count", 31327 * 24),
        ("1x4@0,1x4@1", ((0, 1, 2),), "count", 24240 * 144),
        ("1x4@0,1x4@2", ((0, 1, 2),), "count", 32199 * 96),
    ),
    (
        ("1x4@1,1x4@1", ((0, 2),), "count", 47408 * 72),
        ("1x4@1,1x4@2", ((0, 2),), "count", 60396 * 48),
        ("1x4@1,1x4@3", ((0, 1, 2),), "count", 56478 * 36),
    ),
    (
        ("1x4@2,1x4@2", ((0, 1), (0, 2)), "count", 15558 * 16),
        ("1x4@0,1x4@1", ((0, 2), (0, 1, 2)), "count", 24120 * 144),
        ("1x4@0,1x4@2", ((0, 2), (0, 1, 2)), "count", 27975 * 96),
        ("1x4@1,1x4@2", ((0, 1), (0, 2)), "count", 24570 * 24),
        ("1x4@1,1x4@2", ((0, 1), (0, 1, 2)), "count", 24064 * 24),
        ("1x4@2,1x4@2", ((0, 1), (0, 1, 2)), "count", 17194 * 16),
        ("1x4@3,1x4@3", ((0, 2), (0, 1, 2)), "count", 2432 * 36),
    ),
    (
        ("star9@3", ((0, 2),), "count", 840 * 4320),
        ("star9@3", ((0, 1, 2),), "count", 840 * 4320),
        ("star9@2", ((0, 2),), "count", 360 * 10080),
        ("star9@2", ((0, 1, 2),), "count", 360 * 10080),
    ),
    (
        ("1x3@1,1x3@1", ((0, 1),), "all", 2652 * 4),
        ("1x3@0,1x3@1", ((0, 1, 2),), "all", 2664 * 12),
        ("1x1@0,1x5@2", ((0, 1, 2),), "all", 2520 * 12),
        ("1x2@1,1x4@2", ((0, 2),), "all", 2809 * 8),
    ),
    (
        ("star9@4", ((1,),), "first", 0),
        ("star9@2", ((1,),), "first", 0),
        ("star9@6", ((1,),), "first", 0),
        ("star9@3", ((2,),), "first", 0),
        ("star9@5", ((1, 2),), "first", 0),
        ("star9@7", ((2,),), "first", 0),
    ),
)


def instance_stars(name: str) -> list:
    """(leaves, sources) per star of "star9@3" or of a spec like "1x4@2,1x4@2"."""
    if name.startswith("star"):
        n, _, t = name[len("star"):].partition("@")
        return [(int(n), int(t))]
    stars = []
    for term in name.split(","):
        body, _, t = term.partition("@")
        count, _, leaves = body.partition("x")
        stars += [(int(leaves), int(t))] * int(count)
    return stars


def count_workload(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    chosen = [slot[0] if seed == 0 else rng.choice(slot) for slot in COUNT_SLOTS]
    requests = []
    for i, (name, sets, mode, unreduced) in enumerate(chosen):
        stars = instance_stars(name)
        doc = forest_document(stars)
        path = work / f"count-{i}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        argv = ["search", str(path), *d_args(sets), "--mode", mode]
        requests.append(
            Request(
                argv,
                _count_check(doc, sets, mode, unreduced),
                label=f"search {name} {' '.join(map(fmt_set, sets))} {mode}",
            )
        )
    return Workload(
        "count-cap",
        requests,
        "; ".join(f"{n} {m}" for n, _, m, _ in chosen),
    )


def _count_check(doc, sets, mode, unreduced):
    vertices, arcs = document_graph(doc)

    def check(code: int, stdout: str) -> Outcome:
        payload = parse_json(stdout)
        nodes = payload.get("nodes_explored")
        require(type(nodes) is int and nodes >= 0, "missing node count")
        if unreduced == 0:
            require(code == EXIT_NONE, f"exit {code} on a refutation")
            require(payload.get("status") == "exhausted-none", "refutation status")
            return Outcome(decisions=1, decided=1, nodes=nodes)
        require(code == EXIT_OK, f"exit {code}, known count {unreduced}")
        count, order = payload.get("count"), payload.get("symmetry_order")
        require(
            type(count) is int and type(order) is int and count * order == unreduced,
            f"unreduced count {count} x {order} != {unreduced}",
        )
        check_witness(vertices, arcs, payload.get("witness"), sets)
        if mode == "all":
            labelings = payload.get("labelings")
            require(
                isinstance(labelings, list) and len(labelings) == count,
                "labelings list does not match the count",
            )
            seen = set()
            for labeling in labelings:
                check_witness(vertices, arcs, labeling, sets)
                seen.add(tuple(labeling[v] for v in vertices))
            require(len(seen) == count, "repeated labelings")
        return Outcome(decisions=1, decided=1, nodes=nodes)

    return check


# -- construct-verify -----------------------------------------------------

def star_antimagic(n: int, t: int, D) -> bool:
    """The star characterization for every set with max(D) <= 2."""
    D = tuple(sorted(D))
    if D in ((0,), (0, 1)):
        return True
    if D == (1,):
        return n == 1 or (n == 2 and t == 1)
    if D == (2,):
        return False
    if D in ((0, 2), (0, 1, 2)):
        return 1 <= t <= n - 1
    return n == 2 and t == 1  # (1, 2)


def forest_antimagic(stars, D) -> bool:
    """Known verdicts for the closed-form forest families used here."""
    if 0 not in D:
        return False
    if 2 in D:
        return any(1 <= t <= n - 1 for n, t in stars)
    return True


#: Leaf counts per size tier.  Single stars stay at 200 leaves or fewer:
#: the program's distance tables and neighbourhoods are quadratic in a
#: star's size (a 500-leaf star under {0,2} peaks near 120 MB), which
#: would let one draw set the workload's peak RSS.  Forests of small
#: stars reach ~2,500 vertices cheaply.
STAR_LEAVES = {"small": (3, 30), "medium": (40, 100), "large": (150, 200)}
#: (copies, vertices) ranges of homogeneous forests per size tier.
MSTAR_SIZES = {"small": ((2, 8), (8, 88)), "medium": ((5, 20), (100, 600)),
               "large": ((20, 60), (1000, 2500))}
#: Eight small, three medium and one large request per family.
TIERS = ("small",) * 8 + ("medium",) * 3 + ("large",)


def _homogeneous(rng, tier: str):
    """(copies, leaves) of a homogeneous forest in a size tier."""
    (m_low, m_high), (v_low, v_high) = MSTAR_SIZES[tier]
    m = rng.randint(m_low, m_high)
    return m, max(3, rng.randint(v_low, v_high) // m - 1)


def _cv_slots(rng):
    """56 constructs, 14 per family, stratified by size tier and verdict."""
    slots = []
    # star: two tiny oracle calls ({1} and {1,2} on two-leaf stars, the
    # only searches in this workload), ten positives, two refusals.
    slots.append(("star", dict(n=rng.choice((1, 2)), t=1, sets=((1,),))))
    slots.append(("star", dict(n=2, t=1, sets=((1, 2),))))
    for tier in TIERS[:10]:
        n = rng.randint(*STAR_LEAVES[tier])
        t = rng.randint(0, n)
        options = [D for D in STAR_SETS if star_antimagic(n, t, D)]
        slots.append(("star", dict(n=n, t=t, sets=(rng.choice(options),))))
    for _ in range(2):
        n = rng.randint(*STAR_LEAVES[rng.choice(("small", "medium"))])
        slots.append(("star", dict(n=n, t=rng.choice((0, n)),
                                   sets=(rng.choice(((1,), (2,), (0, 2))),))))
    # mstar: twelve positives (never t=1 under {0,1}, which searches),
    # two refusals.
    for tier in TIERS:
        m, n = _homogeneous(rng, tier)
        D = rng.choice(((0,), (0, 1), (0, 2), (0, 1, 2)))
        if D == (0, 1):
            t = rng.choice([0, n, n - 1] + list(range(2, n - 1)))
        elif D == (0,):
            t = rng.randint(0, n)
        else:
            t = rng.randint(1, n - 1)
        slots.append(("mstar", dict(m=m, n=n, t=t, sets=(D,))))
    for _ in range(2):
        m, n = _homogeneous(rng, rng.choice(("small", "medium")))
        slots.append(("mstar", dict(m=m, n=n, t=rng.choice((0, n)),
                                    sets=(rng.choice(((1,), (0, 2), (1, 2))),))))
    # forest with explicit orientations: uniform closed forms, the
    # one-sink-leaf pattern on mixed sizes, and D={0} on anything.
    for i, tier in enumerate(TIERS):
        kind = i % 3
        if kind == 0:
            m, n = _homogeneous(rng, tier)
            stars = [(n, rng.randint(1, n - 1))] * m
            D = rng.choice(((0, 2), (0, 1, 2)))
        elif kind == 1:
            stars = [(n, n - 1) for n in _mixed_sizes(rng, tier)]
            D = rng.choice(PI_SETS)
        else:
            stars = [(n, rng.randint(0, n)) for n in _mixed_sizes(rng, tier)]
            D = (0,)
        slots.append(("forest", dict(stars=stars, sets=(D,))))
    for _ in range(2):
        stars = [(n, rng.choice((0, n))) for n in _mixed_sizes(rng, "small")]
        slots.append(("forest", dict(stars=stars, sets=(rng.choice(((1,), (0, 2))),))))
    # forest-pi: thirteen positives, one refusal (single-leaf stars
    # under a set containing 2).
    for tier in TIERS + ("small",):
        slots.append(("forest-pi", dict(sizes=_mixed_sizes(rng, tier),
                                        sets=(rng.choice(PI_SETS),))))
    slots.append(("forest-pi", dict(sizes=[1] * rng.randint(2, 6), sets=((0, 2),))))
    return slots


def _mixed_sizes(rng, tier: str) -> list:
    """Leaf counts of a forest of two or three distinct star sizes."""
    total = rng.randint(*MSTAR_SIZES[tier][1])
    sizes = sorted(rng.sample(range(1, 13), rng.randint(2, 3)))
    counts = [1] * len(sizes)
    while sum(c * (s + 1) for c, s in zip(counts, sizes)) < total:
        counts[rng.randrange(len(sizes))] += 1
    return [s for c, s in zip(counts, sizes) for _ in range(c)]


def _spec_text(stars, oriented: bool) -> str:
    """Spec text by increasing leaf count: CxN@t terms, or CxN unoriented."""
    counts = {}
    for n, t in stars:
        key = (n, t) if oriented else (n,)
        counts[key] = counts.get(key, 0) + 1
    return ",".join(
        f"{count}x{key[0]}" + (f"@{key[1]}" if oriented else "")
        for key, count in sorted(counts.items())
    )


def cv_workload(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    requests = []
    for i, (family, p) in enumerate(_cv_slots(rng)):
        fmt = rng.choice(("json", "dot"))
        sets = p["sets"]
        if family == "star":
            stars = [(p["n"], p["t"])]
            argv = ["--n", str(p["n"]), "--t", str(p["t"])]
            positive = all(star_antimagic(p["n"], p["t"], D) for D in sets)
        elif family == "mstar":
            stars = [(p["n"], p["t"])] * p["m"]
            argv = ["--m", str(p["m"]), "--n", str(p["n"]), "--t", str(p["t"])]
            positive = all(forest_antimagic(stars, D) for D in sets)
        elif family == "forest":
            stars = p["stars"]
            argv = ["--spec", _spec_text(stars, oriented=True)]
            positive = all(forest_antimagic(stars, D) for D in sets)
        else:
            stars = [(n, n - 1) for n in p["sizes"]]
            argv = ["--spec", _spec_text(stars, oriented=False)]
            positive = all(forest_antimagic(stars, D) for D in sets)
        out = work / f"cv-{i}.out"
        argv = ["construct", "--family", family, *argv, *d_args(sets), "--format", fmt]
        size = sum(n + 1 for n, _ in stars)
        label = f"construct {family} {size}v {fmt}"
        requests.append(
            Request(argv, _construct_check(stars, sets, fmt, positive), label=label, stdout=out)
        )
        if not positive:
            continue
        # The extra set, often one the document is not antimagic under,
        # only goes with small documents: verify lists every colliding
        # pair, which on a 2,000-vertex forest under {1} is ~500,000
        # pairs, 2.4 s and 230 MB, and would let one draw set the
        # workload's latency tail and peak RSS.
        verify_sets = list(sets)
        if size <= 100 and rng.random() < 0.5:
            extra = rng.choice(STAR_SETS)
            if extra not in verify_sets:
                verify_sets.append(extra)
        doc_path = work / f"cv-{i}.json"
        requests.append(
            Request(
                ["verify", str(doc_path), *d_args(verify_sets)],
                _verify_check(verify_sets, doc_path),
                prepare=_document_writer(out, doc_path, sets, fmt),
                label=f"verify {size}v",
            )
        )
    return Workload("construct-verify", requests, f"{len(requests)} requests")


def _construct_check(stars, sets, fmt, positive):
    def check(code: int, stdout: str) -> Outcome:
        if not positive:
            require(code == EXIT_NONE, f"exit {code} for a refused instance")
            require(parse_json(stdout).get("status") == "not-antimagic", "refusal status")
            return Outcome(decisions=1, decided=1)
        require(code == EXIT_OK, f"exit {code} for a constructible instance")
        doc = parse_dot(stdout, sets) if fmt == "dot" else parse_json(stdout)
        check_document(doc, stars, sets)
        return Outcome(decisions=1, decided=1)

    return check


def _document_writer(out: Path, doc_path: Path, sets, fmt: str):
    """Hand the constructed document to verify, as JSON."""

    def prepare():
        text = out.read_text(encoding="utf-8")
        if fmt == "dot":
            try:
                text = json.dumps(parse_dot(text, sets), indent=2) + "\n"
            except CheckFailure:
                pass  # the construct check reports it; verify then fails too
        doc_path.write_text(text, encoding="utf-8")

    return prepare


def _verify_check(sets, doc_path: Path):
    def check(code: int, stdout: str) -> Outcome:
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        vertices, arcs = document_graph(doc)
        labeling = doc["labeling"]
        verdicts = [antimagic(vertices, arcs, labeling, D) for D in sets]
        expected = EXIT_OK if all(verdicts) else EXIT_NOT_ANTIMAGIC
        require(code == expected, f"verify exit {code}, expected {expected}")
        payload = parse_json(stdout)
        reports = payload.get("reports")
        require(
            payload.get("antimagic") == all(verdicts)
            and isinstance(reports, list)
            and len(reports) == len(sets),
            "verify summary disagrees",
        )
        for report, D, verdict in zip(reports, sets, verdicts):
            require(report.get("antimagic") == verdict, f"verdict under {fmt_set(D)}")
            require(
                report.get("weights") == weights(vertices, arcs, labeling, D),
                f"verify weights disagree under {fmt_set(D)}",
            )
        return Outcome(decisions=1, decided=1)

    return check


BUILDERS = {
    "scan-mixed": scan_workload,
    "t1-family": t1_workload,
    "count-cap": count_workload,
    "construct-verify": cv_workload,
}
