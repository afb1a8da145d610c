import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic
from antimagic import (
    DistanceSet,
    ForestSpec,
    Labeling,
    OrientedGraph,
    StarShape,
    build_forest,
    build_homogeneous_forest,
    build_star,
    verify_labeling,
)
from antimagic.cli import main
from antimagic.io import GraphDocument
from test_io import _JSON_VALUES

D01 = DistanceSet.of([0, 1])
D02 = DistanceSet.of([0, 2])
D012 = DistanceSet.of([0, 1, 2])

# ``python -m antimagic`` in a child process finds the package in src/.
SRC = str(Path(antimagic.__file__).resolve().parents[1])
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(argv, monkeypatch):
    """Exit code and traced heap peak of one in-process request.

    Standard output goes to os.devnull, and the modules a request may
    load are imported first, so only the request itself is traced.
    """
    import antimagic.scan  # noqa: F401  (loads constructions and stars)
    import antimagic.search  # noqa: F401

    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


def write_star_doc(tmp_path, n, t, labeling=None, name="graph.json"):
    g = build_star(StarShape(n=n, t=t))
    doc = GraphDocument.from_graph(g, labeling)
    path = tmp_path / name
    path.write_text(doc.to_json(), encoding="utf-8")
    return path, g


# -- construct --------------------------------------------------------

def test_construct_star_json(capsys):
    code, out, _ = run_cli(
        ["construct", "--family", "star", "--n", "5", "--t", "2", "--d", "0,1"],
        capsys,
    )
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert doc.metadata["family"] == "star"
    assert doc.metadata["n"] == 5 and doc.metadata["t"] == 2
    assert doc.metadata["distance_sets"] == ["{0,1}"]
    assert doc.metadata["method"] == "construction"
    assert verify_labeling(doc.graph(), doc.labeling, D01).antimagic


def test_construct_star_dot_frozen(capsys):
    code, out, _ = run_cli(
        [
            "construct", "--family", "star", "--n", "2", "--t", "1",
            "--d", "0,1", "--format", "dot",
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        'digraph "g" {\n'
        "  // weight brackets per distance set: {0,1}=red\n"
        '  "c" [label="3 [5]"];\n'
        '  "l1" [label="1 [4]"];\n'
        '  "l2" [label="2 [2]"];\n'
        '  "c" -> "l2";\n'
        '  "l1" -> "c";\n'
        "}\n"
    )


def test_construct_star_refusal_names_the_obstruction(capsys):
    code, out, _ = run_cli(
        ["construct", "--family", "star", "--n", "3", "--t", "1", "--d", "1"],
        capsys,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload == {
        "status": "not-antimagic",
        "distance_set": "{1}",
        "reason": "N_EXCEEDS_BOUND",
    }


def test_construct_star_missing_parameters(capsys):
    code, _, err = run_cli(
        ["construct", "--family", "star", "--d", "1"], capsys
    )
    assert code == 64
    assert "--n" in err and "--t" in err


def test_construct_star_bad_shape(capsys):
    code, _, err = run_cli(
        ["construct", "--family", "star", "--n", "2", "--t", "5", "--d", "1"],
        capsys,
    )
    assert code == 64


def test_construct_unsupported_distance_set(capsys):
    code, _, err = run_cli(
        ["construct", "--family", "star", "--n", "3", "--t", "1", "--d", "0,3"],
        capsys,
    )
    assert code == 65
    assert "never exceed 2" in err


@pytest.mark.parametrize(
    "text",
    ["x", "1_0", "+0,1", "-1", "\u0661,\u0662"],
    ids=["x", "underscore", "plus", "minus", "arabic-indic"],
)
def test_construct_malformed_distance_set(text, capsys):
    # Members are plain ASCII digits; int() would read 1_0 as 10, +0 as 0
    # and the Arabic-Indic digits of the last case as 1 and 2.
    code, out, err = run_cli(
        ["construct", "--family", "star", "--n", "3", "--t", "1", "--d", text],
        capsys,
    )
    assert (code, out) == (64, "")
    assert "cannot parse distance set" in err


def test_construct_pi_forest(capsys):
    code, out, _ = run_cli(
        ["construct", "--family", "forest-pi", "--spec", "3x3,2x4,1x5", "--d", "0,1"],
        capsys,
    )
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert len(doc.vertices) == 28
    assert doc.metadata["pi"] is True
    assert verify_labeling(doc.graph(), doc.labeling, D01).antimagic


def test_construct_pi_forest_accepts_zero_only_set(capsys):
    # Under {0} every labeling is antimagic; the sequential one is emitted.
    code, out, _ = run_cli(
        ["construct", "--family", "forest-pi", "--spec", "2x2", "--d", "0"],
        capsys,
    )
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert doc.labeling == Labeling.sequential(doc.graph())
    assert doc.metadata["method"] == "construction"


def test_construct_mstar_multi_set(capsys):
    code, out, _ = run_cli(
        [
            "construct", "--family", "mstar", "--m", "2", "--n", "3", "--t", "1",
            "--d", "0,2", "--d", "0,1,2",
        ],
        capsys,
    )
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert doc.metadata["distance_sets"] == ["{0,2}", "{0,1,2}"]
    assert doc.metadata["method"] == "construction"
    g = doc.graph()
    for D in (D02, D012):
        assert verify_labeling(g, doc.labeling, D).antimagic


def test_construct_forest_needs_orientation(capsys):
    code, _, err = run_cli(
        ["construct", "--family", "forest", "--spec", "2x3", "--d", "0,1"],
        capsys,
    )
    assert code == 64
    assert "@t" in err


def test_construct_oriented_forest(capsys):
    code, out, _ = run_cli(
        ["construct", "--family", "forest", "--spec", "2x3@1", "--d", "0,2"],
        capsys,
    )
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert doc.metadata["orientation"] == [[1, 1]]
    assert doc.metadata["method"] == "construction"
    assert verify_labeling(doc.graph(), doc.labeling, D02).antimagic


def test_construct_deduplicates_repeated_sets(capsys):
    code, out, _ = run_cli(
        [
            "construct", "--family", "star", "--n", "4", "--t", "2",
            "--d", "0,1", "--d", "0,1",
        ],
        capsys,
    )
    assert code == 0
    assert GraphDocument.from_json(out).metadata["distance_sets"] == ["{0,1}"]


@pytest.mark.parametrize(
    "argv, labeling_from, method",
    [
        # mstar 4x3@1 has a closed form under {0,1} and one under {0,2},
        # but neither serves both, so the pair is searched; forest 4x3@1
        # is the same graph and emits the same labeling
        (["construct", "--family", "mstar", "--m", "4", "--n", "3", "--t", "1",
          "--d", "0,1", "--d", "0,2"],
         ["construct", "--family", "forest", "--spec", "4x3@1",
          "--d", "0,1", "--d", "0,2"], "search"),
        # The positive stars under {1} and {1,2} take any bijection.
        (["construct", "--family", "star", "--n", "1", "--t", "0", "--d", "1"],
         None, "construction"),
        (["construct", "--family", "star", "--n", "2", "--t", "1", "--d", "1"],
         None, "construction"),
        (["construct", "--family", "star", "--n", "2", "--t", "1", "--d", "1,2"],
         None, "construction"),
    ],
    ids=["mstar-t1", "star-1-n1", "star-1-n2", "star-12-n2"],
)
def test_search_found_witnesses_say_search(argv, labeling_from, method, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = GraphDocument.from_json(out)
    assert doc.metadata["method"] == method
    for flag, D in zip(argv, argv[1:]):
        if flag == "--d":
            assert verify_labeling(doc.graph(), doc.labeling, DistanceSet.parse(D)).antimagic
    if labeling_from is not None:
        code, other, _ = run_cli(labeling_from, capsys)
        assert code == 0
        twin = GraphDocument.from_json(other)
        assert twin.metadata["method"] == method
        assert (twin.vertices, twin.arcs, twin.labeling) == (
            doc.vertices, doc.arcs, doc.labeling
        )


# One graph, two copies of K_{1,3} with two source leaves each, through
# every family that builds it.
SAME_FOREST = {
    "mstar": ["--m", "2", "--n", "3", "--t", "2"],
    "forest": ["--spec", "2x3@2"],
    "forest-pi": ["--spec", "2x3"],
}


def set_ids(sets):
    return "-".join(D.replace(",", "") for D in sets)


@pytest.mark.parametrize(
    "sets",
    [["0"], ["1"], ["2"], ["1,2"], ["0,1"], ["0,2"], ["0,1,2"], ["0,1", "1"],
     ["0", "0,1"]],
    ids=set_ids,
)
def test_same_forest_gets_the_same_answer_from_every_family(sets, capsys):
    d_args = [arg for D in sets for arg in ("--d", D)]
    answers = {}
    for family, params in SAME_FOREST.items():
        code, out, _ = run_cli(
            ["construct", "--family", family, *params, *d_args], capsys
        )
        payload = json.loads(out)
        if code == 0:
            payload = (payload["vertices"], payload["arcs"], payload["labeling"],
                       payload["metadata"]["method"])
        answers[family] = (code, payload)
    assert answers["forest"] == answers["mstar"] == answers["forest-pi"]
    code, payload = answers["forest"]
    if "0" not in sets[-1].split(","):
        assert code == 2
        assert payload == {
            "status": "not-antimagic",
            "distance_set": "{" + sets[-1] + "}",
            "reason": "MIN_D_POSITIVE",
        }
    else:
        assert code == 0 and payload[3] == "construction"


@pytest.mark.parametrize(
    "family_args",
    [
        ["--family", "star", "--n", "3", "--t", "1"],
        ["--family", "mstar", "--m", "2", "--n", "3", "--t", "1"],
        ["--family", "forest", "--spec", "2x3@1"],
        ["--family", "forest-pi", "--spec", "2x3"],
    ],
    ids=["star", "mstar", "forest", "forest-pi"],
)
@pytest.mark.parametrize("sets", [["0,3"], ["1", "0,3"], ["0,1", "1,2,3"]], ids=set_ids)
def test_every_family_rejects_distances_past_two(family_args, sets, capsys):
    d_args = [arg for D in sets for arg in ("--d", D)]
    code, out, err = run_cli(["construct", *family_args, *d_args], capsys)
    assert code == 65
    assert out == ""
    assert "never exceed 2" in err


def test_mstar_searches_all_its_sets_at_once(capsys):
    # 4x3@1 has a closed form under each set alone, none under both.
    argv = ["construct", "--family", "mstar", "--m", "4", "--n", "3", "--t", "1"]
    # A refusal of a later set wins over a budget abort on an earlier one.
    code, out, _ = run_cli(argv + ["--d", "0,1", "--d", "1", "--budget", "2"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "status": "not-antimagic",
        "distance_set": "{1}",
        "reason": "MIN_D_POSITIVE",
    }
    # One joint search, whose refusal names every set.
    code, out, _ = run_cli(
        argv + ["--d", "0,1", "--d", "0,1,2", "--budget", "2"], capsys
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "search-aborted"
    assert payload["distance_sets"] == ["{0,1}", "{0,1,2}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "star", "--n", "5", "--t", "2", "--d", "0,2"],
        ["--family", "mstar", "--m", "3", "--n", "4", "--t", "2", "--d", "0,1"],
        ["--family", "forest", "--spec", "2x3@1,1x4@3", "--d", "0"],
        ["--family", "forest-pi", "--spec", "2x3,1x4", "--d", "0,1,2"],
    ],
    ids=["star", "mstar", "forest", "forest-pi"],
)
def test_closed_form_construct_builds_and_verifies_once(argv, capsys, monkeypatch):
    import antimagic.cli as cli
    import antimagic.constructions as constructions
    import antimagic.graph as graph

    calls = []
    real_init = graph.OrientedGraph.__init__
    real_verify = graph.verify_labeling

    def counted_init(self, *args, **kwargs):
        calls.append("build")
        real_init(self, *args, **kwargs)

    def counted_verify(*args, **kwargs):
        calls.append("verify")
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(graph.OrientedGraph, "__init__", counted_init)
    for module in (cli, constructions):
        monkeypatch.setattr(module, "verify_labeling", counted_verify)
    code, out, _ = run_cli(["construct", *argv], capsys)
    assert code == 0
    assert json.loads(out)["metadata"]["method"] == "construction"
    assert calls == ["build", "verify"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "star", "--n", "5", "--t", "2", "--d", "0,2"],
        ["--family", "mstar", "--m", "4", "--n", "3", "--t", "1",
         "--d", "0,1", "--d", "0,2"],
        ["--family", "forest", "--spec", "2x3@1,1x4@3", "--d", "0", "--d", "0,1"],
        ["--family", "forest-pi", "--spec", "2x3,1x4", "--d", "0,1,2"],
    ],
    ids=["star", "mstar-search", "forest", "forest-pi"],
)
def test_dot_construct_builds_its_graph_once(argv, capsys, monkeypatch):
    import antimagic.graph as graph

    builds = []
    real_init = graph.OrientedGraph.__init__

    def counted(self, *args, **kwargs):
        builds.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(graph.OrientedGraph, "__init__", counted)
    code, out, _ = run_cli(["construct", *argv, "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph") and " [" in out
    # The DOT writer takes the weight brackets from the graph the
    # construct already built.
    assert len(builds) == 1


STAR_SETS_TEXT = ("0", "1", "2", "0,1", "0,2", "1,2", "0,1,2")


def construct_corpus():
    """The construct requests ``CONSTRUCT_DIGEST`` covers, in order."""
    for n in range(1, 6):
        for t in range(n + 1):
            for d in STAR_SETS_TEXT:
                yield ["--family", "star", "--n", str(n), "--t", str(t), "--d", d]
    for m in (2, 3):
        for n in range(1, 5):
            for t in range(n + 1):
                for d in STAR_SETS_TEXT:
                    yield ["--family", "mstar", "--m", str(m), "--n", str(n),
                           "--t", str(t), "--d", d]
    for family, spec in (("forest", "1x2@1,1x3@0"), ("forest", "2x3@1"),
                         ("forest-pi", "3x3,2x4,1x5")):
        for d in STAR_SETS_TEXT:
            yield ["--family", family, "--spec", spec, "--d", d]
    for budget, d in (("2", "0,1"), ("0", "0,2")):
        yield ["--family", "forest", "--spec", "1x2@1,1x3@0", "--d", d,
               "--budget", budget]
    for joint in (["--d", "0,1", "--d", "0,2"], ["--d", "0", "--d", "0,1"]):
        yield ["--family", "star", "--n", "2", "--t", "1", *joint]
        yield ["--family", "mstar", "--m", "2", "--n", "3", "--t", "1", *joint]
        yield ["--family", "forest", "--spec", "1x2@1,1x3@0", *joint]
    dot = ["--format", "dot"]
    for n in range(1, 4):
        for t in range(n + 1):
            yield ["--family", "star", "--n", str(n), "--t", str(t),
                   "--d", "0,1", "--d", "0,2", *dot]
    four = ["--d", "0", "--d", "0,1", "--d", "0,2", "--d", "0,1,2", *dot]
    yield ["--family", "star", "--n", "3", "--t", "1", *four]
    yield ["--family", "mstar", "--m", "2", "--n", "3", "--t", "1", *four]
    yield ["--family", "forest", "--spec", "2x3@1", *four]
    yield ["--family", "forest-pi", "--spec", "3x3,2x4,1x5", "--d", "0,1", *dot]


# SHA-256 over (argv, exit code, stdout) of every request in
# construct_corpus(), each as the repr of that triple and a NUL.
CONSTRUCT_DIGEST = "b43c71c13da952b83794db1e71fba782a17e3a8e3908a99fe6cbece018bb43a2"


def test_construct_output_is_byte_stable(capsys):
    digest = hashlib.sha256()
    codes = []
    for argv in construct_corpus():
        code, out, _ = run_cli(["construct", *argv], capsys)
        codes.append(code)
        digest.update(repr((argv, code, out)).encode() + b"\0")
    assert {code: codes.count(code) for code in set(codes)} == {0: 169, 2: 207, 3: 2}
    assert digest.hexdigest() == CONSTRUCT_DIGEST


# -- verify -----------------------------------------------------------

def test_verify_embedded_labeling(tmp_path, capsys):
    path, g = write_star_doc(
        tmp_path, 2, 1, labeling=Labeling({"c": 3, "l1": 1, "l2": 2})
    )
    code, out, _ = run_cli(["verify", str(path), "--d", "0,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["antimagic"] is True
    report = payload["reports"][0]
    assert report["distance_set"] == "{0,1}"
    assert report["weights"] == {"c": 5, "l1": 4, "l2": 2}
    assert report["collisions"] == []


def test_verify_collision_exits_one(tmp_path, capsys):
    path, g = write_star_doc(
        tmp_path, 2, 0, labeling=Labeling({"c": 1, "l1": 2, "l2": 3})
    )
    code, out, _ = run_cli(["verify", str(path), "--d", "1"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["antimagic"] is False
    assert payload["reports"][0]["collisions"] == [["l1", "l2"]]


def test_verify_streams_collisions_as_json_dumps_would(tmp_path, capsys):
    from antimagic.cli import _print_json

    path, g = write_star_doc(tmp_path, 5, 2, labeling=None)
    labeling = Labeling.sequential(g)
    reports = []
    for D in (DistanceSet.of([1]), DistanceSet.of([2])):
        report = verify_labeling(g, labeling, D)
        assert len(report.collisions) > 1
        reports.append(
            {
                "distance_set": str(D),
                "antimagic": False,
                "weights": report.weights,
                "collisions": report.collisions,
            }
        )
    payload = {"antimagic": False, "reports": reports}
    expected = json.dumps(payload, indent=2) + "\n"
    inline = json.dumps(dict(labeling))
    code, out, _ = run_cli(
        ["verify", str(path), "--labeling", inline, "--d", "1", "--d", "2"], capsys
    )
    assert (code, out) == (1, expected)
    # One write per colliding pair: no piece ends one pair and starts another.
    pieces = []
    _print_json(payload, SimpleNamespace(write=pieces.append))
    assert "".join(pieces) == expected
    pairs = sum(len(report["collisions"]) for report in reports)
    assert len(pieces) > pairs
    assert not any("]," in piece for piece in pieces)


def _with_generators(value, draw):
    # Swap some lists, empty ones included, for generators of the same
    # items.  Only containers that the writer streams may hold one: a
    # dict with a non-str key goes to json_text whole.
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            return value
        return {key: _with_generators(item, draw) for key, item in value.items()}
    if not isinstance(value, (list, tuple)):
        return value
    items = [_with_generators(item, draw) for item in value]
    if isinstance(value, tuple):
        return tuple(items)
    return (item for item in items) if draw(st.booleans()) else items


# The JSON values of test_io, and objects of them and of lists of them,
# the shape of every result the program writes.
_PAYLOADS = st.one_of(
    _JSON_VALUES,
    st.dictionaries(
        st.text(max_size=3),
        st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=3)),
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS, st.data())
def test_print_json_writes_generators_as_the_lists_they_produce(value, data):
    from antimagic.cli import _print_json

    out = io.StringIO()
    _print_json(_with_generators(value, data.draw), out)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


def test_verify_mixed_sets_worst_case_wins(tmp_path, capsys):
    path, _ = write_star_doc(
        tmp_path, 2, 0, labeling=Labeling({"c": 1, "l1": 2, "l2": 3})
    )
    code, out, _ = run_cli(["verify", str(path), "--d", "0", "--d", "1"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["antimagic"] is False
    verdicts = {r["distance_set"]: r["antimagic"] for r in payload["reports"]}
    assert verdicts == {"{0}": True, "{1}": False}


def test_verify_inline_labeling_overrides_document(tmp_path, capsys):
    path, _ = write_star_doc(
        tmp_path, 2, 1, labeling=Labeling({"c": 1, "l1": 2, "l2": 3})
    )
    code, out, _ = run_cli(
        [
            "verify", str(path), "--d", "0,1",
            "--labeling", '{"c": 3, "l1": 1, "l2": 2}',
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["weights"]["c"] == 5


def test_verify_labeling_from_file(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    labels = tmp_path / "labels.json"
    labels.write_text('{"c": 3, "l1": 1, "l2": 2}', encoding="utf-8")
    code, out, _ = run_cli(
        ["verify", str(path), "--d", "0,1", "--labeling", str(labels)], capsys
    )
    assert code == 0


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch):
    g = build_star(StarShape(n=2, t=1))
    doc = GraphDocument.from_graph(g, Labeling({"c": 3, "l1": 1, "l2": 2}))
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc.to_json()))
    code, out, _ = run_cli(["verify", "-", "--d", "0,1"], capsys)
    assert code == 0


def test_verify_duplicate_labels_are_data_errors(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, _, err = run_cli(
        ["verify", str(path), "--d", "0,1", "--labeling", '{"c": 1, "l1": 1, "l2": 2}'],
        capsys,
    )
    assert code == 65
    assert "duplicate" in err


def test_verify_rejects_json_true_in_an_embedded_labeling(tmp_path, capsys):
    g = build_star(StarShape(n=2, t=1))
    payload = json.loads(GraphDocument.from_graph(g).to_json())
    # {"c": 3, "l1": 1, "l2": 2} is antimagic; true must not pass for 1
    payload["labeling"] = {"c": 3, "l1": True, "l2": 2}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run_cli(["verify", str(path), "--d", "0,1"], capsys)
    assert code == 65
    assert "labeling" in err


def test_verify_rejects_json_true_in_an_inline_labeling(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, _, err = run_cli(
        ["verify", str(path), "--d", "0,1", "--labeling", '{"c": 3, "l1": true, "l2": 2}'],
        capsys,
    )
    assert code == 65
    assert "integers" in err


def test_verify_without_any_labeling(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, _, err = run_cli(["verify", str(path), "--d", "0,1"], capsys)
    assert code == 65
    assert "labeling" in err


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", str(tmp_path / "nope.json"), "--d", "0,1"], capsys
    )
    assert code == 65


def test_verify_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    code, _, err = run_cli(["verify", str(path), "--d", "0,1"], capsys)
    assert code == 65


# -- search -----------------------------------------------------------

def test_search_count_frozen(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(
        ["search", str(path), "--d", "1,2", "--mode", "count"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["count"] == 6
    assert payload["distance_sets"] == ["{1,2}"]
    assert payload["shortcut"] is None


def test_search_first_returns_verified_witness(tmp_path, capsys):
    path, g = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(["search", str(path), "--d", "0,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    witness = payload["witness"]
    assert list(witness) == list(g.vertices)
    assert verify_labeling(g, witness, D01).antimagic


def test_search_exhausted_exits_two(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(["search", str(path), "--d", "2"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "exhausted-none"
    assert payload["witness"] is None


def test_search_unfit_distance_set_shortcut(tmp_path, capsys):
    g = build_homogeneous_forest(2, StarShape(n=2, t=0))
    path = tmp_path / "forest.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    code, out, _ = run_cli(["search", str(path), "--d", "0,2"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["shortcut"] == "distance-set-exceeds-diameter"
    assert payload["nodes_explored"] == 0


def test_search_refuses_equal_neighborhoods_without_a_walk(tmp_path, capsys):
    # 6x5@2 plus a directed 3-cycle a -> b -> c -> a: under {0,1,2} each
    # cycle vertex reaches the other two, so all three weigh the same.
    forest = build_forest(ForestSpec.parse("6x5@2"))
    cycle = [("a", "b"), ("b", "c"), ("c", "a")]
    g = OrientedGraph([*forest.vertices, "a", "b", "c"], [*forest.arcs, *cycle])
    path = tmp_path / "tie39.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    argv = ["search", str(path), "--d", "0,1,2", "--budget", "200000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "exhausted-none"
    assert payload["shortcut"] == "equal-neighborhoods"
    assert payload["nodes_explored"] == 0
    assert payload["symmetry_order"] == 1


def test_search_empty_graph_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "arcs": []}', encoding="utf-8")
    for mode in ("first", "count", "all"):
        code, out, _ = run_cli(["search", str(path), "--d", "0", "--mode", mode], capsys)
        assert code == 2, mode
        payload = json.loads(out)
        assert payload["status"] == "exhausted-none"
        assert payload["shortcut"] == "distance-set-exceeds-diameter"
        assert payload["nodes_explored"] == 0


def test_search_budget_abort_exits_three(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(
        ["search", str(path), "--d", "0,1", "--budget", "1"], capsys
    )
    assert code == 3
    assert json.loads(out)["status"] == "aborted-budget"


def test_search_joint_sets_count(tmp_path, capsys):
    # {1,2} admits all 6 bijections, {0,1} admits 4; jointly 4 remain
    path, g = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(
        ["search", str(path), "--d", "0,1", "--d", "1,2", "--mode", "count"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distance_sets"] == ["{0,1}", "{1,2}"]
    assert payload["count"] == 4


def test_search_mode_all_lists_every_labeling(tmp_path, capsys):
    path, g = write_star_doc(tmp_path, 2, 1)
    code, out, _ = run_cli(
        ["search", str(path), "--d", "0,1", "--mode", "all"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    labelings = payload["labelings"]
    assert len(labelings) == payload["count"] == 4
    for labeling in labelings:
        assert verify_labeling(g, labeling, D01).antimagic


def test_search_mode_all_holds_one_row_per_labeling(tmp_path, monkeypatch):
    # 23,704 labelings: as a list of dicts the request peaked at ~14 MiB,
    # with rows of labels and a listing written as it is produced ~3.4.
    g = build_forest(ForestSpec.parse("1x4@1,1x4@1"))
    path = tmp_path / "forest.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    argv = ["search", str(path), "--d", "0,2", "--mode", "all"]
    code, peak = traced_peak(argv, monkeypatch)
    assert code == 0
    assert peak <= 7 * 2**20


def test_search_symmetry_scaling(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 4, 2)
    code, out, _ = run_cli(
        ["search", str(path), "--d", "0,1", "--mode", "count"], capsys
    )
    assert code == 0
    reduced = json.loads(out)
    code, out, _ = run_cli(
        [
            "search", str(path), "--d", "0,1", "--mode", "count",
            "--no-symmetry", "--no-prune",
        ],
        capsys,
    )
    assert code == 0
    raw = json.loads(out)
    assert raw["symmetry_order"] == 1
    assert reduced["symmetry_order"] == 4
    assert reduced["count"] * reduced["symmetry_order"] == raw["count"]


def test_search_exhaustive_mode_respects_vertex_cap(tmp_path, capsys):
    g = build_homogeneous_forest(2, StarShape(n=5, t=1))
    path = tmp_path / "big.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    code, _, err = run_cli(["search", str(path), "--d", "0,1", "--mode", "count"], capsys)
    assert code == 64
    assert "ANTIMAGIC_NODE_CAP" in err


@pytest.mark.parametrize("mode", ["count", "all"])
@pytest.mark.parametrize(
    "t, d, shortcut",
    [(3, "1", "equal-neighborhoods"), (12, "0,2", "distance-set-exceeds-diameter")],
    ids=["tied", "unfit"],
)
def test_a_refutation_without_a_walk_answers_above_the_vertex_cap(
    t, d, shortcut, mode, tmp_path, capsys, monkeypatch
):
    # K_{1,12} has 13 vertices, above the default cap of 10.
    path, _ = write_star_doc(tmp_path, 12, t)
    argv = ["search", str(path), "--d", d, "--mode", mode]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    payload = json.loads(out)
    assert (payload["count"], payload["nodes_explored"], payload["shortcut"]) == (
        0, 0, shortcut
    )
    assert payload.get("labelings", []) == []
    # A malformed cap is still refused before any answer.
    monkeypatch.setenv("ANTIMAGIC_NODE_CAP", "ten")
    code, _, err = run_cli(argv, capsys)
    assert code == 64
    assert "ANTIMAGIC_NODE_CAP must be an integer" in err


def test_search_rejects_the_removed_workers_flag(tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    code, _, err = run_cli(
        ["search", str(path), "--d", "0,1", "--workers", "2"], capsys
    )
    assert code == 64
    assert "--workers" in err


def test_search_does_not_hide_internal_value_errors(tmp_path, monkeypatch):
    # only the vertex-cap refusal is a usage error; a bug must surface
    import antimagic.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "search_joint_labeling", broken)
    path, _ = write_star_doc(tmp_path, 2, 1)
    with pytest.raises(ValueError, match="internal failure"):
        main(["search", str(path), "--d", "0,1"])


def test_search_count_with_an_isolated_vertex_under_nonzero_distances(
    tmp_path, capsys
):
    # v1 always weighs 0 under {1,2}; every one of the 24 bijections works
    g = OrientedGraph(
        ["v0", "v1", "v2", "v3"], [("v0", "v2"), ("v2", "v3"), ("v3", "v0")]
    )
    path = tmp_path / "cycle.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    argv = ["search", str(path), "--d", "1,2", "--mode", "count", "--no-symmetry"]
    for extra in ([], ["--no-prune"]):
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0
        assert json.loads(out)["count"] == 24, extra


def test_search_first_on_550_vertices_has_no_depth_limit(tmp_path, capsys):
    g = build_homogeneous_forest(50, StarShape(n=10, t=0))
    path = tmp_path / "big.json"
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    code, out, _ = run_cli(
        ["search", str(path), "--d", "0,1", "--budget", "1000"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes_explored"] == 551
    assert verify_labeling(g, payload["witness"], D01).antimagic


@pytest.mark.parametrize(
    "target, failure, argv",
    [
        ("antimagic.constructions.verify_labeling", SimpleNamespace(antimagic=False),
         ["construct", "--family", "star", "--n", "5", "--t", "2", "--d", "0,1"]),
        # No closed form applies to either set, so the joint search runs
        # and its witness meets the search's own gate.
        ("antimagic.search.verify_labeling", SimpleNamespace(antimagic=False),
         ["construct", "--family", "forest", "--spec", "1x2@0,1x3@1",
          "--d", "0,1", "--d", "0,1,2"]),
        # A closed form that is not a bijection fails the gate too.
        ("antimagic.constructions._leaf_index_labels",
         {**{f"l{i}": 1 for i in range(1, 6)}, "c": 1},
         ["construct", "--family", "star", "--n", "5", "--t", "2", "--d", "0,1"]),
    ],
    ids=["closed-form-gate", "joint-witness-gate", "non-bijective-closed-form"],
)
def test_failed_gate_is_an_internal_error(target, failure, argv, capsys, monkeypatch):
    # A labeling that fails its own check is a bug, not "not antimagic":
    # exit 70 with one line on stderr, never exit 1 with a traceback.
    monkeypatch.setattr(target, lambda *args, **kwargs: failure)
    code, out, err = run_cli(argv, capsys)
    assert code == 70
    assert out == ""
    assert err.count("\n") == 1
    assert "internal error" in err



def test_search_witness_failing_its_gate_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    path, _ = write_star_doc(tmp_path, 4, 2)
    monkeypatch.setattr(
        "antimagic.search.verify_labeling",
        lambda *args, **kwargs: SimpleNamespace(antimagic=False),
    )
    for mode in ("first", "all"):
        code, out, err = run_cli(
            ["search", str(path), "--d", "0,1", "--mode", mode], capsys
        )
        assert code == 70, mode
        assert out == ""
        assert err.count("\n") == 1
        assert "invalid witness" in err


def test_search_order_breaking_a_chain_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    import antimagic.search as search

    real_init = search._Engine.__init__

    def reversed_order(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.order.reverse()

    monkeypatch.setattr(search._Engine, "__init__", reversed_order)
    path, _ = write_star_doc(tmp_path, 4, 2)
    code, out, err = run_cli(["search", str(path), "--d", "0,1"], capsys)
    assert code == 70
    assert out == ""
    assert err.count("\n") == 1
    assert "chain predecessor" in err


def with_large_documents(argv, tmp_path):
    """``argv`` with FOREST and MSTAR replaced by document paths: a
    2x3@1 forest, and 10x19@0 with its sequential labeling."""
    spec = ForestSpec.parse("2x3@1")
    forest = build_forest(spec, tuple(group.sources for group in spec.groups))
    mstar = build_homogeneous_forest(10, StarShape(n=19, t=0))
    documents = {
        "FOREST": GraphDocument.from_graph(forest),
        "MSTAR": GraphDocument.from_graph(mstar, Labeling.sequential(mstar)),
    }
    for name, doc in documents.items():
        (tmp_path / name).write_text(doc.to_json(), encoding="utf-8")
    return [str(tmp_path / arg) if arg in documents else arg for arg in argv]


@pytest.mark.parametrize(
    "argv",
    [
        # ~178 kB: the writes themselves hit the closed pipe
        ["construct", "--family", "mstar", "--m", "60", "--n", "40", "--t", "0",
         "--d", "0"],
        # a few hundred bytes, still buffered until the final flush
        ["construct", "--family", "star", "--n", "2", "--t", "1", "--d", "0,1"],
        # ~190 kB, written one labeling at a time
        ["search", "FOREST", "--d", "0,1", "--mode", "all"],
        # ~1 MB: 17,955 tied pairs among the 190 sink leaves under {1}
        ["verify", "MSTAR", "--d", "1"],
    ],
    ids=["large", "small", "search-all", "verify-large"],
)
def test_closed_stdout_pipe_exits_74_without_a_traceback(argv, tmp_path):
    argv = with_large_documents(argv, tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "antimagic", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 74
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "mstar", "--m", "60", "--n", "40", "--t", "0",
         "--d", "0"],
        ["construct", "--family", "star", "--n", "2", "--t", "1", "--d", "0,1"],
        ["search", "FOREST", "--d", "0,1", "--mode", "all"],
        ["verify", "MSTAR", "--d", "1"],
        ["scan", "--spec", "2x2", "--d", "0,1"],
        # argparse writes help itself and would drop the failed write
        ["--help"],
        ["search", "--help"],
        ["construct", "--help"],
    ],
    ids=["large", "small", "search-all", "verify-large", "scan", "help",
         "search-help", "construct-help"],
)
def test_full_stdout_exits_74_with_one_line(argv, tmp_path):
    argv = with_large_documents(argv, tmp_path)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "antimagic", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 74
    assert err.count("\n") == 1
    prog = "antimagic" if argv[0] == "--help" else f"antimagic {argv[0]}"
    assert err.startswith(f"{prog}: cannot write output: ")
    assert "Traceback" not in err


def test_results_escape_non_ascii_while_documents_keep_utf8(tmp_path, capsys):
    # stdout results are json.dumps(payload, indent=2), so ASCII with
    # \uXXXX escapes; a graph document keeps its names as raw UTF-8.
    names = {"c": "ц", "l1": "λ1", "l2": "\U0001f600"}
    g = build_star(StarShape(n=2, t=1))
    doc = GraphDocument(
        vertices=tuple(names[v] for v in g.vertices),
        arcs=tuple((names[tail], names[head]) for tail, head in g.arcs),
        labeling=Labeling({names["c"]: 3, names["l1"]: 1, names["l2"]: 2}),
    )
    text = doc.to_json()
    assert "ц" in text and "\U0001f600" in text and "\\u" not in text
    assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    path = tmp_path / "utf8.json"
    path.write_text(text, encoding="utf-8")

    code, out, _ = run_cli(["verify", str(path), "--d", "0,1", "--d", "2"], capsys)
    assert code == 1
    assert json.loads(out)["reports"][1]["collisions"] == [["ц", "\U0001f600"]]
    code, listing, _ = run_cli(["search", str(path), "--d", "0,1", "--mode", "all"], capsys)
    assert code == 0
    assert json.loads(listing)["labelings"]
    for result in (out, listing):
        assert result.isascii()
        assert "\\u0446" in result and "\\ud83d\\ude00" in result
        assert result == json.dumps(json.loads(result), indent=2) + "\n"


# -- scan -------------------------------------------------------------

def test_scan_prints_the_table(capsys):
    code, out, _ = run_cli(["scan", "--spec", "2x2", "--d", "0,1", "--d", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "orientation  {0,1}  {1}"
    assert len(out.splitlines()) == 7
    assert "2,2          yes    no" in out


def test_scan_all_negative_column(capsys):
    code, out, _ = run_cli(["scan", "--spec", "2x2", "--d", "1"], capsys)
    assert code == 0
    assert "yes" not in out


def test_scan_writes_report_files(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, out, _ = run_cli(
        ["scan", "--spec", "2x2", "--d", "0,1", "--d", "1", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert (out_dir / "scan.txt").read_text(encoding="utf-8") == out
    payload = json.loads((out_dir / "scan.json").read_text(encoding="utf-8"))
    assert payload["spec"] == "2x2"
    assert payload["distance_sets"] == ["{0,1}", "{1}"]
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        good = row["cells"]["{0,1}"]
        assert good["antimagic"] is True
        assert good["witness"] is not None
        witness_doc = GraphDocument.from_json(
            (out_dir / good["witness"]).read_text(encoding="utf-8")
        )
        assert verify_labeling(witness_doc.graph(), witness_doc.labeling, D01).antimagic
        bad = row["cells"]["{1}"]
        assert bad["antimagic"] is False
        assert bad["method"] == "necessary-condition"
        assert bad["witness"] is None


@pytest.mark.parametrize("blocked", ["scan.json", "witness-000-0.json"])
def test_scan_report_that_cannot_be_written_is_a_data_error(
    tmp_path, capsys, blocked
):
    argv = ["scan", "--spec", "2x2", "--d", "0,1"]
    _, table, _ = run_cli(argv, capsys)
    out_dir = tmp_path / "report"
    (out_dir / blocked).mkdir(parents=True)
    code, out, err = run_cli(argv + ["--out", str(out_dir)], capsys)
    assert code == 65
    assert out == table
    assert err.count("\n") == 1
    assert "cannot write" in err


# SHA-256 over the reference scan report (243 witness files, one per
# distinct witness of a row, scan.json and scan.txt), each file as
# name, NUL, bytes, NUL, in name order.
SCAN_REPORT_DIGEST = "c77ffda92a2dc279f28c809221151765b2484bb17aadbe4bc0d6f0c6197fd22a"


def test_reference_scan_report_is_byte_stable(tmp_path, capsys, monkeypatch):
    import antimagic.graph as graph

    builds = []
    real_init = graph.OrientedGraph.__init__

    def counted(self, *args, **kwargs):
        builds.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(graph.OrientedGraph, "__init__", counted)
    out_dir = tmp_path / "report"
    argv = ["scan", "--spec", "2x3,2x4", "--d", "0,1", "--d", "0,2", "--d", "0,1,2"]
    code, _, _ = run_cli(argv + ["--out", str(out_dir)], capsys)
    assert code == 0
    digest = hashlib.sha256()
    files = sorted(out_dir.iterdir())
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert len(files) == 245
    assert digest.hexdigest() == SCAN_REPORT_DIGEST
    # One forest per row, in the scan; the report writer builds none.
    assert len(builds) == 150


def test_scan_report_writes_each_distinct_witness_once(tmp_path, capsys):
    out_dir = tmp_path / "report"
    argv = ["scan", "--spec", "2x3,2x4", "--d", "0,1", "--d", "0,2", "--d", "0,1,2"]
    code, _, _ = run_cli(argv + ["--out", str(out_dir)], capsys)
    assert code == 0
    payload = json.loads((out_dir / "scan.json").read_text(encoding="utf-8"))
    written = {"scan.json", "scan.txt"}
    reused = 0
    for r, row in enumerate(payload["rows"]):
        served = {}
        for c, (text, cell) in enumerate(row["cells"].items()):
            if cell["witness"] is None:
                continue
            served.setdefault(cell["witness"], []).append((c, text, cell))
        for name, cells in served.items():
            # Named after the first column it serves.
            assert name == f"witness-{r:03d}-{cells[0][0]}.json"
            doc = GraphDocument.from_json((out_dir / name).read_text(encoding="utf-8"))
            assert doc.metadata["distance_sets"] == [text for _, text, _ in cells]
            assert "distance_set" not in doc.metadata
            g = doc.graph()
            for _, text, cell in cells:
                D = DistanceSet.parse(text.strip("{}"))
                assert verify_labeling(g, doc.labeling, D).antimagic
                assert cell["method"] == doc.metadata["method"]
            # One cell searched for a found witness; the cells reusing it
            # searched nothing.
            searched = [cell["nodes_explored"] > 0 for _, _, cell in cells]
            assert sum(searched) == (doc.metadata["method"] == "search")
            reused += len(cells) - 1
        written.update(served)
    assert reused > 0
    assert {path.name for path in out_dir.iterdir()} == written


def test_reference_scan_report_holds_no_list_of_rows(tmp_path, monkeypatch):
    # The rows and their witness files are written as they are produced:
    # ~505 KiB peak, against ~690 KiB when the rows were listed first.
    argv = ["scan", "--spec", "2x3,2x4", "--d", "0,1", "--d", "0,2", "--d", "0,1,2"]
    code, peak = traced_peak(argv + ["--out", str(tmp_path / "report")], monkeypatch)
    assert code == 0
    assert peak <= 600 * 2**10


def test_scan_rejects_oriented_specs(capsys):
    code, _, err = run_cli(["scan", "--spec", "2x2@1", "--d", "0,1"], capsys)
    assert code == 64
    assert "@t" in err


def test_scan_rejects_single_star(capsys):
    code, _, err = run_cli(["scan", "--spec", "1x3", "--d", "0,1"], capsys)
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--spec", "2x2@", "--d", "0,1"],
        ["construct", "--family", "forest-pi", "--spec", "2x2@", "--d", "0,1"],
        ["construct", "--family", "forest", "--spec", "2x2@", "--d", "0,1"],
        # An Arabic-Indic 2: str.isdecimal() alone takes it.
        ["scan", "--spec", "\u0662x3,2x4", "--d", "0,1"],
    ],
    ids=["scan", "forest-pi", "forest", "scan-arabic-indic"],
)
def test_malformed_spec_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert "cannot parse forest term" in err


@pytest.mark.parametrize(
    "family, spec, message",
    [
        ("forest-pi", "2x3@1", "pi forests fix their orientation; drop @t"),
        ("forest", "2x3", "group orientation is unspecified "
         "(family forest needs @t on every term, e.g. 2x3@1)"),
        ("forest-pi", "1x3", "a star forest needs at least two stars"),
        ("forest", "1x3@1", "a star forest needs at least two stars"),
        ("forest", "2x3@4", "t must lie in 0..3, got 4"),
    ],
    ids=["pi-with-t", "forest-without-t", "pi-one-star", "forest-one-star",
         "t-past-n"],
)
def test_spec_orientation_errors_are_usage_errors(family, spec, message, capsys):
    code, out, err = run_cli(
        ["construct", "--family", family, "--spec", spec, "--d", "0,1"], capsys
    )
    assert (code, out) == (64, "")
    assert err == f"antimagic construct: error: {message}\n"


def test_scan_budget_abort_exits_three(capsys):
    code, out, _ = run_cli(
        ["scan", "--spec", "2x2", "--d", "0,1", "--budget", "1"], capsys
    )
    assert code == 3
    assert "abort" in out


# -- plumbing ---------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["search", "GRAPH", "--d", "0,1", "--budget", "-5"],
        ["construct", "--family", "mstar", "--m", "2", "--n", "3", "--t", "1",
         "--d", "0,1", "--budget", "-3"],
        ["scan", "--spec", "2x2", "--d", "0,1", "--budget", "-1"],
        # --n, --t and --m share the budget's rule: int() would read
        # 0_3 as 3 and +2 as 2.
        ["search", "GRAPH", "--d", "0,1", "--budget", "1_0"],
        ["construct", "--family", "star", "--n", "0_3", "--t", "1", "--d", "0,1"],
        ["construct", "--family", "star", "--n", "3", "--t", "-1", "--d", "0,1"],
        ["construct", "--family", "mstar", "--m", "+2", "--n", "3", "--t", "1",
         "--d", "0,1"],
        # An Arabic-Indic 3, which int() reads as 3.
        ["construct", "--family", "star", "--n", "\u0663", "--t", "1", "--d", "0,1"],
    ],
    ids=["search", "construct", "scan", "search-underscore", "construct-n",
         "construct-t", "construct-m", "construct-n-arabic-indic"],
)
def test_negative_budget_is_usage_error(argv, tmp_path, capsys):
    path, _ = write_star_doc(tmp_path, 2, 1)
    argv = [str(path) if arg == "GRAPH" else arg for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert "non-negative" in err


SEARCH_COUNT = ["search", "GRAPH", "--d", "0,1", "--mode", "count"]


@pytest.mark.parametrize(
    "argv, cap",
    [
        (SEARCH_COUNT, "abc"),
        (["construct", "--family", "forest", "--spec", "2x2@1", "--d", "0,1"], "abc"),
        (["scan", "--spec", "2x2", "--d", "0,1"], "abc"),
        (["construct", "--family", "star", "--n", "3", "--t", "1", "--d", "0,1"],
         "abc"),
        (["construct", "--family", "mstar", "--m", "2", "--n", "3", "--t", "2",
          "--d", "0,1"], "abc"),
        (["construct", "--family", "forest-pi", "--spec", "2x3", "--d", "0,1"],
         "abc"),
        # int() takes all of these; a cap is plain digits.
        (SEARCH_COUNT, "-3"),
        (SEARCH_COUNT, "1_0"),
        (SEARCH_COUNT, "+20"),
        (SEARCH_COUNT, " 20"),
        (SEARCH_COUNT, "\u0661\u0660"),
    ],
    ids=["search", "construct", "scan", "construct-star", "construct-mstar",
         "construct-forest-pi", "search-minus", "search-underscore",
         "search-plus", "search-blank", "search-arabic-indic"],
)
def test_malformed_vertex_cap_is_usage_error(argv, cap, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ANTIMAGIC_NODE_CAP", cap)
    path, _ = write_star_doc(tmp_path, 2, 1)
    argv = [str(path) if arg == "GRAPH" else arg for arg in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 64
    assert "ANTIMAGIC_NODE_CAP must be an integer" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 64


def test_missing_distance_flag_is_usage_error(capsys):
    code, _, _ = run_cli(
        ["construct", "--family", "star", "--n", "2", "--t", "1"], capsys
    )
    assert code == 64


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "antimagic",
            "construct", "--family", "star", "--n", "2", "--t", "1", "--d", "0,1",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    doc = GraphDocument.from_json(proc.stdout)
    assert doc.metadata["method"] == "construction"
