"""The exit-code contract as a property, over generated command lines.

``cli.main`` runs in-process on argv drawn from the four subcommands,
with valid, malformed and edge values for every flag, on small graph
documents that are valid or broken in the ways users break them, and
under drawn ``ANTIMAGIC_NODE_CAP`` values.  Whatever comes in, the exit
code stays in the contract, no traceback escapes, exit 1 means only
"verified, not antimagic", and a promised JSON result parses.
"""

import io
import json
import shutil
import sys

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from antimagic.cli import main

CONTRACT = {0, 1, 2, 3, 64, 65, 70, 74}

# Sets in the star domain, sets past it (edge values), malformed text.
DISTANCE_SETS = ("0", "1", "2", "0,1", "0,2", "1,2", "0,1,2", " 2, 0", "0,0", "3", "0,5")
MALFORMED_SETS = ("", "x", "-1", "+1", "1_0", "0,,1", "1.5", "١,٢")
# int() takes most of these; a number read from outside is plain digits.
MALFORMED_NUMBERS = ("", "-1", "+2", "1_0", " 5", "x", "2.0", "٣")
FOREST_SPECS = (
    "2x2@1", "1x1@0,1x2@1", "2x2@0,1x3@3", "2x1@0", "1x2@1,1x3@1",
    "2x3", "1x2,1x3", "2x1", "3x1", "1x3",
)
# Scan takes specs without @t and of two stars or more.
SCAN_SPECS = ("2x1", "1x1,1x2", "2x2", "1x2,1x3", "3x1", "2x1,1x3", "1x3", "2x2@1")
MALFORMED_SPECS = ("2x", "x2", "2x2@", "0x2", "2x0", "1x2@3", "2x2@1@1", "", "2x2,,1x1")


def mostly(valid, malformed):
    """A value drawn from the strategy ``valid`` about 19 times in 20,
    else one of the ``malformed`` texts."""
    return st.sampled_from((False,) * 19 + (True,)).flatmap(
        lambda bad: st.sampled_from(malformed) if bad else valid
    )


def flag(name, values):
    """``[name, value]`` four times in five, else ``[]``."""
    return st.tuples(st.integers(0, 4), values).map(
        lambda drawn: [] if drawn[0] == 4 else [name, drawn[1]]
    )


def numbers(largest):
    return mostly(st.integers(0, largest).map(str), MALFORMED_NUMBERS)


# No --d at all is a usage error, so it comes up rarely.
distance_flags = st.sampled_from((1,) * 19 + (0,)).flatmap(
    lambda least: st.lists(
        mostly(st.sampled_from(DISTANCE_SETS), MALFORMED_SETS),
        min_size=least,
        max_size=3,
    )
).map(lambda texts: [part for text in texts for part in ("--d", text)])
budgets = flag("--budget", numbers(2000))
# A drawn document on disk or on stdin, or a path that is not there.
graph_args = st.sampled_from((["GRAPH"], ["GRAPH"], ["-"], ["missing.json"]))


@st.composite
def documents(draw):
    """JSON text of a graph document on at most 8 vertices: valid, or
    truncated, with duplicate vertices, dangling arcs, non-string names,
    or bool and float labels."""
    n = draw(st.integers(0, 8))
    vertices = [f"v{i}" for i in range(n)]
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(("none", "none", "forward", "backward")))
            if kind == "forward":
                arcs.append([vertices[i], vertices[j]])
            elif kind == "backward":
                arcs.append([vertices[j], vertices[i]])
    labeling = dict(zip(vertices, draw(st.permutations(range(1, n + 1)))))
    fault = draw(st.sampled_from((
        None, None, None, None, None, "no labeling", "truncated",
        "duplicate vertex", "dangling arc", "non-string vertex",
        "non-string endpoint", "bool label", "float label", "not an object",
    )))
    if fault == "no labeling":
        labeling = None
    elif fault == "duplicate vertex" and vertices:
        vertices.append(vertices[0])
    elif fault == "dangling arc":
        arcs.append([vertices[0] if vertices else "v0", "ghost"])
    elif fault == "non-string vertex":
        vertices.append(n)
    elif fault == "non-string endpoint" and vertices:
        arcs.append([vertices[0], 7])
    elif fault == "bool label" and vertices:
        labeling[vertices[0]] = True
    elif fault == "float label" and vertices:
        labeling[vertices[0]] = float(labeling[vertices[0]])
    payload = {"vertices": vertices, "arcs": arcs, "labeling": labeling, "metadata": None}
    text = json.dumps([vertices] if fault == "not an object" else payload)
    if fault == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def labeling_flags(draw):
    """``--labeling`` as an inline JSON object, valid or not, or a path;
    absent two times in three."""
    labels = draw(st.lists(
        st.one_of(st.integers(0, 9), st.booleans(), st.floats(0, 9)), max_size=8,
    ))
    text = json.dumps({f"v{i}": label for i, label in enumerate(labels)})
    value = draw(mostly(st.just(text), (text[:-1], "{", "[1, 2]", "missing.json")))
    return draw(st.sampled_from(([], [], ["--labeling", value])))


construct_argv = st.tuples(
    st.just(["construct"]),
    flag("--family", mostly(
        st.sampled_from(("star", "mstar", "forest", "forest-pi")), ("tree", "")
    )),
    flag("--n", numbers(4)),
    flag("--t", numbers(4)),
    flag("--m", numbers(3)),
    flag("--spec", mostly(st.sampled_from(FOREST_SPECS), MALFORMED_SPECS)),
    flag("--format", mostly(st.sampled_from(("json", "dot")), ("xml",))),
    budgets,
    distance_flags,
)
verify_argv = st.tuples(st.just(["verify"]), graph_args, labeling_flags(), distance_flags)
search_argv = st.tuples(
    st.just(["search"]),
    graph_args,
    flag("--mode", mostly(st.sampled_from(("first", "all", "count")), ("every",))),
    budgets,
    st.sampled_from(([], ["--no-prune"])),
    st.sampled_from(([], ["--no-symmetry"])),
    distance_flags,
)
scan_argv = st.tuples(
    st.just(["scan"]),
    flag("--spec", mostly(st.sampled_from(SCAN_SPECS), MALFORMED_SPECS)),
    budgets,
    # A directory below a regular file cannot be made, and a report file
    # cannot be written over a directory.
    st.sampled_from(
        ([], ["--out", "OUT"], ["--out", "GRAPH/out"], ["--out", "BLOCKED"])
    ),
    distance_flags,
)
command_lines = st.one_of(construct_argv, verify_argv, search_argv, scan_argv).map(
    lambda parts: [arg for part in parts for arg in part]
)
caps = st.one_of(
    st.none(), st.none(), st.integers(0, 8).map(str), st.sampled_from(MALFORMED_NUMBERS)
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    argv=command_lines,
    document=documents(),
    cap=caps,
    unknown_flag=st.sampled_from((False,) * 9 + (True,)),
)
def test_every_command_line_keeps_the_exit_code_contract(
    tmp_path, capsys, monkeypatch, argv, document, cap, unknown_flag
):
    graph = tmp_path / "graph.json"
    # A fresh file each time: truncating one in place can stall the disk.
    graph.unlink(missing_ok=True)
    graph.write_text(document, encoding="utf-8")
    out_dir = tmp_path / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    blocked = tmp_path / "blocked"
    (blocked / "scan.json").mkdir(parents=True, exist_ok=True)
    argv = [
        arg.replace("GRAPH", str(graph)).replace("OUT", str(out_dir))
        .replace("BLOCKED", str(blocked))
        for arg in argv
    ]
    if unknown_flag:
        argv.append("--frobnicate")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    if cap is None:
        monkeypatch.delenv("ANTIMAGIC_NODE_CAP", raising=False)
    else:
        monkeypatch.setenv("ANTIMAGIC_NODE_CAP", cap)

    code = main(argv)
    out, err = capsys.readouterr()

    command = argv[0]
    event(f"{command} exit {code}")
    assert code in CONTRACT, (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert command == "verify"
    if code == 0:
        assert err == ""
    json_result = {
        "verify": code in (0, 1),
        "search": code in (0, 2, 3),
        "construct": code in (2, 3) or (code == 0 and "dot" not in argv),
        "scan": False,
    }[command]
    if json_result:
        json.loads(out)
    if command == "scan" and str(out_dir) in argv and code in (0, 3):
        json.loads((out_dir / "scan.json").read_text(encoding="utf-8"))
