import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracle as oracle
from antimagic import (
    DistanceSet,
    GraphError,
    Labeling,
    StarShape,
    build_forest,
    build_star,
)
from antimagic.io import GraphDocument, json_text

from forest_strategies import STAR_SETS, forest_specs, small_graphs


def star_document():
    g = build_star(StarShape(n=2, t=1))
    return GraphDocument.from_graph(
        g,
        labeling=Labeling({"c": 3, "l1": 1, "l2": 2}),
        metadata={"family": "star"},
    )


def test_json_round_trip_frozen():
    doc = star_document()
    text = doc.to_json()
    assert GraphDocument.from_json(text) == doc
    payload = json.loads(text)
    assert payload == {
        "vertices": ["c", "l1", "l2"],
        "arcs": [["c", "l2"], ["l1", "c"]],
        "labeling": {"c": 3, "l1": 1, "l2": 2},
        "metadata": {"family": "star"},
    }


def test_json_key_order_and_shape():
    text = star_document().to_json()
    assert list(json.loads(text)) == ["vertices", "arcs", "labeling", "metadata"]
    assert text.endswith("\n")
    assert text.startswith("{\n")


def test_json_omits_nothing_when_fields_absent():
    g = build_star(StarShape(n=1, t=0))
    doc = GraphDocument.from_graph(g)
    payload = json.loads(doc.to_json())
    assert payload["labeling"] is None
    assert payload["metadata"] is None
    assert GraphDocument.from_json(doc.to_json()) == doc


@given(small_graphs())
def test_json_round_trip_property(g):
    doc = GraphDocument.from_graph(g, labeling=Labeling.sequential(g))
    again = GraphDocument.from_json(doc.to_json())
    assert again == doc
    h = again.graph()
    assert h.vertices == g.vertices
    assert h.arcs == g.arcs


# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII, a non-BMP character and a lone surrogate.
_HARD_STRINGS = st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "é", "ц", "\U0001f600", "\ud800", ""]
)
_JSON_SCALARS = st.one_of(
    st.text(max_size=4),
    _HARD_STRINGS,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.floats(),  # nan and the infinities included
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), _HARD_STRINGS), inner, max_size=3),
        # keys json.dumps converts: ints and bools, alone or among strings
        st.dictionaries(
            st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_with_indent(value):
    for ascii in (True, False):
        assert json_text(value, ascii) == json.dumps(value, indent=2, ensure_ascii=ascii)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"arcs": []}',
        '{"vertices": "abc", "arcs": []}',
        '{"vertices": ["a", 1], "arcs": []}',
        '{"vertices": ["a"], "arcs": [["a"]]}',
        '{"vertices": ["a"], "arcs": [3]}',
        '{"vertices": ["a"], "arcs": [], "labeling": [1]}',
        '{"vertices": ["a"], "arcs": [], "labeling": {"a": "x"}}',
        '{"vertices": ["a"], "arcs": [], "labeling": {"a": true}}',
        '{"vertices": ["a"], "arcs": [], "metadata": 7}',
    ],
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        GraphDocument.from_json(text)


def test_from_json_rejects_invalid_json():
    with pytest.raises(ValueError):
        GraphDocument.from_json("{nope")


def test_graph_materialization_validates():
    doc = GraphDocument(vertices=("a",), arcs=(("a", "b"),))
    with pytest.raises(GraphError):
        doc.graph()


def test_dot_without_labeling_lists_bare_vertices():
    g = build_star(StarShape(n=2, t=1))
    dot = GraphDocument.from_graph(g).to_dot()
    lines = dot.splitlines()
    assert lines[0] == 'digraph "g" {'
    assert lines[-1] == "}"
    assert '  "c";' in lines
    assert '  "l1" -> "c";' in lines
    assert '  "c" -> "l2";' in lines
    assert "label=" not in dot
    assert "//" not in dot


def test_dot_with_labeling_appends_one_bracket_per_set():
    doc = star_document()
    dot = doc.to_dot(distance_sets=[DistanceSet.of([0, 1]), DistanceSet.of([1])])
    lines = dot.splitlines()
    assert lines[1] == "  // weight brackets per distance set: {0,1}=red, {1}=blue"
    assert '  "c" [label="3 [5] [2]"];' in lines
    assert '  "l1" [label="1 [4] [3]"];' in lines
    assert '  "l2" [label="2 [2] [0]"];' in lines


def test_dot_legend_colors_wrap_after_six_sets():
    sets = [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    legend = star_document().to_dot(distance_sets=sets).splitlines()[1]
    assert legend.endswith("{1,2}=brown, {0,1,2}=red")


@settings(max_examples=40)
@given(forest_specs(), st.lists(st.sampled_from(STAR_SETS), min_size=1, max_size=3),
       st.data())
def test_dot_brackets_are_the_oracle_weights(spec, sets, data):
    g = build_forest(spec)
    labels = dict(zip(g.vertices, data.draw(st.permutations(range(1, len(g) + 1)))))
    dot = GraphDocument.from_graph(g, Labeling(labels)).to_dot(sets)
    got = dict(re.findall(r'^  "([^"]+)" \[label="(.*)"\];$', dot, re.M))
    assert list(got) == list(g.vertices)
    want = [oracle.weights(g.vertices, g.arcs, labels, D) for D in sets]
    for v in g.vertices:
        label, *brackets = got[v].split(" ")
        assert int(label) == labels[v]
        assert brackets == [f"[{weights[v]}]" for weights in want]


def test_dot_legend_needs_both_sets_and_labeling():
    doc = star_document()
    assert "//" not in doc.to_dot()
    g = build_star(StarShape(n=2, t=1))
    bare = GraphDocument.from_graph(g)
    assert "//" not in bare.to_dot(distance_sets=[DistanceSet.of([1])])


def test_dot_quotes_hostile_identifiers():
    doc = GraphDocument(
        vertices=('he"llo', "a\\b"),
        arcs=(('he"llo', "a\\b"),),
        labeling=Labeling({'he"llo': 1, "a\\b": 2}),
    )
    dot = doc.to_dot(name='star "x"')
    assert dot.splitlines()[0] == 'digraph "star \\"x\\"" {'
    assert '"he\\"llo"' in dot
    assert '"a\\\\b"' in dot
