"""Independent answer checks for benchmark outputs.

Nothing here imports the program under test.  Weights are recomputed
from a document's own vertex and arc lists, graphs are compared by the
shape of their star components, and DOT text is parsed with a regular
expression, so a defect in the program's verifier, builders or writers
cannot hide a wrong answer from the benchmark.
"""

from __future__ import annotations

import json
import re

#: The documented exit-code contract of the command line program.
EXIT_OK, EXIT_NOT_ANTIMAGIC, EXIT_NONE, EXIT_BUDGET = 0, 1, 2, 3
EXIT_USAGE, EXIT_DATA = 64, 65
CONTRACT = {EXIT_OK, EXIT_NOT_ANTIMAGIC, EXIT_NONE, EXIT_BUDGET, EXIT_USAGE, EXIT_DATA}


class CheckFailure(Exception):
    """An output that disagrees with its known answer or the contract."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def parse_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"malformed JSON output: {exc}") from None
    require(isinstance(payload, dict), "JSON output is not an object")
    return payload


def _out_lists(vertices, arcs) -> dict:
    """Out-neighbour lists, after checking the graph is an oriented forest.

    On a forest every vertex at distance 2 from u is reached by exactly
    one walk of two arcs, which the weight sums below rely on.
    """
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = {v: [] for v in vertices}
    for tail, head in arcs:
        require(tail in out and head in out, "arc uses an undeclared vertex")
        a, b = find(tail), find(head)
        require(a != b, "graph is not a forest")
        parent[a] = b
        out[tail].append(head)
    return out


def weights(vertices, arcs, labeling: dict, D) -> dict:
    """Sum of labels over each vertex's D-neighbourhood, for D within {0,1,2}."""
    require(set(D) <= {0, 1, 2}, "distance set outside {0,1,2}")
    out = _out_lists(vertices, arcs)
    at = {0: {u: labeling[u] for u in vertices}}
    at[1] = {u: sum(labeling[w] for w in out[u]) for u in vertices}
    at[2] = {u: sum(at[1][w] for w in out[u]) for u in vertices}
    return {u: sum(at[d][u] for d in D) for u in vertices}


def diameter(vertices, arcs) -> int:
    """Largest finite directed distance of an oriented forest."""
    out = _out_lists(vertices, arcs)
    if any(out[w] for u in vertices for w in out[u]):
        return 2
    return 1 if arcs else 0


def check_bijection(vertices, labeling) -> None:
    require(isinstance(labeling, dict), "labeling is not an object")
    require(set(labeling) == set(vertices), "labeling does not cover the vertices")
    labels = list(labeling.values())
    require(
        all(type(x) is int for x in labels)
        and sorted(labels) == list(range(1, len(vertices) + 1)),
        "labeling is not a bijection onto 1..|V|",
    )


def antimagic(vertices, arcs, labeling, D) -> bool:
    w = weights(vertices, arcs, labeling, D)
    return len(set(w.values())) == len(w)


def check_witness(vertices, arcs, labeling, sets) -> None:
    """A witness must be a bijection with distinct weights under every set."""
    check_bijection(vertices, labeling)
    for D in sets:
        require(
            antimagic(vertices, arcs, labeling, D),
            f"witness has repeated weights under {fmt_set(D)}",
        )


def star_shapes(vertices, arcs) -> list:
    """Sorted (leaves, source leaves) of every star component.

    A single-arc star is reported as (1, 0): its two orientations are
    isomorphic.  Raises when a component is not an oriented star.
    """
    adjacent = {v: set() for v in vertices}
    into = {v: 0 for v in vertices}
    for tail, head in arcs:
        require(tail in adjacent and head in adjacent, "arc uses an undeclared vertex")
        adjacent[tail].add(head)
        adjacent[head].add(tail)
        into[head] += 1
    require(len(arcs) == len(set(map(tuple, arcs))), "duplicate arc")
    shapes = []
    seen = set()
    for root in vertices:
        if root in seen:
            continue
        component = [root]
        seen.add(root)
        for u in component:
            for w in adjacent[u]:
                if w not in seen:
                    seen.add(w)
                    component.append(w)
        size = len(component)
        require(size >= 2, "isolated vertex")
        edges = sum(len(adjacent[v]) for v in component) // 2
        require(edges == size - 1, "component is not a tree")
        if size == 2:
            shapes.append((1, 0))
            continue
        centers = [v for v in component if len(adjacent[v]) == size - 1]
        require(len(centers) == 1, "component is not a star")
        shapes.append((size - 1, into[centers[0]]))
    return sorted(shapes)


def canonical_shapes(shapes) -> list:
    return sorted((n, 0) if n == 1 else (n, t) for n, t in shapes)


def check_document(doc: dict, shapes, sets) -> None:
    """A constructed document: the requested forest with a valid witness."""
    vertices, arcs = document_graph(doc)
    require(
        star_shapes(vertices, arcs) == canonical_shapes(shapes),
        "document is not the requested forest",
    )
    check_witness(vertices, arcs, doc.get("labeling"), sets)


def document_graph(doc: dict):
    vertices = doc.get("vertices")
    arcs = doc.get("arcs")
    require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        "document vertices are not a list of names",
    )
    require(len(set(vertices)) == len(vertices), "duplicate vertex names")
    require(
        isinstance(arcs, list)
        and all(isinstance(a, list) and len(a) == 2 for a in arcs),
        "document arcs are not [tail, head] pairs",
    )
    return vertices, [tuple(a) for a in arcs]


_DOT_VERTEX = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*\[label="([^"]*)"\];$')
_DOT_ARC = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)";$')


def parse_dot(text: str, sets) -> dict:
    """Read back a labelled DOT drawing and check its weight brackets.

    Returns the equivalent JSON document, so the drawing can be handed
    to ``verify`` like any other document.
    """
    lines = text.strip().splitlines()
    require(
        bool(lines) and lines[0].startswith("digraph") and lines[-1] == "}",
        "malformed DOT output",
    )
    vertices, arcs, labeling, brackets = [], [], {}, {}
    for line in lines[1:-1]:
        if line.strip().startswith("//"):
            continue
        match = _DOT_VERTEX.match(line)
        if match:
            name, text_label = match.groups()
            numbers = re.findall(r"-?\d+", text_label)
            require(len(numbers) == 1 + len(sets), "DOT label has wrong bracket count")
            vertices.append(name)
            labeling[name] = int(numbers[0])
            brackets[name] = [int(x) for x in numbers[1:]]
            continue
        match = _DOT_ARC.match(line)
        require(match is not None, f"unreadable DOT line {line!r}")
        arcs.append(match.groups())
    check_bijection(vertices, labeling)
    for i, D in enumerate(sets):
        w = weights(vertices, arcs, labeling, D)
        require(
            all(brackets[v][i] == w[v] for v in vertices),
            f"DOT weight brackets disagree under {fmt_set(D)}",
        )
    return {
        "vertices": vertices,
        "arcs": [list(a) for a in arcs],
        "labeling": labeling,
        "metadata": None,
    }


def fmt_set(D) -> str:
    return ",".join(str(d) for d in sorted(D))
