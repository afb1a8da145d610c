"""Graph documents: lossless JSON round-trip and annotated DOT text.

The JSON form keeps a fixed key order (vertices, arcs, labeling,
metadata) so serialized documents are byte-stable.  Every JSON text
the program writes comes from :func:`json_text`: the bytes of
``json.dumps(value, indent=2)`` without its pure-Python encoder.  DOT
output writes one digraph for the whole forest with every vertex's
label and one bracketed weight per requested distance set.
"""

from __future__ import annotations

import json
from itertools import cycle
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import NamedTuple

from .graph import DistanceSet, Labeling, OrientedGraph

_DOT_COLORS = ("red", "blue", "green", "orange", "purple", "brown")


class GraphDocument(NamedTuple):
    """A graph plus an optional labeling and free-form metadata."""

    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    labeling: Labeling | None = None
    metadata: dict | None = None

    @classmethod
    def from_graph(
        cls,
        g: OrientedGraph,
        labeling: Labeling | None = None,
        metadata: dict | None = None,
    ) -> "GraphDocument":
        return cls(
            vertices=tuple(g.vertices),
            arcs=tuple(g.arcs),
            labeling=labeling,
            metadata=metadata,
        )

    def graph(self) -> OrientedGraph:
        """Materialize the oriented graph (validates the structure)."""
        return OrientedGraph(self.vertices, self.arcs)

    def to_json(self) -> str:
        payload = {
            "vertices": self.vertices,
            "arcs": self.arcs,
            "labeling": dict(self.labeling) if self.labeling is not None else None,
            "metadata": self.metadata,
        }
        return json_text(payload, ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GraphDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("graph document must be a JSON object")
        vertices = payload.get("vertices")
        arcs = payload.get("arcs")
        if not isinstance(vertices, list) or not all(
            isinstance(v, str) for v in vertices
        ):
            raise ValueError("'vertices' must be a list of strings")
        if not isinstance(arcs, list) or not all(
            isinstance(arc, list)
            and len(arc) == 2
            and all(isinstance(end, str) for end in arc)
            for arc in arcs
        ):
            raise ValueError("'arcs' must be a list of [tail, head] pairs")
        labeling = payload.get("labeling")
        if labeling is not None:
            # type() rather than isinstance(): JSON true is a bool, not label 1.
            if not isinstance(labeling, dict) or not all(
                isinstance(v, str) and type(label) is int
                for v, label in labeling.items()
            ):
                raise ValueError("'labeling' must map vertex names to integers")
            labeling = Labeling(labeling)
        metadata = payload.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise ValueError("'metadata' must be a JSON object")
        return cls(
            vertices=tuple(vertices),
            arcs=tuple((tail, head) for tail, head in arcs),
            labeling=labeling,
            metadata=metadata,
        )

    def to_dot(
        self, distance_sets=(), name: str = "g", g: OrientedGraph | None = None
    ) -> str:
        """DOT text with ``label="<label> [w]..."`` vertex annotations.

        One bracketed weight is appended per distance set, in the given
        order; the header comment records which bracket belongs to
        which set (and its conventional color).  Weights need the
        document's labeling; without one, plain vertices are emitted.
        ``g`` is the document's graph when the caller already holds it;
        otherwise it is built here.
        """
        sets = [DistanceSet.of(D) for D in distance_sets]
        if g is None:
            g = self.graph()
        lines = [f"digraph {_quote(name)} {{"]
        if sets and self.labeling is not None:
            legend = ", ".join(
                f"{D}={color}"
                for D, color in zip(sets, cycle(_DOT_COLORS))
            )
            lines.append(f"  // weight brackets per distance set: {legend}")
        if self.labeling is None:
            lines += [f"  {_quote(v)};" for v in self.vertices]
        else:
            labels = [self.labeling[v] for v in g.vertices]
            columns = [g.neighborhoods(D) for D in sets]
            for v, label, *nbs in zip(g.vertices, labels, *columns):
                text = str(label) + "".join(
                    f" [{sum(map(labels.__getitem__, nb))}]" for nb in nbs
                )
                lines.append(f"  {_quote(v)} [label={_quote(text)}];")
        for tail, head in self.arcs:
            lines.append(f"  {_quote(tail)} -> {_quote(head)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def json_text(value, ascii: bool = True, level: int = 0) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=ascii)``, built directly.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder,
    which keeps every token until one final join.  Here a string goes
    through the same C escaper, an int through ``int.__repr__``, None
    and the bools as their literals, and a non-empty list, tuple or
    str-keyed dict is one join per level; any other value is left to
    ``json.dumps``, so no byte differs.
    ``level`` is the indent depth the value starts at.
    """
    escape = encode_basestring_ascii if ascii else encode_basestring
    if isinstance(value, str):
        return escape(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = "\n" + "  " * (level + 1)
    # Strings in arrays and ints in objects, the common leaves here, skip
    # the call; type() leaves subclasses and bools to the call.
    if isinstance(value, (list, tuple)) and value:
        items = [
            escape(item) if type(item) is str else json_text(item, ascii, level + 1)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = [
            escape(key) + ": "
            + (int.__repr__(item) if type(item) is int else json_text(item, ascii, level + 1))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    return json.dumps(value, indent=2, ensure_ascii=ascii).replace("\n", inner[:-2])


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
