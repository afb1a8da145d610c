"""Traced CLI child: ``python3 bench/tracer.py SPANS_FILE ARG...``.

Runs ``antimagic.cli.main(ARG...)`` in this process after rebinding the
public functions the upper layers call to wrappers that record one
span per call: name, start, end, parent span and a few counts.  Spans
stay in memory and are written as JSON to SPANS_FILE when the request
ends.  The program itself is not edited; only its module-level names
are rebound here, so spans sit at the boundaries between the layers
``cli``, ``scan``, ``constructions``, ``stars``, ``search``, ``graph`` and
``io``.

Every search call is followed by a probe: the same call with a node
budget of 0, which builds the search engine and stops at the first
node.  Its span (``search.probe``) times engine set-up from outside;
the search's DFS time is the real call minus its probe.  The probe runs
second so that one-off costs of a process's first search stay with
the real call.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, attrs]
        self.stack = []

    def wrap(self, name, fn, attrs=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0, {}]
            self.spans.append(record)
            self.stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                record[5] = attrs(result, args)
            return result

        return traced

    def wrap_search(self, fn):
        signature = inspect.signature(fn)
        probe = self.wrap("search.probe", fn)
        call = self.wrap("search.call", fn, _search_attrs)

        @wraps(fn)
        def traced(*args, **kwargs):
            result = call(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.arguments["budget"] = 0
            probe(*bound.args, **bound.kwargs)
            return result

        return traced


def _search_attrs(result, args):
    return {
        "nodes": result.nodes_explored,
        "status": result.status.value,
        "symmetry_log2": math.log2(result.symmetry_order),
        "vertices": len(args[0]),
    }


def _has_labeling(result, args):
    labeling = getattr(result, "labeling", getattr(result, "witness", result))
    return {"labeling": labeling is not None}


def install(tracer: Tracer) -> None:
    from antimagic import cli, constructions, graph, io, scan, search, stars

    for module in (cli, constructions, scan):
        module.search_labeling = tracer.wrap_search(search.search_labeling)
    cli.search_joint_labeling = tracer.wrap_search(search.search_joint_labeling)

    for module, names in (
        (cli, ("construct_homogeneous_forest_labeling", "construct_pi_forest_labeling",
               "closed_form_forest_labeling", "characterize_star")),
        (scan, ("closed_form_forest_labeling",)),
    ):
        for name in names:
            setattr(module, name, tracer.wrap(
                "constructions", getattr(constructions, name), _has_labeling))

    builders = ("build_forest", "build_forest_pi", "build_homogeneous_forest", "build_star")
    for module in (cli, constructions, scan):
        for name in builders:
            if hasattr(module, name):
                setattr(module, name, tracer.wrap("stars.build", getattr(stars, name)))
    scan.enumerate_forest_orientations = tracer.wrap(
        "stars.enumerate", stars.enumerate_forest_orientations,
        lambda result, args: {"orientations": len(result)})

    graph.OrientedGraph.__init__ = tracer.wrap(
        "graph.build", graph.OrientedGraph.__init__)
    for module in (cli, constructions, scan):
        module.verify_labeling = tracer.wrap("graph.verify", graph.verify_labeling)

    document = io.GraphDocument
    document.to_json = tracer.wrap(
        "io.to_json", document.to_json, lambda text, args: {"bytes": len(text.encode())})
    document.to_dot = tracer.wrap(
        "io.to_dot", document.to_dot, lambda text, args: {"bytes": len(text.encode())})
    document.from_json = classmethod(tracer.wrap(
        "io.from_json", document.__dict__["from_json"].__func__,
        lambda doc, args: {"bytes": len(args[1].encode())}))

    cli.scan_orientations = tracer.wrap(
        "scan.scan", scan.scan_orientations,
        lambda rows, args: {"cells": sum(len(row.verdicts) for row in rows)})


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from antimagic import cli

    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
