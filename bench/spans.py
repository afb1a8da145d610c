"""Per-layer metrics derived from the spans of traced passes.

A span's self time is its duration minus that of its direct children.
Counts repeat exactly from pass to pass; times are medians over the
traced passes of a run.
"""

from __future__ import annotations

import statistics

#: Per-layer metrics reported in the JSON result line (``BENCHMARK.json``
#: ``per_layer``).  Times of layers that some workload never calls are
#: printed with the others but left out here, because they would read
#: exactly 0 on every run of that workload.
PER_LAYER = {
    "search.calls": "count",
    "search.nodes": "count",
    "search.aborts": "count",
    "search.useful_node_ratio": "ratio",
    "search.symmetry_log2": "log2",
    "search.setup_s": "s",
    "search.dfs_s": "s",
    "search.nodes_per_s": "1/s",
    "search.call_p50_s": "s",
    "search.call_p90_s": "s",
    "constructions.closed_form_attempts": "count",
    "constructions.closed_form_hits": "count",
    "constructions.hit_ratio": "ratio",
    "constructions.fallback_searches": "count",
    "stars.orientations": "count",
    "scan.cells": "count",
    "graph.build_calls": "count",
    "graph.build_s": "s",
    "graph.verify_calls": "count",
    "io.bytes": "count",
    "cli.main_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_s": "s",
}

#: Printed only: zero on at least one workload by construction.
PRINTED_ONLY = {
    "constructions.s": "s",
    "stars.build_s": "s",
    "scan.self_s": "s",
    "graph.verify_s": "s",
    "io.to_json_s": "s",
    "io.from_json_s": "s",
    "io.to_dot_s": "s",
    "trace.probe_s": "s",
    "trace.wall_s": "s",
    "search.largest_call_s": "s",
    "search.largest_setup_s": "s",
    "search.largest_vertices": "count",
}


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by 10); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def pass_metrics(request_spans) -> dict:
    """Metrics of one traced pass; ``request_spans`` holds one span list per request."""
    m = {name: 0.0 for name in list(PER_LAYER) + list(PRINTED_ONLY)}
    calls, useful = [], 0
    largest = (-1, 0.0, 0.0)
    for spans in request_spans:
        children = {}
        for sid, parent, name, start, end, attrs in spans:
            children.setdefault(parent, []).append(sid)
        by_id = {s[0]: s for s in spans}
        pending = None  # the search call whose probe comes next

        def duration(sid):
            return by_id[sid][4] - by_id[sid][3]

        def self_time(sid):
            return duration(sid) - sum(duration(c) for c in children.get(sid, ()))

        def has_search(sid):
            return any(
                by_id[c][2] == "search.call" or has_search(c) for c in children.get(sid, ())
            )

        for sid, parent, name, start, end, attrs in spans:
            took = end - start
            if name == "cli.main":
                probes = sum(
                    s[4] - s[3] for s in spans if s[2] == "search.probe"
                )
                m["cli.main_s"] += took - probes
            elif name == "search.probe" and pending is not None:
                m["search.setup_s"] += took
                m["search.dfs_s"] += pending[1] - took
                largest = max(largest, (pending[0], pending[1], took))
                pending = None
            elif name == "search.call" and attrs:
                pending = (attrs["vertices"], took)
                calls.append(took)
                m["search.nodes"] += attrs["nodes"]
                if attrs["status"] == "aborted-budget":
                    m["search.aborts"] += 1
                else:
                    useful += attrs["nodes"]
                m["search.symmetry_log2"] = max(m["search.symmetry_log2"], attrs["symmetry_log2"])
            elif name == "constructions":
                if by_id.get(parent, (0, 0, ""))[2] != "constructions":
                    m["constructions.closed_form_attempts"] += 1
                    searched = has_search(sid)
                    m["constructions.fallback_searches"] += searched
                    m["constructions.closed_form_hits"] += attrs["labeling"] and not searched
                m["constructions.s"] += self_time(sid)
            elif name == "stars.build":
                m["stars.build_s"] += self_time(sid)
            elif name == "stars.enumerate":
                m["stars.orientations"] += attrs["orientations"]
                m["stars.build_s"] += self_time(sid)
            elif name == "scan.scan":
                m["scan.cells"] += attrs["cells"]
                m["scan.self_s"] += self_time(sid)
            elif name == "graph.build":
                m["graph.build_calls"] += 1
                m["graph.build_s"] += self_time(sid)
            elif name == "graph.verify":
                m["graph.verify_calls"] += 1
                m["graph.verify_s"] += self_time(sid)
            elif name in ("io.to_json", "io.from_json", "io.to_dot"):
                m[name + "_s"] += self_time(sid)
                m["io.bytes"] += attrs["bytes"]
    m["search.calls"] = len(calls)
    m["search.useful_node_ratio"] = useful / m["search.nodes"] if m["search.nodes"] else 0.0
    m["search.nodes_per_s"] = m["search.nodes"] / m["search.dfs_s"] if m["search.dfs_s"] > 0 else 0.0
    m["search.call_p50_s"] = percentile(calls, 50)
    m["search.call_p90_s"] = percentile(calls, 90)
    attempts = m["constructions.closed_form_attempts"]
    m["constructions.hit_ratio"] = m["constructions.closed_form_hits"] / attempts if attempts else 0.0
    m["trace.probe_s"] = m["search.setup_s"]
    m["search.largest_vertices"] = max(largest[0], 0)
    m["search.largest_call_s"] = largest[1]
    m["search.largest_setup_s"] = largest[2]
    return m


def layer_metrics(traced, plain) -> dict:
    """Medians over traced passes, with the untraced passes as reference."""
    per_pass = [pass_metrics(p.spans) for p in traced]
    for m, p in zip(per_pass, traced):
        m["trace.wall_s"] = p.wall
    merged = {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    untraced_wall = statistics.median(p.wall for p in plain)
    requests = len(plain[0].samples)
    merged["cli.process_overhead_s"] = (untraced_wall - merged["cli.main_s"]) / requests
    merged["trace.overhead_s"] = merged["trace.wall_s"] - merged["trace.probe_s"] - untraced_wall
    units = {**PER_LAYER, **PRINTED_ONLY}
    return {
        name: (int(merged[name]) if units[name] == "count" else merged[name], units[name])
        for name in units
    }
