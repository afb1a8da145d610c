"""Command line front end: construct, verify, search, scan.

Machine-readable results go to stdout as JSON (or DOT text for
constructed graphs); diagnostics go to stderr.  Exit codes are a stable
contract:

    0   success; for decisions: antimagic
    1   verified not antimagic (verify)
    2   proven nonexistent: refused by a theorem or exhausted search
    3   search aborted on its node budget
    64  usage error (unknown flags, malformed parameters)
    65  data error (unreadable or malformed input, unsupported distance
        set, a scan report that cannot be written)
    70  internal error: any uncaught RuntimeError, such as a construction
        or witness that fails its own verification
    74  output error: standard output could not be written (the reader
        closed it early, or the disk is full)

Each request is one process, so start-up counts.  A subcommand loads
only the modules it runs: ``verify`` needs ``graph`` and ``io``
(imported below); ``construct`` adds ``stars`` and ``constructions``;
``search``, and any construct or scan cell that reaches a search,
adds ``search``; ``scan`` adds ``stars``, ``constructions`` and
``scan``.  Every construct and every scan
cell is answered by ``constructions.decide``; this module builds the
graph, picks the family's rule and writes the verdict.  The handlers
bind the names they use from those modules on first use with
``_bind``, which never overwrites a name that is already set, so a
wrapper or test double put on this module before ``main`` runs is
what the request calls.  A module ``__getattr__`` resolves the same
names before any handler ran.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from pathlib import Path
from types import GeneratorType

from .graph import (
    DistanceSet,
    GraphError,
    Labeling,
    LabelingError,
    OrientedGraph,
    UnsupportedDistanceSetError,
    VertexCapError,
    verify_labeling,
)
from .io import GraphDocument, json_text

#: Names each handler binds from the heavier modules, on first use.
_LAZY = {
    "stars": (
        "ForestSpec",
        "StarShape",
        "build_forest",
        "build_homogeneous_forest",
        "build_star",
        "forest_parts",
        "single_sink_orientation",
    ),
    "constructions": (
        "ABORTED",
        "ANTIMAGIC",
        "NOT_ANTIMAGIC",
        "decide",
        "forest_rule",
        "homogeneous_rule",
        "require_star_domain",
        "star_rule",
    ),
    "search": (
        "SearchStatus",
        "search_joint_labeling",
    ),
    "scan": (
        "format_scan_table",
        "scan_orientations",
    ),
}


def _load(module: str):
    name = f"{__package__}.{module}"
    # __import__ rather than importlib.import_module: only the former
    # shows up under ``python -X importtime``.
    __import__(name)
    return sys.modules[name]


def _bind(*modules: str) -> None:
    """Load modules and bind their ``_LAZY`` names here.

    ``setdefault`` keeps a name that is already bound, so a wrapper or
    test double set on this module before the first call is what runs.
    """
    for module in modules:
        loaded = _load(module)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    # PEP 562: ``cli.build_forest`` and friends resolve before any
    # handler has bound them, for hasattr() and monkeypatch.
    for module, names in _LAZY.items():
        if name in names:
            return getattr(_load(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_NOT_ANTIMAGIC = 1
EXIT_NONE_EXISTS = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_IO = 74


class _UsageError(Exception):
    """Well-formed command line, unusable parameter combination."""


class _DataError(Exception):
    """Input data that does not parse or is out of the supported domain."""


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help drops a failed write; a help text
        # lost on stdout must reach main's output error exit instead.
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _distance_set(text: str) -> DistanceSet:
    try:
        return DistanceSet.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    # Plain ASCII digits: int() also takes signs, underscores and other scripts.
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _add_distance_flag(parser) -> None:
    parser.add_argument(
        "--d",
        action="append",
        required=True,
        type=_distance_set,
        metavar="DIGITS",
        help="distance set as comma-separated integers, e.g. 0,2; repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="antimagic",
        description="Construct, verify and search distance-antimagic "
        "labelings of oriented stars and star forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    construct = sub.add_parser(
        "construct", help="emit a labeled graph for a parametric family"
    )
    construct.add_argument(
        "--family",
        required=True,
        choices=("star", "mstar", "forest-pi", "forest"),
        help="star K_{1,n}; mstar = m copies of one star; forest-pi = "
        "single-sink-leaf orientation; forest = explicit @t orientations",
    )
    construct.add_argument("--n", type=_count, help="leaves per star")
    construct.add_argument("--t", type=_count, help="source leaves per star")
    construct.add_argument("--m", type=_count, help="number of star copies (mstar)")
    construct.add_argument("--spec", help="forest spec, e.g. 3x3,2x4 or 2x3@1")
    _add_distance_flag(construct)
    construct.add_argument("--format", choices=("json", "dot"), default="json")
    construct.add_argument(
        "--budget", type=_count, help="node budget for any search fallback"
    )
    construct.set_defaults(handler=_cmd_construct)

    verify = sub.add_parser("verify", help="check a labeling against distance sets")
    verify.add_argument("graph", help="graph document path, or - for stdin")
    verify.add_argument(
        "--labeling",
        help="labeling as a JSON file path or an inline JSON object; "
        "defaults to the labeling embedded in the document",
    )
    _add_distance_flag(verify)
    verify.set_defaults(handler=_cmd_verify)

    search = sub.add_parser(
        "search", help="backtracking search for antimagic labelings"
    )
    search.add_argument("graph", help="graph document path, or - for stdin")
    _add_distance_flag(search)
    search.add_argument("--mode", choices=("first", "all", "count"), default="first")
    search.add_argument("--budget", type=_count, help="node budget; unlimited if absent")
    search.add_argument("--no-prune", dest="prune", action="store_false")
    search.add_argument("--no-symmetry", dest="symmetry", action="store_false")
    search.set_defaults(handler=_cmd_search)

    scan = sub.add_parser(
        "scan", help="decide every orientation class of a forest per distance set"
    )
    scan.add_argument("--spec", required=True, help="forest spec without @t")
    _add_distance_flag(scan)
    scan.add_argument("--budget", type=_count, help="node budget per table cell")
    scan.add_argument(
        "--out", help="directory for the JSON table and witness files"
    )
    scan.set_defaults(handler=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Filled while parsing, so a failed --help write knows its command.
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, args)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:
        # Input and report file errors are _DataErrors by now, so this is
        # stdout: the reader went away (``| head``) or a write failed.
        # Point stdout at devnull so the interpreter's flush at exit
        # stays quiet, and never let a lost write read as a verdict.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            prog = " ".join(filter(None, (parser.prog, args.command)))
            print(f"{prog}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_UsageError, VertexCapError) as exc:
        print(f"antimagic {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, UnsupportedDistanceSetError) as exc:
        print(f"antimagic {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        # A failed self-check is a bug, never a verdict: exit 1 would
        # read as "valid but not antimagic".
        print(f"antimagic {args.command}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main())


# -- shared plumbing --------------------------------------------------

def _read_document(path_arg: str) -> GraphDocument:
    try:
        if path_arg == "-":
            text = sys.stdin.read()
        else:
            text = Path(path_arg).read_text(encoding="utf-8")
    except OSError as exc:
        raise _DataError(f"cannot read {path_arg!r}: {exc}") from None
    try:
        return GraphDocument.from_json(text)
    except ValueError as exc:
        raise _DataError(f"{path_arg}: {exc}") from None


def _graph_of(doc: GraphDocument, path_arg: str) -> OrientedGraph:
    try:
        return doc.graph()
    except GraphError as exc:
        raise _DataError(f"{path_arg}: {exc}") from None


def _print_json(payload: dict, file=None) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``file``.

    ``file`` defaults to stdout.  A list or object that holds lists or
    objects goes out one item at a time, at every depth, so a long
    listing, a scan report or a verify report's collisions never exist
    as one string.  A listing may also be a generator: it is written as
    a list while it is produced, so its items need never exist all at
    once.
    """
    write = (file or sys.stdout).write
    _write_json(write, payload, 0, "")
    write("\n")


#: What ``_write_json`` writes item by item when a value holds one.
_CONTAINERS = (dict, list, tuple, GeneratorType)


def _write_json(write, value, level: int, head: str) -> None:
    # head is the text due before value: a separator and, in an object,
    # its key.  A container of plain values is one json_text call, and
    # so is each item that holds no container in the loop below, with no
    # call of its own.
    if type(value) is GeneratorType:
        items = value
    else:
        items = ()
        if isinstance(value, dict) and all(map(isinstance, value, repeat(str))):
            items = value.values()
        elif isinstance(value, (list, tuple)):
            items = value
        if not any(map(isinstance, items, repeat(_CONTAINERS))):
            write(head + json_text(value, level=level))
            return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    ends = "[]" if items is value else "{}"
    keys = repeat("") if items is value else (json_text(key) + ": " for key in value)
    opening = head + ends[0]
    head = opening + inner
    for key, item in zip(keys, items):
        flat = False
        kind = type(item)
        if kind is dict or kind is tuple or kind is list:
            for member in item.values() if kind is dict else item:
                if isinstance(member, _CONTAINERS):
                    break
            else:
                flat = True
        if flat:
            write(head + key + json_text(item, level=level + 1))
        else:
            _write_json(write, item, level + 1, head + key)
        head = sep
    # Only a generator can turn out empty here; json.dumps writes [] for it.
    write(inner[:-2] + ends[1] if head == sep else opening + ends[1])


def _requested_sets(args) -> list[DistanceSet]:
    # Repeated flags may repeat a set; keep the first occurrence only.
    return list(dict.fromkeys(args.d))


# -- construct --------------------------------------------------------

def _cmd_construct(args) -> int:
    _bind("stars", "constructions")
    sets = _requested_sets(args)
    g, rule, params = _FAMILIES[args.family](args)
    for D in sets:
        require_star_domain(D)
    verdict = decide(g, sets, rule, args.budget)
    if verdict.witness is not None:
        metadata = {
            "family": args.family,
            **params,
            "distance_sets": [str(D) for D in sets],
            "method": verdict.method,
        }
        doc = GraphDocument.from_graph(g, verdict.witness, metadata)
        sys.stdout.write(doc.to_dot(sets, g=g) if args.format == "dot" else doc.to_json())
        return EXIT_OK
    if verdict.search is None:
        _print_json(
            {
                "status": "not-antimagic",
                "distance_set": str(verdict.refuted),
                "reason": verdict.reason.value,
            }
        )
        return EXIT_NONE_EXISTS
    exhausted = verdict.status == NOT_ANTIMAGIC
    _print_json(
        {
            "status": "search-exhausted" if exhausted else "search-aborted",
            "distance_sets": [str(D) for D in sets],
            "nodes_explored": verdict.nodes_explored,
        }
    )
    return EXIT_NONE_EXISTS if exhausted else EXIT_BUDGET


def _need(args, names: tuple[str, ...]) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise _UsageError(
            f"family {args.family} needs {', '.join(missing)}"
        )


# Each family turns its flags into (graph, rule, metadata parameters).

def _star(args):
    _need(args, ("n", "t"))
    try:
        shape = StarShape(n=args.n, t=args.t)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return build_star(shape), star_rule(args.n, args.t), {"n": args.n, "t": args.t}


def _mstar(args):
    _need(args, ("m", "n", "t"))
    try:
        shape = StarShape(n=args.n, t=args.t)
        g = build_homogeneous_forest(args.m, shape)
    except (ValueError, GraphError) as exc:
        raise _UsageError(str(exc)) from None
    params = {"m": args.m, "n": args.n, "t": args.t}
    return g, homogeneous_rule(args.m, args.n, args.t), params


def _forest(args):
    # forest takes each star's t from the spec's @t; forest-pi fixes
    # t = n - 1 on every star itself.
    _need(args, ("spec",))
    try:
        spec = ForestSpec.parse(args.spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sources = tuple(group.sources for group in spec.groups)
    if args.family == "forest-pi":
        if any(part is not None for part in sources):
            raise _UsageError("pi forests fix their orientation; drop @t")
        orientation = single_sink_orientation(spec)
        params = {"spec": args.spec, "pi": True}
    elif None in sources:
        raise _UsageError(
            "group orientation is unspecified "
            "(family forest needs @t on every term, e.g. 2x3@1)"
        )
    else:
        orientation = sources
        params = {"spec": args.spec, "orientation": sources}
    try:
        g = build_forest(spec, orientation)
    except GraphError as exc:
        raise _UsageError(str(exc)) from None
    ts = tuple(t for part in orientation for t in part)
    return g, forest_rule(spec.star_sizes(), ts), params


_FAMILIES = {"star": _star, "mstar": _mstar, "forest-pi": _forest, "forest": _forest}


# -- verify -----------------------------------------------------------

def _resolve_labeling(args, doc: GraphDocument) -> Labeling:
    raw = args.labeling
    if raw is None:
        if doc.labeling is None:
            raise _DataError(
                "the document carries no labeling and --labeling was not given"
            )
        return doc.labeling
    if raw.lstrip().startswith("{"):
        text = raw
    else:
        try:
            text = Path(raw).read_text(encoding="utf-8")
        except OSError as exc:
            raise _DataError(f"cannot read labeling {raw!r}: {exc}") from None
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _DataError(f"labeling is not valid JSON: {exc}") from None
    if not isinstance(mapping, dict) or not all(
        isinstance(v, str) and type(label) is int for v, label in mapping.items()
    ):
        raise _DataError("labeling must be a JSON object mapping vertices to integers")
    return Labeling(mapping)


def _cmd_verify(args) -> int:
    sets = _requested_sets(args)
    doc = _read_document(args.graph)
    g = _graph_of(doc, args.graph)
    labeling = _resolve_labeling(args, doc)
    reports = []
    overall = True
    for D in sets:
        try:
            report = verify_labeling(g, labeling, D)
        except LabelingError as exc:
            raise _DataError(str(exc)) from None
        overall = overall and report.antimagic
        reports.append(
            {
                "distance_set": str(D),
                "antimagic": report.antimagic,
                # verify_labeling keys the weights in vertex order, and
                # the collision tuples are written as arrays.
                "weights": report.weights,
                "collisions": report.collisions,
            }
        )
    _print_json({"antimagic": overall, "reports": reports})
    return EXIT_OK if overall else EXIT_NOT_ANTIMAGIC


# -- search -----------------------------------------------------------

def _cmd_search(args) -> int:
    _bind("search")
    sets = _requested_sets(args)
    doc = _read_document(args.graph)
    g = _graph_of(doc, args.graph)
    result = search_joint_labeling(
        g,
        sets,
        mode=args.mode,
        budget=args.budget,
        prune=args.prune,
        symmetry=args.symmetry,
    )
    payload = {
        "status": result.status.value,
        "distance_sets": [str(D) for D in sets],
        "mode": args.mode,
        # The search builds its witness in vertex order.
        "witness": None if result.witness is None else dict(result.witness),
        "count": result.count,
        "nodes_explored": result.nodes_explored,
        "symmetry_order": result.symmetry_order,
        "shortcut": result.shortcut,
    }
    if args.mode == "all" and result.labelings is not None:
        # Each row becomes a dict only while it is written.
        payload["labelings"] = (
            dict(zip(g.vertices, row)) for row in result.labelings
        )
    _print_json(payload)
    if result.status is SearchStatus.FOUND:
        return EXIT_OK
    if result.status is SearchStatus.EXHAUSTED:
        return EXIT_NONE_EXISTS
    return EXIT_BUDGET


# -- scan -------------------------------------------------------------

def _cmd_scan(args) -> int:
    _bind("stars", "constructions", "scan")
    sets = _requested_sets(args)
    try:
        spec = ForestSpec.parse(args.spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if any(group.sources is not None for group in spec.groups):
        raise _UsageError("scan enumerates every orientation; drop @t from the spec")
    if spec.star_count < 2:
        raise _UsageError("a star forest needs at least two stars")
    rows = scan_orientations(spec, sets, budget=args.budget)
    table = format_scan_table(rows)
    print(table)
    if args.out is not None:
        _write_scan_report(args.out, args.spec, spec, sets, rows, table)
    aborted = any(
        verdict.status == ABORTED
        for row in rows
        for verdict in row.verdicts.values()
    )
    return EXIT_BUDGET if aborted else EXIT_OK


def _write_scan_report(out_arg, spec_text, spec, sets, rows, table) -> None:
    out = Path(out_arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _DataError(f"cannot create {out_arg!r}: {exc}") from None
    payload = {
        "spec": spec_text,
        "distance_sets": [str(D) for D in sets],
        "rows": _report_rows(out, spec_text, spec.star_sizes(), sets, rows),
    }
    # Nothing in this block writes to stdout, so every OSError caught here,
    # BrokenPipeError included, comes from a report file.
    try:
        (out / "scan.txt").write_text(table + "\n", encoding="utf-8")
        with open(out / "scan.json", "w", encoding="utf-8") as file:
            _print_json(payload, file)
    except OSError as exc:
        raise _DataError(f"cannot write the report in {out_arg!r}: {exc}") from None


def _report_rows(out, spec_text, sizes, sets, rows):
    """Yield each ``scan.json`` row, writing the row's witness files first.

    ``_print_json`` writes the rows as they come, so no list of them is
    ever held.
    """
    for r, row in enumerate(rows):
        cells = {}
        # The row's vertices and arcs, listed without building its graph
        # again: the graph's all-pairs distances are not needed here.
        parts = forest_parts(sizes, tuple(t for part in row.orientation for t in part))
        # One file per distinct witness of the row (a Labeling hashes by
        # its labels), named after the first column it serves.
        files = {}
        for c, D in enumerate(sets):
            verdict = row.verdicts[D]
            cell = {
                "antimagic": {ANTIMAGIC: True, NOT_ANTIMAGIC: False}.get(
                    verdict.status
                ),
                "status": verdict.status,
                "method": verdict.method,
                "nodes_explored": verdict.nodes_explored,
                "witness": None,
            }
            if verdict.witness is not None:
                name, served = files.setdefault(
                    (verdict.method, verdict.witness), (f"witness-{r:03d}-{c}.json", [])
                )
                served.append(str(D))
                cell["witness"] = name
            cells[str(D)] = cell
        for (method, witness), (name, served) in files.items():
            metadata = {"spec": spec_text, "orientation": row.orientation,
                        "distance_sets": served, "method": method}
            doc = GraphDocument(*parts, witness, metadata)
            (out / name).write_text(doc.to_json(), encoding="utf-8")
        yield {
            "orientation": row.orientation,
            "cells": cells,
        }
