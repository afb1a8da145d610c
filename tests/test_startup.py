"""Start-up: each subcommand loads only the modules it runs.

The guard tests run the CLI in a fresh interpreter with bytecode
caching off, as a one-request process would, and compare the set of
``antimagic.*`` modules loaded afterwards.  They assert module sets,
not times.  The rest checks what lazy loading and the plain record
classes must keep: the package exports, the exception identities, the
record semantics, and that a name rebound on ``cli`` or
``constructions`` before the first call is the one that runs.
"""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import antimagic
from antimagic import cli, constructions, graph, search
from antimagic.constructions import Verdict
from antimagic.graph import DistanceSet, WeightReport
from antimagic.io import GraphDocument
from antimagic.scan import ScanRow
from antimagic.search import SearchResult, SearchStatus
from antimagic.stars import ForestSpec, StarGroup, StarShape, build_star

SRC = str(Path(antimagic.__file__).resolve().parents[1])

# Runs cli.main(argv) and reports which modules the request loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from antimagic import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = set(sys.modules) - before
print(json.dumps({
    "code": code,
    "package": sorted(m for m in loaded if m.startswith("antimagic.")),
    "heavy": sorted(loaded & {"dataclasses", "inspect", "ast", "dis"}),
}))
"""

def probe(argv, cwd):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    report = json.loads(proc.stdout)
    loaded = {name.removeprefix("antimagic.") for name in report["package"]}
    return report["code"], loaded, report["heavy"]


@pytest.fixture(scope="module")
def star_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "star.json"
    g = build_star(StarShape(n=4, t=2))
    labels = {"c": 5, "l1": 1, "l2": 2, "l3": 3, "l4": 4}
    path.write_text(GraphDocument.from_graph(g, labels).to_json(), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "DOC", "--d", "0,1"], {"cli", "graph", "io"}),
        (["construct", "--family", "mstar", "--m", "3", "--n", "4", "--t", "2",
          "--d", "0,1"], {"cli", "graph", "io", "constructions", "stars"}),
        (["construct", "--family", "star", "--n", "5", "--t", "2", "--d", "0,2",
          "--format", "dot"], {"cli", "graph", "io", "constructions", "stars"}),
        (["construct", "--family", "forest-pi", "--spec", "1x2,1x3", "--d", "0,1"],
         {"cli", "graph", "io", "constructions", "stars"}),
        (["construct", "--family", "forest", "--spec", "2x3@2", "--d", "0,1"],
         {"cli", "graph", "io", "constructions", "stars"}),
        (["construct", "--family", "mstar", "--m", "3", "--n", "6", "--t", "1",
          "--d", "0,1"], {"cli", "graph", "io", "constructions", "stars"}),
        (["construct", "--family", "star", "--n", "2", "--t", "1", "--d", "1"],
         {"cli", "graph", "io", "constructions", "stars"}),
        (["search", "DOC", "--d", "0,1"], {"cli", "graph", "io", "search"}),
        (["search", "DOC", "--d", "0,1", "--mode", "count"],
         {"cli", "graph", "io", "search", "exhaustive"}),
    ],
    ids=["verify", "mstar-closed-form", "star-closed-form", "forest-pi",
         "forest-closed-form", "mstar-single-source", "star-positive-1", "search",
         "search-count"],
)
def test_subcommand_loads_only_what_it_runs(argv, expected, star_doc):
    argv = [str(star_doc) if arg == "DOC" else arg for arg in argv]
    code, loaded, heavy = probe(argv, star_doc.parent)
    assert code == 0
    assert loaded == expected
    assert heavy == []


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "mstar", "--m", "4", "--n", "3", "--t", "1",
         "--d", "0,1", "--d", "0,2"],
        ["construct", "--family", "forest", "--spec", "1x3@1,1x4@1", "--d", "0,1"],
        ["scan", "--spec", "2x2", "--d", "0,1"],
    ],
    ids=["search-fallback", "forest-vertex-cap", "scan"],
)
def test_search_paths_still_load_no_dataclasses(argv, tmp_path):
    code, loaded, heavy = probe(argv, tmp_path)
    assert code == 0
    assert "search" in loaded
    # Only the exhaustive modes compile their walk.
    assert "exhaustive" not in loaded
    assert ("scan" in loaded) == (argv[0] == "scan")
    assert heavy == []


def test_importing_the_package_loads_no_submodule(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    script = (
        "import sys, antimagic; "
        "print(sorted(m for m in sys.modules if m.startswith('antimagic.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=tmp_path, check=True,
    )
    assert proc.stdout.strip() == "[]"


# -- package exports --------------------------------------------------

def test_every_export_is_its_home_modules_object():
    names = [name for name in antimagic.__all__ if name != "__version__"]
    assert len(names) == len(set(names)) == 35
    for module, exported in antimagic._EXPORTS.items():
        home = importlib.import_module(f"antimagic.{module}")
        for name in exported:
            value = getattr(antimagic, name)
            assert value is getattr(home, name), name
            # The table names the defining module, not a re-export.
            assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from antimagic import *", namespace)
    assert set(antimagic.__all__) <= set(namespace)
    assert namespace["search_labeling"] is search.search_labeling
    assert set(antimagic.__all__) <= set(dir(antimagic))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        antimagic.no_such_name
    assert not hasattr(antimagic, "dataclass")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_exit_code_exceptions_keep_one_identity():
    assert search.VertexCapError is graph.VertexCapError
    assert cli.VertexCapError is graph.VertexCapError
    assert constructions.UnsupportedDistanceSetError is graph.UnsupportedDistanceSetError
    assert antimagic.UnsupportedDistanceSetError is graph.UnsupportedDistanceSetError
    assert search.UNFIT_DISTANCE_SET is graph.UNFIT_DISTANCE_SET
    assert issubclass(graph.VertexCapError, ValueError)


def test_the_vertex_cap_lives_in_graph_and_search_re_exports_it():
    # A decision reads the cap without loading the search.
    for name in ("vertex_cap", "ENV_VERTEX_CAP", "DEFAULT_VERTEX_CAP",
                 "DEFAULT_CELL_BUDGET"):
        assert getattr(search, name) is getattr(graph, name), name
    assert antimagic.vertex_cap is graph.vertex_cap
    assert issubclass(graph.UnsupportedDistanceSetError, ValueError)


# -- record semantics -------------------------------------------------

def test_star_records_compare_hash_and_repr_by_fields():
    assert StarShape(n=3, t=1) == StarShape(3, 1)
    assert StarShape(3, 1) != StarShape(3, 2)
    assert StarShape(3, 1) == (3, 1)
    assert hash(StarShape(3, 1)) == hash(StarShape(n=3, t=1))
    assert len({StarShape(3, 1), StarShape(3, 1), StarShape(2, 1)}) == 2
    assert repr(StarShape(3, 1)) == "StarShape(n=3, t=1)"
    group = StarGroup(count=2, leaves=3, sources=[1, 2])
    assert group.sources == (1, 2)
    assert group == StarGroup(2, 3, (1, 2))
    assert repr(group) == "StarGroup(count=2, leaves=3, sources=(1, 2))"
    spec = ForestSpec.parse("2x3@1,1x4@0")
    assert spec == ForestSpec([StarGroup(2, 3, (1, 1)), StarGroup(1, 4, (0,))])
    assert repr(spec) == (
        "ForestSpec(groups=(StarGroup(count=2, leaves=3, sources=(1, 1)), "
        "StarGroup(count=1, leaves=4, sources=(0,))))"
    )
    assert ForestSpec.parse("1x2@1,1x3@2") != ForestSpec.parse("1x2,1x3")
    for record in (StarShape(3, 1), group, spec):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        # Hashed as the tuple of its fields, which fixes set and dict order.
        assert hash(record) == hash(tuple(record))
        # No instance dict, so no stray attribute can be set.
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_star_shape_orders_like_its_fields():
    shapes = [StarShape(3, 2), StarShape(2, 2), StarShape(3, 0), StarShape(2, 0)]
    assert sorted(shapes) == [
        StarShape(2, 0), StarShape(2, 2), StarShape(3, 0), StarShape(3, 2)
    ]
    assert StarShape(2, 1) < StarShape(2, 2) <= StarShape(2, 2)
    assert StarShape(3, 0) > StarShape(2, 2) >= StarShape(2, 2)
    assert StarShape(2, 1) < (2, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StarShape(n=0, t=0), "a star needs at least one leaf, got n=0"),
        (lambda: StarShape(n=2, t=3), "t must lie in 0..n, got t=3 for n=2"),
        (lambda: StarShape(n=2, t=-1), "t must lie in 0..n, got t=-1 for n=2"),
        (lambda: StarGroup(count=0, leaves=2), "group needs at least one star, got 0"),
        (lambda: StarGroup(count=1, leaves=0), "stars need at least one leaf, got 0"),
        (lambda: StarGroup(count=2, leaves=3, sources=(4, 4)),
         "t must lie in 0..3, got 4"),
        (lambda: StarGroup(count=2, leaves=3, sources=(1,)),
         "need one t per copy: got 1 for 2 stars"),
        (lambda: StarGroup(count=2, leaves=3, sources=(1, 5)),
         "t must lie in 0..3, got 5"),
        (lambda: ForestSpec(groups=()), "forest needs at least one group"),
        (lambda: ForestSpec(groups=(StarGroup(1, 3), StarGroup(1, 2))),
         "group leaf counts must strictly increase, got [3, 2]"),
    ],
)
def test_star_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_records_are_immutable():
    g = build_star(StarShape(n=2, t=1))
    records = [
        (DistanceSet([0, 2]), "smallest"),
        (StarShape(3, 1), "t"),
        (StarGroup(2, 3), "sources"),
        (ForestSpec.parse("2x3"), "groups"),
        (WeightReport(weights={}, collisions=()), "collisions"),
        (GraphDocument.from_graph(g), "labeling"),
        (SearchResult(SearchStatus.FOUND, None, None, 1), "count"),
        (Verdict(status="aborted", method="search"), "witness"),
        (ScanRow(orientation=((1, 2),), verdicts={}), "verdicts"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record, field in records:
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_result_records_keep_defaults_equality_and_repr():
    result = SearchResult(SearchStatus.EXHAUSTED, None, 0, 7)
    assert (result.symmetry_order, result.shortcut, result.labelings) == (1, None, None)
    assert result == SearchResult(
        status=SearchStatus.EXHAUSTED, witness=None, count=0, nodes_explored=7
    )
    assert result != SearchResult(SearchStatus.EXHAUSTED, None, 0, 8)
    assert repr(result) == (
        "SearchResult(status=<SearchStatus.EXHAUSTED: 'exhausted-none'>, "
        "witness=None, count=0, nodes_explored=7, symmetry_order=1, "
        "shortcut=None, labelings=None)"
    )
    assert repr(Verdict(status="aborted", method="search")) == (
        "Verdict(status='aborted', method='search', witness=None, "
        "reason=None, refuted=None, search=None)"
    )
    report = graph.verify_labeling(
        build_star(StarShape(n=2, t=1)), {"c": 1, "l1": 2, "l2": 3}, {1}
    )
    assert repr(report) == "WeightReport(weights={'c': 3, 'l1': 1, 'l2': 0}, collisions=())"
    assert report.antimagic


# -- names rebound before the first call ------------------------------

@pytest.fixture
def unbound_cli(monkeypatch):
    """``cli`` as a fresh process sees it: no lazy name bound yet."""
    for names in cli._LAZY.values():
        for name in names:
            monkeypatch.delitem(vars(cli), name, raising=False)
    return monkeypatch


def recording(calls, real):
    def wrapper(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "search_joint_labeling", ["search", "DOC", "--d", "0,1"]),
        (cli, "search_joint_labeling", ["search", "DOC", "--d", "0,1", "--d", "0,2"]),
        (cli, "build_forest",
         ["construct", "--family", "forest", "--spec", "2x3@2", "--d", "0,1"]),
        (constructions, "search_labeling",
         ["construct", "--family", "forest", "--spec", "1x3@1,1x4@1", "--d", "0,1"]),
    ],
    ids=["cli.search-one-set", "cli.search_joint_labeling", "cli.build_forest",
         "constructions.search_labeling"],
)
def test_a_name_patched_before_the_first_call_is_what_runs(
    module, name, argv, unbound_cli, star_doc, capsys
):
    real = getattr(module, name)
    calls = []
    unbound_cli.setattr(module, name, recording(calls, real))
    argv = [str(star_doc) if arg == "DOC" else arg for arg in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls, name
