"""Smoke test of the supported Python versions (``requires-python >= 3.10``).

Three requests run under every other supported interpreter found on the
path and under the one running the tests; their stdout and exit codes
must match byte for byte.  An interpreter that is missing, or that is
on the path but does not start, is skipped.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import antimagic
from antimagic import StarShape, build_star
from antimagic.io import GraphDocument

SRC = str(Path(antimagic.__file__).resolve().parents[1])
REQUESTS = (
    ["construct", "--family", "mstar", "--m", "4", "--n", "3", "--t", "1",
     "--d", "0,1", "--d", "0,2"],
    ["scan", "--spec", "2x2,1x3", "--d", "0,1", "--d", "0,2"],
    ["search", "DOC", "--d", "1,2", "--mode", "all"],
)


def run_requests(python, doc):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in REQUESTS:
        argv = [str(doc) if arg == "DOC" else arg for arg in argv]
        proc = subprocess.run(
            [python, "-m", "antimagic", *argv], capture_output=True, env=env
        )
        results.append((argv[0], proc.returncode, proc.stdout))
    return results


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("versions") / "star.json"
    g = build_star(StarShape(n=2, t=1))
    path.write_text(GraphDocument.from_graph(g).to_json(), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def reference(doc):
    return run_requests(sys.executable, doc)


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_supported_interpreters_give_the_same_output(name, doc, reference):
    python = shutil.which(name)
    if python is None:
        pytest.skip(f"{name} is not on the path")
    # A version manager's shim can be on the path for a version it will
    # not run here.
    if subprocess.run([python, "-c", "pass"], capture_output=True).returncode:
        pytest.skip(f"{name} does not start")
    assert run_requests(python, doc) == reference
