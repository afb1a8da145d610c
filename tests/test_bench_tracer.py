"""Smoke test of the benchmark's traced child, ``bench/tracer.py``.

The tracer rebinds about twenty names on ``cli``, ``constructions`` and
``scan`` before it runs a request.  A change that drops one of them
breaks every traced benchmark run, so three requests run through it
here: a construct that reaches the search, a scan, and a forest-pi
construct, whose build the tracer must still see.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


@pytest.mark.parametrize(
    "argv, span",
    [
        (["construct", "--family", "forest", "--spec", "1x3@1,1x4@1", "--d", "0,1"],
         "search.call"),
        (["scan", "--spec", "2x2", "--d", "0,1"], "scan.scan"),
        (["construct", "--family", "forest-pi", "--spec", "2x3,1x4", "--d", "0,1"],
         "stars.build"),
    ],
    ids=["construct-search", "scan", "construct-forest-pi"],
)
def test_traced_request_runs_and_writes_spans(argv, span, tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    names = {record[2] for record in spans}
    assert {"cli.main", span} <= names, names
