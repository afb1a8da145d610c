"""Benchmark of the antimagic command line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, untraced

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  Each workload is a
closed loop with one client: every request is a fresh
``python3 -m antimagic`` process, started by a small launcher process
only after the previous one exited.  A run repeats passes over the workload's requests for as long
as a pass still fits in ``--seconds``, times interpreter start plus
``import antimagic.cli`` five times around each pass (``setup_s``), and
checks every output against an independently known answer.

With ``--trace 1`` passes alternate between untraced and traced ones; a
traced pass runs each request through ``bench/tracer.py``, which records
spans at the layer boundaries, and the run reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/DESIGN.md`` for the workloads, metrics and their predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import CONTRACT, CheckFailure  # noqa: E402
from spans import PER_LAYER, layer_metrics, percentile  # noqa: E402
from workloads import BUILDERS  # noqa: E402

ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
#: Set-up samples taken before each pass and after the last one.
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("decided_ratio", "ratio"),
)


@dataclass
class Sample:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class PassResult:
    wall: float
    samples: list
    traced: bool
    spans: list = field(default_factory=list)


class Launcher:
    """Runs children through ``bench/launcher.py``; see its docstring."""

    def __init__(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )

    def run(self, argv, stdout: Path, stderr: Path) -> Sample:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SystemExit("the launcher process died")
        return Sample(**json.loads(answer))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher, count: int) -> list:
    """Fresh interpreter plus ``import antimagic.cli``, timed ``count`` times."""
    argv = [sys.executable, "-c", "import antimagic.cli"]
    samples = []
    for _ in range(count):
        sample = launcher.run(argv, WORK / "setup.out", WORK / "setup.err")
        if sample.code != 0:
            error = (WORK / "setup.err").read_text(errors="replace")
            raise SystemExit(f"importing antimagic.cli failed:\n{error}")
        samples.append(sample.wall)
    return samples


def _stdout(workload, i: int) -> Path:
    return workload.requests[i].stdout or WORK / f"req-{i}.out"


def run_pass(workload, launcher, traced: bool) -> PassResult:
    if workload.reset is not None:
        workload.reset()
    samples = []
    start = time.perf_counter()
    for i, request in enumerate(workload.requests):
        if request.prepare is not None:
            request.prepare()
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(WORK / f"spans-{i}.json")]
        else:
            argv = [sys.executable, "-m", "antimagic"]
        samples.append(launcher.run(argv + request.argv, _stdout(workload, i), WORK / f"req-{i}.err"))
    wall = time.perf_counter() - start
    result = PassResult(wall=wall, samples=samples, traced=traced)
    if traced:
        for i in range(len(workload.requests)):
            path = WORK / f"spans-{i}.json"
            result.spans.append(json.loads(path.read_text()) if path.exists() else [])
    return result


def check_pass(workload, result: PassResult, failures: list) -> tuple:
    """Check every output of a pass; return (decisions, decided, nodes)."""
    decisions = decided = nodes = 0
    for i, (request, sample) in enumerate(zip(workload.requests, result.samples)):
        try:
            if sample.code not in CONTRACT:
                raise CheckFailure(f"exit {sample.code} is outside the contract")
            if "Traceback" in (WORK / f"req-{i}.err").read_text(errors="replace"):
                raise CheckFailure("traceback on stderr")
            stdout = _stdout(workload, i).read_text(encoding="utf-8", errors="replace")
            outcome = request.check(sample.code, stdout)
        except CheckFailure as exc:
            failures.append(f"{request.label}: {exc}")
            continue
        except Exception as exc:  # a malformed output that broke a check
            failures.append(f"{request.label}: check raised {exc!r}")
            continue
        decisions += outcome.decisions
        decided += outcome.decided
        nodes += outcome.nodes
    return decisions, decided, nodes


def measure(workload, launcher, seconds: float, trace: bool):
    """Passes and set-up samples of one run, each pass checked as it ends.

    Set-up samples are spread over the run, before each pass and after
    the last, so that their median sees the same machine as the passes.
    A pass starts only while it can end within ``seconds``, judging by
    the last pass; a traced run needs one untraced and one traced pass.
    """
    measure_setup(launcher, 1)  # writes bytecode
    setup, passes, checked, failures = [], [], [], []
    begin = time.perf_counter()
    while (
        not passes
        or (trace and len(passes) < 2)
        or time.perf_counter() - begin + passes[-1].wall <= seconds
    ):
        setup += measure_setup(launcher, SETUP_SAMPLES)
        result = run_pass(workload, launcher, traced=trace and len(passes) % 2 == 1)
        checked.append(check_pass(workload, result, failures))
        passes.append(result)
    setup += measure_setup(launcher, SETUP_SAMPLES)
    return setup, passes, checked, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workload = BUILDERS[name](seed, WORK)
    launcher = Launcher()
    try:
        setup, passes, checked, failures = measure(workload, launcher, seconds, trace)
    finally:
        launcher.close()
    plain = [p for p in passes if not p.traced]
    decisions, decided, nodes = checked[0]
    # Each request's latency is its median over the passes; percentiles
    # are then taken across the workload's requests, so their ranks do
    # not shift with the number of passes a run fits in.
    latencies = [
        statistics.median(p.samples[i].wall for p in plain)
        for i in range(len(workload.requests))
    ]
    attempted = sum(len(p.samples) for p in passes)
    report = {
        "workload": name,
        "seed": seed,
        "description": workload.description,
        "passes": len(plain),
        "requests": len(workload.requests),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "nodes_reported": nodes,
        "decisions": decisions,
        "decided": decided,
        "metrics": {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(p.wall for p in plain), len(plain)),
            "cpu_s": (statistics.median(sum(s.cpu for s in p.samples) for p in plain), len(plain)),
            "peak_rss_mb": (statistics.median(max(s.rss_mb for s in p.samples) for p in plain), len(plain)),
            "request_p50_s": (percentile(latencies, 50), len(latencies)),
            "request_p90_s": (percentile(latencies, 90), len(latencies)),
            "decided_ratio": (decided / decisions if decisions else 0.0, decisions),
        },
    }
    if trace:
        traced = [p for p in passes if p.traced]
        report["layers"] = layer_metrics(traced, plain)
    return report


def print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['description']}")
    print(
        f"  {report['passes']} untraced passes of {report['requests']} requests; "
        f"{report['attempted']} attempted, {report['failed']} failed "
        f"(error_rate {report['failed'] / report['attempted']:.4f}); "
        f"search.nodes from outputs {report['nodes_reported']}; "
        f"decided {report['decided']}/{report['decisions']}"
    )
    for name, unit in END_TO_END:
        value, count = report["metrics"][name]
        print(f"  {name:<16} {value:>14.6f} {unit:<6} n={count}")
    for line in report["failures"][:20]:
        print(f"  FAILED {line}")
    if trace:
        for name, (value, unit) in report["layers"].items():
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            print(f"  {name:<34} {shown} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "antimagic" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'antimagic'}", file=sys.stderr)
        return 2
    if WORK.exists():
        shutil.rmtree(WORK)
    names = sorted(BUILDERS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        reports = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for report in reports:
        print_report(report, trace)

    if trace:
        metrics = {
            (name if len(reports) == 1 else f"{r['workload']}.{name}"): {"value": value, "unit": unit}
            for r in reports
            for name, (value, unit) in r["layers"].items()
            if name in PER_LAYER
        }
    else:
        metrics = {
            (name if len(reports) == 1 else f"{r['workload']}.{name}"): {
                "value": r["metrics"][name][0], "unit": unit}
            for r in reports
            for name, unit in END_TO_END
        }
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
