"""Measure commits of this repository with their own benchmark, and write
one BENCH_<short-commit>.json per commit.

For each commit, ``git archive <commit>`` is extracted into a temporary
directory (no worktree: nothing is written into .git), and that tree's own
``bench/run.py --workload W --seed s --trace 0`` runs there, for every
workload W of BENCHMARK.json and the seeds s of SEEDS.  The runs
interleave: for each seed and workload every commit runs once, and the
commit that runs first rotates from one seed to the next, so drift over
the session spreads evenly over the commits.  The last stdout line of a
run is its result (correct, attempted, failed, metrics).

A BENCH file holds the commit and its subject, the fingerprint of the
first run (cores, Python and numpy versions), the line and code-line
counts of the tree's src/regkernel (tools/loc.py of the checkout this
script runs from), the seeds, and per workload each metric's median,
interquartile range and number of runs, with the attempted and failed
counts of every run.

Run from the repository root:

    python3 tools/trajectory.py COMMIT [COMMIT ...] [--out trajectory]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from loc import count  # noqa: E402

RUN_TIMEOUT_S = 600
SEEDS = list(range(101, 111))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def source_size(tree: Path) -> dict:
    """Lines and code lines of the tree's src/regkernel, as tools/loc.py counts them."""
    lines = code = 0
    for path in sorted((tree / "src" / "regkernel").glob("*.py")):
        n, c = count(path.read_text(encoding="utf-8"))
        lines += n
        code += c
    return {"lines": lines, "code": code}


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run of the tree's own benchmark: its result line, plus
    the fingerprint line, or a failed run when it exits non-zero or its
    last line is not a result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}, no result line: {proc.stderr[-400:]}"}
    for line in lines:
        if line.startswith("fingerprint "):
            result["fingerprint"] = json.loads(line[len("fingerprint "):])
    if proc.returncode:
        result["error"] = f"exit {proc.returncode}"
    return result


def summary(values: list[float]) -> dict:
    """Median, interquartile range and number of runs."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": len(values)}


def bench_record(commit: str, size: dict, runs: dict[str, list[dict]]) -> dict:
    fingerprint = next((r["fingerprint"] for rs in runs.values() for r in rs
                        if "fingerprint" in r), {})
    workloads = {}
    for workload, results in runs.items():
        values: dict[str, list[float]] = {}
        for r in results:
            for name, metric in r.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        workloads[workload] = {
            "metrics": {name: summary(v) for name, v in sorted(values.items())},
            "runs": [{key: r.get(key) for key in
                      ("seed", "position", "correct", "attempted", "failed", "error")}
                     for r in results],
        }
    return {
        "commit": git("rev-parse", commit),
        "subject": git("log", "-1", "--format=%s", commit),
        "fingerprint": {key: fingerprint.get(key) for key in ("cores", "python", "numpy")},
        "src_regkernel": size,
        "seeds": SEEDS,
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commits", nargs="+")
    parser.add_argument("--out", type=Path, default=ROOT / "trajectory")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    commits = [git("rev-parse", "--short", c) for c in args.commits]
    runs = {c: {w: [] for w in workloads} for c in commits}
    with tempfile.TemporaryDirectory(prefix="regkernel-trajectory-") as tmp:
        trees = {}
        for c in commits:
            trees[c] = Path(tmp) / c
            extract(c, trees[c])
        for index, seed in enumerate(SEEDS):
            turn = index % len(commits)
            order = commits[turn:] + commits[:turn]
            for workload in workloads:
                for position, c in enumerate(order):
                    result = run_bench(trees[c], workload, seed)
                    result.update(seed=seed, position=position)
                    runs[c][workload].append(result)
                    metrics = result.get("metrics", {})
                    print(f"{c}\t{workload}\tseed {seed}\t"
                          + ("\t".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
                             or result.get("error", "no metrics")), flush=True)
        args.out.mkdir(parents=True, exist_ok=True)
        for c in commits:
            path = args.out / f"BENCH_{c}.json"
            record = bench_record(c, source_size(trees[c]), runs[c])
            path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
