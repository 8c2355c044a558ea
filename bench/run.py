"""regkernel benchmark: CLI workloads end to end, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload exact-gram --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload mc-learn --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --self-check

``--trace 0`` drives the CLI in child processes and reports every
end-to-end metric named in BENCHMARK.json; ``--trace 1`` runs the traced
in-process layer calls and reports every per-layer metric.  Every metric is
printed by name with its unit and sample count, then the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A fuller record (machine fingerprint, sample counts, failures and,
for traced runs, every span) goes to ``.bench_results/``.  ``--self-check``
shows that the output checks catch a corrupted Gram and a failing call.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import (  # noqa: E402
    RUN_BUDGET_S,
    WORKLOADS,
    Call,
    Outcome,
    Runner,
    check_exact_gram,
    load_reference,
    run_e2e,
)


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    """None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint() -> dict:
    """Machine and program identity stored with every result.  The source
    line count is metadata, never a gated metric."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "regkernel").rglob("*.py")))
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_lines": lines,
    }


def report(spec: dict, kind: str, metrics: dict, absent: list[str], attempted: int,
           failures: list[str]) -> dict:
    """Print every metric with its unit and sample count; return the result line."""
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(metrics) - set(absent))
    if missing:
        failures = failures + [f"metric not measured: {name}" for name in missing]
    for name, unit in units.items():
        if name in metrics:
            value, count, computed = metrics[name]
            note = ", computed" if computed else ""
            print(f"metric {name} = {value:.6g} {unit} (n={count}{note})")
        elif name in absent:
            print(f"metric {name} absent")
    failed = min(len(failures), attempted)
    print(f"failed_ops_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for failure in failures:
        print(f"FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def self_check(runner: Runner) -> int:
    """Each injected fault must raise failed_ops_frac above 0, and its
    unaltered control must not."""
    reference = load_reference()
    csv = runner.work / "gram.csv"
    exited_ok = Call(argv=[], wall_s=0.0, rss_mb=0.0, returncode=0, stdout="", stderr="")

    def gram_outcome(values: list[list[int]]) -> Outcome:
        header = ",".join(f"s{i}" for i in range(len(values)))
        csv.write_text("\n".join([header] + [",".join(map(str, r)) for r in values]) + "\n")
        outcome = Outcome()
        outcome.op("gram", exited_ok, check_exact_gram(csv, reference))
        return outcome

    def kernel_outcome(y: str) -> Outcome:
        outcome = Outcome()
        outcome.op("kernel", runner.cli(["kernel", "--mode", "exact", "--nmax", "3", "ab", y]))
        return outcome

    altered = [row[:] for row in reference["values"]]
    altered[3][5] += 1
    cases = [
        ("Gram control", gram_outcome(reference["values"]), False),
        ("Gram with one altered entry", gram_outcome(altered), True),
        ("kernel control", kernel_outcome("ba"), False),
        ("kernel call forced to exit 2 by an unknown symbol", kernel_outcome("ac"), True),
    ]
    passed = True
    for name, outcome, should_fail in cases:
        frac = len(outcome.failures) / outcome.attempted
        passed &= (frac > 0) == should_fail
        print(f"self-check {name}: failed_ops_frac = {frac:g} "
              f"(expected {'> 0' if should_fail else '0'})")
    print(f"self-check {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # A terminated run still removes its work directory and stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "regkernel" / "cli.py").is_file():
        print(f"error: no regkernel sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The program is pure Python: building it means byte-compiling the
    # checkout's sources once, so no timed process pays for compilation.
    if not compileall.compile_dir(str(SRC / "regkernel"), quiet=1):
        print("error: regkernel sources do not compile", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload or 'self-check'}-", dir=tmp_root))
    runner = Runner(ROOT, work, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.self_check:
            return self_check(runner)
        w = WORKLOADS[args.workload]
        if args.trace:
            sys.path.insert(0, str(SRC))
            from layers import run_traced

            traced = run_traced(w, args.seed, runner)
            metrics, absent = traced["metrics"], traced["absent"]
            attempted, failures = traced["attempted"], traced["failures"]
            extra = {k: traced[k] for k in ("totals_s", "spans")}
        else:
            outcome = run_e2e(w, args.seed, args.seconds, runner)
            metrics = {name: (value, count, False)
                       for name, (value, count) in outcome.metrics().items()}
            absent, attempted, failures, extra = [], outcome.attempted, outcome.failures, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = report(spec, "per_layer" if args.trace else "end_to_end", metrics, absent,
                    attempted, failures)
    if args.trace:
        totals = extra["totals_s"]
        print(f"trace overhead {totals['traced'] - totals['untraced']:.4f} s "
              f"(traced {totals['traced']:.3f} s, untraced {totals['untraced']:.3f} s)")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(), **result,
        "samples": {name: m[1] for name, m in metrics.items()}, "absent": absent, **extra,
    }
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
