"""Workload inputs and the untraced end-to-end run.

Every workload trains on parity-labelled strings (label +1 exactly for the
even-length strings), then classifies held-out longer strings.  The
benchmark drives the CLI as a user would: one ``python3 -m regkernel.cli``
process at a time, each started only after the previous one has exited
(a closed loop with one client).  Output checks run between processes and
are never inside a timed interval.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH / "data" / "exact_gram_reference.json"
ALPHABET = "ab"

# Upper bound on one run's wall time, kept below the 180 s every run must
# finish in.  A round is started only if the previous one would fit again.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 3
SETUP_CODE = "import regkernel.cli as c; c.build_parser()"


def strings_between(lo: int, hi: int) -> list[str]:
    """All strings over ``ab`` with length in [lo, hi], length then lexicographic."""
    return [
        "".join(p)
        for length in range(lo, hi + 1)
        for p in itertools.product(ALPHABET, repeat=length)
    ]


def parity_label(s: str) -> int:
    return 1 if len(s) % 2 == 0 else -1


def master_seed(seed: int) -> int:
    """The program's 63-bit master seed, derived from the workload seed."""
    return random.Random(seed).getrandbits(63)


@dataclass(frozen=True)
class Workload:
    name: str
    train_max_len: int
    heldout_lengths: tuple[int, int]
    n_max: int
    kernel_flags: tuple[str, ...]
    monte_carlo: bool

    def train_strings(self) -> list[str]:
        return strings_between(0, self.train_max_len)

    def heldout(self) -> list[str]:
        return strings_between(*self.heldout_lengths)

    def flags(self, seed: int) -> list[str]:
        """Kernel flags for ``gram`` and ``train``.  Monte Carlo runs get the
        master seed; exact values do not depend on it, so none is passed."""
        flags = list(self.kernel_flags)
        if self.monte_carlo:
            flags += ["--seed", str(master_seed(seed))]
        return flags


EXACT_GRAM = Workload(
    name="exact-gram",
    train_max_len=5,
    heldout_lengths=(6, 7),
    n_max=4,
    kernel_flags=("--mode", "exact", "--scaling", "paper", "--nmax", "4"),
    monte_carlo=False,
)
# No --scaling flag: the CLI defaults are what this workload measures.
MC_LEARN = Workload(
    name="mc-learn",
    train_max_len=4,
    heldout_lengths=(5, 6),
    n_max=3,
    kernel_flags=("--mode", "mc", "--eps", "0.05", "--delta", "0.01", "--nmax", "3"),
    monte_carlo=True,
)
WORKLOADS = {w.name: w for w in (EXACT_GRAM, MC_LEARN)}


def dataset_text(strings: list[str]) -> str:
    lines = [f"# alphabet {ALPHABET}"]
    lines += [f"{'+1' if parity_label(s) > 0 else '-1'}\t{s}" for s in strings]
    return "\n".join(lines) + "\n"


def write_inputs(w: Workload, work: Path) -> dict[str, Path]:
    paths = {"dataset": work / "train.tsv", "heldout": work / "heldout.txt"}
    paths["dataset"].write_text(dataset_text(w.train_strings()), encoding="utf-8")
    paths["heldout"].write_text("\n".join(w.heldout()) + "\n", encoding="utf-8")
    return paths


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Call:
    argv: list[str]
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Starts one child process at a time and reads its own rusage.

    The program sees the checkout's ``src`` on PYTHONPATH and nothing else
    from the benchmark: only flags and generated files.
    """

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def python(self, args: list[str]) -> Call:
        argv = [sys.executable, *args]
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            # wait4 gives this child's own peak RSS; the timer bounds a hung child.
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            argv=argv,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, args: list[str]) -> Call:
        return self.python(["-m", "regkernel.cli", *args])


# ---------------------------------------------------------------------------
# Output checks (never timed)
# ---------------------------------------------------------------------------


def read_csv_cells(path: Path, size: int) -> list[list[str]]:
    """The data cells of a Gram CSV; raises ValueError on a malformed file."""
    rows = path.read_text(encoding="utf-8").splitlines()
    if rows[0] != ",".join(f"s{i}" for i in range(size)):
        raise ValueError("unexpected header row")
    cells = [row.split(",") for row in rows[1:]]
    if len(cells) != size or any(len(row) != size for row in cells):
        raise ValueError(f"expected a {size}x{size} matrix")
    return cells


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_exact_gram(path: Path, reference: dict) -> str | None:
    """None when every entry equals the oracle reference as an integer."""
    expected = reference["values"]
    try:
        cells = read_csv_cells(path, len(expected))
        got = [[int(c) for c in row] for row in cells]
    except (OSError, ValueError, IndexError) as e:
        return f"unreadable Gram CSV: {e}"
    bad = [(i, j) for i, row in enumerate(expected) for j, v in enumerate(row) if got[i][j] != v]
    return f"{len(bad)} entries differ from the reference, first at {bad[0]}" if bad else None


def check_mc_gram(path: Path, size: int, first: bytes | None) -> str | None:
    """None when the matrix is bit-symmetric, finite and non-negative, and
    (when a first Gram of this run is given) byte-identical to it."""
    try:
        cells = read_csv_cells(path, size)
        values = [[float(c) for c in row] for row in cells]
    except (OSError, ValueError, IndexError) as e:
        return f"unreadable Gram CSV: {e}"
    if any(cells[i][j] != cells[j][i] for i in range(size) for j in range(i)):
        return "Gram is not bit-symmetric"
    if not all(0.0 <= v < float("inf") for row in values for v in row):
        return "Gram has a negative or non-finite entry"
    if first is not None and path.read_bytes() != first:
        return "Gram differs from the first run with the same seed"
    return None


TRAIN_DONE = re.compile(r"^training_errors \d+$")


def check_train(call: Call, model: Path) -> str | None:
    lines = call.stdout.splitlines()
    if not lines or not TRAIN_DONE.match(lines[-1]):
        return "no 'training_errors <count>' line"
    if not model.is_file() or model.stat().st_size == 0:
        return "no model file"
    return None


def parse_labels(call: Call, count: int) -> list[int] | None:
    lines = call.stdout.splitlines()
    if len(lines) != count or any(line not in ("+1", "-1") for line in lines):
        return None
    return [int(line) for line in lines]


# ---------------------------------------------------------------------------
# The untraced end-to-end run
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Per-operation bookkeeping and raw samples of one run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    heldout_right: int = 0
    heldout_total: int = 0

    def op(self, what: str, call: Call, problem: str | None = None) -> None:
        """Count one operation; a nonzero exit fails it whatever the check said."""
        self.attempted += 1
        self.add("rss_mb", call.rss_mb)
        if call.returncode != 0:
            problem = f"exit {call.returncode}: {call.stderr.strip()[-300:]}"
        if problem:
            self.failures.append(f"{what}: {problem}")

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Metric name -> (value, sample count); timings are medians."""
        out = {name: (statistics.median(v), len(v)) for name, v in self.samples.items()
               if name != "rss_mb"}
        out["peak_rss_mb"] = (max(self.samples["rss_mb"]), len(self.samples["rss_mb"]))
        if self.heldout_total:
            out["heldout_acc"] = (self.heldout_right / self.heldout_total, self.heldout_total)
        return out


def measure_setup(runner: Runner, outcome: Outcome) -> None:
    """setup_s: a fresh interpreter imports the CLI and builds its parser."""
    for _ in range(SETUP_REPEATS):
        call = runner.python(["-c", SETUP_CODE])
        outcome.op("setup", call)
        outcome.add("setup_s", call.wall_s)


def run_round(w: Workload, seed: int, runner: Runner, paths: dict[str, Path],
              outcome: Outcome, state: dict) -> None:
    """gram and train, then predict.  Monte Carlo rounds run gram and train
    twice: the second Gram must replay the first byte for byte, and the
    processes are short enough that one sample each is too noisy."""
    size = len(w.train_strings())
    flags = w.flags(seed)
    csv = runner.work / "gram.csv"
    model = runner.work / "train.model"
    for _ in range(2 if w.monte_carlo else 1):
        csv.unlink(missing_ok=True)
        call = runner.cli(["gram", "--dataset", str(paths["dataset"]), "--out", str(csv), *flags])
        outcome.add("gram_s", call.wall_s)
        if call.returncode != 0:
            outcome.op("gram", call)
        elif w.monte_carlo:
            outcome.op("gram", call, check_mc_gram(csv, size, state.get("first_gram")))
            state.setdefault("first_gram", csv.read_bytes())
        else:
            outcome.op("gram", call, check_exact_gram(csv, state["reference"]))

        model.unlink(missing_ok=True)
        call = runner.cli(["train", "--dataset", str(paths["dataset"]), "--out", str(model),
                           *flags])
        outcome.add("train_s", call.wall_s)
        outcome.op("train", call, check_train(call, model))

    heldout = w.heldout()
    call = runner.cli(["predict", "--model", str(model), "--in", str(paths["heldout"])])
    outcome.add("predict_strings_per_s", len(heldout) / call.wall_s)
    labels = parse_labels(call, len(heldout))
    problem = None if labels is not None else f"expected {len(heldout)} lines of +1/-1"
    outcome.op("predict", call, problem)
    if labels is not None:
        outcome.heldout_right += sum(y == parity_label(s) for y, s in zip(labels, heldout))
        outcome.heldout_total += len(heldout)


def run_e2e(w: Workload, seed: int, seconds: float, runner: Runner) -> Outcome:
    outcome = Outcome()
    measure_setup(runner, outcome)
    paths = write_inputs(w, runner.work)
    state = {} if w.monte_carlo else {"reference": load_reference()}
    started = time.monotonic()
    while True:
        round_start = time.monotonic()
        run_round(w, seed, runner, paths, outcome, state)
        now = time.monotonic()
        if now - started >= seconds or 2 * now - round_start > runner.deadline:
            break
    return outcome
