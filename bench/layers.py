"""The traced run: timed calls into each layer of regkernel, from outside.

The calls go only to names that ``regkernel/__init__.py`` exports and to the
CLI's ``main`` in-process; nothing inside the package is patched or
wrapped.  Each call gets one span (name, start, end, parent, operation id);
spans stay in memory and are written out when the run ends.  The same calls
run twice, first untraced and then traced, and the difference of the two
totals is reported as the tracing overhead.  Output checks run after both
passes and are never timed.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import random
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import regkernel as rk
from regkernel import cli

from workloads import (
    EXACT_GRAM,
    MC_LEARN,
    Call,
    Runner,
    SETUP_CODE,
    SETUP_REPEATS,
    TRAIN_DONE,
    Workload,
    dataset_text,
    load_reference,
    master_seed,
    parity_label,
    strings_between,
)

LAYERS = ("automata", "kernel", "embedding", "learner", "verify", "cli")
AB = rk.Alphabet(tuple("ab"))
KN_PAIR = ("ababa", "abbaa")
# n=3 takes well under a millisecond and n=5 about two seconds.
KN_REPEATS = {3: 20, 4: 5, 5: 1}
MC_REPEATS = 10
# 40 calls leave 10 beyond the 75th percentile.
PREDICT_CALLS = 40
UNIVERSE_REPEATS = 3
EMBED_STRINGS = 10
VERIFY_SUITES = ("bounds", "embedding", "psd", "concentration")


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans in memory; a disabled tracer only runs the calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(len(self.spans), name, self._ops,
                    parent.id if parent else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Layer (first name component) -> its spans' time minus their children's."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".")[0]] += s.end - s.start - covered[s.id]
        return out


def run_main(argv: list[str]) -> tuple[int, str]:
    """The CLI in-process: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def cli_params(w: Workload, seed: int, command: str) -> rk.KernelParams:
    """The parameters the CLI resolves for ``command`` with the workload's
    flags, defaults included."""
    args = cli.build_parser().parse_args(
        [command, "--dataset", "-", "--out", "-", *w.flags(seed)])
    return rk.KernelParams(
        alphabet=rk.Alphabet(tuple(args.alphabet)),
        n_max=args.nmax,
        mode="exact" if args.mode == "exact" else "monte-carlo",
        scaling=args.scaling,
        epsilon=args.eps,
        failure_prob=args.delta,
        master_seed=args.seed or 0,
    )


def random_string(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


class Context:
    """Seeded inputs of the traced run; both passes use the same ones."""

    def __init__(self, w: Workload, seed: int, work: Path):
        rng = random.Random(seed)
        self.workload = w
        self.seed = master_seed(seed)
        self.exact_params = cli_params(EXACT_GRAM, seed, "gram")
        self.mc_params = cli_params(MC_LEARN, seed, "train")
        self.has_jobs = "jobs" in inspect.signature(rk.gram_matrix).parameters
        self.predict_strings = rng.sample(w.heldout(), PREDICT_CALLS)
        self.embed_strings = [random_string(rng, 3, 5) for _ in range(EMBED_STRINGS)]
        self.exact_pairs = [(random_string(rng, 3, 6), random_string(rng, 3, 6)) for _ in range(4)]
        self.mc_pairs = [(random_string(rng, 3, 6), random_string(rng, 3, 6)) for _ in range(2)]
        self.small_queries = [random_string(rng, 5, 7) for _ in range(8)]
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        (work / "small.tsv").write_text(dataset_text(strings_between(0, 4)), encoding="utf-8")
        (work / "queries.txt").write_text("\n".join(self.small_queries) + "\n", encoding="utf-8")


def layer_calls(t: Tracer, ctx: Context, out_dir: Path) -> dict:
    """Every timed call of one pass; returns what the checks need."""
    out: dict = {"kn": {}, "cli": []}
    w = ctx.workload
    with t.span("bench.exact_kn"):
        for n, reps in KN_REPEATS.items():
            for _ in range(reps):
                out["kn"][n] = t.call(f"kernel.exact_kn.n{n}", rk.exact_kn, *KN_PAIR, n, AB)

    with t.span("bench.mc_kernel"):
        for _ in range(MC_REPEATS):
            out["mc_kv"] = t.call("kernel.kernel_value.mc", rk.kernel_value, *KN_PAIR, ctx.mc_params)

    with t.span("bench.gram"):
        grams = out["grams"] = {}
        grams["exact"] = t.call("kernel.gram_matrix.exact", rk.gram_matrix,
                                EXACT_GRAM.train_strings(), ctx.exact_params)
        grams["mc.jobs1"] = t.call("kernel.gram_matrix.mc.jobs1", rk.gram_matrix,
                                   MC_LEARN.train_strings(), ctx.mc_params)
        if ctx.has_jobs:
            grams["mc.jobs2"] = t.call("kernel.gram_matrix.mc.jobs2", rk.gram_matrix,
                                       MC_LEARN.train_strings(), ctx.mc_params, jobs=2)

    with t.span("bench.learner"):
        gram = grams["mc.jobs1"] if w.monte_carlo else grams["exact"]
        labels = [parity_label(s) for s in w.train_strings()]
        model = out["model"] = t.call("learner.train", rk.train, gram, labels, 200)
        out["predictions"] = [t.call("learner.predict", rk.predict, model, x)
                              for x in ctx.predict_strings]

    with t.span("bench.automata"):
        np_rng = np.random.default_rng(ctx.seed)
        targets = [t.call("automata.sample_dfa", rk.sample_dfa, 2, AB, np_rng)
                   for _ in range(EMBED_STRINGS)]
        texts = [t.call("automata.serialize_dfa", rk.serialize_dfa, d) for d in targets]
        out["parsed"] = [t.call("automata.parse_dfa", rk.parse_dfa, s) for s in texts]
        out["targets"] = targets

    with t.span("bench.embedding"):
        for _ in range(UNIVERSE_REPEATS):
            universe = t.call("embedding.ConceptUniverse", rk.ConceptUniverse, AB, 3)
        vecs = [t.call("embedding.phi", rk.phi, x, universe) for x in ctx.embed_strings]
        scores = []
        for target, vec in zip(targets, vecs):
            with t.span("embedding.separator_score"):
                scores.append(rk.score(rk.separator(target, universe), vec))
        out["scores"] = scores

    with t.span("bench.cli"):
        model_path = out_dir / "small.model"
        out["cli"].append(("train", t.call("cli.main.train", run_main, [
            "train", "--dataset", str(ctx.work / "small.tsv"), "--mode", "exact",
            "--scaling", "paper", "--nmax", "3", "--out", str(model_path)])))
        for x, y in ctx.exact_pairs:
            out["cli"].append((("exact", x, y), t.call("cli.main.kernel.exact", run_main, [
                "kernel", "--mode", "exact", "--nmax", "3", x, y])))
        for x, y in ctx.mc_pairs:
            out["cli"].append((("mc", x, y), t.call("cli.main.kernel.mc", run_main, [
                "kernel", "--mode", "mc", "--eps", "0.1", "--delta", "0.05", "--nmax", "3",
                "--seed", str(ctx.seed), x, y])))
        out["cli"].append(("sample", t.call("cli.main.sample", run_main, [
            "sample", "--states", "3", "--count", "20", "--seed", str(ctx.seed),
            "--out", str(out_dir / "dfas")])))
        out["cli"].append(("predict", t.call("cli.main.predict", run_main, [
            "predict", "--model", str(model_path), "--in", str(ctx.work / "queries.txt")])))
        for suite in VERIFY_SUITES:
            out["cli"].append((("verify", suite), t.call(f"verify.suite.{suite}", run_main, [
                "verify", "--suite", suite])))
    return out


# ---------------------------------------------------------------------------
# Checks (never timed)
# ---------------------------------------------------------------------------


def kernel_by_enumeration(x: str, y: str, n_max: int) -> int:
    limit = min(len(x), len(y), n_max)
    return (x == y) + sum(rk.kn_by_enumeration(x, y, n, AB) for n in range(1, limit + 1))


def check_cli(kind, result: tuple[int, str], ctx: Context) -> str | None:
    code, stdout = result
    if code != 0:
        return f"exit {code}"
    lines = stdout.splitlines()
    if kind == "train":
        return None if lines and TRAIN_DONE.match(lines[-1]) else "no training_errors line"
    if kind == "sample":
        dfas = [rk.parse_dfa(Path(p).read_text(encoding="utf-8")) for p in lines]
        return None if len(dfas) == 20 and all(d.n == 3 for d in dfas) else "bad sample output"
    if kind == "predict":
        ok = len(lines) == len(ctx.small_queries) and all(v in ("+1", "-1") for v in lines)
        return None if ok else "bad predict output"
    if kind[0] == "exact":
        expected = kernel_by_enumeration(kind[1], kind[2], 3)
        return None if lines and lines[0] == str(expected) else f"{lines[:1]} != {expected}"
    if kind[0] == "mc":
        ok = len(lines) == 2 and float(lines[0]) > 0 and lines[1].startswith("certificate ")
        return None if ok else "bad Monte Carlo kernel output"
    if kind[0] == "verify":
        return None if lines and lines[-1].startswith("summary\tPASS") else "suite failed"
    raise ValueError(kind)


def run_checks(out: dict, ctx: Context) -> list[str]:
    failures = []
    grams = out["grams"]
    if grams["exact"].numeric() != load_reference()["values"]:
        failures.append("exact Gram differs from the reference")
    mc = grams["mc.jobs1"].to_array()
    if not np.array_equal(mc, mc.T):
        failures.append("Monte Carlo Gram is not bit-symmetric")
    if "mc.jobs2" in grams and not np.array_equal(mc, grams["mc.jobs2"].to_array()):
        failures.append("Monte Carlo Gram differs between jobs=1 and jobs=2")
    if out["kn"][3] != rk.kn_by_enumeration(*KN_PAIR, 3, AB):
        failures.append("exact_kn n=3 differs from kn_by_enumeration")
    if any(p not in (1, -1) for p in out["predictions"]):
        failures.append("predict returned a label other than +1/-1")
    if [rk.serialize_dfa(d) for d in out["parsed"]] != [rk.serialize_dfa(d) for d in out["targets"]]:
        failures.append("parse_dfa does not invert serialize_dfa")
    for target, x, s in zip(out["targets"], ctx.embed_strings, out["scores"]):
        if (s > 0) != target.accepts(x):
            failures.append(f"separator score {s} for {x!r} disagrees with membership")
    for kind, result in out["cli"]:
        try:
            problem = check_cli(kind, result, ctx)
        except (OSError, ValueError) as e:  # unreadable or unparsable output
            problem = f"{type(e).__name__}: {e}"
        if problem:
            failures.append(f"cli {kind}: {problem}")
    return failures


def outside_eps_frac(out: dict, ctx: Context) -> float:
    """Share of Monte Carlo Gram entries farther than eps (relative) from exact."""
    p = ctx.mc_params
    exact_params = rk.KernelParams(alphabet=p.alphabet, n_max=p.n_max, mode="exact",
                                   scaling=p.scaling, weights=p.weights)
    exact = rk.gram_matrix(MC_LEARN.train_strings(), exact_params).to_array()
    mc = out["grams"]["mc.jobs1"].to_array()
    return float(np.mean(np.abs(mc - exact) > p.epsilon * exact))


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def cli_import_s(runner: Runner) -> tuple[float, list[Call]]:
    """Median fresh-interpreter CLI import beyond a bare interpreter."""
    calls = {code: [runner.python(["-c", code]) for _ in range(SETUP_REPEATS)]
             for code in (SETUP_CODE, "pass")}
    medians = {code: statistics.median(c.wall_s for c in cs) for code, cs in calls.items()}
    return medians[SETUP_CODE] - medians["pass"], calls[SETUP_CODE] + calls["pass"]


def run_traced(w: Workload, seed: int, runner: Runner) -> dict:
    """Per-layer metrics, failures, spans and the tracing overhead."""
    ctx = Context(w, seed, runner.work / "inputs")
    totals = {}
    for enabled in (False, True):
        tracer = Tracer(enabled)
        out_dir = runner.work / ("traced" if enabled else "untraced")
        out_dir.mkdir()
        start = time.perf_counter()
        out = layer_calls(tracer, ctx, out_dir)
        totals[enabled] = time.perf_counter() - start
    t = tracer

    def med_ms(name: str) -> float:
        return statistics.median(t.durations(name)) * 1000.0

    mc_kv = out["mc_kv"]
    mc_samples = mc_kv.n_used * mc_kv.certificate.samples_per_term
    model = out["model"]
    predict_ms = [d * 1000.0 for d in t.durations("learner.predict")]
    exact_strings = EXACT_GRAM.train_strings()
    tables = sum(
        n ** (n * len(AB))
        for i, x in enumerate(exact_strings) for y in exact_strings[i:]
        for n in range(1, min(len(x), len(y), EXACT_GRAM.n_max) + 1)
    )
    import_s, import_calls = cli_import_s(runner)
    failures = [f"fresh interpreter {' '.join(c.argv[1:])}: exit {c.returncode}"
                for c in import_calls if c.returncode != 0]
    failures += run_checks(out, ctx)
    # (value, sample count, computed rather than measured)
    metrics = {
        "cli.import_s": (import_s, SETUP_REPEATS, False),
        **{f"kernel.exact_kn_ms.n{n}": (med_ms(f"kernel.exact_kn.n{n}"), reps, False)
           for n, reps in KN_REPEATS.items()},
        "automata.tables_enumerated": (tables, 1, True),
        "kernel.mc_samples_per_s": (
            mc_samples / statistics.median(t.durations("kernel.kernel_value.mc")),
            MC_REPEATS, False),
        "kernel.mc_samples_drawn": (mc_samples * MC_REPEATS, 1, True),
        "kernel.mc_outside_eps_frac": (outside_eps_frac(out, ctx),
                                       len(MC_LEARN.train_strings()) ** 2, False),
        **{f"kernel.gram_s.{name}": (t.durations(f"kernel.gram_matrix.{name}")[0], 1, False)
           for name in out["grams"]},
        "kernel.gram_pairs": (sum(len(g.strings) * (len(g.strings) + 1) // 2
                                  for g in out["grams"].values()), 1, True),
        "learner.epoch_ms": (t.durations("learner.train")[0] * 1000.0 / model.epochs_run,
                             model.epochs_run, False),
        "learner.epochs_run": (model.epochs_run, 1, False),
        "learner.support_size": (len(model.support), 1, False),
        "learner.predict_ms_p50": (statistics.median(predict_ms), len(predict_ms), False),
        "learner.predict_ms_p75": (statistics.quantiles(predict_ms, n=4)[2],
                                   len(predict_ms), False),
        "learner.kernel_calls_per_predict": (len(model.support), 1, True),
        "embedding.universe_build_ms": (med_ms("embedding.ConceptUniverse"),
                                        UNIVERSE_REPEATS, False),
        "embedding.phi_ms": (med_ms("embedding.phi"), EMBED_STRINGS, False),
        "embedding.separator_score_ms": (med_ms("embedding.separator_score"),
                                         EMBED_STRINGS, False),
        **{f"verify.suite_s.{s}": (t.durations(f"verify.suite.{s}")[0], 1, False)
           for s in VERIFY_SUITES},
    }
    self_times = t.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), 1, False)
    metrics["trace.overhead_s"] = (totals[True] - totals[False], 1, False)
    metrics["trace.spans"] = (len(t.spans), 1, False)
    return {
        "metrics": metrics,
        "absent": [] if ctx.has_jobs else ["kernel.gram_s.mc.jobs2"],
        "attempted": len(import_calls) + sum(1 for s in t.spans
                                             if not s.name.startswith("bench.")),
        "failures": failures,
        "totals_s": {"untraced": totals[False], "traced": totals[True]},
        "spans": [asdict(s) for s in t.spans],
    }
