"""Exact and Monte Carlo evaluation of the DFA-counting string kernel.

For two strings x, y and a state count n, let ``K_n(x, y)`` be the number
of n-state DFAs that accept both, and ``P_n(x, y)`` the fraction of the
n-state DFA space that accepts both.  The full kernel is

    K(x, y) = 1{x = y} + sum_{n=1}^{min(|x|, |y|)} K_n(x, y),

optionally truncated at ``n_max`` (truncation is recorded, never silent).

The exact path rests on an identity: among DFAs sharing a transition
table, acceptance of x and of y depend only on the end states, and every
state is accepting independently with probability 1/2.  Taking A as the
number of tables on which x and y end in the same state (out of
T = n**(n*k) tables),

    P_n(x, y) = (1/4) * (1 + A / T).

``count`` computes A without listing the T tables.

The Monte Carlo path uses the same identity with the T tables replaced by
m uniformly sampled ones: with A the number of sampled tables on which x
and y end in the same state,

    P_n ~ (1/4) * (1 + A/m) = (m + A) / (4m).

The accepting bits are integrated out exactly, so only tables are read.
The estimate is unbiased, and since P_n >= 1/4 its relative error is at
most |A/m - q|, with q the probability that x and y end in the same state.
Hoeffding's inequality (JASA 1963) then gives relative error at most
epsilon with probability at least 1 - delta from
m = ceil(ln(2/delta) / (2 epsilon**2)) tables, independent of n and the
strings.  For each n the m tables are drawn once, from a stream seeded
only by (master_seed, n) (``stream``), and every string is walked over the
same sample, as with random features (Rahimi & Recht, NIPS 2007).  A value
therefore depends only on its two strings, the seed and m:
``kernel_value(x, y)`` equals the Gram entry and the prediction term bit
for bit, and Monte Carlo Grams are symmetric and PSD by construction.
The certificate holds per entry; entries that share a sample are
correlated.

Both modes share one path, ``kernel_block``: plan, count, assemble,
expand.  The block's plan (count.BlockPlan) decides its distinct strings
and encodes each once, and count.block_counts lists a matrix of counts
per n over them.  Then one value function, built once per block, maps a
pair's identity term and its counts for n = 1..n_used to its value: term
n is affine in A_n, s_n * (D_n + A_n) / (4 * D_n) with D_n the tables
counted, so every value is one integer numerator divided once, except
Monte Carlo normalized values, a left-to-right float sum.  Each distinct
pair is assembled once (a symmetric block's upper triangle only), and the
plan maps the result back to the block's strings.  kernel_value,
gram_matrix and prediction all read their values from it, and a Gram is
one matrix of those values.  The single terms exact_pn, exact_kn and
mc_pn read their A_n from count.agreement_matrix, through the same
count.block_counts.

numpy is imported only inside ``GramMatrix.to_array``, and fractions
only inside exact_pn: the runtime paths and the sampler are pure
Python over integers, and the records (KernelParams, ApproxCertificate,
KernelValue, GramMatrix) are ``automata.Record`` classes.  So importing
this module, and the sample, kernel, gram, train and predict commands in
either mode, load none of numpy, fractions or dataclasses.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from . import count, stream
from .automata import (
    Alphabet,
    CapExceededError,
    Record,
    dfa_space_size,
    joint_accept_count_grid,  # re-exported: bench/make_reference.py imports it from here
    table_count,
)

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

MODES = ("exact", "monte-carlo")
SCALINGS = ("paper", "normalized")


class KernelParams(Record):
    """Everything needed to evaluate (and replay) a kernel value.

    mode: "exact" counts over all transition tables; "monte-carlo" over
        a sample of them.
    scaling: "paper" sums raw DFA counts K_n (exact integers in exact
        mode); "normalized" sums w_n * P_n with non-negative per-n
        weights (default 1), producing floats.  Paper scaling has no
        weights and refuses them.
    n_max: cap on the summation index; the sum always stops at
        min(|x|, |y|, n_max) and records whether it was truncated.
    epsilon, failure_prob: relative accuracy and confidence parameter of
        the Monte Carlo certificate.
    master_seed: 64-bit seed; the Monte Carlo sample of state count n is
        the stream keyed by (master_seed, n) alone.
    """

    _fields = ("alphabet", "n_max", "mode", "scaling", "epsilon", "failure_prob",
               "master_seed", "weights")

    def __init__(self, alphabet: Alphabet, n_max: int, mode: str = "exact",
                 scaling: str = "paper", epsilon: float = 0.1, failure_prob: float = 0.05,
                 master_seed: int = 0, weights: tuple[float, ...] | None = None):
        self._set(alphabet=alphabet, n_max=n_max, mode=mode, scaling=scaling, epsilon=epsilon,
                  failure_prob=failure_prob, master_seed=master_seed, weights=weights)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        _check_budget_args(self.epsilon, self.failure_prob)
        stream.check_seed(int(self.master_seed))
        if self.weights is not None:
            if self.scaling == "paper":
                raise ValueError("weights apply only to normalized scaling")
            try:
                ws = tuple(float(w) for w in self.weights)
            except OverflowError as e:  # an int beyond the float range
                raise ValueError(f"weights must be finite: {e}") from e
            self._set(weights=ws)
            if len(ws) < self.n_max:
                raise ValueError(f"need {self.n_max} weights, got {len(ws)}")
            if not all(math.isfinite(w) for w in ws):
                raise ValueError("weights must be finite")
            if any(w < 0 for w in ws):
                raise ValueError("weights must be non-negative")

    def weight_for(self, n: int) -> float:
        return 1.0 if self.weights is None else self.weights[n - 1]

    def to_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.text,
            "n_max": self.n_max,
            "mode": self.mode,
            "scaling": self.scaling,
            "epsilon": self.epsilon,
            "failure_prob": self.failure_prob,
            "master_seed": self.master_seed,
            "weights": list(self.weights) if self.weights is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelParams":
        return cls(
            alphabet=Alphabet(tuple(d["alphabet"])),
            n_max=int(d["n_max"]),
            mode=d["mode"],
            scaling=d["scaling"],
            epsilon=float(d["epsilon"]),
            failure_prob=float(d["failure_prob"]),
            master_seed=int(d["master_seed"]),
            weights=tuple(d["weights"]) if d.get("weights") is not None else None,
        )


class ApproxCertificate(Record):
    """Parameters under which a Monte Carlo value carries its guarantee:
    each P_n term, estimated as (m + A) / (4m) from the agreement count A
    over m = samples_per_term sampled tables, is within relative error
    epsilon of the exact value with probability at least 1 - failure_prob.

    ``bound`` names the inequality that sizes m and what it covers:
    Hoeffding's, for one entry (one P_n term of one pair) at a time.
    Entries that share a sample are correlated, and no union bound over
    a Gram is claimed."""

    _fields = ("epsilon", "failure_prob", "samples_per_term", "master_seed", "bound")

    def __init__(self, epsilon: float, failure_prob: float, samples_per_term: int,
                 master_seed: int, bound: str = "hoeffding-per-entry"):
        self._set(epsilon=epsilon, failure_prob=failure_prob, samples_per_term=samples_per_term,
                  master_seed=master_seed, bound=bound)


class KernelValue(Record):
    """A single kernel evaluation with its provenance.

    ``value`` is an exact non-negative integer in exact paper scaling and
    a float otherwise.  ``n_used`` is the summation limit that actually
    applied; ``truncated`` records whether n_max cut the sum short of
    min(|x|, |y|).
    """

    _fields = ("value", "mode", "scaling", "n_used", "truncated", "certificate")

    def __init__(self, value: int | float, mode: str, scaling: str, n_used: int,
                 truncated: bool, certificate: ApproxCertificate | None = None):
        self._set(value=value, mode=mode, scaling=scaling, n_used=n_used, truncated=truncated,
                  certificate=certificate)


def _check_budget_args(epsilon: float, failure_prob: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob must be in (0, 1), got {failure_prob}")


def hoeffding_samples(epsilon: float, failure_prob: float) -> int:
    """Sample budget ceil(ln(2 / failure_prob) / (2 * epsilon**2)) of the
    Monte Carlo kernel.

    The agreement fraction A/m of m sampled tables is a mean of m
    independent 0/1 variables, so Hoeffding's inequality gives
    |A/m - q| <= epsilon with probability at least 1 - failure_prob.  The
    estimate (1/4) * (1 + A/m) then has relative error at most epsilon,
    since P_n >= 1/4; one budget covers every string pair and state count.
    """
    _check_budget_args(epsilon, failure_prob)
    return math.ceil(math.log(2.0 / failure_prob) / (2.0 * epsilon**2))


def required_samples(epsilon: float, failure_prob: float) -> int:
    """Joint-acceptance sample budget ceil(12 * epsilon**-2 * ln(2 / failure_prob)).

    Solves the multiplicative Chernoff bound
    2*exp(-epsilon**2 * m * P / 3) <= failure_prob at the worst case
    P = 1/4 for the fraction of m sampled DFAs that accept both strings.
    The kernel counts end-state agreement instead and samples
    hoeffding_samples(epsilon, failure_prob) tables; this budget stays as
    the reference that the concentration checks measure against.
    """
    _check_budget_args(epsilon, failure_prob)
    return math.ceil(12.0 * epsilon**-2 * math.log(2.0 / failure_prob))


# ---------------------------------------------------------------------------
# Exact and Monte Carlo terms
# ---------------------------------------------------------------------------


def exact_kn(x: str, y: str, n: int, alphabet: Alphabet) -> int:
    """Exact count of n-state DFAs accepting both x and y,
    K_n = (T + A) * 2**n / 4.

    A is the table agreement count, read from count.agreement_matrix of
    the 1 x 1 block of x against y, and T = n**(n*k) the table total.  Of
    the 2**n accepting sets, half accept both strings on a table where
    they end in the same state and a quarter on any other table.  K_n is an
    integer, since 4 divides 2**n for n >= 2 and at n = 1 every table
    agrees (T + A = 2).
    """
    a = count.agreement_matrix([x], n, alphabet, [y])[0][0]
    return (table_count(n, len(alphabet)) + a) * 2**n // 4


def exact_pn(x: str, y: str, n: int, alphabet: Alphabet) -> Fraction:
    """Exact joint-acceptance fraction P_n(x, y) = K_n / |DFA space of n
    states| = (1/4) * (1 + A/T), from exact_kn: the accepting bits
    contribute the closed 1/4 factor because each state is accepting
    independently with probability 1/2.
    """
    from fractions import Fraction

    return Fraction(exact_kn(x, y, n, alphabet), dfa_space_size(n, len(alphabet)))


def mc_pn(x: str, y: str, n: int, m: int, alphabet: Alphabet, seed: int) -> float:
    """Monte Carlo estimate (m + A) / (4m) of P_n, with A the number of the
    seed's m shared n-state tables on which x and y end in the same state,
    read from count.agreement_matrix of the block (x, y) over that sample.

    Deterministic given (seed, n, x, y, m, alphabet), symmetric in (x, y),
    equal to the estimate a Gram reads for the same pair, and an unbiased
    estimator of exact_pn: each accepting bit is a fair coin, so given the
    table both strings are accepted with probability 1/2 when they end
    together and 1/4 when they do not.
    """
    a = count.agreement_matrix((x, y), n, alphabet, sample=(m, seed))[0][1]
    return (m + a) / (4 * m)


# ---------------------------------------------------------------------------
# Full kernel and Gram matrices
# ---------------------------------------------------------------------------


def _summation_limit(x: str, y: str, params: KernelParams) -> tuple[int, bool]:
    """n_used = min(|x|, |y|, n_max), and whether n_max cut the sum short."""
    limit = min(len(x), len(y))
    n_used = min(limit, params.n_max)
    return n_used, n_used < limit


def _value_function(
    params: KernelParams, n_top: int, mix: Sequence[Sequence[int]] | None = None
) -> Callable[[int, Sequence[int]], int | float]:
    """The value function of a block whose pairs sum at most n_top terms:
    value(same, counts) is the kernel value of one pair from its identity
    term 1{x = y} and its agreement counts A_1..A_n_used (n_used <= n_top)
    or, with ``mix``, its counts c_1..c_n_used from which
    A_n = sum_{j <= n} mix[n-1][j-1] * c_j.

    Term n is s_n * (D_n + A_n) / (4 * D_n), affine in A_n: D_n is the
    number of tables A_n is out of (n**(n*k) in exact mode, m sampled in
    Monte Carlo mode) and s_n is |DFA space of n| in paper scaling (so an
    exact term is K_n = (T + A) * 2**n / 4, as exact_kn counts it) and
    w_n in normalized scaling.  Over one common denominator d, a value is
    (d * same + base[u] + sum_j coef[u][j] * c_j) / d for u = n_used, with
    the integers base and coef computed here, once per block.  A value is
    then one integer numerator divided once: exactly, to an integer, in
    exact paper scaling, and rounded once to float otherwise (int true
    division rounds correctly, as float() of the rational sum would).
    Monte Carlo normalized values stay a left-to-right float sum."""
    k = len(params.alphabet)
    ns = range(1, n_top + 1)
    if params.mode == "exact":
        tables = [table_count(n, k) for n in ns]
    else:
        m = hoeffding_samples(params.epsilon, params.failure_prob)
        tables = [m] * n_top
        if params.scaling == "normalized":
            float_weights = [params.weight_for(n) for n in ns]

            def float_value(same: int, counts: Sequence[int]) -> float:
                total = float(same)
                for w, a in zip(float_weights, counts):
                    total += w * ((m + a) / (4 * m))  # P_n as in mc_pn
                return total

            return float_value
    if params.scaling == "paper":
        ratios = [(dfa_space_size(n, k), t) for n, t in zip(ns, tables)]
    else:  # w_n / D_n, with w_n's exact binary value
        ratios = [(w, b * t) for n, t in zip(ns, tables)
                  for w, b in [params.weight_for(n).as_integer_ratio()]]
    ratios = [(p // g, q // g) for p, q in ratios for g in [math.gcd(p, q)]]  # lowest terms
    quarter = math.lcm(*(q for _, q in ratios))  # d = 4 * quarter
    d = 4 * quarter
    slopes = [p * (quarter // q) for p, q in ratios]
    bases = [0, *itertools.accumulate(map(operator.mul, slopes, tables))]
    if mix is None:
        coefs = [slopes[:u] for u in range(n_top + 1)]
    else:
        coefs = [[sum(slopes[n - 1] * mix[n - 1][j - 1] for n in range(j, u + 1))
                  for j in range(1, u + 1)]
                 for u in range(n_top + 1)]
    integral = params.mode == "exact" and params.scaling == "paper"
    mul = operator.mul

    def value(same: int, counts: Sequence[int]) -> int | float:
        u = len(counts)
        total = d * same + bases[u] + sum(map(mul, coefs[u], counts))
        return total // d if integral else total / d

    return value


def _check_float_range(n_top: int, k: int) -> None:
    """Refuse, before any count, a Monte Carlo paper-scaled block whose
    values could pass the float range.  Term n of a value is
    |DFA_n| * (m + A_n) / (4m) with A_n <= m, so a value is at most
    1 + sum_{n <= n_top} |DFA_n| // 2 (|DFA_n| = 2**n * n**(n*k) is even),
    and a value within the range rounds to a finite float."""
    bound = 1
    for n in range(1, n_top + 1):
        bound += dfa_space_size(n, k) // 2
        if bound > sys.float_info.max:
            raise CapExceededError(n_top, n - 1, what="states in a paper-scaled Monte Carlo sum",
                                   hint="values overflow a float past it; use normalized scaling")


def check_block(params: KernelParams, n_top: int) -> None:
    """Refuse, before any count, a block whose deepest term is n_top: exact
    past the table cap (count.check_table_cap), Monte Carlo paper-scaled
    past the float range (_check_float_range).  Both grow with n, so the
    deepest term decides for every pair of a block, or of a prediction."""
    if params.mode == "exact":
        count.check_table_cap(n_top, len(params.alphabet))
    elif params.scaling == "paper":
        _check_float_range(n_top, len(params.alphabet))


def kernel_block(
    rows: Sequence[str],
    cols: Sequence[str] | None,
    params: KernelParams,
) -> list[list[int | float]]:
    """Kernel values of every (rows[i], cols[j]) pair, as an R x C matrix.

    With ``cols`` None the block is the symmetric Gram of ``rows``.  Every
    string is validated, and check_block run for the block's deepest term,
    before any count.

    Every block plans, counts, assembles, then expands.  The plan
    (count.BlockPlan) decides the distinct rows and columns and encodes
    each once, and count.block_counts, counting each string to its depth
    min(|s|, n_max), lists for each n up to the block's n_top a matrix of
    counts over them: A_n over the first
    hoeffding_samples(epsilon, failure_prob) tables of n's stream in Monte
    Carlo mode, and in exact mode A_n, or C_m over the accessible m-state
    tables with the weights ``mix`` that give A_n, from the counter that
    suits the block.  One value function (_value_function), built once per
    block, then assembles each distinct pair once (only j >= i of a
    symmetric block) from its identity term and its counts for
    n = 1..n_used; with accessible counts, ``mix`` is folded into its
    per-block integer constants.  plan.expand mirrors a symmetric block and
    maps the distinct pairs back to the block's strings.  kernel_value,
    gram_matrix and prediction all read their values from here.
    """
    plan = count.BlockPlan(rows, cols, params.alphabet)  # validates every string
    row_lens = [min(len(s), params.n_max) for s in plan.row_ids]
    col_lens = row_lens if plan.symmetric else [min(len(s), params.n_max) for s in plan.col_ids]
    n_top = min(max(row_lens, default=0), max(col_lens, default=0))

    check_block(params, n_top)
    sample = None if params.mode == "exact" else (
        hoeffding_samples(params.epsilon, params.failure_prob), params.master_seed)
    per_size, mix = count.block_counts(plan, row_lens, col_lens, len(params.alphabet), sample)
    value = _value_function(params, n_top, mix)

    cols = list(plan.col_ids)
    block: list[list[int | float]] = []
    for i, x in enumerate(plan.row_ids):
        lines = [counts[i] for counts in per_size[: row_lens[i]]]
        line: list[int | float] = [0] * len(cols)
        for j in range(i if plan.symmetric else 0, len(cols)):
            line[j] = value(int(x == cols[j]), [counts[j] for counts in lines[: col_lens[j]]])
        block.append(line)
    return plan.expand(block)


def kernel_value(x: str, y: str, params: KernelParams) -> KernelValue:
    """Evaluate the kernel K(x, y) under the given parameters.

    The identity term 1{x = y} is always present; the sum runs over
    n = 1..min(|x|, |y|, n_max).  The value is the 1 x 1 kernel_block of
    the pair, so it is symmetric in (x, y) and equal to the entry of any
    Gram matrix that contains both strings, bit for bit in every mode.
    """
    value = kernel_block([x], [y], params)[0][0]
    n_used, truncated = _summation_limit(x, y, params)
    cert = None
    if params.mode == "monte-carlo":
        m = hoeffding_samples(params.epsilon, params.failure_prob)
        cert = ApproxCertificate(params.epsilon, params.failure_prob, m, params.master_seed)
    return KernelValue(value, params.mode, params.scaling, n_used, truncated, cert)


class GramMatrix(Record):
    """Symmetric matrix of kernel values over an ordered string list:
    ``values[i][j]`` is K(strings[i], strings[j]) under ``params``."""

    _fields = ("strings", "params", "values")

    def __init__(self, strings: tuple[str, ...], params: KernelParams,
                 values: tuple[tuple[int | float, ...], ...]):
        self._set(strings=strings, params=params, values=values)

    def value(self, i: int, j: int) -> int | float:
        return self.values[i][j]

    def numeric(self) -> list[list[int | float]]:
        return [list(row) for row in self.values]

    def to_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.values, dtype=float)


def gram_matrix(strings: Sequence[str], params: KernelParams, jobs: int = 1) -> GramMatrix:
    """The symmetric kernel_block of distinct strings: each unordered pair
    is evaluated at most once, on the caller's thread.

    ``jobs`` is refused below 1 and otherwise ignored: no counter uses
    threads.  It stays only because the benchmark's traced run passes
    jobs=2 (bench/layers.py, ``kernel.gram_s.mc.jobs2``); ROADMAP item 2
    removes the keyword together with that metric.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    strings = tuple(strings)
    seen = set()
    for s in strings:
        if s in seen:
            raise ValueError(f"duplicate string {s!r} in Gram input")
        seen.add(s)
    values = kernel_block(strings, None, params)
    return GramMatrix(strings=strings, params=params, values=tuple(map(tuple, values)))


def format_version(params: KernelParams) -> int:
    """Version of the Gram sidecar and model formats for these parameters:
    4 for Monte Carlo (agreement counts over the first m tables of one
    SHAKE-256 stream per n, m sized by Hoeffding), 1 for exact."""
    return 1 if params.mode == "exact" else 4


def format_scalar(v: int | float) -> str:
    """Exact integers in full decimal, floats with 17 significant digits."""
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def gram_to_csv(gram: GramMatrix) -> str:
    """CSV with header row s0..s{k-1}; one row per string, same order."""
    size = len(gram.strings)
    lines = [",".join(f"s{i}" for i in range(size))]
    for row in gram.values:
        lines.append(",".join(map(format_scalar, row)))
    return "\n".join(lines) + "\n"


def gram_metadata_json(gram: GramMatrix) -> str:
    """Sidecar metadata: the full KernelParams (master_seed included) and
    the string list, enough to replay the matrix bit for bit."""
    meta = {
        "format": f"regkernel gram v{format_version(gram.params)}",
        "params": gram.params.to_dict(),
        "strings": list(gram.strings),
    }
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"
