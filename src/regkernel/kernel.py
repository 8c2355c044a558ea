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

A depends only on the part of a table that state 0 reaches.  Call a table
accessible when state 0 reaches every state, and label its states
canonically, in order of first appearance as the rows are scanned in
label order (the initially connected automata of Liskovets 1969; Bassino
and Nicaud, TCS 2007).  An n-state table is one accessible m-state table
(its reachable part, relabelled) for some m <= n, with the labels
1..m-1 mapped to distinct states other than 0 and the n - m other rows
free, so with C_m the number of accessible m-state tables on which x and
y end in the same state,

    A(n) = sum_{m <= n} (n-1)(n-2)...(n-m+1) * n**((n-m)*k) * C_m.

While T is at most _EXHAUSTIVE_LIMIT (2**16, so n <= 4 over two symbols),
exact mode counts C_1..C_n with one bit-sliced counter (described below
for the Monte Carlo stream), over the accessible tables that
accessible_tables builds bit-sliced, once per (m, k) in a process: 5,477
tables for n <= 4 over two symbols against the 66,282 of all tables, and
one count of C_m serves every n.

Above the limit, A is computed by a lazy walk that fills in only the table
cells the two strings visit and treats all unvisited states as one branch,
so it never lists the T tables.  One walk at the largest state count N
gives A(n) for every n <= N: it records a histogram h[v, c] of its
finished equal-end branches by states visited v and cells assigned c, and

    A(n) = sum_{v <= n} h[v, c] * (n-1)(n-2)...(n-v+1) * n**(n*k - c),

the same identity over partial tables, so a kernel value walks each pair
once, not once per n.  The walk does not branch on y's last step: when
that step reaches an unassigned cell, exactly one of its branches ends
where x ended, so it adds 1 to h[v, c + 1] directly.  The two counters
return the same integers, so the limit only decides speed: counting the
accessible tables for a block of many strings costs less than walking
each pair, and the walk wins once T grows.
Enumerating every table (and every DFA) with numpy remains in this module
as the independent oracle: the tests check both counters against it, and
``verify --suite bounds`` and the benchmark reference are computed from
it.  The fixed ``TABLE_CAP`` bounds T = n**(n*k) on both paths, so the
exact path refuses the same state counts it always did.

Permuting the symbols permutes the columns of a uniform table and leaves
its distribution unchanged, and K is symmetric, so every exact value is
constant on the class of (x, y) under symbol permutation and swapping.
Above the limit, an exact block walks one canonical pair per class of its
distinct strings and fills the class from it.  The class is read off the
codes the block's plan encoded, and the walk runs on them: no string is
encoded again, and the table cap is checked once per block, not per
class.  That memo lives for one call: nothing is cached between calls.

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
only by (master_seed, n), and every string is walked over the same
sample, as with random features (Rahimi & Recht, NIPS 2007).

The sample is a stream, not a stored array: its tables come in blocks of
a fixed _BLOCK_SAMPLES, and each cell of a block is drawn from SHAKE-256
(FIPS 202) keyed by (master_seed, n, block, cell, round, bit-plane), as
bit-planes with one bit per table (draw_table_block).  So the first m
tables are the same for every m, and a replay does not depend on any
library's generator.  Within a block everything is bit-sliced in Python
integers: a cell becomes n disjoint masks, one per successor state, and a
string's end states n disjoint masks, one per state.  The strings are
walked together as their prefix trie, depth first, so a prefix that
several strings share is walked once, and a trie edge costs n*n ANDs of
block-wide masks.  The agreement count of two strings is the popcount of
the AND of their end-state masks, summed over blocks.  Live memory is one
block, whatever m is.  A value therefore depends only on its two
strings, the seed and m: ``kernel_value(x, y)`` equals the Gram entry
and the prediction term bit for bit, and Monte Carlo Grams are symmetric
and PSD by construction.
The certificate holds per entry; entries that share a sample are
correlated.

The stream is also the package's one DFA sampler: sample_dfas decodes
its tables one at a time, with accepting sets from a second SHAKE-256
stream keyed by (master_seed, n, block, state) (draw_accept_block).
``regkernel sample`` writes them, so the sample behind any Monte Carlo
run can be inspected.

Both modes share one count-then-assemble path, ``kernel_block``.  One of
three counters lists a matrix of counts per n over the block's distinct
strings: the accessible counter (C_m over the accessible m-state tables,
exact mode up to the limit), the walk (A_n over all n-state tables, one
walk per class, exact mode above the limit) or the stream (A_n over m
sampled tables, Monte Carlo mode).  Then one value function, built once
per block, maps a pair's identity term and its counts for n = 1..n_used
to its value: term n is affine in A_n, s_n * (D_n + A_n) / (4 * D_n) with
D_n the tables counted, so every value is one integer numerator divided
once, except Monte Carlo normalized values, a left-to-right float sum.
One plan per block (_BlockPlan) decides its distinct strings and encodes
each once; every counter reads it, each distinct pair is assembled once
(a symmetric block's upper triangle only), and the plan maps the result
back to the block's strings.  kernel_value, gram_matrix and prediction
all read their values from it, and a Gram is one matrix of those values.

numpy is imported inside the enumeration-oracle functions (and
``GramMatrix.to_array``) only, and the thread pool only when ``jobs > 1``
and the walk runs (``jobs`` affects nothing else): both runtime paths and
the sampler are pure Python, so importing this
module, and the sample, kernel, gram, train and predict commands in either
mode, load neither.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .automata import (
    TABLE_CAP,
    Alphabet,
    CapExceededError,
    Dfa,
    dfa_space_size,
    enumerate_dfas,
    table_count,
)

if TYPE_CHECKING:
    import numpy as np

MODES = ("exact", "monte-carlo")
SCALINGS = ("paper", "normalized")

_SEED_MASK = (1 << 64) - 1
_STREAM_DOMAIN = b"regkernel.sample.v4"
_ACCEPT_DOMAIN = b"regkernel.accept.v1"
# Tables per block of the Monte Carlo stream.  It is part of the stream
# format, not a tuning knob: a table's cells are keyed by its block and
# drawn at its position in the block.
_BLOCK_SAMPLES = 1 << 14
# Largest table count n**(n*k) at which exact mode counts the accessible
# tables with the bit-sliced counter instead of walking each class of
# pairs.  In process (medians of three runs, each counter forced), counting
# the accessible tables against the walk: one pair at 4**8 = 65536 tables
# 0.25 vs 0.26 ms; Grams of 63 and 127 strings at 4**8 8.4 vs 178 ms and
# 44 vs 1510 ms; 40 strings at 3**9 4.4 vs 10.8 ms; 85 strings at 3**12
# 345 vs 30 ms; one pair at 5**10 4.1 vs 0.39 ms.  So counting wins on
# every measured block below the limit and loses on both above it (the
# crossover is recorded in CHANGES.md and README).
_EXHAUSTIVE_LIMIT = 1 << 16


def check_seed(seed: int) -> None:
    """Refuse a master seed outside [0, 2**64): the streams key on its 64
    bits, so 2**64 would silently replay seed 0."""
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class KernelParams:
    """Everything needed to evaluate (and replay) a kernel value.

    mode: "exact" enumerates transition tables; "monte-carlo" samples.
    scaling: "paper" sums raw DFA counts K_n (exact integers in exact
        mode); "normalized" sums w_n * P_n with non-negative per-n
        weights (default 1), producing floats.
    n_max: cap on the summation index; the sum always stops at
        min(|x|, |y|, n_max) and records whether it was truncated.
    epsilon, failure_prob: relative accuracy and confidence parameter of
        the Monte Carlo certificate.
    master_seed: 64-bit seed; the Monte Carlo sample of state count n is
        the stream keyed by (master_seed, n) alone.
    """

    alphabet: Alphabet
    n_max: int
    mode: str = "exact"
    scaling: str = "paper"
    epsilon: float = 0.1
    failure_prob: float = 0.05
    master_seed: int = 0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        _check_budget_args(self.epsilon, self.failure_prob)
        check_seed(int(self.master_seed))
        if self.weights is not None:
            try:
                ws = tuple(float(w) for w in self.weights)
            except OverflowError as e:  # an int beyond the float range
                raise ValueError(f"weights must be finite: {e}") from e
            object.__setattr__(self, "weights", ws)
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


@dataclass(frozen=True)
class ApproxCertificate:
    """Parameters under which a Monte Carlo value carries its guarantee:
    each P_n term, estimated as (m + A) / (4m) from the agreement count A
    over m = samples_per_term sampled tables, is within relative error
    epsilon of the exact value with probability at least 1 - failure_prob.

    ``bound`` names the inequality that sizes m and what it covers:
    Hoeffding's, for one entry (one P_n term of one pair) at a time.
    Entries that share a sample are correlated, and no union bound over
    a Gram is claimed."""

    epsilon: float
    failure_prob: float
    samples_per_term: int
    master_seed: int
    bound: str = "hoeffding-per-entry"


@dataclass(frozen=True)
class KernelValue:
    """A single kernel evaluation with its provenance.

    ``value`` is an exact non-negative integer in exact paper scaling and
    a float otherwise.  ``n_used`` is the summation limit that actually
    applied; ``truncated`` records whether n_max cut the sum short of
    min(|x|, |y|).
    """

    value: int | float
    mode: str
    scaling: str
    n_used: int
    truncated: bool
    certificate: ApproxCertificate | None = None


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
# Exact path: lazy table walk
# ---------------------------------------------------------------------------


def agreement_counts(x: str, y: str, n_top: int, alphabet: Alphabet) -> list[int]:
    """[A(1), ..., A(n_top)], where A(n) is the number of n-state
    transition tables on which x and y end in the same state, from one
    lazy walk (_walk_counts) of the encoded strings.

    TABLE_CAP bounds the table count n_top**(n_top*k) exactly as for the
    enumeration oracle, and is checked before the walk; the count grows
    with n, so every smaller n is within it too.
    """
    if n_top < 1:
        raise ValueError(f"state count must be >= 1, got {n_top}")
    k = len(alphabet)
    total = table_count(n_top, k)
    if total > TABLE_CAP:
        raise CapExceededError(total, TABLE_CAP)
    return _walk_counts(alphabet.encode(x), alphabet.encode(y), n_top, k)


def _walk_counts(sx: Sequence[int], sy: Sequence[int], n_top: int, k: int) -> list[int]:
    """[A(1), ..., A(n_top)] for the encoded strings sx and sy over k
    symbols; the caller has checked n_top >= 1 and the table cap.

    A lazy walk (the principle of deferred decisions) at n_top states: x,
    then y, is run from state 0 on a partial table that is filled in only
    when the walk reaches an unassigned cell.  The v states visited so far
    carry the canonical labels 0..v-1.  At an unassigned cell the walk
    branches to each visited state, and to one fresh state labelled v that
    stands for all unvisited states: any relabeling of unvisited states maps
    completions to completions and keeps the end states equal or unequal.

    A finished branch whose two end states agree adds 1 to h[v, c], where
    v is the number of states it visited and c the number of cells it
    assigned.  None of its decisions depends on n except the fresh branches,
    which stand for n - 1, n - 2, ..., n - v + 1 states in turn, and its
    n*k - c unassigned cells are free, so for every n <= n_top

        A(n) = sum_{v <= n} h[v, c] * (n-1)(n-2)...(n-v+1) * n**(n*k - c).

    The walk runs in an x-phase and a y-phase.  When y's last symbol
    reaches an unassigned cell, the branch to visited state r ends at r and
    the fresh branch ends at v; x ended at a visited state end_x < v, so
    exactly one of the branches (r = end_x) agrees, with v states visited
    and c + 1 cells assigned.  That step adds 1 to h[v, c + 1] instead of
    recursing into its branches.
    """
    len_x, len_y = len(sx), len(sy)
    last_y = len_y - 1
    # cell q*k + c holds the successor of state q on symbol c, -1 if unassigned
    table = [-1] * (n_top * k)
    hist = [[0] * (n_top * k + 1) for _ in range(n_top + 1)]

    def walk_y(i: int, q: int, v: int, end_x: int, assigned: int) -> None:
        while i < len_y:
            cell = q * k + sy[i]
            r = table[cell]
            if r < 0:
                break
            q = r
            i += 1
        else:  # y ended on assigned cells
            if q == end_x:
                hist[v][assigned] += 1
            return
        assigned += 1
        if i == last_y:
            # y's last step: end_x < v, so of the branches to visited states
            # exactly r = end_x ends equal, and the fresh state v does not
            hist[v][assigned] += 1
            return
        i += 1
        for r in range(v):
            table[cell] = r
            walk_y(i, r, v, end_x, assigned)
        if v < n_top:
            table[cell] = v
            walk_y(i, v, v + 1, end_x, assigned)
        table[cell] = -1

    def walk_x(i: int, q: int, v: int, assigned: int) -> None:
        while i < len_x:
            cell = q * k + sx[i]
            r = table[cell]
            if r < 0:
                break
            q = r
            i += 1
        else:  # x ended on assigned cells: walk y from state 0
            walk_y(0, 0, v, q, assigned)
            return
        i += 1
        assigned += 1
        for r in range(v):
            table[cell] = r
            walk_x(i, r, v, assigned)
        if v < n_top:
            table[cell] = v
            walk_x(i, v, v + 1, assigned)
        table[cell] = -1

    walk_x(0, 0, 1, 0)
    counts = []
    for n in range(1, n_top + 1):
        count = 0
        falling = 1  # (n-1)(n-2)...(n-v+1)
        for v in range(1, n + 1):
            for c, h in enumerate(hist[v]):
                if h:
                    count += h * falling * n ** (n * k - c)
            falling *= n - v
        counts.append(count)
    return counts


def agreement_count(x: str, y: str, n: int, alphabet: Alphabet) -> int:
    """Number of n-state transition tables on which x and y end in the same
    state: the last entry of agreement_counts at n."""
    return agreement_counts(x, y, n, alphabet)[-1]


def _pn_from_agreement(a: int, n: int, k: int) -> Fraction:
    """P_n = (1/4) * (1 + A/T) from the agreement count A of n states."""
    t = table_count(n, k)
    return Fraction(t + a, 4 * t)


def _kn_from_agreement(a: int, n: int, k: int) -> int:
    """K_n = P_n * |DFA space of n states| = (T + A) * 2**n / 4, with T the
    table count: an integer, since 4 divides 2**n for n >= 2 and at n = 1
    every table agrees (T + A = 2)."""
    return (table_count(n, k) + a) * 2**n // 4


def exact_pn(x: str, y: str, n: int, alphabet: Alphabet) -> Fraction:
    """Exact joint-acceptance fraction P_n(x, y) = (1/4) * (1 + A/T).

    A is the table agreement count and T the table total; the accepting
    bits contribute the closed 1/4 factor because each state is accepting
    independently with probability 1/2.
    """
    return _pn_from_agreement(agreement_count(x, y, n, alphabet), n, len(alphabet))


def exact_kn(x: str, y: str, n: int, alphabet: Alphabet) -> int:
    """Exact count of n-state DFAs accepting both x and y."""
    return _kn_from_agreement(agreement_count(x, y, n, alphabet), n, len(alphabet))


# ---------------------------------------------------------------------------
# Enumeration oracle: every transition table, for tests and verification
# ---------------------------------------------------------------------------

_CHUNK = 1 << 18


def _table_chunks(n: int, k: int):
    """Yield (ranks, cells) arrays covering all n**(n*k) tables in rank order.

    cells has shape (chunk, n, k); cell (q, i) of the table with a given
    rank is digit n*k-1-(q*k+i) of the rank in base n (first cell most
    significant), matching automata.enumerate_tables.
    """
    import numpy as np

    total = table_count(n, k)
    ncells = n * k
    powers = np.array([n ** (ncells - 1 - i) for i in range(ncells)], dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        ranks = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        cells = (ranks[:, None] // powers[None, :]) % n
        yield ranks, cells.reshape(len(ranks), n, k)


def _walk(cells: np.ndarray, encoded: Sequence[int]) -> np.ndarray:
    """End states of one string on a batch of transition tables."""
    import numpy as np

    m = cells.shape[0]
    state = np.zeros(m, dtype=np.int64)
    rows = np.arange(m)
    for ci in encoded:
        state = cells[rows, state, ci]
    return state


def kn_by_enumeration(x: str, y: str, n: int, alphabet: Alphabet) -> int:
    """Oracle for exact_kn: literally walk every DFA and test both strings.

    Much slower than exact_kn; exists so the lazy walk and the closed form
    can be cross-checked against the definition.
    """
    count = 0
    for dfa in enumerate_dfas(n, alphabet):
        if dfa.accepts(x) and dfa.accepts(y):
            count += 1
    return count


def pn_by_enumeration(x: str, y: str, n: int, alphabet: Alphabet) -> Fraction:
    return Fraction(kn_by_enumeration(x, y, n, alphabet), dfa_space_size(n, len(alphabet)))


# ---------------------------------------------------------------------------
# Grid helpers: shared end-state memoization for exhaustive verification
# ---------------------------------------------------------------------------


def end_state_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> np.ndarray:
    """(T, S) matrix of end states: row per transition table in rank order,
    column per string.  Materializes all tables; intended for small n."""
    import numpy as np

    encoded = [alphabet.encode(s) for s in strings]
    total = table_count(n, len(alphabet))
    if total > TABLE_CAP:
        raise CapExceededError(total, TABLE_CAP)
    out = np.empty((total, len(strings)), dtype=np.int64)
    for ranks, cells in _table_chunks(n, len(alphabet)):
        for j, e in enumerate(encoded):
            out[ranks[0] : ranks[-1] + 1, j] = _walk(cells, e)
    return out


def agreement_count_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> np.ndarray:
    """(S, S) matrix of pairwise table agreement counts over one shared
    end-state grid; entry (i, j) equals agreement_count(strings[i], strings[j])."""
    import numpy as np

    ends = end_state_grid(strings, n, alphabet)
    s = len(strings)
    counts = np.empty((s, s), dtype=np.int64)
    for i in range(s):
        counts[i] = (ends[:, i : i + 1] == ends).sum(axis=0)
    return counts


def joint_accept_count_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> np.ndarray:
    """(S, S) matrix of K_n values by direct enumeration over every DFA.

    Iterates every (table, accepting mask) pair and accumulates the outer
    product of acceptance indicators; no use of the agreement identity,
    so it serves as the independent oracle for the closed-form path.
    """
    import numpy as np

    ends = end_state_grid(strings, n, alphabet)
    s = len(strings)
    counts = np.zeros((s, s), dtype=np.int64)
    for row in ends:
        for mask in range(2**n):
            acc = (mask >> row) & 1
            counts += acc[:, None] * acc[None, :]
    return counts


# ---------------------------------------------------------------------------
# Monte Carlo path
# ---------------------------------------------------------------------------


def draw_table_block(
    n: int, k: int, master_seed: int, block: int, size: int
) -> list[list[list[int]]]:
    """Tables b*B, ..., b*B + size - 1 (b = block, B = _BLOCK_SAMPLES) of
    the shared sample of n-state tables, bit-sliced: bit t of
    parts[q][c][r] is set when table b*B + t maps state q on symbol c to r.

    Each cell (q, c) of a block is drawn by rejection in rounds.  A round
    reads ceil(log2 n) bit-planes, bit-plane p being the first ceil(size/8)
    bytes of SHAKE-256 over the domain tag, then master_seed, n, block, q,
    c, the round and p as little-endian u64s.  Bit t of a plane (little
    endian) belongs to table t of the block, whose value in that round is
    the sum of bit_p << p.  A table takes the first value below n it
    reads, so every cell is uniform on range(n), independent of the others.
    n = 1 draws nothing.  No bit depends on size, so the sample of m
    tables is a prefix of the sample of any larger m.
    """
    full = (1 << size) - 1
    planes = (n - 1).bit_length()
    head = _STREAM_DOMAIN + struct.pack("<3Q", master_seed & _SEED_MASK, n, block)
    nbytes = (size + 7) // 8
    parts = []
    for q in range(n):
        row = []
        for c in range(k):
            cell = [0] * n
            pending, rnd = full, 0
            while pending:
                # groups[v] holds the pending tables that read value v this round
                groups = [pending]
                for p in reversed(range(planes)):
                    key = head + struct.pack("<4Q", q, c, rnd, p)
                    bits = int.from_bytes(hashlib.shake_256(key).digest(nbytes), "little")
                    groups = [g for whole in groups for g in (whole ^ (whole & bits), whole & bits)]
                for r in range(n):
                    cell[r] |= groups[r]
                pending = 0
                for rejected in groups[n:]:
                    pending |= rejected
                rnd += 1
            row.append(cell)
        parts.append(row)
    return parts


def draw_accept_block(n: int, master_seed: int, block: int, size: int) -> list[int]:
    """Accepting sets of DFAs b*B, ..., b*B + size - 1 of the sample,
    bit-sliced: bit t of masks[q] is set when state q of DFA b*B + t
    accepts.  masks[q] is the first ceil(size/8) bytes, little endian, of
    SHAKE-256 over its own domain tag, then master_seed, n, block and q as
    little-endian u64s.  The kernel integrates these bits out and never
    reads them."""
    head = _ACCEPT_DOMAIN + struct.pack("<3Q", master_seed & _SEED_MASK, n, block)
    nbytes = (size + 7) // 8
    full = (1 << size) - 1
    return [
        int.from_bytes(hashlib.shake_256(head + struct.pack("<Q", q)).digest(nbytes), "little")
        & full
        for q in range(n)
    ]


def sample_dfas(n: int, alphabet: Alphabet, master_seed: int, count: int) -> Iterator[Dfa]:
    """Yield the first ``count`` DFAs of the sample of (master_seed, n):
    DFA t has table t of the stream the Monte Carlo kernel counts
    (draw_table_block) and the accepting set of bit t of draw_accept_block,
    so it is uniform on the n**(n*k) * 2**n DFAs of n states."""
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    check_seed(master_seed)
    k = len(alphabet)
    for block, lo in enumerate(range(0, count, _BLOCK_SAMPLES)):
        size = min(_BLOCK_SAMPLES, count - lo)
        parts = draw_table_block(n, k, master_seed, block, size)
        accepts = draw_accept_block(n, master_seed, block, size)
        for t in range(size):
            table = [[next(r for r, part in enumerate(cell) if part >> t & 1) for cell in row]
                     for row in parts]
            accepting = frozenset(q for q, mask in enumerate(accepts) if mask >> t & 1)
            yield Dfa(n=n, alphabet=alphabet, table=table, accepting=accepting)


def sample_dfa(n: int, alphabet: Alphabet, rng: np.random.Generator) -> Dfa:
    """DFA 0 of the sample of a 64-bit seed taken from a caller-owned numpy
    Generator: uniform, and deterministic given the generator's state."""
    return next(sample_dfas(n, alphabet, int(rng.integers(2**64, dtype="uint64")), 1))


def _trie_plan(encoded: Sequence[Sequence[int]]) -> list[tuple[int, list[tuple[int, int]], int]]:
    """A depth-first walk of the prefix trie of the encoded strings.

    The strings are taken in sorted order, each as (j, steps, depth): j is
    its index, depth its length, and steps the (depth, symbol) edges that
    extend the previous string's path to it.  Strings that share a prefix
    are adjacent in sorted order, so over the whole plan every trie edge is
    a step exactly once.
    """
    plan = []
    previous: Sequence[int] = ()
    for j in sorted(range(len(encoded)), key=lambda j: tuple(encoded[j])):
        e = encoded[j]
        shared = 0
        while shared < min(len(previous), len(e)) and previous[shared] == e[shared]:
            shared += 1
        plan.append((j, [(d, e[d]) for d in range(shared, len(e))], len(e)))
        previous = e
    return plan


def _end_states(
    plan: list[tuple[int, list[tuple[int, int]], int]], parts: list[list[list[int]]], size: int
):
    """Yield (j, ends) for every string of the trie plan, in plan order.

    ends holds string j's end states on the block's tables as n disjoint
    masks laid end to end: bit q*size + t is set when it ends in state q
    on table t.  ``path`` holds the state masks reached at each depth of
    the current trie path; a trie edge on symbol c maps them by
    next[r] |= cur[q] & parts[q][c][r].
    """
    n = len(parts)
    path = [[(1 << size) - 1] + [0] * (n - 1)]
    for j, steps, depth in plan:
        for d, c in steps:
            nxt = [0] * n
            for q, states in enumerate(path[d]):
                if states:
                    for r, part in enumerate(parts[q][c]):
                        nxt[r] |= states & part
            del path[d + 1 :]
            path.append(nxt)
        ends = 0
        for states in reversed(path[depth]):
            ends = (ends << size) | states
        yield j, ends


class _BlockPlan:
    """The one place a block's distinct strings and their encodings are
    decided: the distinct rows against the distinct cols, or the symmetric
    block of the distinct rows when cols is None (then ``symmetric``, and
    only entries (i, j) with j >= i are counted and assembled).

    Each distinct string is encoded once, which validates it, naming the
    first bad symbol of the first bad string.  row_ids and col_ids map a
    string to its distinct index, row_codes and col_codes hold the
    encodings in that order, and row_plan and col_plan are their trie plans
    (col_plan is None for a symmetric block).  Every counter of the block
    and its value assembly read these, and expand maps the result back to
    the block's strings."""

    def __init__(self, rows: Sequence[str], cols: Sequence[str] | None, alphabet: Alphabet):
        self.rows = rows
        self.cols = rows if cols is None else cols
        self.symmetric = cols is None
        self.row_ids = {s: i for i, s in enumerate(dict.fromkeys(rows))}
        self.row_codes = [alphabet.encode(s) for s in self.row_ids]
        self.row_plan = _trie_plan(self.row_codes)
        if cols is None:
            self.col_ids, self.col_codes, self.col_plan = self.row_ids, self.row_codes, None
        else:
            self.col_ids = {s: i for i, s in enumerate(dict.fromkeys(cols))}
            self.col_codes = [alphabet.encode(s) for s in self.col_ids]
            self.col_plan = _trie_plan(self.col_codes)

    def expand(self, block: list[list]) -> list[list]:
        """The R x C matrix of the block's strings from a matrix over its
        distinct strings; a symmetric block's lower triangle is first
        mirrored, in place, from its upper triangle."""
        if self.symmetric:
            for i, line in enumerate(block):
                for j in range(i):
                    line[j] = block[j][i]
        if len(self.row_ids) == len(self.rows) and len(self.col_ids) == len(self.cols):
            return block  # no duplicates: the distinct strings are the strings, in order
        return [[block[self.row_ids[x]][self.col_ids[y]] for y in self.cols] for x in self.rows]


def _sliced_agreement_counts(
    plan: _BlockPlan, count: int, draw: Callable[[int, int], Sequence[Sequence[Sequence[int]]]]
) -> list[list[int]]:
    """Lists of end-state agreement counts over ``count`` tables: entry
    (i, j) counts the tables on which distinct row i and distinct column j
    of the plan end in the same state.  A symmetric plan's entries with
    j < i stay 0: A(x, y) = A(y, x) exactly, and plan.expand mirrors them.

    The tables come bit-sliced in blocks of at most _BLOCK_SAMPLES, block
    b of size s being draw(b, s), and are counted one block at a time.  In
    a block, each distinct string's end states are one integer of n
    masks laid end to end (_end_states), so the agreement of two strings
    is the popcount of their AND.  The
    distinct rows' end states are kept for the block; the distinct
    columns' are counted against them as their trie walk reaches them,
    and dropped.  So live memory is one block's tables and rows, however
    many blocks there are.
    """
    n_rows = len(plan.row_ids)
    counts = [[0] * len(plan.col_ids) for _ in range(n_rows)]
    for block, lo in enumerate(range(0, count, _BLOCK_SAMPLES)):
        size = min(_BLOCK_SAMPLES, count - lo)
        parts = draw(block, size)
        row_ends = [0] * n_rows
        for i, ends in _end_states(plan.row_plan, parts, size):
            row_ends[i] = ends
        if plan.symmetric:
            for i, ends in enumerate(row_ends):
                line = counts[i]
                for j in range(i, n_rows):
                    line[j] += (ends & row_ends[j]).bit_count()
        else:
            for j, ends in _end_states(plan.col_plan, parts, size):
                for i, row in enumerate(row_ends):
                    counts[i][j] += (row & ends).bit_count()
    return counts


def mc_agreement_counts(
    rows: Sequence[str],
    n: int,
    m: int,
    alphabet: Alphabet,
    master_seed: int,
    cols: Sequence[str] | None = None,
) -> list[list[int]]:
    """R x C lists of end-state agreement counts over the m shared tables
    of state count n: entry (i, j) counts the tables on which rows[i] and
    cols[j] end in the same state (cols defaults to rows).  The tables are
    drawn (draw_table_block) and counted one block of at most
    _BLOCK_SAMPLES at a time, so live memory is one block's tables and
    rows whatever m is.
    """
    plan = _BlockPlan(rows, cols, alphabet)
    draw = partial(draw_table_block, n, len(alphabet), master_seed)
    return plan.expand(_sliced_agreement_counts(plan, m, draw))


def accessible_tables(m: int, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """(count, parts): every accessible m-state table over k symbols in
    canonical labelling, bit-sliced as in draw_table_block: bit t of
    parts[q][c][r] is set when table t maps state q on symbol c to r.

    Canonical means: scanning the cells (q, c) in rank order, each holds an
    earlier label or the next new one, and label q appears before row q is
    scanned, so every state is reachable from 0.  Such a table is fixed by
    the cells p_1 < ... < p_{m-1} where labels 1..m-1 first appear (p_j in
    a row below j) and, at every other cell, a choice among the labels that
    appeared before it.  The tables of one choice of p are the product of
    those choices, taken in lexicographic order (the first cell most
    significant), so within them a cell's choice index is constant on runs
    of `run` tables, repeating with period size * run: the mask of index 0
    is one run tiled by doubling and the mask of index i is that tiling
    shifted i runs up.  Each group is then
    shifted past the tables of the groups before it.  No table is listed
    one at a time.  There are 1, 12, 216, 5248 and 160675 of them for
    m = 1..5 over two symbols: the initially connected automata of
    Liskovets (1969).
    """
    cells = m * k
    masks = [[0] * m for _ in range(cells)]
    count = 0
    for firsts in itertools.combinations(range(cells), m - 1):
        if any(p >= j * k for j, p in enumerate(firsts, 1)):
            continue  # label j would first appear after row j was scanned
        # cell i holds one of `size` labels from `low` on
        choices = []
        seen = 1
        for i in range(cells):
            if seen < m and firsts[seen - 1] == i:
                choices.append((seen, 1))
                seen += 1
            else:
                choices.append((0, seen))
        group = math.prod(size for _, size in choices)
        full = (1 << group) - 1
        run = group
        for cell, (low, size) in zip(masks, choices):
            run //= size
            tiled, width = (1 << run) - 1, size * run
            while width < group:
                tiled |= tiled << width
                width *= 2
            for i in range(size):
                cell[low + i] |= ((tiled << (i * run)) & full) << count
        count += group
    return count, tuple(tuple(tuple(masks[q * k + c]) for c in range(k)) for q in range(m))


@cache
def _accessible_parts(m: int, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """accessible_tables(m, k), built on first use and kept for the
    process: the value is immutable and depends only on (m, k)."""
    return accessible_tables(m, k)


def _accessible_block(m: int, k: int, block: int, size: int) -> list[list[list[int]]]:
    """Tables b*B, ..., b*B + size - 1 (b = block, B = _BLOCK_SAMPLES) of
    the accessible m-state tables, bit-sliced as in draw_table_block."""
    lo = block * _BLOCK_SAMPLES
    full = (1 << size) - 1
    return [[[(mask >> lo) & full for mask in cell] for cell in row]
            for row in _accessible_parts(m, k)[1]]


def accessible_weights(n: int, k: int) -> list[int]:
    """[w(n, 1), ..., w(n, n)]: w(n, m) = (n-1)(n-2)...(n-m+1) * n**((n-m)*k)
    n-state tables have a given accessible m-state table as the part that
    state 0 reaches, relabelled canonically.  The labels 1..m-1 name
    distinct states other than 0, in (n-1)!/(n-m)! ways, and the n - m
    rows that 0 does not reach are free."""
    return [math.perm(n - 1, m - 1) * n ** ((n - m) * k) for m in range(1, n + 1)]


def _accessible_agreement_counts(plan: _BlockPlan, n_top: int, k: int) -> list[list[list[int]]]:
    """[C_1, ..., C_n_top]: C_m lists, for distinct row i and distinct
    column j of the plan, the accessible m-state tables on which both end
    in the same state, counted by _sliced_agreement_counts."""
    return [
        _sliced_agreement_counts(
            plan, _accessible_parts(m, k)[0], partial(_accessible_block, m, k)
        )
        for m in range(1, n_top + 1)
    ]


def exhaustive_agreement_counts(
    rows: Sequence[str], n: int, alphabet: Alphabet, cols: Sequence[str] | None = None
) -> list[list[int]]:
    """R x C lists of the exact agreement counts A_n: entry (i, j) counts
    the n-state tables, out of all n**(n*k), on which rows[i] and cols[j]
    end in the same state (cols defaults to rows).  The Monte Carlo path's
    counter counts the accessible tables of m = 1..n states, and
    A_n = sum_m w(n, m) * C_m (accessible_weights); entry (i, j) equals
    agreement_count(rows[i], cols[j], n, alphabet).
    """
    k = len(alphabet)
    plan = _BlockPlan(rows, cols, alphabet)
    per_m = _accessible_agreement_counts(plan, n, k)
    weights = accessible_weights(n, k)
    return plan.expand([[sum(map(operator.mul, weights, cells)) for cells in zip(*lines)]
                        for lines in zip(*per_m)])


def mc_pn(x: str, y: str, n: int, m: int, alphabet: Alphabet, seed: int) -> float:
    """Monte Carlo estimate (m + A) / (4m) of P_n, with A the number of the
    seed's m shared n-state tables on which x and y end in the same state.

    Deterministic given (seed, n, x, y, m, alphabet), symmetric in (x, y),
    equal to the estimate a Gram reads for the same pair, and an unbiased
    estimator of exact_pn: each accepting bit is a fair coin, so given the
    table both strings are accepted with probability 1/2 when they end
    together and 1/4 when they do not.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    a = mc_agreement_counts((x, y), n, m, alphabet, seed)[0][1]
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
    exact term is K_n = (T + A) * 2**n / 4, as in _kn_from_agreement) and
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
        ratios = [Fraction(dfa_space_size(n, k), t) for n, t in zip(ns, tables)]
    else:
        ratios = [Fraction(params.weight_for(n)) / t for n, t in zip(ns, tables)]
    quarter = math.lcm(*(r.denominator for r in ratios))  # d = 4 * quarter
    d = 4 * quarter
    slopes = [int(r * quarter) for r in ratios]
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


def _canonical_pair(x: Sequence[int], y: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Representative of the class of the encoded pair (x, y) under symbol
    permutation and swapping, on which every exact value is constant.

    Each order of the pair is relabelled by first appearance of its codes
    (over the first string, then the second) onto 0, 1, ...; the smaller
    of the two relabelled pairs is the representative.
    """

    def relabel(first: Sequence[int], second: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        names: dict[int, int] = {}
        for c in itertools.chain(first, second):
            names.setdefault(c, len(names))
        return tuple(map(names.get, first)), tuple(map(names.get, second))

    return min(relabel(x, y), relabel(y, x))


def _walked_agreement_counts(
    plan: _BlockPlan, n_top: int, k: int, jobs: int
) -> list[list[list[int]]]:
    """[A_1, ..., A_n_top] over the distinct rows and columns of the plan,
    as _accessible_agreement_counts lists C_m, from one walk per
    symbol-permutation class of the plan's codes: _walk_counts at the
    canonical pair's n_used = min(|x|, |y|, n_top), on ``jobs`` threads,
    copied to every pair of the class.  A_n stays 0 for a pair whose n_used
    is below n, and below the diagonal of a symmetric plan.  The caller has
    checked the table cap at n_top."""
    rows, cols = plan.row_codes, plan.col_codes
    pairs = [(i, j) for i in range(len(rows))
             for j in range(i if plan.symmetric else 0, len(cols))]
    classes: dict[tuple[tuple[int, ...], ...], int] = {}
    class_of_pair = [
        classes.setdefault(_canonical_pair(rows[i], cols[j]), len(classes)) for i, j in pairs
    ]

    def walk(pair: tuple[tuple[int, ...], ...]) -> list[int]:
        x, y = pair
        n_used = min(len(x), len(y), n_top)
        return _walk_counts(x, y, n_used, k) if n_used else []

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            class_counts = list(pool.map(walk, classes))
    else:
        class_counts = [walk(pair) for pair in classes]
    per_n = [[[0] * len(cols) for _ in rows] for _ in range(n_top)]
    for (i, j), c in zip(pairs, class_of_pair):
        for counts, a in zip(per_n, class_counts[c]):
            counts[i][j] = a
    return per_n


def kernel_block(
    rows: Sequence[str],
    cols: Sequence[str] | None,
    params: KernelParams,
    jobs: int = 1,
) -> list[list[int | float]]:
    """Kernel values of every (rows[i], cols[j]) pair, as an R x C matrix.

    With ``cols`` None the block is the symmetric Gram of ``rows``.  Every
    string is validated, and an exact sum's table cap checked for its
    largest term, before any count; this is the one cap check of the walk.

    Every block plans, counts, then assembles.  The plan (_BlockPlan)
    decides the distinct rows and columns and encodes each once, and one
    counter lists, for each n up to the block's n_top, a matrix of counts
    over them:
    - Monte Carlo mode: the agreement counts A_n over the first
      hoeffding_samples(epsilon, failure_prob) tables of n's stream, with
      the bit-sliced counter (_sliced_agreement_counts, as
      mc_agreement_counts);
    - exact mode while n_top**(n_top*k) is at most _EXHAUSTIVE_LIMIT: the
      accessible m-state tables on which two strings end together, C_m
      (accessible_tables), with the same counter, from which
      A_n = sum_{m <= n} w(n, m) * C_m (accessible_weights), the integers
      exhaustive_agreement_counts returns;
    - exact mode above the limit: A_n from one walk of the plan's codes per
      symbol-permutation class (_walked_agreement_counts), with a memo that
      lives for this call and ``jobs`` threads.
    One value function (_value_function), built once per block, then
    assembles each distinct pair once (only j >= i of a symmetric block)
    from its identity term and its counts for n = 1..n_used; with
    accessible counts, the weights w(n, m) are folded into its per-block
    integer constants.  plan.expand mirrors a symmetric block and maps the
    distinct pairs back to the block's strings.  ``jobs`` affects only the
    walk, and no value depends on it.  kernel_value, gram_matrix and
    prediction all read their values from here.
    """
    plan = _BlockPlan(rows, cols, params.alphabet)  # validates every string
    k = len(params.alphabet)
    row_lens = [min(len(s), params.n_max) for s in plan.row_ids]
    col_lens = row_lens if plan.symmetric else [min(len(s), params.n_max) for s in plan.col_ids]
    n_top = min(max(row_lens, default=0), max(col_lens, default=0))

    mix = None
    if params.mode == "exact":
        # n**(n*k) grows with n, so the largest term decides for every pair
        required = table_count(n_top, k) if n_top else 0
        if required > TABLE_CAP:
            raise CapExceededError(
                required, TABLE_CAP, hint="use monte-carlo mode for large state counts"
            )
        if required > _EXHAUSTIVE_LIMIT:
            # per_size[n - 1] holds A_n over all n-state tables
            per_size = _walked_agreement_counts(plan, n_top, k, jobs)
        else:
            # per_size[m - 1] holds C_m, and A_n = sum_{m <= n} w(n, m) * C_m
            per_size = _accessible_agreement_counts(plan, n_top, k)
            mix = [accessible_weights(n, k) for n in range(1, n_top + 1)]
    else:
        m = hoeffding_samples(params.epsilon, params.failure_prob)
        # per_size[n - 1] holds A_n over n's m sampled tables
        per_size = [
            _sliced_agreement_counts(plan, m, partial(draw_table_block, n, k, params.master_seed))
            for n in range(1, n_top + 1)
        ]
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


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of kernel values over an ordered string list:
    ``values[i][j]`` is K(strings[i], strings[j]) under ``params``."""

    strings: tuple[str, ...]
    params: KernelParams
    values: tuple[tuple[int | float, ...], ...]

    def value(self, i: int, j: int) -> int | float:
        return self.values[i][j]

    def numeric(self) -> list[list[int | float]]:
        return [list(row) for row in self.values]

    def to_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.values, dtype=float)


def gram_matrix(strings: Sequence[str], params: KernelParams, jobs: int = 1) -> GramMatrix:
    """The symmetric kernel_block of distinct strings: each unordered pair
    is evaluated at most once.  ``jobs`` threads serve only the exact walk,
    which runs above _EXHAUSTIVE_LIMIT tables and walks one pair per
    symbol-permutation class; counting the accessible tables, and the
    Monte Carlo path, run on one thread.  The result does not depend on ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    strings = tuple(strings)
    seen = set()
    for s in strings:
        if s in seen:
            raise ValueError(f"duplicate string {s!r} in Gram input")
        seen.add(s)
    values = kernel_block(strings, None, params, jobs)
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
    count = len(gram.strings)
    lines = [",".join(f"s{i}" for i in range(count))]
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
