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

A is computed by a lazy walk that fills in only the table cells the two
strings visit and treats all unvisited states as one branch, so it never
lists the T tables.  One walk at the largest state count N gives A(n) for
every n <= N: it records a histogram h[v, c] of its finished equal-end
branches by states visited v and cells assigned c, and

    A(n) = sum_{v <= n} h[v, c] * (n-1)(n-2)...(n-v+1) * n**(n*k - c),

so a kernel value walks each pair once, not once per n.  The walk does
not branch on y's last step: when that step reaches an unassigned cell,
exactly one of its branches ends where x ended, so it adds 1 to
h[v, c + 1] directly.  Enumerating
every table (and every DFA) remains in this module as the independent
oracle: the tests check the walk against it, and ``verify --suite
bounds`` and the benchmark reference are computed from it.  The ``cap``
argument still bounds T = n**(n*k) on both paths, so the exact path
refuses the same state counts it always did.

Permuting the symbols permutes the columns of a uniform table and leaves
its distribution unchanged, and K is symmetric, so every exact value is
constant on the class of (x, y) under symbol permutation and swapping.
An exact Gram, and exact prediction, evaluate one canonical pair per
class and fill the class from it.  That memo lives for one call: nothing
is cached between calls.

The Monte Carlo path estimates P_n as the joint-acceptance fraction over m
uniformly sampled DFAs; both bounds 1/4 <= P_n <= 1/2 hold, so a
multiplicative Chernoff bound gives a relative-error guarantee with a
sample budget independent of n and the strings.  For each n the m DFAs
are drawn once, from a stream seeded only by (master_seed, n), and every
string is walked over the same sample, as with random features (Rahimi &
Recht, NIPS 2007).  With A and B the acceptance-indicator matrices of two
string lists over the m samples, the joint counts of every cross pair are
the exact integer entries of A^T B (A^T A for a Gram; a trained model's
support against its queries for prediction).  The strings are walked
together as their prefix trie, depth first, so a prefix that several
strings share is walked once: one ``take`` per trie edge per block of
samples, and each string's acceptances are written as one row.  The
product is formed over blocks of samples whose live arrays fit a budget
in bytes, so memory stays flat however many strings take part, and block
size never changes a count.  A value therefore depends only on its two
strings, the seed and m: ``kernel_value(x, y)`` equals the Gram entry and
the prediction term bit for bit, and Monte Carlo Grams are symmetric and
PSD by construction.
The certificate holds per entry; entries that share a sample are
correlated.

Both modes share one count-then-assemble path, ``kernel_block``: a
counting step (agreement counts A_n out of n**(n*k) tables per class, or
joint counts out of m samples per n) and one value function that maps a
pair's identity term and its counts for n = 1..n_used to its value.
kernel_value, gram_matrix and prediction all read their values from it,
and a Gram is one matrix of those values.

numpy is imported inside the Monte Carlo and enumeration-oracle functions
(and ``GramMatrix.to_array``) only, and the thread pool only when
``jobs > 1``: the exact path is pure Python, so importing this module, and
every exact command, loads neither.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .automata import (
    DEFAULT_TABLE_CAP,
    Alphabet,
    CapExceededError,
    dfa_space_size,
    enumerate_dfas,
    table_count,
)

if TYPE_CHECKING:
    import numpy as np

MODES = ("exact", "monte-carlo")
SCALINGS = ("paper", "normalized")

_SEED_MASK = (1 << 64) - 1
_SEED_DOMAIN = b"regkernel.pair.v1"
_SAMPLE_DOMAIN = b"regkernel.sample.v2"
# Budget of one block of the joint-count product, in 4-byte cells: the
# block's live arrays (acceptance rows, successor maps, trie path) take at
# most 4 * _BLOCK_CELLS bytes.  A block holds fewer than _BLOCK_CELLS <= 2**24
# samples, so its float32 product is exact; the blocks are summed in int64.
_BLOCK_CELLS = 4096 * 32


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
        drawn from a stream seeded by (master_seed, n) alone.
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
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.failure_prob < 1.0:
            raise ValueError(f"failure_prob must be in (0, 1), got {self.failure_prob}")
        if not 0 <= int(self.master_seed) <= _SEED_MASK:
            raise ValueError("master_seed must fit in 64 bits")
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
    each P_n term is within relative error epsilon of the exact value
    with probability at least 1 - failure_prob."""

    epsilon: float
    failure_prob: float
    samples_per_term: int
    master_seed: int


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

    @property
    def is_exact(self) -> bool:
        return self.certificate is None and isinstance(self.value, int)


def required_samples(epsilon: float, failure_prob: float) -> int:
    """Sample budget ceil(12 * epsilon**-2 * ln(2 / failure_prob)).

    Solves the multiplicative Chernoff bound
    2*exp(-epsilon**2 * m * P / 3) <= failure_prob at the worst case
    P = 1/4, so one budget covers every string pair and state count.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob must be in (0, 1), got {failure_prob}")
    return math.ceil(12.0 * epsilon**-2 * math.log(2.0 / failure_prob))


def derive_pair_seed(master_seed: int, n: int, x: str, y: str) -> int:
    """Stable 64-bit stream seed for one (pair, n) estimate.

    SHA-256 over a fixed byte layout: a domain tag, the master seed and n
    as little-endian u64, then the two strings in lexicographically
    sorted order, each as a little-endian u64 byte length followed by its
    UTF-8 bytes.  The first 8 digest bytes, little-endian, are the seed.
    Sorting makes the derived stream a function of the unordered pair.
    The Monte Carlo path no longer uses per-pair streams; it seeds one
    shared sample per (master_seed, n) with derive_sample_seed.
    """
    lo, hi = sorted((x, y))
    h = hashlib.sha256()
    h.update(_SEED_DOMAIN)
    h.update(struct.pack("<QQ", master_seed & _SEED_MASK, n))
    for s in (lo, hi):
        data = s.encode("utf-8")
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
    return int.from_bytes(h.digest()[:8], "little")


def derive_sample_seed(master_seed: int, n: int) -> int:
    """Stable 64-bit stream seed of the shared Monte Carlo sample of n.

    SHA-256 over a domain tag, then the master seed and n as little-endian
    u64 (the layout of derive_pair_seed without the strings); the first 8
    digest bytes, little-endian, are the seed.
    """
    h = hashlib.sha256()
    h.update(_SAMPLE_DOMAIN)
    h.update(struct.pack("<QQ", master_seed & _SEED_MASK, n))
    return int.from_bytes(h.digest()[:8], "little")


# ---------------------------------------------------------------------------
# Exact path: lazy table walk
# ---------------------------------------------------------------------------


def agreement_counts(
    x: str, y: str, n_top: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> list[int]:
    """[A(1), ..., A(n_top)], where A(n) is the number of n-state
    transition tables on which x and y end in the same state.

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

    ``cap`` bounds the table count n_top**(n_top*k) exactly as for the
    enumeration oracle, and is checked before the walk; the count grows
    with n, so every smaller n is within it too.
    """
    if n_top < 1:
        raise ValueError(f"state count must be >= 1, got {n_top}")
    k = len(alphabet)
    total = table_count(n_top, k)
    if total > cap:
        raise CapExceededError(total, cap)
    sx, sy = alphabet.encode(x), alphabet.encode(y)
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


def agreement_count(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> int:
    """Number of n-state transition tables on which x and y end in the same
    state: the last entry of agreement_counts at n."""
    return agreement_counts(x, y, n, alphabet, cap)[-1]


def _pn_from_agreement(a: int, n: int, k: int) -> Fraction:
    """P_n = (1/4) * (1 + A/T) from the agreement count A of n states."""
    t = table_count(n, k)
    return Fraction(t + a, 4 * t)


def _kn_from_agreement(a: int, n: int, k: int) -> int:
    """K_n = P_n * |DFA space of n states| = (T + A) * 2**n / 4, with T the
    table count: an integer, since 4 divides 2**n for n >= 2 and at n = 1
    every table agrees (T + A = 2)."""
    return (table_count(n, k) + a) * 2**n // 4


def exact_pn(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> Fraction:
    """Exact joint-acceptance fraction P_n(x, y) = (1/4) * (1 + A/T).

    A is the table agreement count and T the table total; the accepting
    bits contribute the closed 1/4 factor because each state is accepting
    independently with probability 1/2.
    """
    return _pn_from_agreement(agreement_count(x, y, n, alphabet, cap), n, len(alphabet))


def exact_kn(x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP) -> int:
    """Exact count of n-state DFAs accepting both x and y."""
    return _kn_from_agreement(agreement_count(x, y, n, alphabet, cap), n, len(alphabet))


# ---------------------------------------------------------------------------
# Enumeration oracle: every transition table, for tests and verification
# ---------------------------------------------------------------------------

_CHUNK = 1 << 18


def _table_chunks(n: int, k: int, cap: int):
    """Yield (ranks, cells) arrays covering all n**(n*k) tables in rank order.

    cells has shape (chunk, n, k); cell (q, i) of the table with a given
    rank is digit n*k-1-(q*k+i) of the rank in base n (first cell most
    significant), matching automata.enumerate_tables.
    """
    import numpy as np

    total = table_count(n, k)
    if total > cap:
        raise CapExceededError(total, cap)
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


def kn_by_enumeration(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> int:
    """Oracle for exact_kn: literally walk every DFA and test both strings.

    Much slower than exact_kn; exists so the lazy walk and the closed form
    can be cross-checked against the definition.
    """
    count = 0
    for dfa in enumerate_dfas(n, alphabet, cap):
        if dfa.accepts(x) and dfa.accepts(y):
            count += 1
    return count


def pn_by_enumeration(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> Fraction:
    return Fraction(kn_by_enumeration(x, y, n, alphabet, cap), dfa_space_size(n, len(alphabet)))


# ---------------------------------------------------------------------------
# Grid helpers: shared end-state memoization for exhaustive verification
# ---------------------------------------------------------------------------


def end_state_grid(
    strings: Sequence[str], n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> np.ndarray:
    """(T, S) matrix of end states: row per transition table in rank order,
    column per string.  Materializes all tables; intended for small n."""
    import numpy as np

    encoded = [alphabet.encode(s) for s in strings]
    total = table_count(n, len(alphabet))
    if total > cap:
        raise CapExceededError(total, cap)
    out = np.empty((total, len(strings)), dtype=np.int64)
    for ranks, cells in _table_chunks(n, len(alphabet), cap):
        for j, e in enumerate(encoded):
            out[ranks[0] : ranks[-1] + 1, j] = _walk(cells, e)
    return out


def agreement_count_grid(
    strings: Sequence[str], n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> np.ndarray:
    """(S, S) matrix of pairwise table agreement counts over one shared
    end-state grid; entry (i, j) equals agreement_count(strings[i], strings[j])."""
    import numpy as np

    ends = end_state_grid(strings, n, alphabet, cap)
    s = len(strings)
    counts = np.empty((s, s), dtype=np.int64)
    for i in range(s):
        counts[i] = (ends[:, i : i + 1] == ends).sum(axis=0)
    return counts


def joint_accept_count_grid(
    strings: Sequence[str], n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> np.ndarray:
    """(S, S) matrix of K_n values by direct enumeration over every DFA.

    Iterates every (table, accepting mask) pair and accumulates the outer
    product of acceptance indicators; no use of the agreement identity,
    so it serves as the independent oracle for the closed-form path.
    """
    import numpy as np

    ends = end_state_grid(strings, n, alphabet, cap)
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


def draw_dfa_sample(
    n: int, m: int, alphabet: Alphabet, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The m uniformly sampled n-state DFAs that every string shares.

    The stream is seeded by derive_sample_seed(master_seed, n) and consumed
    in a fixed layout: all m transition tables (int32, shape (m, n, k),
    uniform cells), then all m accepting masks (uint8, shape (m, n), fair
    bits).  Each DFA has exactly the distribution of automata.sample_dfa.
    """
    import numpy as np

    rng = np.random.default_rng(derive_sample_seed(master_seed, n))
    tables = rng.integers(0, n, size=(m, n, len(alphabet)), dtype=np.int32)
    masks = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    return tables, masks


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


def _acceptance_rows(
    tables: np.ndarray, masks: np.ndarray, plan: list[tuple[int, list[tuple[int, int]], int]]
) -> np.ndarray:
    """(S, m) float32 0/1 matrix: entry (j, t) is 1 when DFA t accepts
    string j of the trie plan.

    States of all m DFAs are numbered t*n + q, and succ[c] maps each to
    its successor on symbol c, so a trie edge costs one ``take``.  ``path``
    holds the states reached at each depth of the current trie path, and
    each string's acceptance is written as one row.
    """
    import numpy as np

    m, n, k = tables.shape
    succ = np.moveaxis(tables, 2, 0).astype(np.intp, order="C")
    succ += (np.arange(m, dtype=np.intp) * n)[:, None]
    succ = succ.reshape(k, m * n)
    accept = masks.ravel().astype(np.float32)
    path = np.empty((max((d for _, _, d in plan), default=0) + 1, m), dtype=np.intp)
    path[0] = np.arange(0, m * n, n, dtype=np.intp)
    out = np.empty((len(plan), m), dtype=np.float32)
    # indices are in range by construction; mode="clip" lets take write
    # straight into ``out`` instead of through a buffer
    for j, steps, depth in plan:
        for d, c in steps:
            succ[c].take(path[d], out=path[d + 1], mode="clip")
        accept.take(path[depth], out=out[j], mode="clip")
    return out


def _acceptance(
    tables: np.ndarray, masks: np.ndarray, encoded: Sequence[Sequence[int]]
) -> np.ndarray:
    """(m, S) float32 0/1 matrix: entry (t, j) is 1 when DFA t accepts
    string j.  A transposed view of the per-string rows of the trie walk."""
    return _acceptance_rows(tables, masks, _trie_plan(encoded)).T


def mc_joint_counts(
    rows: Sequence[str],
    n: int,
    m: int,
    alphabet: Alphabet,
    master_seed: int,
    cols: Sequence[str] | None = None,
) -> np.ndarray:
    """(R, C) int64 matrix of joint-acceptance counts among the m shared
    DFAs of state count n: entry (i, j) counts the samples that accept both
    rows[i] and cols[j] (cols defaults to rows).  It is the exact integer
    product A^T B of the acceptance matrices, formed in float32 over blocks
    of samples and summed in int64.  The distinct strings' prefix trie is
    walked once per block, and a block's live arrays fit in the bytes of
    _BLOCK_CELLS float32 cells, so only one such block exists at a time."""
    import numpy as np

    cols = rows if cols is None else cols
    # distinct strings, rows first: the row strings are the leading rows of
    # each block, so a block is multiplied without copying
    index: dict[str, int] = {}
    for s in (*rows, *cols):
        index.setdefault(s, len(index))
    distinct_rows = len(set(rows))
    encoded = [alphabet.encode(s) for s in index]
    plan = _trie_plan(encoded)
    tables, masks = draw_dfa_sample(n, m, alphabet, master_seed)
    k = len(alphabet)
    depth = max(map(len, encoded), default=0)
    # per sample: a float32 acceptance per string, an intp state per path
    # depth, k*n intp successors and n float32 accepting bits
    per_sample = 4 * len(encoded) + 8 * (depth + 1) + 8 * k * n + 4 * n
    step = max(1, 4 * _BLOCK_CELLS // per_sample)
    counts = np.zeros((distinct_rows, len(encoded)), dtype=np.int64)
    for lo in range(0, m, step):
        block = _acceptance_rows(tables[lo : lo + step], masks[lo : lo + step], plan)
        counts += (block[:distinct_rows] @ block.T).astype(np.int64)
    return counts[np.ix_([index[s] for s in rows], [index[s] for s in cols])]


def mc_pn(x: str, y: str, n: int, m: int, alphabet: Alphabet, seed: int) -> float:
    """Monte Carlo estimate of P_n: joint-acceptance fraction over the m
    shared n-state DFAs of the seed.

    Deterministic given (seed, n, x, y, m, alphabet), symmetric in (x, y),
    equal to the estimate a Gram reads for the same pair, and an unbiased
    estimator of exact_pn.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    return int(mc_joint_counts((x, y), n, m, alphabet, seed)[0, 1]) / m


# ---------------------------------------------------------------------------
# Full kernel and Gram matrices
# ---------------------------------------------------------------------------


def _summation_limit(x: str, y: str, params: KernelParams) -> tuple[int, bool]:
    """n_used = min(|x|, |y|, n_max), and whether n_max cut the sum short."""
    limit = min(len(x), len(y))
    n_used = min(limit, params.n_max)
    return n_used, n_used < limit


def _pair_value(same: int, counts: Sequence[int], params: KernelParams, m: int) -> int | float:
    """The kernel value of one pair from its identity term 1{x = y} and its
    counts for n = 1..n_used: agreement counts A_n out of n**(n*k) tables
    in exact mode, joint acceptances out of m samples in Monte Carlo mode.

    Exact paper values are integers; exact normalized and Monte Carlo paper
    values are rational sums rounded once to float; Monte Carlo normalized
    values are a left-to-right float sum."""
    k = len(params.alphabet)
    if params.mode == "exact":
        if params.scaling == "paper":
            total = same
            for n, a in enumerate(counts, start=1):
                total += _kn_from_agreement(a, n, k)
            return total
        acc = Fraction(same)
        for n, a in enumerate(counts, start=1):
            acc += Fraction(params.weight_for(n)) * _pn_from_agreement(a, n, k)
        return float(acc)
    if params.scaling == "paper":
        acc = Fraction(same)
        for n, c in enumerate(counts, start=1):
            acc += Fraction(c, m) * dfa_space_size(n, k)
        return float(acc)
    value = float(same)
    for n, c in enumerate(counts, start=1):
        value += params.weight_for(n) * (c / m)
    return value


def _canonical_pair(x: str, y: str, alphabet: Alphabet) -> tuple[str, str]:
    """Representative of the class of (x, y) under symbol permutation and
    swapping, on which every exact value is constant.

    Each order of the pair is relabeled by first appearance of its symbols
    (over the first string, then the second) onto the alphabet's own order;
    the smaller of the two relabeled pairs is the representative.
    """

    def relabel(first: str, second: str) -> tuple[str, str]:
        names: dict[str, str] = {}
        for ch in first + second:
            if ch not in names:
                names[ch] = alphabet.symbols[len(names)]
        return "".join(map(names.get, first)), "".join(map(names.get, second))

    return min(relabel(x, y), relabel(y, x))


def kernel_block(
    rows: Sequence[str],
    cols: Sequence[str] | None,
    params: KernelParams,
    cap: int = DEFAULT_TABLE_CAP,
    jobs: int = 1,
) -> list[list[int | float]]:
    """Kernel values of every (rows[i], cols[j]) pair, as an R x C matrix.

    With ``cols`` None the block is the symmetric Gram of ``rows`` and only
    its upper triangle is evaluated.  Every string is validated, and an
    exact sum's table cap checked for its largest term, before any count.

    The counting step: exact mode walks one canonical pair per
    symbol-permutation class, with agreement_counts at that pair's n_used,
    on ``jobs`` threads and with a memo that lives for this call; Monte
    Carlo mode makes one mc_joint_counts call per n on one thread.  Then
    _pair_value turns each pair's identity term and counts into its value,
    once per class in exact mode.  kernel_value, gram_matrix and
    prediction all read their values from here.
    """
    symmetric = cols is None
    cols = rows if cols is None else cols
    for s in (*rows, *cols):
        params.alphabet.encode(s)
    pairs = [(i, j) for i in range(len(rows)) for j in range(i if symmetric else 0, len(cols))]
    n_top = min(max(map(len, rows), default=0), max(map(len, cols), default=0), params.n_max)

    if params.mode == "exact":
        # n**(n*k) grows with n, so the largest term decides for every pair
        required = table_count(n_top, len(params.alphabet)) if n_top else 0
        if required > cap:
            raise CapExceededError(
                required, cap, hint="use monte-carlo mode for large state counts"
            )
        slots: dict[tuple[str, str], int] = {}
        slot_of_pair = [
            slots.setdefault(_canonical_pair(rows[i], cols[j], params.alphabet), len(slots))
            for i, j in pairs
        ]

        def evaluate(pair: tuple[str, str]) -> int | float:
            x, y = pair
            n_used = _summation_limit(x, y, params)[0]
            counts = agreement_counts(x, y, n_used, params.alphabet, cap) if n_used else []
            return _pair_value(int(x == y), counts, params, 0)

        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                class_values = list(pool.map(evaluate, slots))
        else:
            class_values = [evaluate(pair) for pair in slots]
        values = [class_values[slot] for slot in slot_of_pair]
    else:
        m = required_samples(params.epsilon, params.failure_prob)
        per_n = [
            mc_joint_counts(rows, n, m, params.alphabet, params.master_seed,
                            None if symmetric else cols).tolist()
            for n in range(1, n_top + 1)
        ]
        values = []
        for i, j in pairs:
            x, y = rows[i], cols[j]
            n_used = _summation_limit(x, y, params)[0]
            values.append(_pair_value(int(x == y), [c[i][j] for c in per_n[:n_used]], params, m))

    block: list[list[int | float]] = [[0] * len(cols) for _ in rows]
    for (i, j), value in zip(pairs, values):
        block[i][j] = value
        if symmetric:
            block[j][i] = value
    return block


def kernel_value(
    x: str, y: str, params: KernelParams, cap: int = DEFAULT_TABLE_CAP
) -> KernelValue:
    """Evaluate the kernel K(x, y) under the given parameters.

    The identity term 1{x = y} is always present; the sum runs over
    n = 1..min(|x|, |y|, n_max).  The value is the 1 x 1 kernel_block of
    the pair, so it is symmetric in (x, y) and equal to the entry of any
    Gram matrix that contains both strings, bit for bit in every mode.
    """
    value = kernel_block([x], [y], params, cap)[0][0]
    n_used, truncated = _summation_limit(x, y, params)
    cert = None
    if params.mode == "monte-carlo":
        m = required_samples(params.epsilon, params.failure_prob)
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


def gram_matrix(
    strings: Sequence[str],
    params: KernelParams,
    cap: int = DEFAULT_TABLE_CAP,
    jobs: int = 1,
) -> GramMatrix:
    """The symmetric kernel_block of distinct strings: each unordered pair
    is evaluated at most once, and exact mode walks one pair per
    symbol-permutation class on ``jobs`` threads.  The result does not
    depend on ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    strings = tuple(strings)
    seen = set()
    for s in strings:
        if s in seen:
            raise ValueError(f"duplicate string {s!r} in Gram input")
        seen.add(s)
    values = kernel_block(strings, None, params, cap, jobs)
    return GramMatrix(strings=strings, params=params, values=tuple(map(tuple, values)))


def format_version(params: KernelParams) -> int:
    """Version of the Gram sidecar and model formats for these parameters:
    2 for Monte Carlo (one shared sample per n), 1 for exact."""
    return 1 if params.mode == "exact" else 2


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
