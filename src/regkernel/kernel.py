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
strings visit and treats all unvisited states as one weighted branch, so
it never lists the T tables.  Enumerating every table (and every DFA)
remains in this module as the independent oracle: the tests check the
walk against it, and ``verify --suite bounds`` and the benchmark
reference are computed from it.  The ``cap`` argument still bounds
T = n**(n*k) on both paths, so the exact path refuses the same state
counts it always did.

The Monte Carlo path estimates P_n as the joint-acceptance fraction over m
uniformly sampled DFAs; both bounds 1/4 <= P_n <= 1/2 hold, so a
multiplicative Chernoff bound gives a relative-error guarantee with a
sample budget independent of n and the strings.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .automata import (
    DEFAULT_TABLE_CAP,
    Alphabet,
    CapExceededError,
    dfa_space_size,
    enumerate_dfas,
    table_count,
)

MODES = ("exact", "monte-carlo")
SCALINGS = ("paper", "normalized")

_SEED_MASK = (1 << 64) - 1
_SEED_DOMAIN = b"regkernel.pair.v1"


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
    master_seed: 64-bit seed from which every per-pair stream is derived.
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
            ws = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", ws)
            if len(ws) < self.n_max:
                raise ValueError(f"need {self.n_max} weights, got {len(ws)}")
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
    Sorting makes the derived stream a function of the unordered pair, so
    Monte Carlo values are symmetric bit for bit, independent of
    evaluation order and thread count.
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


# ---------------------------------------------------------------------------
# Exact path: lazy table walk
# ---------------------------------------------------------------------------


def agreement_count(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> int:
    """Number of transition tables on which x and y end in the same state.

    A lazy walk (the principle of deferred decisions): x, then y, is run
    from state 0 on a partial table that is filled in only when the walk
    reaches an unassigned cell.  The v states visited so far carry the
    canonical labels 0..v-1.  At an unassigned cell the walk branches to
    each visited state, and to one fresh state labelled v that stands,
    with weight n - v, for all n - v unvisited states: any relabeling of
    unvisited states maps completions to completions and keeps the end
    states equal or unequal.  A finished branch whose two end states agree
    contributes its weight times n**(unassigned cells).

    ``cap`` bounds the table count n**(n*k) exactly as for the enumeration
    oracle, so a state count refused there is refused here.
    """
    k = len(alphabet)
    total = table_count(n, k)
    if total > cap:
        raise CapExceededError(total, cap)
    walks = (alphabet.encode(x), alphabet.encode(y))
    # cell q*k + c holds the successor of state q on symbol c, -1 if unassigned
    table = [-1] * (n * k)
    count = 0

    def walk(phase: int, i: int, q: int, v: int, weight: int, end_x: int, free: int) -> None:
        nonlocal count
        s = walks[phase]
        while i < len(s):
            cell = q * k + s[i]
            if table[cell] < 0:
                break
            q = table[cell]
            i += 1
        else:  # the string ended on assigned cells
            if phase == 0:
                walk(1, 0, 0, v, weight, q, free)
            elif q == end_x:
                count += weight * n**free
            return
        for r in range(v):
            table[cell] = r
            walk(phase, i + 1, r, v, weight, end_x, free - 1)
        if v < n:
            table[cell] = v
            walk(phase, i + 1, v, v + 1, weight * (n - v), end_x, free - 1)
        table[cell] = -1

    walk(0, 0, 0, 1, 1, 0, n * k)
    return count


def exact_pn(
    x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP
) -> Fraction:
    """Exact joint-acceptance fraction P_n(x, y) = (1/4) * (1 + A/T).

    A is the table agreement count and T the table total; the accepting
    bits contribute the closed 1/4 factor because each state is accepting
    independently with probability 1/2.
    """
    a = agreement_count(x, y, n, alphabet, cap)
    t = table_count(n, len(alphabet))
    return Fraction(t + a, 4 * t)


def exact_kn(x: str, y: str, n: int, alphabet: Alphabet, cap: int = DEFAULT_TABLE_CAP) -> int:
    """Exact count of n-state DFAs accepting both x and y."""
    value = exact_pn(x, y, n, alphabet, cap) * dfa_space_size(n, len(alphabet))
    if value.denominator != 1:
        raise AssertionError(f"K_n must be an integer, got {value}")
    return value.numerator


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


def _mc_joint_count(
    x: str, y: str, n: int, m: int, alphabet: Alphabet, master_seed: int
) -> int:
    """Number of jointly accepting DFAs among m uniform samples.

    The stream is seeded from the unordered pair via derive_pair_seed and
    consumed in a fixed batch layout: all m transition tables (m*n*k
    uniform cells), then all m accepting masks (m*n fair bits).  Each
    sampled DFA has exactly the distribution of automata.sample_dfa.
    """
    k = len(alphabet)
    ex = alphabet.encode(x)
    ey = alphabet.encode(y)
    rng = np.random.default_rng(derive_pair_seed(master_seed, n, x, y))
    tables = rng.integers(0, n, size=(m, n, k))
    masks = rng.integers(0, 2, size=(m, n))
    rows = np.arange(m)
    sx = np.zeros(m, dtype=np.int64)
    for ci in ex:
        sx = tables[rows, sx, ci]
    sy = np.zeros(m, dtype=np.int64)
    for ci in ey:
        sy = tables[rows, sy, ci]
    return int(np.count_nonzero(masks[rows, sx] & masks[rows, sy]))


def mc_pn(x: str, y: str, n: int, m: int, alphabet: Alphabet, seed: int) -> float:
    """Monte Carlo estimate of P_n: joint-acceptance fraction over m
    uniformly sampled n-state DFAs.

    Deterministic given (seed, n, x, y, m, alphabet), symmetric in (x, y)
    by seed construction, and an unbiased estimator of exact_pn.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    return _mc_joint_count(x, y, n, m, alphabet, seed) / m


# ---------------------------------------------------------------------------
# Full kernel and Gram matrices
# ---------------------------------------------------------------------------


def _check_exact_cap(n_used: int, params: KernelParams, cap: int) -> None:
    """Refuse, before any term is evaluated, an exact sum whose largest
    state count has more than ``cap`` transition tables.  n**(n*k) grows
    with n, so the largest term decides for the whole sum."""
    if n_used < 1:
        return
    required = table_count(n_used, len(params.alphabet))
    if required > cap:
        raise CapExceededError(
            required, cap, hint="use monte-carlo mode for large state counts"
        )


def kernel_value(
    x: str, y: str, params: KernelParams, cap: int = DEFAULT_TABLE_CAP
) -> KernelValue:
    """Evaluate the kernel K(x, y) under the given parameters.

    The identity term 1{x = y} is always present; the sum runs over
    n = 1..min(|x|, |y|, n_max).  Symmetric in (x, y) bit for bit in
    every mode.
    """
    params.alphabet.encode(x)
    params.alphabet.encode(y)
    limit = min(len(x), len(y))
    n_used = min(limit, params.n_max)
    truncated = n_used < limit
    same = 1 if x == y else 0

    if params.mode == "exact":
        _check_exact_cap(n_used, params, cap)
        if params.scaling == "paper":
            total = same
            for n in range(1, n_used + 1):
                total += exact_kn(x, y, n, params.alphabet, cap)
            return KernelValue(total, params.mode, params.scaling, n_used, truncated)
        acc = Fraction(same)
        for n in range(1, n_used + 1):
            acc += Fraction(params.weight_for(n)) * exact_pn(x, y, n, params.alphabet, cap)
        return KernelValue(float(acc), params.mode, params.scaling, n_used, truncated)

    m = required_samples(params.epsilon, params.failure_prob)
    cert = ApproxCertificate(params.epsilon, params.failure_prob, m, params.master_seed)
    if params.scaling == "paper":
        acc = Fraction(same)
        for n in range(1, n_used + 1):
            count = _mc_joint_count(x, y, n, m, params.alphabet, params.master_seed)
            acc += Fraction(count, m) * dfa_space_size(n, len(params.alphabet))
        return KernelValue(float(acc), params.mode, params.scaling, n_used, truncated, cert)
    total_f = float(same)
    for n in range(1, n_used + 1):
        total_f += params.weight_for(n) * mc_pn(
            x, y, n, m, params.alphabet, params.master_seed
        )
    return KernelValue(total_f, params.mode, params.scaling, n_used, truncated, cert)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of kernel values over an ordered string list."""

    strings: tuple[str, ...]
    entries: tuple[tuple[KernelValue, ...], ...]
    params: KernelParams

    def value(self, i: int, j: int) -> int | float:
        return self.entries[i][j].value

    def numeric(self) -> list[list[int | float]]:
        return [[kv.value for kv in row] for row in self.entries]

    def to_array(self) -> np.ndarray:
        return np.array(self.numeric(), dtype=float)


def gram_matrix(
    strings: Sequence[str],
    params: KernelParams,
    cap: int = DEFAULT_TABLE_CAP,
    jobs: int = 1,
) -> GramMatrix:
    """Pairwise kernel values; each unordered pair is evaluated once.

    Deterministic given params.master_seed regardless of jobs: per-pair
    streams are derived independently, so parallel evaluation returns
    exactly the sequential result.
    """
    strings = tuple(strings)
    seen = set()
    for s in strings:
        if s in seen:
            raise ValueError(f"duplicate string {s!r} in Gram input")
        seen.add(s)
        params.alphabet.encode(s)
    if params.mode == "exact" and strings:
        _check_exact_cap(min(max(map(len, strings)), params.n_max), params, cap)
    count = len(strings)
    pairs = [(i, j) for i in range(count) for j in range(i, count)]

    def evaluate(pair):
        i, j = pair
        return kernel_value(strings[i], strings[j], params, cap)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(evaluate, pairs))
    else:
        values = [evaluate(p) for p in pairs]

    grid: list[list[KernelValue | None]] = [[None] * count for _ in range(count)]
    for (i, j), kv in zip(pairs, values):
        grid[i][j] = kv
        grid[j][i] = kv
    return GramMatrix(
        strings=strings,
        entries=tuple(tuple(row) for row in grid),  # type: ignore[arg-type]
        params=params,
    )


def format_scalar(v: int | float) -> str:
    """Exact integers in full decimal, floats with 17 significant digits."""
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def gram_to_csv(gram: GramMatrix) -> str:
    """CSV with header row s0..s{k-1}; one row per string, same order."""
    count = len(gram.strings)
    lines = [",".join(f"s{i}" for i in range(count))]
    for row in gram.entries:
        lines.append(",".join(format_scalar(kv.value) for kv in row))
    return "\n".join(lines) + "\n"


def gram_metadata_json(gram: GramMatrix) -> str:
    """Sidecar metadata: the full KernelParams (master_seed included) and
    the string list, enough to replay the matrix bit for bit."""
    meta = {
        "format": "regkernel gram v1",
        "params": gram.params.to_dict(),
        "strings": list(gram.strings),
    }
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"
