"""Runnable verification suites behind ``regkernel verify``.

Each suite returns a list of Check rows the CLI renders as a
machine-readable pass/fail table.  The heavy suites lean on the grid
helpers in :mod:`regkernel.kernel` so exhaustive small-instance checks
stay at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automata import Alphabet, DfaSpace, dfa_space_size, sample_dfa, table_count
from .embedding import ConceptUniverse, InstanceKey, SparseVec, phi, score, separator
from .kernel import (
    KernelParams,
    agreement_count_grid,
    gram_matrix,
    joint_accept_count_grid,
    mc_pn,
    required_samples,
)
from .learner import enumerate_strings

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name=name, passed=bool(passed), detail=detail)


def suite_bounds(
    alphabet: Alphabet | None = None,
    n_values: tuple[int, ...] = (1, 2, 3),
    max_len: int = 6,
) -> list[Check]:
    """Exhaustive joint-acceptance fraction checks on a small grid.

    For every state count and every ordered pair of strings up to the
    length limit: 1/4 <= P_n <= 1/2 in exact rationals, P_n(x, x) = 1/2,
    the closed-form path agrees with full DFA enumeration, and direct
    enumeration confirms that exactly half the space accepts any single
    string.  Also reports that the lower bound is approached as n grows.
    """
    alphabet = alphabet or Alphabet(("a", "b"))
    strings = enumerate_strings(alphabet, max_len)
    count = len(strings)
    checks: list[Check] = []
    min_by_n: dict[int, Fraction] = {}

    for n in n_values:
        t = table_count(n, len(alphabet))
        space = dfa_space_size(n, len(alphabet))
        agree = agreement_count_grid(strings, n, alphabet)
        joint = joint_accept_count_grid(strings, n, alphabet)

        in_range = True
        diagonal_half = True
        paths_equal = True
        lo, hi = HALF, QUARTER
        for i in range(count):
            for j in range(count):
                pn = Fraction(t + int(agree[i, j]), 4 * t)
                pn_enum = Fraction(int(joint[i, j]), space)
                if pn != pn_enum:
                    paths_equal = False
                if not QUARTER <= pn <= HALF:
                    in_range = False
                if i == j and pn != HALF:
                    diagonal_half = False
                lo = min(lo, pn)
                hi = max(hi, pn)
        min_by_n[n] = lo

        half_accepts = all(int(joint[i, i]) * 2 == space for i in range(count))

        checks.append(
            _check(
                f"bounds.range.n{n}",
                in_range,
                f"{count * count} ordered pairs, min={lo} max={hi}",
            )
        )
        checks.append(
            _check(f"bounds.diagonal.n{n}", diagonal_half, "P_n(x,x) = 1/2 exactly")
        )
        checks.append(
            _check(
                f"bounds.two_path.n{n}",
                paths_equal,
                "closed form equals full enumeration on every pair",
            )
        )
        checks.append(
            _check(
                f"bounds.half_accept.n{n}",
                half_accepts,
                f"every string accepted by exactly {space // 2} of {space} DFAs",
            )
        )
        checks.append(
            _check(
                f"bounds.upper_attained.n{n}",
                hi == HALF,
                "diagonal pairs attain 1/2",
            )
        )

    descending = all(
        min_by_n[a] > min_by_n[b]
        for a, b in zip(sorted(min_by_n), sorted(min_by_n)[1:])
    )
    biggest = max(min_by_n)
    checks.append(
        _check(
            "bounds.lower_approached",
            descending and min_by_n[biggest] < Fraction(1, 3),
            "minimum P_n decreases toward 1/4 as n grows: "
            + ", ".join(f"n={n}: {float(v):.4f}" for n, v in sorted(min_by_n.items())),
        )
    )
    return checks


def suite_embedding(
    alphabet: Alphabet | None = None,
    target_n_max: int = 2,
    string_max_len: int = 5,
    universe_n_max: int = 3,
) -> list[Check]:
    """Exact membership recovery for every small target automaton.

    For each of the 66 automata with at most two states and each string
    of length at most five, the separator score against the canonical
    embedding must equal the membership indicator exactly, with the
    instance and concept halves partitioning by string length.  The score
    is also invariant to enlarging the universe, since coordinates above
    the target's size carry zero weight.
    """
    alphabet = alphabet or Alphabet(("a", "b"))
    universe = ConceptUniverse(alphabet, universe_n_max)
    smaller = ConceptUniverse(alphabet, max(target_n_max, 1))
    strings = enumerate_strings(alphabet, string_max_len)

    phis = {x: phi(x, universe) for x in strings}
    phis_small = {x: phi(x, smaller) for x in strings}

    targets = [dfa for _, dfa in universe.iter_concepts(max_n=target_n_max)]

    recovered = True
    partitioned = True
    invariant = True
    cases = 0
    for target in targets:
        w = separator(target, universe)
        w_small = separator(target, smaller)
        w_inst = SparseVec(
            {k: v for k, v in w.entries.items() if isinstance(k, InstanceKey)}
        )
        w_conc = SparseVec(
            {k: v for k, v in w.entries.items() if not isinstance(k, InstanceKey)}
        )
        for x in strings:
            cases += 1
            member = target.accepts(x)
            s = score(w, phis[x])
            if s != (Fraction(1) if member else Fraction(0)):
                recovered = False
            a = score(w_inst, phis[x])
            b = score(w_conc, phis[x])
            if member and not (
                (a == 1 and b == 0 and len(x) < target.n)
                or (a == 0 and b == 1 and len(x) >= target.n)
            ):
                partitioned = False
            if not member and (a != 0 or b != 0):
                partitioned = False
            if score(w_small, phis_small[x]) != s:
                invariant = False

    checks = [
        _check(
            "embedding.recovery",
            recovered,
            f"{len(targets)} targets x {len(strings)} strings = {cases} exact scores",
        ),
        _check(
            "embedding.partition",
            partitioned,
            "exactly one of the instance/concept halves fires on members",
        ),
        _check(
            "embedding.universe_invariance",
            invariant,
            f"scores identical under universes n_max={target_n_max} and {universe_n_max}",
        ),
    ]
    return checks


def suite_concentration(
    alphabet: Alphabet | None = None,
    seeds: int = 1000,
    x: str = "a",
    y: str = "b",
    n: int = 2,
) -> list[Check]:
    """Monte Carlo budget and guarantee checks on a pair with known value.

    Verifies the closed-form sample budgets, then measures how often the
    estimator misses the exact value by more than the target relative
    error across many master seeds, and checks the estimator mean for
    bias at a small budget.
    """
    alphabet = alphabet or Alphabet(("a", "b"))
    from .kernel import exact_pn

    exact = exact_pn(x, y, n, alphabet)
    checks = [
        _check(
            "concentration.budget_4427",
            required_samples(0.1, 0.05) == 4427,
            f"required_samples(0.1, 0.05) = {required_samples(0.1, 0.05)}",
        ),
        _check(
            "concentration.budget_6358",
            required_samples(0.1, 0.01) == 6358,
            f"required_samples(0.1, 0.01) = {required_samples(0.1, 0.01)}",
        ),
    ]

    for eps, delta, floor in ((0.1, 0.05, 0.94), (0.1, 0.01, None)):
        m = required_samples(eps, delta)
        hits = 0
        for seed in range(seeds):
            est = mc_pn(x, y, n, m, alphabet, seed)
            if abs(est - float(exact)) <= eps * float(exact):
                hits += 1
        rate = hits / seeds
        if floor is None:
            allowed = delta + 3.0 * (delta / seeds) ** 0.5
            ok = (1.0 - rate) <= allowed
            detail = f"failure rate {1 - rate:.4f} <= {allowed:.4f} at m={m}"
        else:
            ok = rate >= floor
            detail = f"hit rate {rate:.4f} >= {floor} at m={m}"
        checks.append(_check(f"concentration.eps{eps}_delta{delta}", ok, detail))

    small_m = 100
    mean = float(np.mean([mc_pn(x, y, n, small_m, alphabet, s) for s in range(seeds)]))
    p = float(exact)
    se = (p * (1.0 - p) / small_m / seeds) ** 0.5
    checks.append(
        _check(
            "concentration.unbiased",
            abs(mean - p) <= 4.0 * se,
            f"mean {mean:.5f} vs exact {p:.5f}, tolerance {4 * se:.5f}",
        )
    )
    return checks


def suite_psd(
    alphabet: Alphabet | None = None,
    n_strings: int = 20,
    string_max_len: int = 5,
    n_max: int = 2,
) -> list[Check]:
    """Gram positive semidefiniteness: the minimum eigenvalue of an exact
    Gram matrix may dip below zero only by floating round-off."""
    alphabet = alphabet or Alphabet(("a", "b"))
    strings = enumerate_strings(alphabet, string_max_len)[:n_strings]
    params = KernelParams(alphabet=alphabet, n_max=n_max, mode="exact", scaling="paper")
    gram = gram_matrix(strings, params)
    matrix = gram.to_array()
    eigenvalues = np.linalg.eigvalsh(matrix)
    min_eig = float(eigenvalues[0])
    tolerance = 1e-9 * float(matrix.diagonal().max())
    return [
        _check(
            "psd.min_eigenvalue",
            min_eig >= -tolerance,
            f"min eigenvalue {min_eig:.6e} over {len(strings)} strings "
            f"(tolerance {-tolerance:.1e})",
        )
    ]


def uniform_sampling_chisquare(
    n: int,
    alphabet: Alphabet,
    draws: int,
    seed: int,
    significance: float = 0.001,
) -> tuple[float, float, np.ndarray]:
    """Chi-square goodness-of-fit of sample_dfa against the enumerated space.

    Returns (statistic, critical value, per-DFA observed counts); the
    sampler passes when the statistic is at most the critical value.
    """
    # imported here, its only use, so that starting the CLI does not load scipy
    from scipy import stats

    space = DfaSpace(n, alphabet)
    size = space.size
    rng = np.random.default_rng(seed)
    observed = np.zeros(size, dtype=np.int64)
    for _ in range(draws):
        observed[space.index_of(sample_dfa(n, alphabet, rng))] += 1
    expected = draws / size
    statistic = float(((observed - expected) ** 2 / expected).sum())
    critical = float(stats.chi2.isf(significance, size - 1))
    return statistic, critical, observed


SUITES = {
    "bounds": suite_bounds,
    "embedding": suite_embedding,
    "concentration": suite_concentration,
    "psd": suite_psd,
}
