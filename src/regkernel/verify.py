"""Runnable verification suites behind ``regkernel verify``.

Each suite returns a list of Check rows the CLI renders as a
machine-readable pass/fail table.  The bounds suite checks integer
identities over the enumeration oracle's count grids in
:mod:`regkernel.automata`, plain lists of ints like the runtime counter's,
so exhaustive small-instance checks stay at desk scale, and the psd suite
proves its Gram positive definite in exact integers: no suite imports
numpy or computes a float eigenvalue.  Every suite runs over the alphabet
``ab`` on a fixed grid; only suite_bounds takes its grid (state counts and
string length) as parameters, so that tests can run it on a smaller one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from .automata import (
    Alphabet,
    agreement_count_grid,
    dfa_space_size,
    joint_accept_count_grid,
    table_count,
)
from .count import agreement_matrix
from .embedding import ConceptUniverse, InstanceKey, SparseVec, phi, score, separator
from .kernel import KernelParams, exact_pn, gram_matrix, hoeffding_samples, required_samples
from .learner import enumerate_strings

AB = Alphabet(("a", "b"))


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name=name, passed=bool(passed), detail=detail)


def suite_bounds(n_values: tuple[int, ...] = (1, 2, 3), max_len: int = 6) -> list[Check]:
    """Exhaustive joint-acceptance fraction checks on a small grid.

    For every state count, over every ordered pair of strings over ``ab``
    up to the length limit, each check is one integer identity over the
    oracle's agreement grid A and joint-acceptance grid J, with
    T = n**(n*k) tables and S = T * 2**n DFAs, so that P_n = (T + A) / (4T):
    1/4 <= P_n <= 1/2 is 0 <= A <= T; P_n(x, x) = 1/2 is diag(A) = T; the
    closed form agrees with full DFA enumeration, P_n = J / S, when
    S * (T + A) = 4T * J; exactly half the space accepts any single string
    when 2 * diag(J) = S; and the runtime counter (agreement_matrix: the
    term plan and block_counts every kernel block counts with) equals A.  The
    products stay below 2**63 for every n the table cap allows.  Also
    reports that the lower bound is approached as n grows.
    """
    strings = enumerate_strings(AB, max_len)
    count = len(strings)
    checks: list[Check] = []
    min_by_n: dict[int, Fraction] = {}

    for n in n_values:
        t = table_count(n, len(AB))
        space = dfa_space_size(n, len(AB))
        agree = agreement_count_grid(strings, n, AB)
        joint = joint_accept_count_grid(strings, n, AB)
        low, high = min(map(min, agree)), max(map(max, agree))
        lo, hi = Fraction(t + low, 4 * t), Fraction(t + high, 4 * t)
        min_by_n[n] = lo
        checks += [
            _check(f"bounds.range.n{n}", 0 <= low and high <= t,
                   f"{count * count} ordered pairs, min={lo} max={hi}"),
            _check(f"bounds.diagonal.n{n}", all(agree[i][i] == t for i in range(count)),
                   "P_n(x,x) = 1/2 exactly"),
            _check(f"bounds.two_path.n{n}",
                   all(space * (t + a) == 4 * t * j
                       for ar, jr in zip(agree, joint) for a, j in zip(ar, jr)),
                   "closed form equals full enumeration on every pair"),
            _check(f"bounds.runtime.n{n}", agreement_matrix(strings, n, AB) == agree,
                   "runtime counter equals the enumeration grid on every pair"),
            _check(f"bounds.half_accept.n{n}", all(2 * joint[i][i] == space for i in range(count)),
                   f"every string accepted by exactly {space // 2} of {space} DFAs"),
            _check(f"bounds.upper_attained.n{n}", high == t, "diagonal pairs attain 1/2"),
        ]

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


def suite_embedding() -> list[Check]:
    """Exact membership recovery for every small target automaton.

    For each of the 66 automata over ``ab`` with at most two states and
    each string of length at most five, the separator score against the
    canonical embedding must equal the membership indicator exactly, with the
    instance and concept halves partitioning by string length.  The score
    is also invariant to enlarging the universe from n_max 2 to 3, since
    coordinates above the target's size carry zero weight.
    """
    universe = ConceptUniverse(AB, 3)
    smaller = ConceptUniverse(AB, 2)
    strings = enumerate_strings(AB, 5)

    phis = {x: phi(x, universe) for x in strings}
    phis_small = {x: phi(x, smaller) for x in strings}

    targets = [dfa for _, dfa in universe.iter_concepts(max_n=2)]

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
            "scores identical under universes n_max=2 and 3",
        ),
    ]
    return checks


def suite_concentration() -> list[Check]:
    """Monte Carlo budget and guarantee checks on the pair ("a", "b") at
    n = 2, whose value is known, over 1,000 master seeds.

    Verifies the closed-form joint-acceptance sample budgets, then measures
    how often the estimator misses the exact value by more than the target
    relative error across the seeds: at those budgets, and at the
    Hoeffding budget the kernel samples.  Those relative errors are at most
    |A/m - q|, where q = 4 P_n - 1 is the probability that the two strings
    end in the same state, and often far below it, so the Hoeffding budget
    is also checked on the quantity it bounds: |A/m - q| may exceed epsilon
    on at most delta of the seeds, plus three standard errors.  Last,
    checks the estimator mean for bias at a small budget, against its
    variance q(1 - q) / (16m).

    Each (seed, m) sample is counted once: its agreement count A, read
    from count.agreement_matrix as mc_pn reads it, gives both the estimate
    (m + A) / (4m), mc_pn's value, and |A/m - q|.
    """
    seeds = 1000
    exact = exact_pn("a", "b", 2, AB)
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

    @cache
    def agreements(m: int) -> list[int]:
        return [agreement_matrix(("a", "b"), 2, AB, sample=(m, seed))[0][1]
                for seed in range(seeds)]

    def hit_rate(eps: float, m: int) -> float:
        hits = sum(abs((m + a) / (4 * m) - float(exact)) <= eps * float(exact)
                   for a in agreements(m))
        return hits / seeds

    for eps, delta, floor in ((0.1, 0.05, 0.94), (0.1, 0.01, None)):
        m = required_samples(eps, delta)
        rate = hit_rate(eps, m)
        if floor is None:
            allowed = delta + 3.0 * (delta / seeds) ** 0.5
            ok = (1.0 - rate) <= allowed
            detail = f"failure rate {1 - rate:.4f} <= {allowed:.4f} at m={m}"
        else:
            ok = rate >= floor
            detail = f"hit rate {rate:.4f} >= {floor} at m={m}"
        checks.append(_check(f"concentration.eps{eps}_delta{delta}", ok, detail))

    for eps, delta in ((0.1, 0.05), (0.1, 0.01)):
        m = hoeffding_samples(eps, delta)
        rate = hit_rate(eps, m)
        checks.append(_check(f"concentration.hoeffding.eps{eps}_delta{delta}", rate >= 0.94,
                             f"hit rate {rate:.4f} >= 0.94 at m={m}"))

    q = 4 * exact - 1
    for eps, delta in ((0.1, 0.05), (0.1, 0.01)):
        m = hoeffding_samples(eps, delta)
        misses = sum(abs(Fraction(a, m) - q) > Fraction(eps) for a in agreements(m))
        allowed = delta + 3.0 * (delta / seeds) ** 0.5
        checks.append(_check(
            f"concentration.hoeffding_agreement.eps{eps}_delta{delta}",
            misses / seeds <= allowed,
            f"|A/m - {q}| > {eps} on {misses / seeds:.4f} <= {allowed:.4f} of seeds at m={m}",
        ))

    small_m = 100
    mean = math.fsum((small_m + a) / (4 * small_m) for a in agreements(small_m)) / seeds
    p = float(exact)
    q = 4.0 * p - 1.0
    se = (q * (1.0 - q) / (16.0 * small_m) / seeds) ** 0.5
    checks.append(
        _check(
            "concentration.unbiased",
            abs(mean - p) <= 4.0 * se,
            f"mean {mean:.5f} vs exact {p:.5f}, tolerance {4 * se:.5f}",
        )
    )
    return checks


def _positive_definite(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether a square integer matrix is symmetric positive definite, by
    Sylvester's criterion: every leading principal minor is positive.
    Bareiss's fraction-free elimination (Math. Comp. 1968) leaves the k-th
    minor as the k-th pivot and divides exactly, so no float is computed."""
    n = len(matrix)
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        return False
    a = [list(row) for row in matrix]
    previous = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return True


def suite_psd() -> list[Check]:
    """Gram positive definiteness, which implies PSD: the exact paper Gram
    of the first 20 strings over ``ab`` at n_max 2, in integers, is
    I + sum_n K_n over distinct strings, so its minimum eigenvalue is at
    least 1, and _positive_definite proves it positive with no tolerance."""
    strings = enumerate_strings(AB, 5)[:20]
    params = KernelParams(alphabet=AB, n_max=2, mode="exact", scaling="paper")
    return [
        _check(
            "psd.min_eigenvalue",
            _positive_definite(gram_matrix(strings, params).values),
            f"min eigenvalue > 0: all {len(strings)} leading principal minors positive "
            "(exact integers)",
        )
    ]


SUITES = {
    "bounds": suite_bounds,
    "embedding": suite_embedding,
    "concentration": suite_concentration,
    "psd": suite_psd,
}
