"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run pytest with
``-s`` to see them as they happen).  Criterion 2, which compares two
fractions per ordered pair of the exhaustive grid, takes the most time; the
whole module finishes in about 6 s on a 2-core host.
"""

from fractions import Fraction

import numpy as np
import pytest

from regkernel import (
    Alphabet,
    ConceptUniverse,
    Dfa,
    KernelParams,
    dfa_space_size,
    enumerate_strings,
    exact_pn,
    gram_matrix,
    hoeffding_samples,
    kernel_value,
    label_strings,
    mc_pn,
    phi,
    required_samples,
    score,
    separator,
    table_count,
    train,
)
from regkernel import stream
from regkernel.automata import agreement_count_grid, joint_accept_count_grid
from regkernel.count import agreement_matrix

AB = Alphabet(("a", "b"))
QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid_strings():
    strings = enumerate_strings(AB, 6)
    assert len(strings) == 127
    return strings


@pytest.fixture(scope="module")
def grids(grid_strings):
    """Shared agreement and direct-enumeration count grids for n = 1..3."""
    out = {}
    for n in (1, 2, 3):
        out[n] = (
            agreement_count_grid(grid_strings, n, AB),
            joint_accept_count_grid(grid_strings, n, AB),
        )
    return out


def test_criterion_1_bounds(grid_strings, grids):
    """P_n within [1/4, 1/2] on every ordered pair, diagonal exactly 1/2."""
    count = len(grid_strings)
    violations = 0
    diagonal_bad = 0
    for n in (1, 2, 3):
        agree, _ = grids[n]
        t = table_count(n, 2)
        for i in range(count):
            for j in range(count):
                pn = Fraction(t + int(agree[i, j]), 4 * t)
                if not QUARTER <= pn <= HALF:
                    violations += 1
                if i == j and pn != HALF:
                    diagonal_bad += 1
    report(
        "1 bounds",
        violations == 0 and diagonal_bad == 0,
        f"3 x {count * count} ordered pairs in [1/4, 1/2], diagonals exact",
    )


def test_criterion_2_two_path_identity(grid_strings, grids):
    """Lazy-walk P_n equals full-DFA-enumeration P_n, exactly, gridwide."""
    count = len(grid_strings)
    mismatches = 0
    for n in (1, 2, 3):
        _, joint = grids[n]
        space = dfa_space_size(n, 2)
        for i, x in enumerate(grid_strings):
            for j, y in enumerate(grid_strings):
                if exact_pn(x, y, n, AB) != Fraction(int(joint[i, j]), space):
                    mismatches += 1
    report(
        "2 two-path identity",
        mismatches == 0,
        f"lazy-walk closed form == enumeration on 3 x {count * count} pairs",
    )


def test_criterion_3_sample_budget_and_concentration():
    """Budget formula values, then the relative-error rate over 1000 seeds,
    at the joint-acceptance budgets and at the Hoeffding budgets the
    kernel samples.  The relative error is at most |A/m - q|, here with
    q = 1/2, and passes even at budgets far too small, so the Hoeffding
    budgets are also held to the bound itself: |A/m - q| > 0.1 on at most
    delta of the seeds, plus three standard errors."""
    budgets_ok = required_samples(0.1, 0.05) == 4427 and required_samples(0.1, 0.01) == 6358
    exact = 0.375  # P_2(a, b) = 3/8, criterion 1 grid
    seeds = 1000
    rates = {}
    for delta in (0.05, 0.01):
        for m in (required_samples(0.1, delta), hoeffding_samples(0.1, delta)):
            hits = sum(
                1
                for seed in range(seeds)
                if abs(mc_pn("a", "b", 2, m, AB, seed) - exact) <= 0.1 * exact
            )
            rates[m] = hits / seeds
    misses = {}
    for delta in (0.05, 0.01):
        m = hoeffding_samples(0.1, delta)
        count = sum(
            1
            for seed in range(seeds)
            if abs(Fraction(agreement_matrix(("a", "b"), 2, AB, sample=(m, seed))[0][1], m) - HALF)
            > Fraction(0.1)
        )
        misses[m] = (count / seeds, delta + 3 * (delta / seeds) ** 0.5)
    report(
        "3 sample budget + concentration",
        budgets_ok
        and all(rate >= 0.94 for rate in rates.values())
        and all(rate <= allowed for rate, allowed in misses.values()),
        "m=4427 and m=6358, Hoeffding m=185 and m=265; hit rates "
        + ", ".join(f"{rate:.3f} @ m={m}" for m, rate in rates.items())
        + "; |A/m - 1/2| > 0.1 on "
        + ", ".join(f"{rate:.3f} <= {allowed:.4f} @ m={m}"
                    for m, (rate, allowed) in misses.items()),
    )


def test_criterion_4_membership_recovery():
    """Separator score equals the membership indicator for all 66 targets
    with up to two states and all 63 strings up to length five, exactly."""
    universe = ConceptUniverse(AB, 3)
    strings = enumerate_strings(AB, 5)
    assert len(strings) == 63
    targets = [dfa for _, dfa in universe.iter_concepts(max_n=2)]
    assert len(targets) == 66
    phis = {x: phi(x, universe) for x in strings}
    bad = 0
    for target in targets:
        w = separator(target, universe)
        for x in strings:
            expected = Fraction(1) if target.accepts(x) else Fraction(0)
            if score(w, phis[x]) != expected:
                bad += 1
    report(
        "4 membership recovery",
        bad == 0,
        f"{len(targets)} targets x {len(strings)} strings, zero tolerance",
    )


def test_criterion_5_embedding_kernel_duality():
    """phi . phi equals the exact paper-scaled kernel truncated at n = 2
    for every pair of strings up to length four, as exact integers."""
    universe = ConceptUniverse(AB, 2)
    params = KernelParams(alphabet=AB, n_max=2, mode="exact", scaling="paper")
    strings = enumerate_strings(AB, 4)
    phis = {x: phi(x, universe) for x in strings}
    bad = 0
    for x in strings:
        for y in strings:
            dot = phis[x].dot(phis[y])
            kv = kernel_value(x, y, params).value
            if dot.denominator != 1 or dot.numerator != kv:
                bad += 1
    report(
        "5 embedding/kernel duality",
        bad == 0,
        f"{len(strings) ** 2} ordered pairs, exact integer equality",
    )


def test_criterion_6_gram_psd():
    """Exact Gram on 20 strings: minimum eigenvalue above -1e-9 x max diagonal."""
    strings = enumerate_strings(AB, 5)[:20]
    params = KernelParams(alphabet=AB, n_max=2, mode="exact", scaling="paper")
    matrix = gram_matrix(strings, params).to_array()
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    bound = -1e-9 * float(matrix.diagonal().max())
    report(
        "6 Gram PSD",
        min_eig >= bound,
        f"min eigenvalue {min_eig:.3e} >= {bound:.1e} on 20 strings",
    )


@pytest.fixture(scope="module")
def parity_dataset():
    parity = Dfa(n=2, alphabet=AB, table=((1, 1), (0, 0)), accepting=frozenset({0}))
    return label_strings(parity, enumerate_strings(AB, 4))


def test_criterion_7a_learnability_exact(parity_dataset):
    """Exact kernel, n_max = 3: zero training errors within 50 epochs,
    deterministically."""
    params = KernelParams(alphabet=AB, n_max=3, mode="exact", scaling="paper")
    gram = gram_matrix(parity_dataset.strings, params)
    first = train(gram, parity_dataset.labels, max_epochs=50)
    second = train(gram, parity_dataset.labels, max_epochs=50)
    report(
        "7a learnability (exact)",
        first.final_errors == 0 and first.epochs_run <= 50 and first == second,
        f"converged in {first.epochs_run} epochs, deterministic",
    )


def test_criterion_7b_learnability_monte_carlo(parity_dataset):
    """Monte Carlo kernel (eps 0.05, delta 0.01): zero training errors
    within 200 epochs in at least 90 of 100 master seeds."""
    converged = 0
    for seed in range(100):
        params = KernelParams(
            alphabet=AB, n_max=3, mode="monte-carlo", scaling="normalized",
            epsilon=0.05, failure_prob=0.01, master_seed=seed,
        )
        gram = gram_matrix(parity_dataset.strings, params)
        model = train(gram, parity_dataset.labels, max_epochs=200)
        if model.final_errors == 0:
            converged += 1
    report(
        "7b learnability (monte carlo)",
        converged >= 90,
        f"{converged}/100 seeds reached zero training errors",
    )


def table_counts(n: int, alphabet: Alphabet, draws: int, seed: int,
                 accepting: bool = False) -> list[int]:
    """How often each n-state table occurs among the first ``draws`` tables
    of the Monte Carlo kernel's stream for (seed, n), indexed in enumeration
    order: the rank in base n of the cells, first cell most significant.
    With ``accepting``, how often each n-state DFA occurs among the first
    ``draws`` DFAs of sample_dfas, indexed table_rank * 2**n + accept_mask.

    Counted on the bit-sliced blocks of draw_table_block and
    draw_accept_block: the tables whose leading cells (and accepting bits)
    match a prefix are the AND of those cells' masks."""
    k = len(alphabet)
    counts = [0] * (dfa_space_size(n, k) if accepting else table_count(n, k))
    for block, lo in enumerate(range(0, draws, stream._BLOCK_SAMPLES)):
        size = min(stream._BLOCK_SAMPLES, draws - lo)
        parts = stream.draw_table_block(n, k, seed, block, size)
        prefixes = [(0, (1 << size) - 1)]
        for q in range(n):
            for c in range(k):
                prefixes = [(rank * n + r, tables & part)
                            for rank, tables in prefixes
                            for r, part in enumerate(parts[q][c])]
        if accepting:
            masks = stream.draw_accept_block(n, seed, block, size)
            # state n-1 first, so that state q is bit q of the index
            for q in reversed(range(n)):
                prefixes = [(index * 2 + bit, tables & (masks[q] if bit else ~masks[q]))
                            for index, tables in prefixes
                            for bit in (0, 1)]
        for index, tables in prefixes:
            counts[index] += tables.bit_count()
    return counts


def uniform_sampling_chisquare(
    n: int,
    alphabet: Alphabet,
    draws: int,
    seed: int,
    accepting: bool = False,
    significance: float = 0.001,
) -> tuple[float, float, np.ndarray]:
    """Chi-square goodness-of-fit of the Monte Carlo kernel's table stream
    against the n**(n*k) transition tables, at ``draws`` tables, or with
    ``accepting`` of the DFAs of sample_dfas against the n**(n*k) * 2**n
    DFAs (table_counts).  Returns (statistic, critical value, per-cell
    observed counts); the stream passes when the statistic is at most the
    critical value.
    """
    # imported here, its only use, so that the other criteria run without scipy
    from scipy import stats

    observed = np.array(table_counts(n, alphabet, draws, seed, accepting))
    expected = draws / len(observed)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    critical = float(stats.chi2.isf(significance, len(observed) - 1))
    return statistic, critical, observed


def test_criterion_8_uniform_sampling_chisquare():
    """Chi-square goodness of fit of the table stream at one million draws,
    significance 0.001: over all 16 two-state tables, each also within 5
    percent of its expected frequency; over all 64 two-state DFAs of
    sample_dfas, every table with every accepting set, each also within 5
    percent; and over all 729 three-state tables, whose cells are drawn by
    rejection."""
    draws = 1_000_000
    statistic, critical, observed = uniform_sampling_chisquare(
        2, AB, draws=draws, seed=20260808
    )
    expected = draws / 16
    within_band = float(np.abs(observed - expected).max()) <= 0.05 * expected
    statistic64, critical64, observed64 = uniform_sampling_chisquare(
        2, AB, draws=draws, seed=20260808, accepting=True
    )
    expected64 = draws / 64
    within_band64 = float(np.abs(observed64 - expected64).max()) <= 0.05 * expected64
    statistic3, critical3, observed3 = uniform_sampling_chisquare(
        3, AB, draws=draws, seed=20260808
    )
    report(
        "8 uniform sampling",
        statistic <= critical and within_band and observed.sum() == draws
        and statistic64 <= critical64 and within_band64 and observed64.sum() == draws
        and statistic3 <= critical3 and observed3.sum() == draws,
        f"n=2: chi-square {statistic:.2f} <= critical {critical:.2f}, "
        f"16 tables within 5% of {expected:.0f}; "
        f"n=2 DFAs: chi-square {statistic64:.2f} <= critical {critical64:.2f}, "
        f"64 DFAs within 5% of {expected64:.0f}; "
        f"n=3: chi-square {statistic3:.2f} <= critical {critical3:.2f} over 729 tables",
    )
