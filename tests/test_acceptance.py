"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run pytest with
``-s`` to see them as they happen).  Criteria 1, 2, 3, 4 and 6 are facts
that a ``regkernel verify`` suite proves; each asserts the suite's named
rows, and fails when one of them is missing.  Criterion 4, whose suite
scores every target on every string under two universes, takes about
0.25 s, and criterion 8's chi-square sampling test the most time; the
whole module finishes in about 3 s on a 2-core host.
"""

from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from regkernel import (
    Alphabet,
    ConceptUniverse,
    Dfa,
    KernelParams,
    dfa_space_size,
    enumerate_strings,
    gram_matrix,
    kernel_value,
    label_strings,
    phi,
    table_count,
    train,
    verify,
)
from regkernel import stream
from regkernel.cli import main

AB = Alphabet(("a", "b"))


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def report_rows(criterion: str, checks: list[verify.Check], names: list[str]) -> None:
    """Report a criterion that a verify suite proves: it passes when each
    named row is present and passed, and its detail is the rows' own."""
    rows = {check.name: check for check in checks}
    details = []
    for name in names:
        row = rows.get(name)
        status = "MISSING" if row is None else "PASS" if row.passed else "FAIL"
        details.append(f"{name} {status}" + (f": {row.detail}" if row is not None else ""))
    report(criterion, all(name in rows and rows[name].passed for name in names),
           "; ".join(details))


@pytest.fixture(scope="module")
def bounds_checks():
    """One run of the bounds suite over the 127 strings of length <= 6, n = 1..3."""
    return verify.suite_bounds()


def test_criterion_1_bounds(bounds_checks):
    """P_n within [1/4, 1/2] on every ordered pair, diagonal exactly 1/2."""
    report_rows("1 bounds", bounds_checks,
                [f"bounds.{kind}.n{n}" for kind in ("range", "diagonal") for n in (1, 2, 3)])


def test_criterion_2_two_path_identity(bounds_checks):
    """The closed form P_n = (T + A) / (4T) equals full-DFA enumeration,
    and the runtime counter equals the enumeration oracle, gridwide."""
    report_rows("2 two-path identity", bounds_checks,
                [f"bounds.{kind}.n{n}" for kind in ("two_path", "runtime") for n in (1, 2, 3)])


def test_criterion_3_sample_budget_and_concentration():
    """Budget formula values, then over 1000 seeds the relative-error rate
    at the joint-acceptance budgets and at the Hoeffding budgets the kernel
    samples, and |A/m - q| against the Hoeffding bound itself."""
    report_rows("3 sample budget + concentration", verify.suite_concentration(), [
        "concentration.budget_4427",
        "concentration.budget_6358",
        "concentration.eps0.1_delta0.05",
        "concentration.eps0.1_delta0.01",
        "concentration.hoeffding.eps0.1_delta0.05",
        "concentration.hoeffding.eps0.1_delta0.01",
        "concentration.hoeffding_agreement.eps0.1_delta0.05",
        "concentration.hoeffding_agreement.eps0.1_delta0.01",
    ])


def test_criterion_4_membership_recovery():
    """Separator score equals the membership indicator for all 66 targets
    with up to two states and all 63 strings up to length five, exactly,
    as ``regkernel verify --suite embedding`` reports it (exit 0)."""
    with redirect_stdout(StringIO()) as out:
        code = main(["verify", "--suite", "embedding"])
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    checks = [verify.Check(name, status == "PASS", detail)
              for name, status, detail in rows if name != "summary"]
    report_rows("4 membership recovery", checks, [
        "embedding.recovery", "embedding.partition", "embedding.universe_invariance",
    ])
    assert code == 0, f"verify --suite embedding exited {code}"


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
    """Exact paper Gram on 20 strings: every leading principal minor is a
    positive integer, so by Sylvester's criterion the Gram is positive
    definite, with no float and no tolerance."""
    report_rows("6 Gram PSD", verify.suite_psd(), ["psd.min_eigenvalue"])


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
