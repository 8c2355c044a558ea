import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkernel import (
    Alphabet,
    CapExceededError,
    KernelParams,
    agreement_count,
    agreement_counts,
    dfa_space_size,
    enumerate_strings,
    exact_kn,
    exact_pn,
    gram_matrix,
    kernel_value,
    kn_by_enumeration,
    mc_pn,
    pn_by_enumeration,
    required_samples,
)
from regkernel.kernel import (
    agreement_count_grid,
    derive_pair_seed,
    end_state_grid,
    format_scalar,
    gram_metadata_json,
    gram_to_csv,
    joint_accept_count_grid,
)


def brute_agreement(x: str, y: str, n: int) -> int:
    """Independent oracle: walk every table with plain dict lookups."""
    count = 0
    for cells in itertools.product(range(n), repeat=n * 2):
        def end(s):
            q = 0
            for ch in s:
                q = cells[q * 2 + "ab".index(ch)]
            return q
        if end(x) == end(y):
            count += 1
    return count


# ---------------------------------------------------------------------
# agreement counts and exact values
# ---------------------------------------------------------------------

def test_agreement_count_examples(ab):
    assert agreement_count("a", "b", 2, ab) == 8 == brute_agreement("a", "b", 2)
    assert agreement_count("aa", "", 2, ab) == 12 == brute_agreement("aa", "", 2)


def test_agreement_count_identical_strings_all_tables(ab):
    for n in (1, 2, 3):
        for x in ("", "a", "abba"):
            assert agreement_count(x, x, n, ab) == n ** (n * 2)


def test_agreement_matches_brute_oracle(ab):
    for n in (1, 2, 3):
        for x, y in [("", "a"), ("ab", "ba"), ("aab", "b"), ("bb", "bb")]:
            assert agreement_count(x, y, n, ab) == brute_agreement(x, y, n)


def test_exact_pn_examples(ab):
    assert exact_pn("a", "b", 2, ab) == Fraction(3, 8)
    assert exact_pn("aa", "", 2, ab) == Fraction(7, 16)
    for n in (1, 2, 3):
        for x in ("", "ab", "bab"):
            assert exact_pn(x, x, n, ab) == Fraction(1, 2)


def test_exact_pn_equals_enumerated_fraction(ab):
    # the two computation paths must agree exactly
    for n in (1, 2):
        for x, y in [("a", "b"), ("aa", ""), ("ab", "ab"), ("ba", "ab")]:
            assert exact_pn(x, y, n, ab) == pn_by_enumeration(x, y, n, ab)


def test_exact_kn_examples(ab):
    assert exact_kn("a", "b", 2, ab) == 24 == kn_by_enumeration("a", "b", 2, ab)
    assert exact_kn("a", "b", 1, ab) == 1 == kn_by_enumeration("a", "b", 1, ab)
    # K_n(x,x) is half the space
    assert exact_kn("a", "a", 2, ab) == 32 == dfa_space_size(2, 2) // 2


def test_exact_kn_dominated_by_diagonal(ab):
    strings = ["", "a", "b", "aa", "ab", "ba", "bb"]
    for n in (1, 2):
        for x in strings:
            kxx = exact_kn(x, x, n, ab)
            for y in strings:
                assert exact_kn(x, y, n, ab) <= kxx


@given(
    x=st.text(alphabet="ab", max_size=4),
    y=st.text(alphabet="ab", max_size=4),
    n=st.integers(1, 2),
)
@settings(max_examples=40, deadline=None)
def test_exact_kn_symmetric(x, y, n):
    ab = Alphabet(("a", "b"))
    assert exact_kn(x, y, n, ab) == exact_kn(y, x, n, ab)


def test_cap_error_propagates(ab):
    with pytest.raises(CapExceededError):
        agreement_count("a", "b", 3, ab, cap=10)


def test_agreement_count_matches_grid_all_short_pairs(ab):
    # the lazy walk against full table enumeration, every pair up to length 4
    strings = enumerate_strings(ab, 4)
    for n in (1, 2, 3):
        grid = agreement_count_grid(strings, n, ab)
        for i, x in enumerate(strings):
            for j, y in enumerate(strings):
                assert agreement_count(x, y, n, ab) == grid[i, j], (x, y, n)


def test_agreement_count_matches_oracle_larger_n(ab):
    for x, y in [("ababa", "abbaa"), ("aab", "bba"), ("abab", "")]:
        assert agreement_count(x, y, 4, ab) == brute_agreement(x, y, 4)
    # counted once by enumerating all 5**10 tables
    assert agreement_count("ababa", "abbaa", 5, ab) == 4305125


@given(
    x=st.text(alphabet="ab", max_size=5),
    y=st.text(alphabet="ab", max_size=5),
    n=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_agreement_count_symmetric_and_bounded(x, y, n):
    ab = Alphabet(("a", "b"))
    a = agreement_count(x, y, n, ab)
    assert a == agreement_count(y, x, n, ab)
    assert 0 <= a <= n ** (2 * n)


def test_agreement_counts_match_grid_all_short_pairs(ab):
    # one walk at n = 3 against full table enumeration at every n <= 3
    strings = enumerate_strings(ab, 4)
    grids = [agreement_count_grid(strings, n, ab) for n in (1, 2, 3)]
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            assert agreement_counts(x, y, 3, ab) == [g[i, j] for g in grids], (x, y)


def test_agreement_counts_match_oracle_larger_n(ab):
    for x, y in [("ababa", "abbaa"), ("aab", "bba"), ("abab", "")]:
        assert agreement_counts(x, y, 4, ab) == [brute_agreement(x, y, n) for n in (1, 2, 3, 4)]
    assert agreement_counts("ababa", "abbaa", 5, ab)[-1] == 4305125


def test_agreement_counts_match_grid_three_symbols():
    # the last-step shortcut against full table enumeration over k = 3
    abc = Alphabet(("a", "b", "c"))
    strings = enumerate_strings(abc, 3)
    grids = [agreement_count_grid(strings, n, abc) for n in (1, 2)]
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            assert agreement_counts(x, y, 2, abc) == [g[i, j] for g in grids], (x, y)


@pytest.mark.parametrize("x, y", [
    ("", ""), ("", "abba"), ("abba", ""),            # x or y empty
    ("abab", "ab"), ("abb", "a"),                   # y a prefix of x
    ("ab", "abab"), ("a", "abba"),                  # x a prefix of y
    ("aa", "a"), ("aba", "ab"), ("ba", "bb"),       # y's last cell assigned by x
    ("a", "aa"), ("ab", "bab"),                     # ... or by y, on some branches
])
def test_agreement_counts_last_step_edge_cases(ab, x, y):
    grids = [agreement_count_grid([x, y], n, ab) for n in (1, 2, 3)]
    assert agreement_counts(x, y, 3, ab) == [g[0, 1] for g in grids]
    assert agreement_counts(y, x, 3, ab) == [g[1, 0] for g in grids]


def test_agreement_counts_cap_checked_at_n_top(ab):
    # 3**6 = 729 tables at n_top = 3; the smaller counts are not returned either
    with pytest.raises(CapExceededError):
        agreement_counts("a", "b", 3, ab, cap=728)
    assert len(agreement_counts("a", "b", 3, ab, cap=729)) == 3
    with pytest.raises(ValueError):
        agreement_counts("a", "b", 0, ab)


@given(
    x=st.text(alphabet="ab", max_size=5),
    y=st.text(alphabet="ab", max_size=5),
    n=st.integers(1, 4),
    extra=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_agreement_counts_prefix_does_not_depend_on_n_top(x, y, n, extra):
    ab = Alphabet(("a", "b"))
    top = min(4, n + extra)
    assert agreement_counts(x, y, top, ab)[n - 1] == agreement_counts(x, y, n, ab)[-1]


# ---------------------------------------------------------------------
# symbol permutation
# ---------------------------------------------------------------------

def permute(s: str, alphabet: Alphabet, perm: tuple[str, ...]) -> str:
    return s.translate(str.maketrans("".join(alphabet.symbols), "".join(perm)))


@pytest.mark.parametrize("symbols,max_len,n_top", [("ab", 4, 3), ("abc", 3, 2)])
def test_enumerated_agreement_invariant_under_symbol_permutation(symbols, max_len, n_top):
    # the math the exact memo relies on, checked on the enumeration oracle
    alphabet = Alphabet(tuple(symbols))
    strings = enumerate_strings(alphabet, max_len)
    for n in range(1, n_top + 1):
        grid = agreement_count_grid(strings, n, alphabet)
        for perm in itertools.permutations(symbols):
            permuted = [permute(s, alphabet, perm) for s in strings]
            assert np.array_equal(agreement_count_grid(permuted, n, alphabet), grid), (n, perm)


@pytest.mark.parametrize("scaling,weights", [
    ("paper", None), ("normalized", None), ("normalized", (0.3, 1.7, 0.1)),
])
def test_exact_gram_equals_per_pair_kernel_value_three_symbols(scaling, weights):
    abc = Alphabet(("a", "b", "c"))
    strings = enumerate_strings(abc, 2) + ["abc", "cab", "bba", "cca"]
    params = KernelParams(alphabet=abc, n_max=3, mode="exact", scaling=scaling,
                          weights=weights)
    gram = gram_matrix(strings, params, jobs=2)
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            kv = kernel_value(x, y, params)
            assert gram.value(i, j) == kv.value, (x, y)
            assert type(gram.value(i, j)) is type(kv.value)


def test_exact_gram_walks_each_canonical_pair_once(ab, monkeypatch):
    from regkernel import kernel

    calls = []
    original = kernel.agreement_counts

    def counting(x, y, n_top, *args, **kwargs):
        calls.append((x, y, n_top))
        return original(x, y, n_top, *args, **kwargs)

    monkeypatch.setattr(kernel, "agreement_counts", counting)
    strings = enumerate_strings(ab, 3)
    gram_matrix(strings, KernelParams(alphabet=ab, n_max=3, mode="exact", scaling="paper"))
    # The 14 non-empty strings make 105 unordered pairs with n_used >= 1.
    # Swapping a and b fixes none of them and pairs them into orbits, except
    # the 7 pairs {x, swapped x} that it maps to themselves: (105 + 7) / 2.
    assert len(calls) == 56
    assert len(set(calls)) == 56


def test_kernel_cap_checked_before_the_walk(ab, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk started before the cap check")

    monkeypatch.setattr("regkernel.kernel.agreement_counts", refuse)
    params = KernelParams(alphabet=ab, n_max=9, mode="exact", scaling="paper")
    with pytest.raises(CapExceededError, match="monte-carlo"):
        kernel_value("aaaaaaaaa", "aaaaaaaab", params, cap=10**6)
    with pytest.raises(CapExceededError, match="monte-carlo"):
        gram_matrix(["a", "aaaaaaaaa", "aaaaaaaab"], params, cap=10**6)


# ---------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------

def test_end_state_grid_matches_runs(ab):
    from regkernel import Dfa, enumerate_tables

    strings = ["", "a", "ab", "bba"]
    grid = end_state_grid(strings, 2, ab)
    for t, table in enumerate(enumerate_tables(2, ab)):
        dfa = Dfa(n=2, alphabet=ab, table=table, accepting=frozenset())
        for j, s in enumerate(strings):
            assert grid[t, j] == dfa.run(s)


def test_grids_match_per_pair_functions(ab):
    strings = ["", "a", "b", "ab", "ba"]
    for n in (1, 2):
        agree = agreement_count_grid(strings, n, ab)
        joint = joint_accept_count_grid(strings, n, ab)
        for i, x in enumerate(strings):
            for j, y in enumerate(strings):
                assert agree[i, j] == agreement_count(x, y, n, ab)
                assert joint[i, j] == kn_by_enumeration(x, y, n, ab)


# ---------------------------------------------------------------------
# sample budget
# ---------------------------------------------------------------------

def test_required_samples_examples():
    assert required_samples(0.1, 0.05) == 4427
    assert required_samples(0.1, 0.01) == 6358
    assert required_samples(0.5, 0.1) == 144


def test_required_samples_validation():
    for eps, delta in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-1, 0.5)]:
        with pytest.raises(ValueError):
            required_samples(eps, delta)


# ---------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------

def test_derive_pair_seed_symmetric_and_sensitive():
    assert derive_pair_seed(7, 2, "a", "b") == derive_pair_seed(7, 2, "b", "a")
    assert derive_pair_seed(7, 2, "a", "b") != derive_pair_seed(8, 2, "a", "b")
    assert derive_pair_seed(7, 2, "a", "b") != derive_pair_seed(7, 3, "a", "b")
    assert derive_pair_seed(7, 2, "a", "b") != derive_pair_seed(7, 2, "a", "a")
    # length-prefixed encoding keeps ("ab","") distinct from ("a","b")
    assert derive_pair_seed(7, 1, "ab", "") != derive_pair_seed(7, 1, "a", "b")


def test_mc_pn_deterministic_and_symmetric(ab):
    a = mc_pn("a", "b", 2, 500, ab, 42)
    assert a == mc_pn("a", "b", 2, 500, ab, 42)
    assert a == mc_pn("b", "a", 2, 500, ab, 42)


def test_mc_pn_single_sample_is_indicator(ab):
    values = {mc_pn("a", "b", 2, 1, ab, seed) for seed in range(64)}
    assert values <= {0.0, 1.0}
    assert len(values) == 2


def test_mc_pn_in_chernoff_band_fixed_seeds(ab):
    # epsilon = 0.1 band around the exact 3/8; the acceptance suite
    # measures the rate over 1000 seeds
    m = required_samples(0.1, 0.01)
    for seed in (0, 1, 2, 3, 4):
        assert 0.3375 <= mc_pn("a", "b", 2, m, ab, seed) <= 0.4125
    for seed in (0, 1, 2, 3, 4):
        assert 0.45 <= mc_pn("a", "a", 2, m, ab, seed) <= 0.55


def test_mc_pn_unbiased(ab):
    # mean over many independent streams within 4 standard errors
    exact = float(exact_pn("a", "b", 2, ab))
    m, seeds = 100, 1000
    mean = float(np.mean([mc_pn("a", "b", 2, m, ab, s) for s in range(seeds)]))
    se = (exact * (1 - exact) / m / seeds) ** 0.5
    assert abs(mean - exact) <= 4 * se


def test_mc_pn_validation(ab):
    with pytest.raises(ValueError):
        mc_pn("a", "b", 2, 0, ab, 0)
    with pytest.raises(ValueError):
        mc_pn("a", "b", 0, 10, ab, 0)


# ---------------------------------------------------------------------
# kernel_value
# ---------------------------------------------------------------------

def exact_paper(ab, n_max=2):
    return KernelParams(alphabet=ab, n_max=n_max, mode="exact", scaling="paper")


def test_kernel_empty_pair_is_identity_only(ab):
    kv = kernel_value("", "", exact_paper(ab))
    assert kv.value == 1
    assert kv.n_used == 0 and not kv.truncated


def test_kernel_ab_exact(ab):
    kv = kernel_value("a", "b", exact_paper(ab, n_max=1))
    assert kv.value == 1  # disjoint strings: K_1 alone
    assert kernel_value("a", "b", exact_paper(ab, n_max=5)).value == 1


def test_kernel_diagonal_exact(ab):
    # identity term plus K_1(a,a) = 1; the sum stops at min length 1
    assert kernel_value("a", "a", exact_paper(ab, n_max=2)).value == 2
    # two-symbol diagonal picks up K_2(x,x) = 32
    assert kernel_value("ab", "ab", exact_paper(ab, n_max=2)).value == 1 + 1 + 32


def test_kernel_truncation_recorded(ab):
    kv = kernel_value("abab", "baba", exact_paper(ab, n_max=2))
    assert kv.n_used == 2 and kv.truncated
    kv = kernel_value("ab", "ba", exact_paper(ab, n_max=5))
    assert kv.n_used == 2 and not kv.truncated


def test_kernel_symmetric_all_modes(ab):
    for mode, scaling in [
        ("exact", "paper"),
        ("exact", "normalized"),
        ("monte-carlo", "paper"),
        ("monte-carlo", "normalized"),
    ]:
        params = KernelParams(
            alphabet=ab, n_max=2, mode=mode, scaling=scaling,
            epsilon=0.2, failure_prob=0.1, master_seed=11,
        )
        for x, y in [("ab", "ba"), ("a", "bb"), ("", "ab")]:
            assert kernel_value(x, y, params) == kernel_value(y, x, params)


def test_kernel_normalized_exact_value(ab):
    params = KernelParams(alphabet=ab, n_max=2, mode="exact", scaling="normalized")
    v = kernel_value("a", "b", params).value
    assert isinstance(v, float)
    assert v == 0.5  # P_1 is always 1/2: one state, one accepting bit
    v2 = kernel_value("ab", "ba", params).value
    assert v2 == float(Fraction(1, 2) + exact_pn("ab", "ba", 2, ab))


def test_kernel_normalized_weights(ab):
    params = KernelParams(
        alphabet=ab, n_max=2, mode="exact", scaling="normalized", weights=(0.0, 2.0)
    )
    v = kernel_value("ab", "ba", params).value
    assert v == float(2 * exact_pn("ab", "ba", 2, ab))


def test_kernel_mc_certificate(ab):
    params = KernelParams(
        alphabet=ab, n_max=2, mode="monte-carlo", scaling="normalized",
        epsilon=0.1, failure_prob=0.05, master_seed=3,
    )
    kv = kernel_value("ab", "ba", params)
    assert kv.certificate is not None
    assert kv.certificate.samples_per_term == 4427
    assert kv.certificate.master_seed == 3
    assert not kv.is_exact


def test_kernel_mc_paper_scaling_estimates_counts(ab):
    params = KernelParams(
        alphabet=ab, n_max=1, mode="monte-carlo", scaling="paper",
        epsilon=0.05, failure_prob=0.05, master_seed=5,
    )
    kv = kernel_value("a", "a", params)
    # estimates 1 + P_1(a,a) * |space(1)| = 1 + 0.5 * 2 within 5% per term
    assert 1.9 <= kv.value <= 2.1


def test_kernel_cap_error_suggests_monte_carlo(ab):
    params = KernelParams(alphabet=ab, n_max=9, mode="exact", scaling="paper")
    with pytest.raises(CapExceededError, match="monte-carlo"):
        kernel_value("aaaaaaaaa", "aaaaaaaab", params, cap=10**6)


def test_kernel_cap_checked_before_any_term(ab, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was evaluated before the cap check")

    # every term is a walk and then a value assembled from its counts
    monkeypatch.setattr("regkernel.kernel.agreement_counts", refuse)
    monkeypatch.setattr("regkernel.kernel._pair_value", refuse)
    params = KernelParams(alphabet=ab, n_max=9, mode="exact", scaling="paper")
    with pytest.raises(CapExceededError, match="monte-carlo"):
        kernel_value("aaaaaaaaa", "aaaaaaaab", params, cap=10**6)
    with pytest.raises(CapExceededError, match="monte-carlo"):
        gram_matrix(["a", "aaaaaaaaa", "aaaaaaaab"], params, cap=10**6)


def test_kernel_params_validation(ab):
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=0)
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=1, mode="approx")
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=1, epsilon=1.5)
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=1, failure_prob=0.0)
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=2, weights=(1.0,))
    with pytest.raises(ValueError):
        KernelParams(alphabet=ab, n_max=2, weights=(1.0, -0.5))


def test_kernel_params_round_trip(ab):
    params = KernelParams(
        alphabet=ab, n_max=3, mode="monte-carlo", scaling="normalized",
        epsilon=0.07, failure_prob=0.02, master_seed=99, weights=(1.0, 0.5, 0.25),
    )
    assert KernelParams.from_dict(json.loads(json.dumps(params.to_dict()))) == params


# ---------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------

def test_gram_example(ab):
    gram = gram_matrix(["", "a"], exact_paper(ab))
    assert gram.numeric() == [[1, 0], [0, 2]]


def test_gram_single_string_positive_diagonal(ab):
    gram = gram_matrix(["ab"], exact_paper(ab))
    assert gram.numeric()[0][0] >= 1


def test_gram_rejects_duplicates_and_bad_symbols(ab):
    with pytest.raises(ValueError, match="duplicate"):
        gram_matrix(["a", "a"], exact_paper(ab))
    with pytest.raises(ValueError, match="not in alphabet"):
        gram_matrix(["a", "c"], exact_paper(ab))


def test_gram_psd_small(ab):
    strings = ["", "a", "b", "ab", "ba"]
    gram = gram_matrix(strings, exact_paper(ab))
    eigs = np.linalg.eigvalsh(gram.to_array())
    assert eigs.min() >= -1e-9 * gram.to_array().diagonal().max()


def test_gram_psd_floating_modes(ab):
    strings = ["", "a", "b", "ab", "ba", "bb"]
    for mode, scaling in [("exact", "normalized"), ("monte-carlo", "normalized")]:
        params = KernelParams(
            alphabet=ab, n_max=2, mode=mode, scaling=scaling,
            epsilon=0.1, failure_prob=0.05, master_seed=23,
        )
        matrix = gram_matrix(strings, params).to_array()
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs.min() >= -1e-9 * matrix.diagonal().max()


def test_gram_jobs_do_not_change_results(ab):
    params = KernelParams(
        alphabet=ab, n_max=2, mode="monte-carlo", scaling="normalized",
        epsilon=0.3, failure_prob=0.2, master_seed=17,
    )
    strings = ["", "a", "b", "ab"]
    sequential = gram_matrix(strings, params, jobs=1)
    parallel = gram_matrix(strings, params, jobs=4)
    assert sequential.numeric() == parallel.numeric()


def test_gram_csv_and_metadata(ab):
    gram = gram_matrix(["", "a"], exact_paper(ab))
    csv = gram_to_csv(gram)
    assert csv.splitlines()[0] == "s0,s1"
    assert csv.splitlines()[1] == "1,0"
    meta = json.loads(gram_metadata_json(gram))
    assert meta["strings"] == ["", "a"]
    assert meta["params"]["master_seed"] == 0


def test_format_scalar():
    assert format_scalar(12345678901234567890) == "12345678901234567890"
    assert format_scalar(0.1) == "0.10000000000000001"


# ---------------------------------------------------------------------
# Monte Carlo: one shared sample per n
# ---------------------------------------------------------------------

def mc_params(ab, scaling="normalized", seed=5, epsilon=0.1, failure_prob=0.05):
    return KernelParams(
        alphabet=ab, n_max=3, mode="monte-carlo", scaling=scaling,
        epsilon=epsilon, failure_prob=failure_prob, master_seed=seed,
    )


def test_mc_acceptance_matches_plain_walk(ab):
    from regkernel.kernel import _acceptance, draw_dfa_sample

    strings = enumerate_strings(ab, 4)
    for n in (1, 2, 3):
        tables, masks = draw_dfa_sample(n, 200, ab, 13)
        assert tables.shape == (200, n, 2) and masks.shape == (200, n)
        accepts = _acceptance(tables, masks, [ab.encode(s) for s in strings])
        for t in range(200):
            for j, s in enumerate(strings):
                q = 0
                for c in ab.encode(s):
                    q = tables[t, q, c]
                assert accepts[t, j] == masks[t, q]


@pytest.mark.parametrize("block_cells", [7, 64, None])
def test_mc_joint_counts_match_plain_loop(ab, monkeypatch, block_cells):
    # the trie walk and blocked product against a loop over the drawn DFAs,
    # with the empty string, a duplicate, prefixes and rows shared with cols
    from regkernel import kernel

    if block_cells is not None:
        monkeypatch.setattr(kernel, "_BLOCK_CELLS", block_cells)
    rows = ["abba", "", "ab", "b", "ab", "abbab", "a"]
    cols = ["ba", "abba", "", "abb", "bbbb", "a", "a"]
    m = 97
    for n in (1, 2, 3):
        tables, masks = kernel.draw_dfa_sample(n, m, ab, 21)

        def accepted(s):
            out = []
            for t in range(m):
                q = 0
                for c in ab.encode(s):
                    q = tables[t, q, c]
                out.append(int(masks[t, q]))
            return out

        acc = {s: accepted(s) for s in {*rows, *cols}}

        def joint(x, y):
            return sum(a * b for a, b in zip(acc[x], acc[y]))

        cross = kernel.mc_joint_counts(rows, n, m, ab, 21, cols)
        assert cross.dtype == np.int64
        assert cross.tolist() == [[joint(x, y) for y in cols] for x in rows]
        gram = kernel.mc_joint_counts(rows, n, m, ab, 21)
        assert gram.tolist() == [[joint(x, y) for y in rows] for x in rows]


def test_mc_kernel_value_equals_gram_entry(ab):
    strings = enumerate_strings(ab, 4)
    assert len(strings) == 31
    for scaling in ("paper", "normalized"):
        # the budget of the benchmark's Monte Carlo workload
        params = mc_params(ab, scaling, epsilon=0.05, failure_prob=0.01)
        gram = gram_matrix(strings, params)
        for i, x in enumerate(strings):
            for j in range(i, len(strings)):
                kv = kernel_value(x, strings[j], params)
                assert gram.value(i, j) == kv.value
                assert type(gram.value(i, j)) is type(kv.value)


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_gram_and_predict_build_no_per_entry_objects(ab, mode, monkeypatch):
    from regkernel import kernel
    from regkernel.learner import PerceptronModel, decision_values

    def refuse(*args, **kwargs):
        raise AssertionError("a KernelValue was built outside kernel_value")

    strings = enumerate_strings(ab, 3)
    params = KernelParams(alphabet=ab, n_max=3, mode=mode, scaling="normalized",
                          master_seed=5)
    real = kernel.KernelValue
    monkeypatch.setattr(kernel, "KernelValue", refuse)
    gram = gram_matrix(strings, params)
    model = PerceptronModel(support=(("ab", 1), ("aab", -2)), params=params, epochs_run=1,
                            errors_per_epoch=(0,))
    scores = decision_values(model, strings)
    monkeypatch.setattr(kernel, "KernelValue", real)
    kv = kernel_value("ab", "aab", params)
    assert isinstance(kv, real)
    assert gram.value(strings.index("ab"), strings.index("aab")) == kv.value
    assert scores[strings.index("ab")] == (
        kernel_value("ab", "ab", params).value - 2 * kv.value)


def test_mc_gram_permutation_equivariant(ab):
    strings = enumerate_strings(ab, 4)
    order = np.random.default_rng(0).permutation(len(strings))
    params = mc_params(ab)
    gram = gram_matrix(strings, params).to_array()
    permuted = gram_matrix([strings[i] for i in order], params).to_array()
    assert np.array_equal(permuted, gram[np.ix_(order, order)])


def test_mc_gram_draws_one_sample_per_n(ab, monkeypatch):
    from regkernel import kernel

    drawn = []
    real = kernel.draw_dfa_sample

    def counting(n, m, alphabet, master_seed):
        drawn.append(n)
        return real(n, m, alphabet, master_seed)

    monkeypatch.setattr(kernel, "draw_dfa_sample", counting)
    gram_matrix(enumerate_strings(ab, 4), mc_params(ab))
    assert drawn == [1, 2, 3]


def test_mc_pn_reads_the_shared_sample(ab):
    # mc_pn and every Gram that contains the pair read the same counts
    m = required_samples(0.1, 0.05)
    expected = mc_pn("ab", "ba", 1, m, ab, 5) + mc_pn("ab", "ba", 2, m, ab, 5)
    for strings in (["ab", "ba"], ["", "ba", "a", "ab", "bb"]):
        gram = gram_matrix(strings, mc_params(ab, seed=5))
        assert gram.value(strings.index("ab"), strings.index("ba")) == expected


def test_gram_rejects_jobs_below_one(ab):
    for mode in ("exact", "monte-carlo"):
        params = KernelParams(alphabet=ab, n_max=2, mode=mode)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                gram_matrix(["a", "b"], params, jobs=jobs)
