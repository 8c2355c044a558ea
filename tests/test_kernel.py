import hashlib
import itertools
import json
import struct
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkernel import (
    Alphabet,
    CapExceededError,
    KernelParams,
    count,
    dfa_space_size,
    enumerate_strings,
    exact_kn,
    exact_pn,
    gram_matrix,
    hoeffding_samples,
    kernel_value,
    kn_by_enumeration,
    mc_pn,
    pn_by_enumeration,
    required_samples,
)
from regkernel.automata import agreement_count_grid, end_state_grid, joint_accept_count_grid
from regkernel.count import agreement_matrix
from regkernel.kernel import format_scalar, gram_metadata_json, gram_to_csv


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


def agreement(x, y, n, alphabet):
    """A_n of one pair, as exact_pn and exact_kn read it."""
    return agreement_matrix([x], n, alphabet, [y])[0][0]


def walked_counts(x, y, n_top, alphabet):
    """[A_1, ..., A_n_top] of one pair from the lazy walk, which a zero
    exhaustive limit forces: block_counts with both strings at depth n_top."""
    plan = count.BlockPlan([x], [y], alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(count, "_EXHAUSTIVE_LIMIT", 0)
        per_size, mix = count.block_counts(plan, [n_top], [n_top], len(alphabet))
    assert mix is None
    return [a[0][0] for a in per_size]


def reference_value(same, counts, params, m=None):
    """Independent kernel value of a pair from its identity term and its
    agreement counts A_1..A_n_used, out of all n**(n*k) tables (m None) or
    out of m sampled ones: a Fraction sum of the terms, except Monte Carlo
    normalized values, a left-to-right float sum of w_n * (m + A_n) / (4m)."""
    if m is not None and params.scaling == "normalized":
        total = float(same)
        for n, a in enumerate(counts, 1):
            total += params.weight_for(n) * ((m + a) / (4 * m))
        return total
    k = len(params.alphabet)
    total = Fraction(same)
    for n, a in enumerate(counts, 1):
        tables = n ** (n * k) if m is None else m
        scale = (dfa_space_size(n, k) if params.scaling == "paper"
                 else Fraction(params.weight_for(n)))
        total += scale * Fraction(tables + a, 4 * tables)
    if m is None and params.scaling == "paper":
        assert total.denominator == 1
        return int(total)
    return float(total)


# ---------------------------------------------------------------------
# agreement counts and exact values
# ---------------------------------------------------------------------

def test_agreement_count_examples(ab):
    assert agreement("a", "b", 2, ab) == 8 == brute_agreement("a", "b", 2)
    assert agreement("aa", "", 2, ab) == 12 == brute_agreement("aa", "", 2)


def test_agreement_count_identical_strings_all_tables(ab):
    for n in (1, 2, 3):
        for x in ("", "a", "abba"):
            assert agreement(x, x, n, ab) == n ** (n * 2)


def test_agreement_matches_brute_oracle(ab):
    for n in (1, 2, 3):
        for x, y in [("", "a"), ("ab", "ba"), ("aab", "b"), ("bb", "bb")]:
            assert agreement(x, y, n, ab) == brute_agreement(x, y, n)


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
        exact_kn("a", "b", 6, ab)


def test_agreement_count_matches_grid_all_short_pairs(ab):
    # the lazy walk against full table enumeration, every pair up to length 4
    strings = enumerate_strings(ab, 4)
    for n in (1, 2, 3):
        grid = agreement_count_grid(strings, n, ab)
        for i, x in enumerate(strings):
            for j, y in enumerate(strings):
                assert agreement(x, y, n, ab) == grid[i, j], (x, y, n)


def test_agreement_count_matches_oracle_larger_n(ab):
    for x, y in [("ababa", "abbaa"), ("aab", "bba"), ("abab", "")]:
        assert agreement(x, y, 4, ab) == brute_agreement(x, y, 4)
    # counted once by enumerating all 5**10 tables
    assert agreement("ababa", "abbaa", 5, ab) == 4305125
    # pairs shorter than n, walked to n all the same: "a" and "b" agree
    # exactly when state 0 goes to one state on both symbols, on 5 * 5**8
    # tables
    tables = 5**10
    for x, y, a in [("a", "b", 5**9), ("ab", "ba", 2265625)]:
        assert agreement(x, y, 5, ab) == a
        assert exact_kn(x, y, 5, ab) == (tables + a) * 2**5 // 4
        assert exact_pn(x, y, 5, ab) == Fraction(tables + a, 4 * tables)


@given(
    x=st.text(alphabet="ab", max_size=5),
    y=st.text(alphabet="ab", max_size=5),
    n=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_agreement_count_symmetric_and_bounded(x, y, n):
    ab = Alphabet(("a", "b"))
    a = agreement(x, y, n, ab)
    assert a == agreement(y, x, n, ab)
    assert 0 <= a <= n ** (2 * n)


def test_agreement_counts_match_grid_all_short_pairs(ab):
    # one walk at n = 3 against full table enumeration at every n <= 3
    strings = enumerate_strings(ab, 4)
    grids = [agreement_count_grid(strings, n, ab) for n in (1, 2, 3)]
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            assert walked_counts(x, y, 3, ab) == [g[i, j] for g in grids], (x, y)


def test_agreement_counts_match_oracle_larger_n(ab):
    for x, y in [("ababa", "abbaa"), ("aab", "bba"), ("abab", "")]:
        assert walked_counts(x, y, 4, ab) == [brute_agreement(x, y, n) for n in (1, 2, 3, 4)]
    assert walked_counts("ababa", "abbaa", 5, ab)[-1] == 4305125


def test_agreement_counts_match_grid_three_symbols():
    # the last-step shortcut against full table enumeration over k = 3
    abc = Alphabet(("a", "b", "c"))
    strings = enumerate_strings(abc, 3)
    grids = [agreement_count_grid(strings, n, abc) for n in (1, 2)]
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            assert walked_counts(x, y, 2, abc) == [g[i, j] for g in grids], (x, y)


@pytest.mark.parametrize("x, y", [
    ("", ""), ("", "abba"), ("abba", ""),            # x or y empty
    ("abab", "ab"), ("abb", "a"),                   # y a prefix of x
    ("ab", "abab"), ("a", "abba"),                  # x a prefix of y
    ("aa", "a"), ("aba", "ab"), ("ba", "bb"),       # y's last cell assigned by x
    ("a", "aa"), ("ab", "bab"),                     # ... or by y, on some branches
])
def test_agreement_counts_last_step_edge_cases(ab, x, y):
    grids = [agreement_count_grid([x, y], n, ab) for n in (1, 2, 3)]
    assert walked_counts(x, y, 3, ab) == [g[0, 1] for g in grids]
    assert walked_counts(y, x, 3, ab) == [g[1, 0] for g in grids]


def test_agreement_counts_cap_checked_at_n_top(ab, monkeypatch):
    # 3**6 = 729 tables at n = 3, the largest term; the single-n matrix and
    # the exact terms over it count nothing below the cap
    single_n = (partial(agreement_matrix, ["a", "b"]), partial(exact_kn, "a", "b"),
                partial(exact_pn, "a", "b"))
    monkeypatch.setattr("regkernel.automata.TABLE_CAP", 728)
    for f in single_n:
        with pytest.raises(CapExceededError):
            f(3, ab)
    monkeypatch.setattr("regkernel.automata.TABLE_CAP", 729)
    assert agreement_matrix(["a", "b"], 3, ab) == agreement_count_grid(["a", "b"], 3, ab).tolist()
    for f in single_n:
        with pytest.raises(ValueError, match="state count"):
            f(0, ab)
    # the default cap refuses 6**12 tables before any counter runs, on the
    # path verify's runtime check takes
    monkeypatch.undo()

    def refuse(*args, **kwargs):
        raise AssertionError("a counter ran before the cap check")

    for name in ("_sliced_agreement_counts", "_walk_counts"):
        monkeypatch.setattr(count, name, refuse)
    with pytest.raises(CapExceededError):
        agreement_matrix(["a", "b"], 6, ab)


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
    assert walked_counts(x, y, top, ab)[n - 1] == walked_counts(x, y, n, ab)[-1]


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
    from regkernel import count

    calls = []
    original = count._walk_counts

    def counting(x, y, n_top, k):
        calls.append((tuple(x), tuple(y), n_top))
        return original(x, y, n_top, k)

    monkeypatch.setattr(count, "_walk_counts", counting)
    # at n_max 5 the block's n_top is 5, and 5**10 tables are above the
    # exhaustive limit, so every class is walked
    strings = enumerate_strings(ab, 3) + ["ababa", "babab"]
    assert count.table_count(5, 2) > count._EXHAUSTIVE_LIMIT
    gram_matrix(strings, KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="paper"))
    # The 16 non-empty strings make 136 unordered pairs with n_used >= 1.
    # Swapping a and b fixes none of them and pairs them into orbits, except
    # the 8 pairs {x, swapped x} that it maps to themselves: (136 + 8) / 2.
    assert len(calls) == 72
    assert len(set(calls)) == 72


def test_walk_gram_runs_on_the_callers_thread(ab, monkeypatch):
    import threading

    from regkernel import count

    threads = []
    original = count._walk_counts

    def recording(x, y, n_top, k):
        threads.append(threading.get_ident())
        return original(x, y, n_top, k)

    monkeypatch.setattr(count, "_walk_counts", recording)
    # the two length-5 strings lift the block's n_top to 5, above the limit
    strings = enumerate_strings(ab, 2) + ["ababa", "babab"]
    params = KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="paper")
    assert count.table_count(5, 2) > count._EXHAUSTIVE_LIMIT
    threaded = gram_matrix(strings, params, jobs=2)
    assert threads and set(threads) == {threading.get_ident()}
    assert threaded.values == gram_matrix(strings, params, jobs=1).values


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
                assert agree[i, j] == agreement(x, y, n, ab)
                assert joint[i, j] == kn_by_enumeration(x, y, n, ab)


# ---------------------------------------------------------------------
# exhaustive counter: accessible tables, bit-sliced
# ---------------------------------------------------------------------

@pytest.mark.parametrize("symbols,max_len,n_top", [("ab", 4, 4), ("abc", 3, 3)])
def test_exhaustive_counts_match_grid(symbols, max_len, n_top):
    alphabet = Alphabet(tuple(symbols))
    strings = enumerate_strings(alphabet, max_len)
    index = {s: i for i, s in enumerate(strings)}
    # a cross block with duplicate rows ("" and strings[2]) and columns
    rows = strings[::2] + strings[:3]
    cols = strings[::-3] + strings[-2:]
    for n in range(1, n_top + 1):
        grid = agreement_count_grid(strings, n, alphabet).tolist()
        assert agreement_matrix(strings, n, alphabet) == grid, n
        cross = agreement_matrix(rows, n, alphabet, cols)
        assert cross == [[grid[index[x]][index[y]] for y in cols] for x in rows], n


@given(data=st.data(), symbols=st.sampled_from(["ab", "abc"]))
@settings(max_examples=40, deadline=None)
def test_exhaustive_counts_match_walk(data, symbols):
    alphabet = Alphabet(tuple(symbols))
    x = data.draw(st.text(alphabet=symbols, max_size=6))
    y = data.draw(st.text(alphabet=symbols, max_size=6))
    n = data.draw(st.integers(1, 4 if symbols == "ab" else 3))
    a = walked_counts(x, y, n, alphabet)[-1]
    counts = agreement_matrix([x, y], n, alphabet)
    assert counts[0][1] == counts[1][0] == a
    # a string agrees with itself on every table
    assert counts[0][0] == counts[1][1] == n ** (n * len(symbols))
    assert agreement_matrix([x], n, alphabet, [y]) == [[a]]


@pytest.mark.parametrize("scaling,weights", [
    ("paper", None), ("normalized", None), ("normalized", (0.3, 1.7, 0.1, 2.5)),
])
def test_exhaustive_block_matches_walk_per_pair(ab, scaling, weights):
    # cross and symmetric blocks with duplicate strings, and pairs whose
    # n_used (1, 2, 3) is below the block's n_top of 4
    from regkernel.count import _EXHAUSTIVE_LIMIT
    from regkernel.kernel import kernel_block, table_count

    assert table_count(4, 2) <= _EXHAUSTIVE_LIMIT
    params = KernelParams(alphabet=ab, n_max=4, mode="exact", scaling=scaling, weights=weights)
    rows = ["abab", "", "a", "abab", "bba", "ba", "babba"]
    cols = ["ab", "abab", "b", "", "ab", "aabbb", "bbbb"]

    def walked(x, y):
        n_used = min(len(x), len(y), 4)
        counts = walked_counts(x, y, n_used, ab) if n_used else []
        return reference_value(int(x == y), counts, params)

    for block, left, right in [(kernel_block(rows, cols, params), rows, cols),
                               (kernel_block(rows, None, params), rows, rows)]:
        expected = [[walked(x, y) for y in right] for x in left]
        assert block == expected
        assert [type(v) for line in block for v in line] == [
            type(v) for line in expected for v in line]


def test_exact_block_below_limit_makes_no_walk(ab, monkeypatch):
    from regkernel import count
    from regkernel.learner import PerceptronModel, decision_values

    def refuse(*args, **kwargs):
        raise AssertionError("a walk below the exhaustive limit")

    built = []
    real = count.accessible_tables

    def counting(m, k):
        built.append((m, k))
        return real(m, k)

    monkeypatch.setattr(count, "_walk_counts", refuse)
    monkeypatch.setattr(count, "accessible_tables", counting)
    count._accessible_parts.cache_clear()
    params = KernelParams(alphabet=ab, n_max=4, mode="exact", scaling="paper")
    strings = enumerate_strings(ab, 5)
    # the accessible tables of m = 1..4 states are built once, on first use,
    # and serve every later block of the process
    expected = [(1, 2), (2, 2), (3, 2), (4, 2)]
    gram_matrix(strings, params, jobs=2)
    assert built == expected
    model = PerceptronModel(support=(("abab", 1), ("ba", -1), ("bbbba", 2)), params=params,
                            epochs_run=1, errors_per_epoch=(0,))
    decision_values(model, strings)
    assert built == expected


def test_value_function_built_once_per_block(ab, monkeypatch):
    # the walk, the accessible counter and the stream each feed one value
    # function per block, however many pairs or classes the block holds
    from regkernel import count, kernel

    built = []
    real = kernel._value_function

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "_value_function", counting)
    walked = KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="normalized",
                          weights=(0.5, 1.0, 2.0, 0.25, 3.0))
    assert kernel.table_count(5, 2) > count._EXHAUSTIVE_LIMIT
    for strings, params in [
        (["aaaaa", "ababa", "abbab", "bbbab", "babba"], walked),
        (enumerate_strings(ab, 3), KernelParams(alphabet=ab, n_max=4, mode="exact")),
        (enumerate_strings(ab, 3), mc_params(ab)),
    ]:
        built.clear()
        gram_matrix(strings, params)
        assert len(built) == 1, params


def test_walk_gram_encodes_each_string_once(ab, monkeypatch):
    # the plan encodes every string; the walk reads its codes
    from regkernel import count

    encoded = []
    real = Alphabet.encode

    def counting(self, s):
        encoded.append(s)
        return real(self, s)

    monkeypatch.setattr(Alphabet, "encode", counting)
    strings = enumerate_strings(ab, 5)
    assert count.table_count(5, 2) > count._EXHAUSTIVE_LIMIT
    gram_matrix(strings, KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="paper"))
    assert sorted(encoded) == sorted(strings)


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_block_values_each_distinct_pair_once(ab, monkeypatch, mode):
    from regkernel import kernel

    calls = []
    real = kernel._value_function

    def counting(*args, **kwargs):
        value = real(*args, **kwargs)

        def counted(same, counts):
            calls.append(same)
            return value(same, counts)

        return counted

    monkeypatch.setattr(kernel, "_value_function", counting)
    params = KernelParams(alphabet=ab, n_max=3, mode=mode, scaling="paper",
                          epsilon=0.2, master_seed=3)
    rows = ["", "ab", "bba", "ab"]
    distinct = enumerate_strings(ab, 5)[:50]
    block = kernel.kernel_block(rows, distinct * 3, params)
    assert len(calls) == 3 * 50
    for line in block:
        assert line[:50] == line[50:100] == line[100:]
    assert block[1] == block[3]


# ---------------------------------------------------------------------
# accessible tables: the exact counter's table set
# ---------------------------------------------------------------------

def decode_accessible(m, k):
    """The tables of accessible_tables(m, k) as flat cell tuples, in bit order."""
    from regkernel.count import accessible_tables

    count, parts = accessible_tables(m, k)
    cells = [cell for row in parts for cell in row]
    for cell in cells:
        # each table holds exactly one label in every cell
        assert sum(cell) == (1 << count) - 1
        assert all(a & b == 0 for a, b in itertools.combinations(cell, 2))
    return [tuple(next(r for r, mask in enumerate(cell) if mask >> t & 1) for cell in cells)
            for t in range(count)]


def test_accessible_table_counts_known_answer():
    # initially connected automata over 2 and 3 symbols (Liskovets 1969)
    from regkernel.count import accessible_tables

    assert [accessible_tables(m, 2)[0] for m in range(1, 5)] == [1, 12, 216, 5248]
    assert [accessible_tables(m, 3)[0] for m in range(1, 4)] == [1, 56, 7965]


@pytest.mark.parametrize("k,n_top", [(2, 4), (3, 3)])
def test_accessible_weights_partition_the_tables(k, n_top):
    # every n-state table has exactly one accessible part, relabelled
    from regkernel.count import accessible_tables, accessible_weights

    for n in range(1, n_top + 1):
        sizes = [accessible_tables(m, k)[0] for m in range(1, n + 1)]
        assert sum(w * size for w, size in zip(accessible_weights(n, k), sizes)) == n ** (n * k)


def canonical_accessible_form(table, k):
    """Breadth-first relabelling of the part of a flat table that state 0
    reaches: state 0 keeps label 0 and each new state takes the next label
    as the rows are scanned in label order."""
    labels, order = {0: 0}, [0]
    for q in order:
        for c in range(k):
            r = table[q * k + c]
            if r not in labels:
                labels[r] = len(labels)
                order.append(r)
    return tuple(labels[table[q * k + c]] for q in order for c in range(k))


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_accessible_tables_reachable_canonical_distinct(m, k):
    tables = decode_accessible(m, k)
    assert len(set(tables)) == len(tables)
    for table in tables:
        # every state is reached from 0, and the labelling is the canonical one
        assert canonical_accessible_form(table, k) == table, table
    # and they are the canonical forms of every m-state table that reaches
    # all m states
    every = {canonical_accessible_form(t, k) for t in itertools.product(range(m), repeat=m * k)}
    assert {t for t in every if len(t) == m * k} == set(tables)


@pytest.mark.parametrize("block", [7, 100])
def test_accessible_counts_across_blocks(ab, monkeypatch, block):
    # blocks of 7 and 100 tables cut the accessible tables of every m > 2
    from regkernel import count, stream

    monkeypatch.setattr(stream, "_BLOCK_SAMPLES", block)
    strings = enumerate_strings(ab, 3) + ["abba", "babab"]
    rows, cols = strings[::2], strings[1::2] + ["a"]
    for n in range(1, 5):
        grid = agreement_count_grid(strings, n, ab).tolist()
        assert count.agreement_matrix(strings, n, ab) == grid, n
        index = {s: i for i, s in enumerate(strings)}
        assert count.agreement_matrix(rows, n, ab, cols) == [
            [grid[index[x]][index[y]] for y in cols] for x in rows], n


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


def test_hoeffding_samples_examples():
    # ceil(ln(2/delta) / (2 eps^2)), the budget the kernel samples
    assert hoeffding_samples(0.1, 0.05) == 185
    assert hoeffding_samples(0.1, 0.01) == 265
    assert hoeffding_samples(0.05, 0.01) == 1060
    for eps, delta in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-1, 0.5)]:
        with pytest.raises(ValueError):
            hoeffding_samples(eps, delta)


# ---------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------

def test_mc_pn_deterministic_and_symmetric(ab):
    a = mc_pn("a", "b", 2, 500, ab, 42)
    assert a == mc_pn("a", "b", 2, 500, ab, 42)
    assert a == mc_pn("b", "a", 2, 500, ab, 42)


def test_mc_pn_draws_only_its_own_size(ab, monkeypatch):
    # a single term reads A_n alone, so no smaller size is drawn
    from regkernel import stream

    drawn = []
    real = stream.draw_table_block

    def recording(n, k, master_seed, block, size):
        drawn.append(n)
        return real(n, k, master_seed, block, size)

    monkeypatch.setattr(stream, "draw_table_block", recording)
    mc_pn("ab", "ba", 3, 185, ab, 7)
    assert drawn == [3]


def test_mc_pn_single_sample_is_indicator(ab):
    # one table: 1/2 when the strings end in the same state, 1/4 otherwise
    values = {mc_pn("a", "b", 2, 1, ab, seed) for seed in range(64)}
    assert values == {0.25, 0.5}


def test_mc_pn_in_chernoff_band_fixed_seeds(ab):
    # epsilon = 0.1 band around the exact 3/8; the acceptance suite
    # measures the rate over 1000 seeds
    m = required_samples(0.1, 0.01)
    for seed in (0, 1, 2, 3, 4):
        assert 0.3375 <= mc_pn("a", "b", 2, m, ab, seed) <= 0.4125
    for seed in (0, 1, 2, 3, 4):
        assert 0.45 <= mc_pn("a", "a", 2, m, ab, seed) <= 0.55


def test_mc_pn_unbiased(ab):
    # mean over many independent streams within 4 standard errors; the
    # estimate (1 + q_hat) / 4 has variance q(1 - q) / (16m), with
    # q = 4 P_n - 1 the probability that the strings end in the same state
    exact = float(exact_pn("a", "b", 2, ab))
    q = 4 * exact - 1
    m, seeds = 100, 1000
    mean = float(np.mean([mc_pn("a", "b", 2, m, ab, s) for s in range(seeds)]))
    se = (q * (1 - q) / (16 * m) / seeds) ** 0.5
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


@pytest.mark.parametrize("symbols,n_max", [("ab", 4), ("ab", 5), ("abc", 3)])
def test_exact_values_equal_rational_reference(symbols, n_max):
    # below and above the exhaustive limit, paper values are the integer sum
    # of exact_kn and normalized values the rational sum of w_n * exact_pn,
    # rounded once; weights with long binary expansions, zero and one
    alphabet = Alphabet(tuple(symbols))
    weights = (0.1, 0.0, 1 / 3, 2.5, 1e-300)[:n_max]
    strings = ["", "a", "ab", "abb", "ba", "abab", "bbaba"]
    for scaling, ws in (("paper", None), ("normalized", None), ("normalized", weights)):
        params = KernelParams(alphabet=alphabet, n_max=n_max, mode="exact", scaling=scaling,
                              weights=ws)
        gram = gram_matrix(strings, params)
        for i, x in enumerate(strings):
            for j, y in enumerate(strings):
                ns = range(1, min(len(x), len(y), n_max) + 1)
                if scaling == "paper":
                    expected = int(x == y) + sum(exact_kn(x, y, n, alphabet) for n in ns)
                else:
                    expected = float(int(x == y) + sum(
                        Fraction(params.weight_for(n)) * exact_pn(x, y, n, alphabet)
                        for n in ns))
                assert gram.value(i, j) == expected, (scaling, ws, x, y)
                assert type(gram.value(i, j)) is type(expected)


def test_kernel_mc_certificate(ab):
    params = KernelParams(
        alphabet=ab, n_max=2, mode="monte-carlo", scaling="normalized",
        epsilon=0.1, failure_prob=0.05, master_seed=3,
    )
    kv = kernel_value("ab", "ba", params)
    assert kv.certificate is not None
    assert kv.certificate.samples_per_term == 185
    assert kv.certificate.bound == "hoeffding-per-entry"
    assert kv.certificate.master_seed == 3


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
        kernel_value("aaaaaaaaa", "aaaaaaaab", params)


def test_kernel_cap_checked_before_any_term(ab, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was evaluated before the cap check")

    # every term is counted by the walk or the bit-sliced counter, then
    # valued by the block's value function
    for name in ("count._walk_counts", "count._sliced_agreement_counts", "kernel._value_function"):
        monkeypatch.setattr(f"regkernel.{name}", refuse)
    params = KernelParams(alphabet=ab, n_max=9, mode="exact", scaling="paper")
    with pytest.raises(CapExceededError, match="monte-carlo"):
        kernel_value("aaaaaaaaa", "aaaaaaaab", params)
    with pytest.raises(CapExceededError, match="monte-carlo"):
        gram_matrix(["a", "aaaaaaaaa", "aaaaaaaab"], params)


@pytest.mark.parametrize("k, n_top", [(1, 128), (2, 75), (3, 55), (4, 44)])
def test_mc_paper_float_range_bound(k, n_top):
    # the largest paper-scaled Monte Carlo sum whose values stay finite:
    # 1 + sum_{n <= n_top} |DFA_n| // 2 is within the float range, and one
    # more term is not
    from regkernel.kernel import _check_float_range

    _check_float_range(n_top, k)
    with pytest.raises(CapExceededError, match="use normalized scaling"):
        _check_float_range(n_top + 1, k)


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
    # weights apply only to normalized scaling, where their length and sign are checked
    with pytest.raises(ValueError, match="normalized"):
        KernelParams(alphabet=ab, n_max=2, weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="need 2 weights"):
        KernelParams(alphabet=ab, n_max=2, scaling="normalized", weights=(1.0,))
    with pytest.raises(ValueError, match="non-negative"):
        KernelParams(alphabet=ab, n_max=2, scaling="normalized", weights=(1.0, -0.5))


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


def shake_bit(cache, domain, fields, nbytes, pos):
    """Bit pos, little endian, of the first nbytes of SHAKE-256 over the
    domain tag and the fields as little-endian u64s."""
    key = (domain, fields)
    if key not in cache:
        message = domain + struct.pack(f"<{len(fields)}Q", *fields)
        cache[key] = hashlib.shake_256(message).digest(nbytes)
    return (cache[key][pos // 8] >> (pos % 8)) & 1


def stream_tables(n, m, seed, block_size=None, k=2):
    """The first m tables of the stream of (seed, n), decoded one table and
    one cell at a time from the documented format: no bit-slicing, no
    trie.  Table t is bit t % B of block t // B, and a cell takes the value
    of the first round that reads one below n."""
    from regkernel import stream

    block_size = block_size or stream._BLOCK_SAMPLES
    digests = {}

    def bit(block, q, c, rnd, plane, pos):
        size = min(block_size, m - block * block_size)
        return shake_bit(digests, b"regkernel.sample.v4", (seed, n, block, q, c, rnd, plane),
                         (size + 7) // 8, pos)

    tables = []
    for t in range(m):
        block, pos = divmod(t, block_size)
        table = []
        for q in range(n):
            row = []
            for c in range(k):
                rnd, value = 0, n
                while value >= n:
                    value = sum(bit(block, q, c, rnd, p, pos) << p
                                for p in range((n - 1).bit_length()))
                    rnd += 1
                row.append(value)
            table.append(row)
        tables.append(table)
    return tables


def stream_accepting(n, m, seed, block_size=None):
    """The accepting sets of the first m DFAs of sample_dfas for (seed, n),
    read one bit at a time: state q of DFA t accepts when bit t % B is set
    in the accepting stream of (seed, n, t // B, q)."""
    from regkernel import stream

    block_size = block_size or stream._BLOCK_SAMPLES
    digests = {}
    sets = []
    for t in range(m):
        block, pos = divmod(t, block_size)
        size = min(block_size, m - block * block_size)
        sets.append([q for q in range(n)
                     if shake_bit(digests, b"regkernel.accept.v1", (seed, n, block, q),
                                  (size + 7) // 8, pos)])
    return sets


def sliced_tables(n, m, seed, k=2):
    """The first m tables as draw_table_block slices them, block by block."""
    from regkernel import stream

    tables = []
    for block, lo in enumerate(range(0, m, stream._BLOCK_SAMPLES)):
        size = min(stream._BLOCK_SAMPLES, m - lo)
        parts = stream.draw_table_block(n, k, seed, block, size)
        for t in range(size):
            table = []
            for q in range(n):
                row = []
                for c in range(k):
                    hits = [r for r in range(n) if parts[q][c][r] >> t & 1]
                    assert len(hits) == 1, (t, q, c, hits)
                    row.append(hits[0])
                table.append(row)
            tables.append(table)
    return tables


def end_state(table, encoded):
    q = 0
    for c in encoded:
        q = table[q][c]
    return q


def test_mc_stream_known_answer(ab, monkeypatch):
    # the first 8 tables of seed 20261019 at n = 3, as (delta(q, a), delta(q, b))
    # for q = 0, 1, 2: rejection rounds included
    expected = [
        [[0, 2], [2, 2], [1, 0]],
        [[1, 0], [1, 2], [1, 0]],
        [[1, 2], [2, 0], [1, 0]],
        [[0, 0], [1, 0], [2, 2]],
        [[1, 1], [1, 0], [2, 1]],
        [[0, 0], [1, 0], [0, 0]],
        [[0, 0], [1, 1], [2, 2]],
        [[0, 0], [0, 1], [0, 1]],
    ]
    assert sliced_tables(3, 8, 20261019) == expected
    assert stream_tables(3, 8, 20261019) == expected
    # n = 1 has one table and draws nothing from the stream
    from regkernel import stream

    monkeypatch.setattr(hashlib, "shake_256", None)
    assert stream.draw_table_block(1, 2, 5, 0, 10) == [[[2**10 - 1], [2**10 - 1]]]


def test_sample_dfas_known_answer(ab, monkeypatch):
    # the first 8 DFAs of seed 20261019 at n = 3: the tables of
    # test_mc_stream_known_answer, each with its accepting set
    expected = [
        ([[0, 2], [2, 2], [1, 0]], [2]),
        ([[1, 0], [1, 2], [1, 0]], []),
        ([[1, 2], [2, 0], [1, 0]], [1, 2]),
        ([[0, 0], [1, 0], [2, 2]], [1, 2]),
        ([[1, 1], [1, 0], [2, 1]], [0, 1, 2]),
        ([[0, 0], [1, 0], [0, 0]], [0, 1, 2]),
        ([[0, 0], [1, 1], [2, 2]], []),
        ([[0, 0], [0, 1], [0, 1]], [2]),
    ]
    from regkernel import stream

    got = [([list(row) for row in d.table], sorted(d.accepting))
           for d in stream.sample_dfas(3, ab, 20261019, 8)]
    assert got == expected
    assert list(zip(stream_tables(3, 8, 20261019), stream_accepting(3, 8, 20261019))) == expected
    # across block boundaries, against the plain readers of both streams
    monkeypatch.setattr(stream, "_BLOCK_SAMPLES", 16)
    dfas = list(stream.sample_dfas(3, ab, 77, 40))
    assert [[list(row) for row in d.table] for d in dfas] == stream_tables(3, 40, 77, 16)
    assert [sorted(d.accepting) for d in dfas] == stream_accepting(3, 40, 77, 16)


def test_sample_dfas_rejects_bad_arguments(ab):
    from regkernel import stream

    for n, seed in ((0, 1), (2, -1), (2, 2**64)):
        with pytest.raises(ValueError):
            next(stream.sample_dfas(n, ab, seed, 1))


@pytest.mark.parametrize("block", [16, None])
def test_mc_stream_sample_for_m_is_a_prefix(ab, monkeypatch, block):
    from regkernel import stream

    if block is not None:
        monkeypatch.setattr(stream, "_BLOCK_SAMPLES", block)
    for n in (2, 3, 5):
        longer = sliced_tables(n, 100, 77)
        for m in (1, 15, 16, 17, 40):
            assert sliced_tables(n, m, 77) == longer[:m], (n, m)
        assert longer == stream_tables(n, 100, 77, block)


def test_mc_memory_is_one_block_whatever_m(ab):
    from regkernel import count, stream

    strings = enumerate_strings(ab, 3)
    n, k = 3, len(ab)
    peaks = []
    for m in (10**5, 10**6):
        tracemalloc.start()
        try:
            count.agreement_matrix(strings, n, ab, sample=(m, 7))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block's cells: n*k cells of n masks of _BLOCK_SAMPLES bits
    one_block = n * k * n * stream._BLOCK_SAMPLES // 8
    assert abs(peaks[1] - peaks[0]) < one_block, peaks


def test_mc_acceptance_matches_plain_walk(ab):
    # the trie walk's end-state masks against a plain walk per table: each
    # string ends in exactly one state on every table
    from regkernel.count import _end_states, _trie_plan
    from regkernel.stream import draw_table_block

    strings = enumerate_strings(ab, 4)
    m = 200
    for n in (1, 2, 3):
        tables = stream_tables(n, m, 13)
        parts = draw_table_block(n, 2, 13, 0, m)
        ends = dict(_end_states(_trie_plan([ab.encode(s) for s in strings]), parts, m))
        assert sorted(ends) == list(range(len(strings)))
        for j, s in enumerate(strings):
            for t in range(m):
                states = [q for q in range(n) if ends[j] >> (q * m + t) & 1]
                assert states == [end_state(tables[t], ab.encode(s))], (n, s, t)
            assert ends[j] >> (n * m) == 0


@pytest.mark.parametrize("block", [7, 64, None])
def test_mc_joint_counts_match_plain_loop(ab, monkeypatch, block):
    # the stream, trie walk and popcounts against a loop over plainly decoded
    # tables, across blocks of 7 and 64 tables and one block, with the empty
    # string, a duplicate, prefixes and rows shared with cols
    from regkernel import count, stream

    if block is not None:
        monkeypatch.setattr(stream, "_BLOCK_SAMPLES", block)
    rows = ["abba", "", "ab", "b", "ab", "abbab", "a"]
    cols = ["ba", "abba", "", "abb", "bbbb", "a", "a"]
    m = 97
    for n in (1, 2, 3, 5):
        tables = stream_tables(n, m, 21, block)
        ends = {s: [end_state(t, ab.encode(s)) for t in tables] for s in {*rows, *cols}}

        def agree(x, y):
            return sum(a == b for a, b in zip(ends[x], ends[y]))

        cross = count.agreement_matrix(rows, n, ab, cols, sample=(m, 21))
        assert all(type(c) is int for line in cross for c in line)
        assert cross == [[agree(x, y) for y in cols] for x in rows]
        gram = count.agreement_matrix(rows, n, ab, sample=(m, 21))
        assert gram == [[agree(x, y) for y in rows] for x in rows]


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
    from regkernel import stream

    drawn = []
    real = stream.draw_table_block

    def counting(n, k, master_seed, block, size):
        drawn.append(n)
        return real(n, k, master_seed, block, size)

    monkeypatch.setattr(stream, "draw_table_block", counting)
    gram_matrix(enumerate_strings(ab, 4), mc_params(ab))
    assert drawn == [1, 2, 3]


def test_mc_pn_reads_the_shared_sample(ab):
    # mc_pn and every Gram that contains the pair read the same counts
    m = hoeffding_samples(0.1, 0.05)
    expected = mc_pn("ab", "ba", 1, m, ab, 5) + mc_pn("ab", "ba", 2, m, ab, 5)
    for strings in (["ab", "ba"], ["", "ba", "a", "ab", "bb"]):
        gram = gram_matrix(strings, mc_params(ab, seed=5))
        assert gram.value(strings.index("ab"), strings.index("ba")) == expected


def test_mc_path_reads_tables_only(ab):
    # the accepting bits are integrated out, so every Monte Carlo Gram entry,
    # kernel value and decision value is assembled from the end-state
    # agreement of plainly decoded tables, and from nothing else
    from regkernel.learner import PerceptronModel, decision_values

    strings = enumerate_strings(ab, 3)
    queries = [*strings, "abab", "bbaab"]
    support = (("ab", 1), ("aab", -2), ("b", 1))
    m = hoeffding_samples(0.1, 0.05)
    tables = {n: stream_tables(n, m, 5) for n in (1, 2, 3)}

    for scaling in ("paper", "normalized"):
        params = mc_params(ab, scaling)

        def plain_value(x, y):
            counts = [sum(end_state(t, ab.encode(x)) == end_state(t, ab.encode(y))
                          for t in tables[n])
                      for n in range(1, min(len(x), len(y), 3) + 1)]
            return reference_value(int(x == y), counts, params, m)

        gram = gram_matrix(strings, params)
        assert gram.values == tuple(tuple(plain_value(x, y) for y in strings) for x in strings)
        assert kernel_value("abab", "bba", params).value == plain_value("abab", "bba")
        model = PerceptronModel(support=support, params=params, epochs_run=1,
                                errors_per_epoch=(0,))
        expected = []
        for x in queries:
            total = 0
            for s, coeff in support:
                total += coeff * plain_value(s, x)
            expected.append(total)
        assert decision_values(model, queries) == expected


def test_gram_rejects_jobs_below_one(ab):
    for mode in ("exact", "monte-carlo"):
        params = KernelParams(alphabet=ab, n_max=2, mode=mode)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                gram_matrix(["a", "b"], params, jobs=jobs)
