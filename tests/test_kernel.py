import hashlib
import itertools
import json
import struct
import sys
import tracemalloc
from fractions import Fraction
from functools import cache, partial

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
    mc_pn,
    pn_by_enumeration,
    required_samples,
    stream,
    table_count,
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


def reference_value(same, counts, params, m=None):
    """Independent kernel value of a pair from its identity term and its
    agreement counts A_1..A_n_used, out of all n**(n*k) tables (m None) or
    out of m sampled ones: a Fraction sum of the terms, an exact integer in
    exact paper scaling and rounded once to float otherwise."""
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
# the exact counter against enumeration: one table of blocks
# ---------------------------------------------------------------------

AB, ABC = Alphabet(("a", "b")), Alphabet(("a", "b", "c"))
# Every string a row of EXACT_ROWS counts, per alphabet: the oracle grids
# list each n's tables once, for all of them (at most 4**8, at n = 4 over
# ab and n = 3 over abc).
UNIVERSE = {"ab": enumerate_strings(AB, 4) + ["ababa", "abbaa"], "abc": enumerate_strings(ABC, 3)}


@cache
def enumerated(symbols, n):
    """(A_n, K_n, P_n) of every ordered pair of UNIVERSE[symbols] by
    enumeration: A from agreement_count_grid, and K from
    joint_accept_count_grid up to 729 tables (n = 3 over ab, 2 over abc; it
    lists 2**n DFAs per table), beyond them from K = (T + A) * 2**n / 4."""
    alphabet, strings = Alphabet(tuple(symbols)), UNIVERSE[symbols]
    tables = table_count(n, len(symbols))
    agree = agreement_count_grid(strings, n, alphabet).tolist()
    joint = (joint_accept_count_grid(strings, n, alphabet).tolist() if tables <= 729
             else [[(tables + a) * 2**n // 4 for a in line] for line in agree])
    return {(x, y): (agree[i][j], joint[i][j], Fraction(joint[i][j], tables * 2**n))
            for i, x in enumerate(strings) for j, y in enumerate(strings)}


def both_orders(*pairs):
    """The 1 x 1 blocks of each pair, in both orders."""
    return [([x], [y]) for pair in pairs for x, y in (pair, pair[::-1])]


def row(name, symbols, blocks, top, width=None, known=None, brute=()):
    """One row of EXACT_ROWS.  ``blocks`` is a list of 1 x 1 blocks
    ([x], [y]), or one block (rows, cols), cols None for a symmetric block;
    each is counted for n = 1..top and valued at n_max = top, with
    stream._BLOCK_SAMPLES = width (None keeps it).  ``known`` maps (x, y, n)
    to literal answers (A_n, K_n, P_n) that stand in for enumeration, and
    the pairs of the strings ``brute`` check the plain oracles against the
    grids."""
    return pytest.param(symbols, blocks, top, width, known or {}, brute, id=name)


AB3, ABC3 = enumerate_strings(AB, 3), UNIVERSE["abc"]
WIDE = AB3 + ["abba", "ababa"]
EXACT_ROWS = [
    # x or y empty, y a prefix of x, x a prefix of y, y's last cell read by
    # x, or by y itself on some tables; one block_counts call per pair folds
    # its accessible counts at depth 3 into A_1, A_2 and A_3
    row("edge-pairs", "ab", both_orders(
        ("", ""), ("", "abba"), ("abba", ""), ("abab", "ab"), ("abb", "a"), ("ab", "abab"),
        ("a", "abba"), ("aa", "a"), ("aba", "ab"), ("ba", "bb"), ("a", "aa"), ("ab", "bab")), 3),
    row("short-pairs", "ab", [([x], [y]) for x in AB3 for y in AB3], 3, known={
        ("a", "b", 2): (8, 24, Fraction(3, 8)), ("aa", "", 2): (12, 28, Fraction(7, 16))}),
    # n = 5 has 5**10 tables, too many to list here: each A_5 was counted
    # once by listing them, and K_5 and P_5 follow from it; "a" and "b"
    # agree exactly when state 0 goes to one state on both symbols, on
    # 5 * 5**8 tables
    row("n5-pairs", "ab", both_orders(("a", "b"), ("ab", "ba"), ("ababa", "abbaa")), 5, known={
        ("a", "b", 5): (5**9, 93_750_000, Fraction(3, 10)),
        ("ab", "ba", 5): (2_265_625, 96_250_000, Fraction(77, 250)),
        ("ababa", "abbaa", 5): (4_305_125, 112_566_000, Fraction(56283, 156250))}),
    row("oracles", "ab", [(["", "a", "b", "aa", "ab", "ba", "bb", "aab", "ab"], None)], 3,
        brute=["", "a", "b", "aa", "ab", "ba", "bb", "aab"]),
    row("ab-symmetric", "ab", [(enumerate_strings(AB, 4), None)], 4),
    # a duplicate row against distinct columns, and pairs whose n_used
    # (0..3) is below the block's n_top of 4
    row("ab-cross", "ab", [(["abab", "", "a", "abab", "bba", "ba", "ababa"],
                            ["ab", "abab", "b", "", "aab", "abbaa", "bbbb"])], 4),
    # blocks of 7 and 100 tables cut the accessible tables of every m > 2;
    # distinct rows against a duplicate column (abc-cross has both)
    row("width-7", "ab", [(WIDE[::2], WIDE[1::2] + ["a"])], 4, width=7),
    row("width-100", "ab", [(WIDE, None)], 4, width=100),
    row("abc-pairs", "abc",
        both_orders(("abc", "cab"), ("bba", "cca"), ("", "c"), ("ca", "ac")), 3),
    row("abc-symmetric", "abc",
        [(enumerate_strings(ABC, 2) + ["abc", "cab", "bba", "cca"], None)], 3),
    row("abc-cross", "abc", [(ABC3[::2] + ABC3[:3], ABC3[::-3] + ABC3[-2:])], 3),
]
# paper, normalized, and weights with long binary expansions, a zero and a tiny one
SCALINGS = [("paper", None), ("normalized", None), ("normalized", (0.1, 0.0, 1 / 3, 2.5, 1e-300))]


@pytest.mark.parametrize("symbols, blocks, top, width, known, brute", EXACT_ROWS)
def test_exact_counter_matches_enumeration(monkeypatch, symbols, blocks, top, width, known,
                                           brute):
    # each block's counts (agreement_matrix) and values (kernel_block, and
    # gram_matrix for a symmetric block), and each 1 x 1 block's exact_kn,
    # exact_pn, kernel_value and block_counts fold, against enumeration;
    # repr tells an int, a float and a Fraction of one value apart
    from regkernel.kernel import kernel_block

    alphabet, ns = Alphabet(tuple(symbols)), range(1, top + 1)
    monkeypatch.setattr(stream, "_BLOCK_SAMPLES", width or stream._BLOCK_SAMPLES)

    def expected(x, y, n, item=0):
        """Item of (A_n, K_n, P_n) of the pair: the row's literal, else enumerated."""
        return (known.get((x, y, n)) or known.get((y, x, n)) or enumerated(symbols, n)[x, y])[item]

    pairs = [(rows[0], cols[0]) for rows, cols in blocks if cols and len(rows) == len(cols) == 1]
    for x, y in itertools.combinations_with_replacement(brute, 2):
        # pn_by_enumeration builds every DFA as an object, so n <= 2
        assert [brute_agreement(x, y, n) for n in ns] == [expected(x, y, n) for n in ns]
        assert [pn_by_enumeration(x, y, n, alphabet) for n in (1, 2)] == [
            expected(x, y, n, 2) for n in (1, 2)]
    for n, (rows, cols) in itertools.product(ns, blocks):
        assert repr(agreement_matrix(rows, n, alphabet, cols)) == repr(
            [[expected(x, y, n) for y in cols or rows] for x in rows]), n
    for (x, y), n in itertools.product(pairs, ns):
        assert repr((exact_kn(x, y, n, alphabet), exact_pn(x, y, n, alphabet))) == repr(
            (expected(x, y, n, 1), expected(x, y, n, 2))), (x, y, n)
    for x, y in pairs:
        per_size, mix = count.block_counts(count.BlockPlan([x], [y], alphabet), [top], [top],
                                           len(symbols))
        assert [sum(w * c[0][0] for w, c in zip(weights, per_size)) for weights in mix] == [
            expected(x, y, n) for n in ns], (x, y)
    for scaling, weights in SCALINGS:
        params = KernelParams(alphabet=alphabet, n_max=top, mode="exact", scaling=scaling,
                              weights=weights and weights[:top])

        @cache
        def reference(x, y):
            counts = [expected(x, y, n) for n in ns[: min(len(x), len(y))]]
            return reference_value(int(x == y), counts, params)

        if pairs:  # kernel_value is the 1 x 1 kernel_block of its pair
            assert repr([kernel_value(x, y, params).value for x, y in pairs]) == repr(
                [reference(x, y) for x, y in pairs])
            continue
        (rows, cols), = blocks
        assert repr(kernel_block(rows, cols, params)) == repr(
            [[reference(x, y) for y in cols or rows] for x in rows])
        if cols is None:  # the Gram of the block's strings, each once
            rows = list(dict.fromkeys(rows))
            assert repr(gram_matrix(rows, params).numeric()) == repr(
                [[reference(x, y) for y in rows] for x in rows])


@given(data=st.data(), symbols=st.sampled_from(["ab", "abc"]))
@settings(max_examples=60, deadline=None)
def test_exact_pair_counts_match_enumeration(data, symbols):
    # a random pair: its 1 x 1 blocks in both orders and its 2 x 2 block
    # against the grid, each string agreeing with itself on every table
    alphabet = Alphabet(tuple(symbols))
    x, y = (data.draw(st.text(alphabet=symbols, max_size=6)) for _ in range(2))
    n = data.draw(st.integers(1, 4 if symbols == "ab" else 3))
    tables = table_count(n, len(symbols))
    a = int(agreement_count_grid([x, y], n, alphabet)[0, 1])
    assert 0 <= a <= tables
    assert agreement_matrix([x], n, alphabet, [y]) == agreement_matrix([y], n, alphabet, [x]) == [
        [a]]
    assert agreement_matrix([x, y], n, alphabet) == [[tables, a], [a, tables]]
    assert exact_kn(x, y, n, alphabet) == exact_kn(y, x, n, alphabet)


# ---------------------------------------------------------------------
# agreement counts and exact values
# ---------------------------------------------------------------------


def test_exact_kn_dominated_by_diagonal(ab):
    strings = ["", "a", "b", "aa", "ab", "ba", "bb"]
    for n in (1, 2):
        for x in strings:
            kxx = exact_kn(x, x, n, ab)
            for y in strings:
                assert exact_kn(x, y, n, ab) <= kxx


def test_cap_error_propagates(ab):
    with pytest.raises(CapExceededError):
        exact_kn("a", "b", 6, ab)


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

    monkeypatch.setattr(count, "_sliced_agreement_counts", refuse)
    with pytest.raises(CapExceededError):
        agreement_matrix(["a", "b"], 6, ab)


# ---------------------------------------------------------------------
# symbol permutation
# ---------------------------------------------------------------------

def permute(s: str, alphabet: Alphabet, perm: tuple[str, ...]) -> str:
    return s.translate(str.maketrans("".join(alphabet.symbols), "".join(perm)))


@pytest.mark.parametrize("symbols,max_len,n_top", [("ab", 4, 3), ("abc", 3, 2)])
def test_enumerated_agreement_invariant_under_symbol_permutation(symbols, max_len, n_top):
    # the symmetry a memo of exact counts by class of pair would rest on,
    # checked on the enumeration oracle
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


# ---------------------------------------------------------------------
# exhaustive counter: accessible tables, bit-sliced
# ---------------------------------------------------------------------


def test_exact_tables_built_once_per_process(ab, monkeypatch):
    from regkernel import count
    from regkernel.learner import _QUERY_CHUNK, PerceptronModel, decision_values

    built = []
    real = count.accessible_tables

    def counting(m, k):
        built.append((m, k))
        return real(m, k)

    monkeypatch.setattr(count, "accessible_tables", counting)
    count._accessible_blocks.cache_clear()
    params = KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="paper")
    strings = enumerate_strings(ab, 5)
    # the accessible tables of m = 1..5 states are built and cut once, on
    # first use, and serve every later block of the process: the Gram, and
    # each chunk of queries of a prediction
    expected = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]
    gram_matrix(strings, params)
    assert built == expected
    model = PerceptronModel(support=(("abab", 1), ("ba", -1), ("bbbba", 2)), params=params,
                            epochs_run=1, errors_per_epoch=(0,))
    queries = enumerate_strings(ab, 8)
    assert len(queries) > _QUERY_CHUNK
    decision_values(model, queries)
    assert built == expected


def test_value_function_built_once_per_block(ab, monkeypatch):
    # the accessible tables and the stream each feed one value function per
    # block, however many pairs the block holds
    from regkernel import kernel

    built = []
    real = kernel._value_function

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "_value_function", counting)
    deep = KernelParams(alphabet=ab, n_max=5, mode="exact", scaling="normalized",
                        weights=(0.5, 1.0, 2.0, 0.25, 3.0))
    for strings, params in [
        (["aaaaa", "ababa", "abbab", "bbbab", "babba"], deep),
        (enumerate_strings(ab, 3), KernelParams(alphabet=ab, n_max=4, mode="exact")),
        (enumerate_strings(ab, 3), mc_params(ab)),
    ]:
        built.clear()
        gram_matrix(strings, params)
        assert len(built) == 1, params


def test_exact_gram_encodes_each_string_once(ab, monkeypatch):
    # the plan encodes every string once, and the counter walks its tries
    encoded = []
    real = Alphabet.encode

    def counting(self, s):
        encoded.append(s)
        return real(self, s)

    monkeypatch.setattr(Alphabet, "encode", counting)
    strings = enumerate_strings(ab, 5)
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

    assert [accessible_tables(m, 2)[0] for m in range(1, 6)] == [1, 12, 216, 5248, 160675]
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


def test_accessible_blocks_cut_each_mask_in_place():
    # the 65,280 accessible 2-state tables over 8 symbols, cut into 4
    # blocks: each full-width mask is dropped once it is cut, so the build
    # peaks near the bytes it keeps, where holding the full masks and their
    # cut copies at once peaks above twice them
    tracemalloc.start()
    try:
        blocks = count._accessible_blocks.__wrapped__(2, 8, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [size for size, _ in blocks] == [16384, 16384, 16384, 16128]
    kept = sum(sys.getsizeof(mask)
               for _, parts in blocks for row in parts for cell in row for mask in cell)
    assert peak <= 1.5 * kept, (peak, kept)


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
    # the stream keys on 64 bits: 2**64 would replay seed 0, and -1 seed 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            mc_pn("ab", "ba", 2, 200, ab, seed)


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
    # up to the table cap (n_max 5 over ab), paper values are the integer sum
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

    # every term is counted by the bit-sliced counter, then valued by the
    # block's value function
    for name in ("count._sliced_agreement_counts", "kernel._value_function"):
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


def test_kernel_params_refuse_values_past_the_float_range(ab):
    # a value is at most 1 + sum_n w_n / 2, as P_n <= 1/2: past the float
    # range exact division would raise and a Monte Carlo sum overflow
    big = sys.float_info.max
    for mode in ("exact", "monte-carlo"):
        with pytest.raises(ValueError, match="float range"):
            KernelParams(alphabet=ab, n_max=3, mode=mode, scaling="normalized",
                         weights=(1.7e308,) * 3)
        with pytest.raises(ValueError, match="float range"):
            KernelParams(alphabet=ab, n_max=2, mode=mode, scaling="normalized",
                         weights=(big, big))
        # only the weights up to n_max count, and 1 + big / 2 is in range
        params = KernelParams(alphabet=ab, n_max=1, mode=mode, scaling="normalized",
                              weights=(big, big))
        assert kernel_value("ab", "ab", params).value == float(1 + Fraction(big) / 2)


def test_kernel_params_refuse_float_integers(ab):
    # a float seed would be recorded as given and fail at the first draw
    with pytest.raises(ValueError, match="integers"):
        KernelParams(alphabet=ab, n_max=2, mode="monte-carlo", master_seed=7.9)
    with pytest.raises(ValueError, match="integers"):
        KernelParams(alphabet=ab, n_max=2.5)


def test_kernel_params_store_numpy_integers_as_int(ab):
    params = KernelParams(alphabet=ab, n_max=np.int64(2), mode="monte-carlo",
                          master_seed=np.uint64(2**64 - 1))
    assert type(params.n_max) is int and type(params.master_seed) is int
    assert params == KernelParams(alphabet=ab, n_max=2, mode="monte-carlo",
                                  master_seed=2**64 - 1)


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
    a = {n: agreement_matrix(("ab", "ba"), n, ab, sample=(m, 5))[0][1] for n in (1, 2)}
    for n in (1, 2):
        assert mc_pn("ab", "ba", n, m, ab, 5) == (m + a[n]) / (4 * m)
    expected = float(Fraction(m + a[1], 4 * m) + Fraction(m + a[2], 4 * m))
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

    for scaling, weights in (("paper", None), ("normalized", None),
                             ("normalized", (0.1, 0.3, 0.7))):
        params = KernelParams(alphabet=ab, n_max=3, mode="monte-carlo", scaling=scaling,
                              master_seed=5, weights=weights)

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


def test_mc_normalized_values_are_their_rationals_rounded_once(ab):
    # every Monte Carlo normalized value is float() of its exact rational
    # sum, as in every other mode: no partial sum is rounded on the way
    from regkernel.learner import PerceptronModel, decision_values

    strings = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "aba", "bbb"]
    queries = ["abab", "bba", "aaaa", "babb", "b", "abbab", "aaaaa", "ba"]
    support = (("aa", 1), ("aba", -1), ("bb", 2), ("b", -1))
    params = mc_params(ab, seed=20261018)
    m = hoeffding_samples(0.1, 0.05)
    assert m == 185

    def rational(x, y):
        counts = [agreement_matrix((x, y), n, ab, sample=(m, params.master_seed))[0][1]
                  for n in range(1, min(len(x), len(y), 3) + 1)]
        return reference_value(int(x == y), counts, params, m)

    gram = gram_matrix(strings, params)
    assert gram.values == tuple(tuple(rational(x, y) for y in strings) for x in strings)
    assert all(kernel_value(x, y, params).value == rational(x, y)
               for x in strings for y in queries)
    model = PerceptronModel(support=support, params=params, epochs_run=1,
                            errors_per_epoch=(0,))
    expected = []
    for x in queries:
        total = 0
        for s, coeff in support:
            total += coeff * rational(s, x)
        expected.append(total)
    assert decision_values(model, queries) == expected


def test_gram_rejects_jobs_below_one(ab):
    for mode in ("exact", "monte-carlo"):
        params = KernelParams(alphabet=ab, n_max=2, mode=mode)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                gram_matrix(["a", "b"], params, jobs=jobs)
