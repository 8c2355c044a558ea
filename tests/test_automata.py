import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkernel import (
    Alphabet,
    CapExceededError,
    Dfa,
    ParseError,
    dfa_space_size,
    enumerate_dfas,
    enumerate_tables,
    parse_dfa,
    sample_dfa,
    serialize_dfa,
    table_count,
)
from regkernel.automata import iter_strings


# ---------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------

def test_alphabet_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet((" ",))
    with pytest.raises(ValueError):
        Alphabet(("#",))


def test_alphabet_order_is_significant():
    assert Alphabet(("a", "b")) != Alphabet(("b", "a"))
    assert Alphabet(("b", "a")).index("b") == 0


# ---------------------------------------------------------------------
# run / accepts
# ---------------------------------------------------------------------

def test_run_empty_string_is_start_state(parity, accept_all):
    assert parity.run("") == 0
    assert accept_all.run("") == 0


def test_run_parity_examples(parity):
    assert parity.run("ab") == 0
    assert parity.run("a") == 1


def test_accepts_examples(parity, accept_all):
    assert accept_all.accepts("")
    assert accept_all.accepts("abba")
    assert parity.accepts("ab")
    assert not parity.accepts("a")


def test_run_names_offending_symbol(parity):
    with pytest.raises(ValueError, match=r"'c' at position 1"):
        parity.run("ac")


def test_dfa_validation():
    ab = Alphabet(("a", "b"))
    with pytest.raises(ValueError):
        Dfa(n=0, alphabet=ab, table=(), accepting=frozenset())
    with pytest.raises(ValueError):
        Dfa(n=1, alphabet=ab, table=((0, 1),), accepting=frozenset())  # target >= n
    with pytest.raises(ValueError):
        Dfa(n=1, alphabet=ab, table=((0,),), accepting=frozenset())  # missing symbol
    with pytest.raises(ValueError):
        Dfa(n=1, alphabet=ab, table=((0, 0),), accepting=frozenset({3}))


@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_run_total_and_in_range(n, data):
    ab = Alphabet(("a", "b"))
    table = tuple(
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(2)) for _ in range(n)
    )
    accepting = frozenset(
        q for q in range(n) if data.draw(st.booleans())
    )
    dfa = Dfa(n=n, alphabet=ab, table=table, accepting=accepting)
    x = data.draw(st.text(alphabet="ab", max_size=12))
    assert 0 <= dfa.run(x) < n


# ---------------------------------------------------------------------
# enumeration and space size
# ---------------------------------------------------------------------

def test_enumerate_tables_counts(ab):
    assert sum(1 for _ in enumerate_tables(1, ab)) == 1
    assert sum(1 for _ in enumerate_tables(2, ab)) == 16
    assert sum(1 for _ in enumerate_tables(3, ab)) == 729


def test_enumerate_tables_no_duplicates_lexicographic(ab):
    tables = list(enumerate_tables(2, ab))
    assert len(set(tables)) == 16
    flat = [tuple(c for row in t for c in row) for t in tables]
    assert flat == sorted(flat)


def test_enumerate_tables_cap(ab):
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_tables(6, ab))
    assert exc.value.required == 6**12


def test_table_rank_round_trip(ab):
    for rank, table in enumerate(enumerate_tables(2, ab)):
        dfa = Dfa(n=2, alphabet=ab, table=table, accepting=frozenset())
        assert dfa.table_rank == rank


def test_dfa_space_size_examples():
    # confirmed by enumeration below
    assert dfa_space_size(1, 2) == 2
    assert dfa_space_size(2, 2) == 64
    assert dfa_space_size(3, 2) == 5832


def test_dfa_space_size_matches_enumeration(ab):
    for n in (1, 2):
        dfas = list(enumerate_dfas(n, ab))
        assert len(dfas) == dfa_space_size(n, 2)
        assert len(set(dfas)) == len(dfas)


def test_dfa_space_index_round_trip(ab):
    # enumeration order is table rank major, accepting mask minor
    for i, dfa in enumerate(enumerate_dfas(2, ab)):
        assert dfa.table_rank * 2**2 + dfa.accept_mask == i


def test_half_of_space_accepts_any_string(ab):
    # flip argument: toggling the end state's accepting bit pairs
    # acceptors with non-acceptors one to one
    for n in (1, 2):
        space_size = dfa_space_size(n, 2)
        for x in ("", "a", "ab", "bba"):
            count = sum(1 for d in enumerate_dfas(n, ab) if d.accepts(x))
            assert count * 2 == space_size
    for x in ("", "ab", "babab", "aaaaab"):
        count = sum(1 for d in enumerate_dfas(3, ab) if d.accepts(x))
        assert count * 2 == dfa_space_size(3, 2)


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------

def test_sample_dfa_deterministic(ab):
    a = sample_dfa(3, ab, np.random.default_rng(12345))
    b = sample_dfa(3, ab, np.random.default_rng(12345))
    assert a == b


def test_sample_dfa_rejects_zero_states(ab):
    with pytest.raises(ValueError):
        sample_dfa(0, ab, np.random.default_rng(0))


def test_sample_dfa_single_state_frequencies():
    # the 1-state space over {a} has exactly 2 members; each should appear
    # ~half the time
    a_only = Alphabet(("a",))
    assert dfa_space_size(1, 1) == 2
    rng = np.random.default_rng(2024)
    counts = [0, 0]
    draws = 10_000
    for _ in range(draws):
        dfa = sample_dfa(1, a_only, rng)
        assert dfa.n == 1 and dfa.alphabet == a_only
        counts[dfa.table_rank * 2**1 + dfa.accept_mask] += 1
    assert abs(counts[0] / draws - 0.5) < 0.02


# ---------------------------------------------------------------------
# string enumeration order
# ---------------------------------------------------------------------

def test_iter_strings_order(ab):
    assert list(iter_strings(ab, 2)) == ["", "a", "b", "aa", "ab", "ba", "bb"]


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_serialize_parity_is_nine_lines(parity):
    text = serialize_dfa(parity)
    assert len(text.strip().splitlines()) == 9
    assert parse_dfa(text) == parity


def test_serialize_parse_identity_all_two_state(ab):
    for dfa in enumerate_dfas(2, ab):
        assert parse_dfa(serialize_dfa(dfa)) == dfa


def test_parse_canonicalizes(parity):
    scrambled = (
        "# a comment\n"
        "dfa v1\n"
        "states 2\n"
        "alphabet ab\n"
        "start 0\n"
        "accept 0\n"
        "trans 1 b 0   # inline comment\n"
        "trans 0 a 1\n"
        "trans 1 a 0\n"
        "\n"
        "trans 0 b 1\n"
    )
    assert serialize_dfa(parse_dfa(scrambled)) == serialize_dfa(parity)


def test_parse_empty_accept_line(ab, reject_all):
    text = serialize_dfa(reject_all)
    assert "accept\n" in text
    assert parse_dfa(text) == reject_all


def test_parse_missing_transition_reports_incomplete():
    text = "dfa v1\nstates 2\nalphabet ab\nstart 0\naccept 0\ntrans 0 a 1\ntrans 0 b 1\ntrans 1 a 0\n"
    with pytest.raises(ParseError, match="incomplete"):
        parse_dfa(text)


def test_parse_duplicate_transition():
    text = (
        "dfa v1\nstates 1\nalphabet ab\nstart 0\naccept\n"
        "trans 0 a 0\ntrans 0 a 0\ntrans 0 b 0\n"
    )
    with pytest.raises(ParseError, match="duplicate") as exc:
        parse_dfa(text)
    assert exc.value.line == 7


def test_parse_nonzero_start_rejected():
    text = "dfa v1\nstates 1\nalphabet ab\nstart 1\naccept\ntrans 0 a 0\ntrans 0 b 0\n"
    with pytest.raises(ParseError, match="start state is fixed to 0"):
        parse_dfa(text)


def test_parse_state_out_of_range():
    text = "dfa v1\nstates 1\nalphabet ab\nstart 0\naccept\ntrans 0 a 1\ntrans 0 b 0\n"
    with pytest.raises(ParseError, match="target state 1"):
        parse_dfa(text)


def test_parse_unknown_symbol():
    text = "dfa v1\nstates 1\nalphabet ab\nstart 0\naccept\ntrans 0 c 0\ntrans 0 b 0\n"
    with pytest.raises(ParseError, match="unknown symbol 'c'") as exc:
        parse_dfa(text)
    assert exc.value.line == 6


def test_parse_malformed_header():
    with pytest.raises(ParseError, match="malformed header"):
        parse_dfa("dfa v2\nstates 1\n")


HEADER = "dfa v1\nstates 1\nalphabet ab\nstart 0\n"


@pytest.mark.parametrize("text, line, message", [
    ("dfa v1\n", 1, "unexpected end of input, expected 'states <n>'"),
    ("dfa v1\nstates two\n", 2, "malformed states line: 'states two'"),
    ("dfa v1\nstates 0\n", 2, "state count must be >= 1, got 0"),
    ("dfa v1\nstates 1\nalphabet a b\n", 3, "malformed alphabet line: 'alphabet a b'"),
    ("dfa v1\nstates 1\nalphabet aa\n", 3, "alphabet has duplicate symbols: 'aa'"),
    ("dfa v1\nstates 1\nalphabet ab\nbegin 0\n", 4, "malformed start line: 'begin 0'"),
    (HEADER + "accepting 0\n", 5, "malformed accept line: 'accepting 0'"),
    (HEADER + "accept x\n", 5, "malformed accepting state id 'x'"),
    (HEADER + "accept 1\n", 5, "accepting state 1 outside states 0..0"),
    (HEADER + "accept\ntrans 0 a\n", 6, "malformed transition line: 'trans 0 a'"),
    (HEADER + "accept\ntrans 0 a x\n", 6, "malformed transition line: 'trans 0 a x'"),
    (HEADER + "accept\ntrans 1 a 0\n", 6, "source state 1 outside states 0..0"),
], ids=["end", "states", "states-zero", "alphabet", "alphabet-duplicate", "start", "accept",
        "accept-id", "accept-range", "trans-fields", "trans-state", "trans-source"])
def test_parse_refusals_name_their_line(text, line, message):
    with pytest.raises(ParseError) as caught:
        parse_dfa(text)
    assert caught.value.line == line
    assert str(caught.value) == f"line {line}: {message}"


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_round_trip_random(data):
    ab = Alphabet(("a", "b"))
    n = data.draw(st.integers(1, 4))
    table = tuple(
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(2)) for _ in range(n)
    )
    accepting = frozenset(q for q in range(n) if data.draw(st.booleans()))
    dfa = Dfa(n=n, alphabet=ab, table=table, accepting=accepting)
    assert parse_dfa(serialize_dfa(dfa)) == dfa


def test_table_count_validation():
    with pytest.raises(ValueError):
        table_count(0, 2)
    with pytest.raises(ValueError):
        dfa_space_size(1, 0)
