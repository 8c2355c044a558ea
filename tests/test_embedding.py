from fractions import Fraction

import pytest

from regkernel import (
    Alphabet,
    CapExceededError,
    ConceptKey,
    ConceptUniverse,
    InstanceKey,
    SparseVec,
    alpha_embed,
    chi,
    enumerate_dfas,
    enumerate_strings,
    exact_kn,
    kernel_value,
    KernelParams,
    kn_by_enumeration,
    phi,
    score,
    separator,
)


@pytest.fixture(scope="module")
def universe():
    return ConceptUniverse(Alphabet(("a", "b")), 2)


# ---------------------------------------------------------------------
# SparseVec
# ---------------------------------------------------------------------

def test_sparsevec_drops_zeros():
    v = SparseVec({InstanceKey("a"): Fraction(0), InstanceKey("b"): Fraction(2),
                   InstanceKey("c"): 0.5, InstanceKey("d"): 2, InstanceKey("e"): 0.0})
    assert v.nnz == 3
    assert v.get(InstanceKey("a")) == v.get(InstanceKey("e")) == 0
    # a float is held exactly; an int or Fraction as given
    assert [(value, type(value)) for value in v.entries.values()] == [
        (2, Fraction), (Fraction(1, 2), Fraction), (2, int)]


def test_sparsevec_is_frozen_and_equality_ignores_truncated():
    v = SparseVec({InstanceKey("a"): 1}, truncated=True)
    for name in ("entries", "truncated"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    assert v == SparseVec({InstanceKey("a"): 1}) != SparseVec({InstanceKey("b"): 1})
    assert repr(v) == "SparseVec(entries={InstanceKey(string='a'): 1}, truncated=True)"


def test_sparsevec_dot_and_direct_sum():
    a = SparseVec({InstanceKey("x"): Fraction(2), InstanceKey("y"): Fraction(3)})
    b = SparseVec({InstanceKey("y"): Fraction(5), ConceptKey(1, 0, 1): Fraction(7)})
    assert a.dot(b) == 15
    merged = SparseVec({InstanceKey("x"): Fraction(1)}).direct_sum(b)
    assert merged.nnz == 3
    with pytest.raises(ValueError, match="overlap"):
        a.direct_sum(b)


# ---------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------

def test_chi_examples():
    assert chi("").entries == {InstanceKey(""): Fraction(1)}
    assert chi("ab").entries == {InstanceKey("ab"): Fraction(1)}
    assert chi("ab").nnz == 1


def test_chi_dot_is_equality_indicator():
    strings = ["", "a", "b", "ab", "ba", "abb"]
    for x in strings:
        for y in strings:
            assert chi(x).dot(chi(y)) == (1 if x == y else 0)


# ---------------------------------------------------------------------
# alpha embedding
# ---------------------------------------------------------------------

def test_alpha_empty_string_has_empty_support(universe):
    assert alpha_embed("", universe).nnz == 0


def test_alpha_single_symbol(universe):
    v = alpha_embed("a", universe)
    # only the accepting one-state automaton; two-state ones are cut off
    assert v.nnz == 1
    (key,) = v.entries
    assert key == ConceptKey(1, 0, 1)


def test_alpha_support_matches_enumeration(universe, ab):
    # brute-force oracle: count concepts of size <= |x| accepting x
    for x in ("ab", "ba", "bb", "aab"):
        expected = sum(
            1
            for n in (1, 2)
            if n <= len(x)
            for d in enumerate_dfas(n, ab)
            if d.accepts(x)
        )
        v = alpha_embed(x, universe)
        assert v.nnz == expected
    # for the two-symbol case this is 1 + 32: the accepting one-state
    # automaton plus half of the 64 two-state automata
    assert alpha_embed("ab", universe).nnz == 33


def test_alpha_truncation_flag(universe):
    assert alpha_embed("aaa", universe).truncated  # |x| = 3 > n_max = 2
    assert not alpha_embed("ab", universe).truncated


class Walked(Exception):
    """Raised in place of listing a table: the call was admitted."""


# Half of the n-state automata accept any one string, so the support of x
# has sum_{n <= min(|x|, n_max)} dfa_space_size(n, k) // 2 coordinates.
# ``required`` is None for an admitted call; ``cap`` None keeps TABLE_CAP.
@pytest.mark.parametrize("symbols, x, n_max, cap, required", [
    ("ab", "abab", 4, None, None),  # 527,237 coordinates
    ("ab", "ababa", 5, None, 156_777_237),
    ("ab", "abababab", 5, None, 156_777_237),
    ("a", "aaaaaaa", 6, None, None),
    ("a", "aaaaaaa", 7, None, 54_251_909),
    ("ab", "aaa", 3, 2_949, None),
    ("ab", "aaa", 3, 2_948, 2_949),
])
def test_alpha_embed_refuses_before_the_walk(monkeypatch, symbols, x, n_max, cap, required):
    from regkernel import automata

    def walk(*args, **kwargs):
        raise Walked

    monkeypatch.setattr(automata, "enumerate_tables", walk)
    if cap is not None:
        monkeypatch.setattr(automata, "TABLE_CAP", cap)
    universe = ConceptUniverse(Alphabet(tuple(symbols)), n_max)
    if required is None:
        with pytest.raises(Walked):
            alpha_embed(x, universe)
        return
    with pytest.raises(CapExceededError, match="concept coordinates") as refused:
        alpha_embed(x, universe)
    assert (refused.value.required, refused.value.cap) == (required, automata.TABLE_CAP)


# ---------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------

def test_phi_examples(universe):
    assert phi("", universe).entries == {InstanceKey(""): Fraction(1)}
    assert phi("a", universe).nnz == 2


def test_phi_support_splits(universe):
    for x in ("", "a", "ab", "bab"):
        assert phi(x, universe).nnz == chi(x).nnz + alpha_embed(x, universe).nnz


def test_phi_dot_phi_equals_kernel(universe, ab):
    # cross-module identity against the enumeration-backed kernel
    params = KernelParams(alphabet=ab, n_max=2, mode="exact", scaling="paper")
    strings = ["", "a", "b", "aa", "ab", "bb", "bab"]
    vecs = {x: phi(x, universe) for x in strings}
    for x in strings:
        for y in strings:
            expected = kernel_value(x, y, params).value
            assert vecs[x].dot(vecs[y]) == expected


# ---------------------------------------------------------------------
# separator and score
# ---------------------------------------------------------------------

def test_separator_accept_all(universe, accept_all):
    w = separator(accept_all, universe)
    # only the empty string is shorter than one state, and it is accepted
    assert w.get(InstanceKey("")) == 1
    assert w.nnz == 2


def test_separator_reject_all(universe, reject_all):
    w = separator(reject_all, universe)
    assert w.nnz == 1
    (key,) = w.entries
    assert key == ConceptKey(1, 0, 0)


def test_separator_parity(universe, parity):
    w = separator(parity, universe)
    # strings below two characters in the even-length language: only ""
    inst = [k for k in w.entries if isinstance(k, InstanceKey)]
    assert inst == [InstanceKey("")]
    assert w.nnz == 2


def test_separator_requires_membership(parity, ab):
    small = ConceptUniverse(ab, 1)
    with pytest.raises(ValueError, match="stops at 1"):
        separator(parity, small)
    other = ConceptUniverse(Alphabet(("b", "a")), 2)
    with pytest.raises(ValueError, match="alphabet"):
        separator(parity, other)


def test_score_parity_examples(universe, parity):
    w = separator(parity, universe)
    assert score(w, phi("a", universe)) == 0
    assert score(w, phi("aa", universe)) == 1
    assert score(w, phi("", universe)) == 1


def test_score_recovers_membership_small(universe, parity, ab):
    from regkernel import enumerate_strings

    w = separator(parity, universe)
    for x in enumerate_strings(ab, 4):
        expected = Fraction(1) if parity.accepts(x) else Fraction(0)
        assert score(w, phi(x, universe)) == expected


def test_universe_level_sizes(universe):
    assert len(universe) == 66


def test_concept_id_round_trip(universe, ab):
    for key, dfa in universe.iter_concepts():
        assert universe.concept_id(dfa) == key


# ---------------------------------------------------------------------
# the universe names coordinates; no automaton is stored or built
# ---------------------------------------------------------------------

def test_iter_concepts_lists_every_automaton_in_key_order(universe, ab):
    concepts = list(universe.iter_concepts())
    assert [dfa for _, dfa in concepts] == [*enumerate_dfas(1, ab), *enumerate_dfas(2, ab)]
    keys = [key for key, _ in concepts]
    assert keys == sorted(set(keys)) and len(keys) == len(universe)
    assert [key for key, _ in universe.iter_concepts(max_n=1)] == [ConceptKey(1, 0, 0),
                                                                  ConceptKey(1, 0, 1)]
    assert len(ConceptUniverse(ab, 3)) == 2 + 64 + 5832


def test_embedding_and_oracle_build_no_automaton(monkeypatch, ab):
    # the concept embedding and the oracle read tables and accepting sets;
    # their values are those of a literal construction over every Dfa
    from regkernel import automata

    def refuse(*args, **kwargs):
        raise AssertionError("a Dfa was built")

    strings = enumerate_strings(ab, 6)
    with monkeypatch.context() as patch:
        patch.setattr(automata.Dfa, "__init__", refuse)
        universe = ConceptUniverse(ab, 3)
        embedded = {x: (alpha_embed(x, universe), phi(x, universe)) for x in strings}
        joint = automata.joint_accept_count_grid(strings, 3, ab)
        kn = kn_by_enumeration("ababa", "abbaa", 3, ab)
    assert kn == exact_kn("ababa", "abbaa", 3, ab)
    assert [joint[i][i] for i in range(len(strings))] == [5832 // 2] * len(strings)
    concepts = [(ConceptKey(n, i // 2**n, i % 2**n), dfa)
                for n in (1, 2, 3) for i, dfa in enumerate(enumerate_dfas(n, ab))]
    for x, (alpha, whole) in embedded.items():
        literal = {key: Fraction(1) for key, dfa in concepts
                   if key.n <= len(x) and dfa.accepts(x)}
        assert (alpha.entries, alpha.truncated) == (literal, len(x) > 3), x
        assert (whole.entries, whole.truncated) == ({InstanceKey(x): Fraction(1), **literal},
                                                    len(x) > 3), x
