"""Finite-support feature embeddings that make every regular language a
separable halfspace, plus the explicit separator construction.

Strings embed two ways.  The instance embedding ``chi`` maps a string to
the one-hot vector at its own coordinate.  The concept embedding
``alpha_embed`` maps a string x to the indicator over automata that
accept x, cut off at automata with no more states than x has characters;
the cutoff is what keeps the support finite.  A ConceptUniverse names the
coordinates and stores no automaton: an automaton is a transition table
and an accepting set, and it accepts x when the set holds x's end state,
so ``alpha_embed`` walks x once per table and sets the coordinate of each
accepting set that holds the end state.  It refuses, before any table is
listed, a support past ``automata.TABLE_CAP`` coordinates.  The direct
sum of the two embeddings, ``phi``, is the canonical embedding, and for
every target automaton the weight vector built by ``separator`` satisfies

    <w, phi(x)> = 1  if the target accepts x,
    <w, phi(x)> = 0  otherwise,

exactly, in rational arithmetic: every coordinate built here holds the
integer 1, and ``score`` returns a Fraction.  The instance half of w
covers the strings shorter than the target's state count and the concept
half is the single coordinate of the target itself, so exactly one half
fires on members and neither fires on non-members.

Infinite-support variants (indicator over all concepts with no cutoff,
or a weight vector listing every member of an infinite language) would
satisfy the same identity but are not representable here: SparseVec
stores finite supports only, which is the point of the construction.
Coordinates are keyed by InstanceKey and ConceptKey, named tuples that
compare equal to plain tuples of their fields; SparseVec and
ConceptUniverse are ``automata.Record``s, immutable once built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from . import automata
from .automata import (Alphabet, Dfa, Record, check_cap, dfa_space_size, enumerate_dfas,
                       iter_strings)


class InstanceKey(NamedTuple):
    """Feature coordinate indexed by a string."""

    string: str


class ConceptKey(NamedTuple):
    """Feature coordinate indexed by an automaton: its state count, the
    rank of its transition table in enumeration order, and its accepting
    set as a bit mask.  Two automata with the same language but different
    tables are distinct coordinates."""

    n: int
    table_rank: int
    accept_mask: int


FeatureKey = Union[InstanceKey, ConceptKey]


class SparseVec(Record):
    """Finite-support vector over feature coordinates, rational-valued.

    Zeros are never stored, so ``nnz`` is the true support size.  An int
    or Fraction value is kept as given and any other number made exact
    with Fraction.  ``truncated`` records that a concept cutoff exceeded
    the universe it was computed in (provenance only; excluded from
    equality).
    """

    _fields = ("entries", "truncated")

    def __init__(self, entries: dict[FeatureKey, int | Fraction], truncated: bool = False):
        exact = {k: f for k, v in entries.items()
                 if (f := v if isinstance(v, (int, Fraction)) else Fraction(v))}
        self._set(entries=exact, truncated=truncated)

    def _key(self) -> tuple:
        return (self.entries,)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, key: FeatureKey) -> int | Fraction:
        return self.entries.get(key, Fraction(0))

    def dot(self, other: "SparseVec") -> Fraction:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        return Fraction(sum(va * b[key] for key, va in a.items() if key in b))

    def direct_sum(self, other: "SparseVec") -> "SparseVec":
        """Union of two vectors with disjoint supports."""
        overlap = self.entries.keys() & other.entries.keys()
        if overlap:
            raise ValueError(f"supports overlap on {len(overlap)} coordinates")
        merged = dict(self.entries)
        merged.update(other.entries)
        return SparseVec(merged, truncated=self.truncated or other.truncated)


class ConceptUniverse(Record):
    """The coordinates of the automata with 1..n_max states over one
    alphabet, in enumeration order: by state count, table rank, then
    accepting mask.  No automaton is stored: iter_concepts builds each as
    it lists it, and alpha_embed reads the tables alone."""

    _fields = ("alphabet", "n_max")

    def __init__(self, alphabet: Alphabet, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self._set(alphabet=alphabet, n_max=n_max)

    def __len__(self) -> int:
        return sum(dfa_space_size(n, len(self.alphabet)) for n in range(1, self.n_max + 1))

    def iter_concepts(self, max_n: int | None = None) -> Iterator[tuple[ConceptKey, Dfa]]:
        limit = self.n_max if max_n is None else min(max_n, self.n_max)
        for n in range(1, limit + 1):
            states = 2**n
            for index, dfa in enumerate(enumerate_dfas(n, self.alphabet)):
                yield ConceptKey(n=n, table_rank=index // states, accept_mask=index % states), dfa

    def concept_id(self, dfa: Dfa) -> ConceptKey:
        """Feature coordinate of a member automaton; input error otherwise."""
        if dfa.alphabet != self.alphabet:
            raise ValueError(
                f"automaton alphabet {dfa.alphabet.text!r} does not match universe "
                f"alphabet {self.alphabet.text!r}"
            )
        if dfa.n > self.n_max:
            raise ValueError(
                f"automaton has {dfa.n} states but the universe stops at {self.n_max}"
            )
        return ConceptKey(n=dfa.n, table_rank=dfa.table_rank, accept_mask=dfa.accept_mask)


def chi(x: str) -> SparseVec:
    """Instance embedding: the one-hot vector at the string's own coordinate."""
    return SparseVec({InstanceKey(x): 1})


def alpha_embed(x: str, universe: ConceptUniverse) -> SparseVec:
    """Concept embedding: indicator over automata accepting x, restricted
    to automata with at most |x| states.

    An automaton accepts x when its accepting set holds x's end state on
    its table, so each table is walked once, and the 2**(n-1) accepting
    masks with that state's bit set, listed once per n, are its
    coordinates in the support.  The size cutoff keeps the support finite;
    the vector is marked truncated when the universe is too small to hold
    every coordinate the cutoff allows (n_max < |x|).  Half of each size's
    automata accept x, so the support size is known up front, and one past
    automata.TABLE_CAP is refused with CapExceededError (check_cap) before
    any table is listed.
    """
    encoded = universe.alphabet.encode(x)
    top = min(len(x), universe.n_max)
    required = sum(dfa_space_size(n, len(universe.alphabet)) // 2 for n in range(1, top + 1))
    check_cap(required, what="concept coordinates")
    entries: dict[FeatureKey, int] = {}
    for n in range(1, top + 1):
        holding = [[mask for mask in range(2**n) if mask >> q & 1] for q in range(n)]
        for rank, table in enumerate(automata.enumerate_tables(n, universe.alphabet)):
            q = 0
            for c in encoded:
                q = table[q][c]
            for mask in holding[q]:
                entries[ConceptKey(n, rank, mask)] = 1
    return SparseVec(entries, truncated=universe.n_max < len(x))


def phi(x: str, universe: ConceptUniverse) -> SparseVec:
    """Canonical embedding: direct sum of instance and concept embeddings.

    Supports are disjoint by key kind, so the support size is the sum of
    the two parts' (1 for chi plus the concept count for alpha)."""
    return chi(x).direct_sum(alpha_embed(x, universe))


def separator(target: Dfa, universe: ConceptUniverse) -> SparseVec:
    """Weight vector cutting out the target automaton's language.

    The instance half has a unit weight on every accepted string strictly
    shorter than the target's state count (a finite set); the concept
    half is a single unit weight on the target's own coordinate.  Against
    ``phi`` these two halves partition membership by string length, below
    and at-or-above the state count respectively.
    """
    key = universe.concept_id(target)
    entries: dict[FeatureKey, int] = {key: 1}
    for u in iter_strings(target.alphabet, target.n - 1):
        if target.accepts(u):
            entries[InstanceKey(u)] = 1
    return SparseVec(entries)


def score(w: SparseVec, v: SparseVec) -> Fraction:
    """Sparse dot product; the membership score <w, phi(x)>."""
    return w.dot(v)
