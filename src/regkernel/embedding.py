"""Finite-support feature embeddings that make every regular language a
separable halfspace, plus the explicit separator construction.

Strings embed two ways.  The instance embedding ``chi`` maps a string to
the one-hot vector at its own coordinate.  The concept embedding
``alpha_embed`` maps a string x to the indicator over automata that
accept x, cut off at automata with no more states than x has characters;
the cutoff is what keeps the support finite.  Their direct sum ``phi``
is the canonical embedding, and for every target automaton the weight
vector built by ``separator`` satisfies

    <w, phi(x)> = 1  if the target accepts x,
    <w, phi(x)> = 0  otherwise,

exactly, in rational arithmetic: the instance half of w covers the
strings shorter than the target's state count and the concept half is
the single coordinate of the target itself, so exactly one half fires on
members and neither fires on non-members.

Infinite-support variants (indicator over all concepts with no cutoff,
or a weight vector listing every member of an infinite language) would
satisfy the same identity but are not representable here: SparseVec
stores finite supports only, which is the point of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from .automata import Alphabet, Dfa, enumerate_dfas, iter_strings


@dataclass(frozen=True, order=True)
class InstanceKey:
    """Feature coordinate indexed by a string."""

    string: str


@dataclass(frozen=True, order=True)
class ConceptKey:
    """Feature coordinate indexed by an automaton: its state count, the
    rank of its transition table in enumeration order, and its accepting
    set as a bit mask.  Two automata with the same language but different
    tables are distinct coordinates."""

    n: int
    table_rank: int
    accept_mask: int


FeatureKey = Union[InstanceKey, ConceptKey]


@dataclass
class SparseVec:
    """Finite-support vector over feature coordinates, rational-valued.

    Zeros are never stored, so ``nnz`` is the true support size.
    ``truncated`` records that a concept cutoff exceeded the universe it
    was computed in (provenance only; excluded from equality).
    """

    entries: dict[FeatureKey, Fraction]
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.entries = {
            k: Fraction(v) for k, v in self.entries.items() if Fraction(v) != 0
        }

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, key: FeatureKey) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def dot(self, other: "SparseVec") -> Fraction:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        total = Fraction(0)
        for key, va in a.items():
            vb = b.get(key)
            if vb is not None:
                total += va * vb
        return total

    def direct_sum(self, other: "SparseVec") -> "SparseVec":
        """Union of two vectors with disjoint supports."""
        overlap = self.entries.keys() & other.entries.keys()
        if overlap:
            raise ValueError(f"supports overlap on {len(overlap)} coordinates")
        merged = dict(self.entries)
        merged.update(other.entries)
        return SparseVec(merged, truncated=self.truncated or other.truncated)


@dataclass
class ConceptUniverse:
    """All automata with 1..n_max states over one alphabet, materialized
    in enumeration order together with their feature coordinates."""

    alphabet: Alphabet
    n_max: int
    _concepts: list[tuple[ConceptKey, Dfa]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        concepts = []
        for n in range(1, self.n_max + 1):
            states = 2**n
            for index, dfa in enumerate(enumerate_dfas(n, self.alphabet)):
                key = ConceptKey(n=n, table_rank=index // states, accept_mask=index % states)
                concepts.append((key, dfa))
        self._concepts = concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def iter_concepts(self, max_n: int | None = None) -> Iterator[tuple[ConceptKey, Dfa]]:
        limit = self.n_max if max_n is None else min(max_n, self.n_max)
        for key, dfa in self._concepts:
            if key.n > limit:
                break
            yield key, dfa

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
    return SparseVec({InstanceKey(x): Fraction(1)})


def alpha_embed(x: str, universe: ConceptUniverse) -> SparseVec:
    """Concept embedding: indicator over automata accepting x, restricted
    to automata with at most |x| states.

    The size cutoff keeps the support finite; the vector is marked
    truncated when the universe is too small to hold every coordinate the
    cutoff allows (n_max < |x|).
    """
    entries: dict[FeatureKey, Fraction] = {}
    one = Fraction(1)
    for key, dfa in universe.iter_concepts(max_n=len(x)):
        if dfa.accepts(x):
            entries[key] = one
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
    entries: dict[FeatureKey, Fraction] = {key: Fraction(1)}
    for u in iter_strings(target.alphabet, target.n - 1):
        if target.accepts(u):
            entries[InstanceKey(u)] = Fraction(1)
    return SparseVec(entries)


def score(w: SparseVec, v: SparseVec) -> Fraction:
    """Sparse dot product; the membership score <w, phi(x)>."""
    return w.dot(v)
