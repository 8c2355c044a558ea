"""Complete deterministic finite automata over small alphabets.

The automaton model is fixed package-wide: states are the integers
0..n-1, the start state is always 0, the transition table is total, and
the accepting set is an arbitrary subset of states (empty and full are
both legal).  Automata are counted, enumerated and sampled as labeled
objects, without quotienting by isomorphism and without pruning
unreachable states, so the space of n-state automata over k symbols has
exactly n**(n*k) * 2**n members.  The uniform sampler,
kernel.sample_dfas, reads the Monte Carlo kernel's own table stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

# Upper bound on how many transition tables an exhaustive walk may touch.
TABLE_CAP = 10_000_000

COMMENT_CHAR = "#"

DFA_HEADER = "dfa v1"


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "transition tables", hint: str = ""):
        self.required = required
        self.cap = cap
        msg = f"enumeration requires {required} {what}, above the cap of {cap}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class ParseError(ValueError):
    """Malformed automaton or dataset text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct single-character symbols.

    Order is significant: transition tables, serialized text and string
    enumeration all follow it.  Symbols must be printable, non-whitespace
    and must not be ``#`` (reserved for comments in the text formats).
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        syms = tuple(self.symbols)
        object.__setattr__(self, "symbols", syms)
        if not syms:
            raise ValueError("alphabet must be non-empty")
        for c in syms:
            if not isinstance(c, str) or len(c) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {c!r}")
            if c.isspace() or not c.isprintable():
                raise ValueError(f"alphabet symbol {c!r} must be printable and non-whitespace")
            if c == COMMENT_CHAR:
                raise ValueError(f"{COMMENT_CHAR!r} is reserved for comments and cannot be a symbol")
        if len(set(syms)) != len(syms):
            raise ValueError(f"alphabet has duplicate symbols: {''.join(syms)!r}")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(syms)})

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, c: str) -> bool:
        return c in self._index

    def index(self, c: str) -> int:
        return self._index[c]

    def encode(self, x: str) -> list[int]:
        """Map a string to symbol indices, naming the first bad character."""
        out = []
        for pos, c in enumerate(x):
            i = self._index.get(c)
            if i is None:
                raise ValueError(
                    f"symbol {c!r} at position {pos} is not in alphabet {self.text!r}"
                )
            out.append(i)
        return out

    @property
    def text(self) -> str:
        return "".join(self.symbols)


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: states 0..n-1, start state 0, total transition table.

    ``table[state][symbol_index]`` is the successor state.  Instances are
    immutable and safe to share across threads.
    """

    n: int
    alphabet: Alphabet
    table: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state count must be >= 1, got {self.n}")
        table = tuple(tuple(int(c) for c in row) for row in self.table)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "accepting", frozenset(int(q) for q in self.accepting))
        k = len(self.alphabet)
        if len(table) != self.n:
            raise ValueError(f"transition table has {len(table)} rows, expected {self.n}")
        for q, row in enumerate(table):
            if len(row) != k:
                raise ValueError(f"state {q} has {len(row)} transitions, expected {k}")
            for c in row:
                if not 0 <= c < self.n:
                    raise ValueError(f"transition target {c} outside states 0..{self.n - 1}")
        for q in self.accepting:
            if not 0 <= q < self.n:
                raise ValueError(f"accepting state {q} outside states 0..{self.n - 1}")

    def run(self, x: str) -> int:
        """State reached from state 0 after consuming x left to right."""
        q = 0
        table = self.table
        for ci in self.alphabet.encode(x):
            q = table[q][ci]
        return q

    def accepts(self, x: str) -> bool:
        return self.run(x) in self.accepting

    @property
    def accept_mask(self) -> int:
        """Accepting set packed as a bit mask, bit q = state q accepting."""
        m = 0
        for q in self.accepting:
            m |= 1 << q
        return m

    @property
    def table_rank(self) -> int:
        """Rank of the transition table in lexicographic cell order.

        Cells are ordered (state, symbol index) with the first cell most
        significant, matching :func:`enumerate_tables`.
        """
        r = 0
        for row in self.table:
            for c in row:
                r = r * self.n + c
        return r


def table_count(n: int, alphabet_size: int) -> int:
    """Number of total transition functions on n states, n**(n*k)."""
    if n < 1 or alphabet_size < 1:
        raise ValueError("state count and alphabet size must be >= 1")
    return n ** (n * alphabet_size)


def dfa_space_size(n: int, alphabet_size: int) -> int:
    """Number of n-state DFAs: n**(n*k) * 2**n, as an exact integer."""
    return table_count(n, alphabet_size) * 2**n


def enumerate_tables(n: int, alphabet: Alphabet) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every transition table exactly once, in lexicographic cell order.

    Streams one table at a time; raises CapExceededError up front when
    n**(n*k) exceeds TABLE_CAP.
    """
    k = len(alphabet)
    total = table_count(n, k)
    if total > TABLE_CAP:
        raise CapExceededError(total, TABLE_CAP)
    for cells in itertools.product(range(n), repeat=n * k):
        yield tuple(cells[q * k : (q + 1) * k] for q in range(n))


def enumerate_dfas(n: int, alphabet: Alphabet) -> Iterator[Dfa]:
    """Yield all n**(n*k) * 2**n DFAs: tables in lexicographic order, accepting
    masks 0..2**n-1 within each table."""
    for table in enumerate_tables(n, alphabet):
        for mask in range(2**n):
            accepting = frozenset(q for q in range(n) if (mask >> q) & 1)
            yield Dfa(n=n, alphabet=alphabet, table=table, accepting=accepting)


def iter_strings(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """All strings of length 0..max_len in length-then-lexicographic order,
    lexicographic per the alphabet's symbol order."""
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet.symbols, repeat=length):
            yield "".join(tup)


def serialize_dfa(dfa: Dfa) -> str:
    """Render a DFA in the v1 text format (canonical form).

    Header lines in fixed order, then one ``trans`` line per (state,
    symbol) pair in (state, symbol index) order::

        dfa v1
        states <n>
        alphabet <symbols concatenated>
        start 0
        accept <space-separated ids, ascending, possibly none>
        trans <state> <symbol> <state>
    """
    lines = [
        DFA_HEADER,
        f"states {dfa.n}",
        f"alphabet {dfa.alphabet.text}",
        "start 0",
        ("accept " + " ".join(str(q) for q in sorted(dfa.accepting))).rstrip(),
    ]
    for q in range(dfa.n):
        for i, c in enumerate(dfa.alphabet.symbols):
            lines.append(f"trans {q} {c} {dfa.table[q][i]}")
    return "\n".join(lines) + "\n"


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """Non-empty lines with comments stripped, paired with 1-based numbers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(COMMENT_CHAR, 1)[0].strip()
        if line:
            yield lineno, line


def parse_dfa(text: str) -> Dfa:
    """Parse the v1 text format.  Inverse of serialize_dfa on valid DFAs.

    Header lines must appear in order; ``trans`` lines may come in any
    order but must cover every (state, symbol) pair exactly once.
    """
    lines = list(_logical_lines(text))
    pos = 0

    def next_line(expected: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"unexpected end of input, expected {expected}", last)
        item = lines[pos]
        pos += 1
        return item

    lineno, line = next_line(f"{DFA_HEADER!r} header")
    if line != DFA_HEADER:
        raise ParseError(f"malformed header: expected {DFA_HEADER!r}, got {line!r}", lineno)

    lineno, line = next_line("'states <n>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "states" or not parts[1].isdigit():
        raise ParseError(f"malformed states line: {line!r}", lineno)
    n = int(parts[1])
    if n < 1:
        raise ParseError(f"state count must be >= 1, got {n}", lineno)

    lineno, line = next_line("'alphabet <symbols>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "alphabet":
        raise ParseError(f"malformed alphabet line: {line!r}", lineno)
    try:
        alphabet = Alphabet(tuple(parts[1]))
    except ValueError as e:
        raise ParseError(str(e), lineno) from e

    lineno, line = next_line("'start 0'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "start":
        raise ParseError(f"malformed start line: {line!r}", lineno)
    if parts[1] != "0":
        raise ParseError(f"start state is fixed to 0, got {parts[1]}", lineno)

    lineno, line = next_line("'accept ...'")
    parts = line.split()
    if parts[0] != "accept":
        raise ParseError(f"malformed accept line: {line!r}", lineno)
    accepting = set()
    for tok in parts[1:]:
        if not tok.isdigit():
            raise ParseError(f"malformed accepting state id {tok!r}", lineno)
        q = int(tok)
        if q >= n:
            raise ParseError(f"accepting state {q} outside states 0..{n - 1}", lineno)
        accepting.add(q)

    k = len(alphabet)
    cells: dict[tuple[int, int], int] = {}
    while pos < len(lines):
        lineno, line = lines[pos]
        pos += 1
        parts = line.split()
        if len(parts) != 4 or parts[0] != "trans":
            raise ParseError(f"malformed transition line: {line!r}", lineno)
        _, src_s, sym, dst_s = parts
        if not src_s.isdigit() or not dst_s.isdigit():
            raise ParseError(f"malformed transition line: {line!r}", lineno)
        src, dst = int(src_s), int(dst_s)
        if src >= n:
            raise ParseError(f"source state {src} outside states 0..{n - 1}", lineno)
        if dst >= n:
            raise ParseError(f"target state {dst} outside states 0..{n - 1}", lineno)
        if sym not in alphabet:
            raise ParseError(f"unknown symbol {sym!r}", lineno)
        key = (src, alphabet.index(sym))
        if key in cells:
            raise ParseError(f"duplicate transition for state {src} on {sym!r}", lineno)
        cells[key] = dst

    if len(cells) != n * k:
        missing = [
            f"({q}, {alphabet.symbols[i]!r})"
            for q in range(n)
            for i in range(k)
            if (q, i) not in cells
        ]
        last = lines[-1][0] if lines else 1
        raise ParseError(
            f"incomplete transition table, missing {len(missing)} pairs: "
            + ", ".join(missing[:5]),
            last,
        )

    table = tuple(tuple(cells[(q, i)] for i in range(k)) for q in range(n))
    return Dfa(n=n, alphabet=alphabet, table=table, accepting=frozenset(accepting))
