"""Complete deterministic finite automata over small alphabets.

The automaton model is fixed package-wide: states are the integers
0..n-1, the start state is always 0, the transition table is total, and
the accepting set is an arbitrary subset of states (empty and full are
both legal).  Automata are counted, enumerated and sampled as labeled
objects, without quotienting by isomorphism and without pruning
unreachable states, so the space of n-state automata over k symbols has
exactly n**(n*k) * 2**n members.  The uniform sampler,
stream.sample_dfas, reads the Monte Carlo kernel's own table stream.

Enumerating every table is the package's independent oracle for the
kernel: the tests check the kernel's exact counter against it, and
``verify --suite bounds`` and the benchmark reference are computed from
it.  The oracle holds a set of tables as the bits of a Python integer and
builds no Dfa: it walks the strings over every table at once
(end_state_grid), and counts DFAs as (table, accepting set) pairs, one
pass over that grid per accepting set (joint_accept_count_grid), since a
DFA accepts a string when its accepting set holds the string's end state.
Its grids are lists of lists of ints, as count.agreement_matrix returns.
TABLE_CAP bounds every term the package counts or lists, and check_cap,
its one comparison, refuses past it: the oracle's tables, the concept
embedding's coordinates, and a kernel term's tables, exact or sampled
(count.term_plan).  Alphabet, Dfa and the records of ``kernel``,
``learner`` and ``embedding`` derive from Record, which behaves as a
frozen dataclass, so no module of the package imports ``dataclasses``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# Upper bound on every term the package counts or lists: the n**(n*k)
# transition tables of one state count that an enumeration lists or an
# exact kernel term counts over, the m tables a Monte Carlo term samples,
# and the concept embedding's coordinates (check_cap).
TABLE_CAP = 10_000_000

COMMENT_CHAR = "#"

DFA_HEADER = "dfa v1"


class CapExceededError(RuntimeError):
    """A term, enumeration or sum would need more than its cap allows:
    ``required`` of ``what`` against ``cap``, refused before the work."""

    def __init__(self, required: int, cap: int, what: str = "transition tables", hint: str = ""):
        self.required = required
        self.cap = cap
        msg = f"needs {required} {what}, above the cap of {cap}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


def check_cap(required: int, what: str = "transition tables", hint: str = "") -> None:
    """Raise CapExceededError when ``required`` is past TABLE_CAP, read at
    call time: the package's one comparison against the cap."""
    if required > TABLE_CAP:
        raise CapExceededError(required, TABLE_CAP, what, hint)


class ParseError(ValueError):
    """Malformed automaton or dataset text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Record:
    """Base of the package's immutable records, those of ``automata``,
    ``kernel``, ``learner`` and ``embedding``: frozen dataclasses in
    behaviour, without the import of ``dataclasses`` (and ``inspect``) and
    the generated code that every command would pay for.  ``_fields``
    names the fields in order, and repr reads them; equality (same class
    only) and hash read ``_key``, the fields' values unless a subclass
    narrows it (SparseVec leaves ``truncated`` out).  ``__init__`` stores
    attributes with ``_set``, and any later assignment or deletion raises
    AttributeError.  The ``__dict__`` stays, for pickle, copy and vars()."""

    _fields: tuple[str, ...] = ()

    def _set(self, **attributes) -> None:
        self.__dict__.update(attributes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Alphabet(Record):
    """Ordered tuple of distinct single-character symbols.

    Order is significant: transition tables, serialized text and string
    enumeration all follow it.  Symbols must be printable, non-whitespace
    and must not be ``#`` (reserved for comments in the text formats).
    """

    _fields = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        syms = tuple(symbols)
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
        self._set(symbols=syms, _index={c: i for i, c in enumerate(syms)})

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


class Dfa(Record):
    """A complete DFA: states 0..n-1, start state 0, total transition table.

    ``table[state][symbol_index]`` is the successor state.  Instances are
    immutable and safe to share across threads.
    """

    _fields = ("n", "alphabet", "table", "accepting")

    def __init__(self, n: int, alphabet: Alphabet, table: tuple[tuple[int, ...], ...],
                 accepting: frozenset[int]):
        if n < 1:
            raise ValueError(f"state count must be >= 1, got {n}")
        table = tuple(tuple(int(c) for c in row) for row in table)
        self._set(n=n, alphabet=alphabet, table=table,
                  accepting=frozenset(int(q) for q in accepting))
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
    check_cap(table_count(n, k))
    for cells in itertools.product(range(n), repeat=n * k):
        yield tuple(cells[q * k : (q + 1) * k] for q in range(n))


def enumerate_dfas(n: int, alphabet: Alphabet) -> Iterator[Dfa]:
    """Yield all n**(n*k) * 2**n DFAs: tables in lexicographic order, accepting
    masks 0..2**n-1 within each table."""
    for table in enumerate_tables(n, alphabet):
        for mask in range(2**n):
            accepting = frozenset(q for q in range(n) if (mask >> q) & 1)
            yield Dfa(n=n, alphabet=alphabet, table=table, accepting=accepting)


# ---------------------------------------------------------------------------
# Enumeration oracle: every transition table, for tests and verification
# ---------------------------------------------------------------------------

# A set of tables is a Python int: bit t stands for the table of rank t,
# in the order enumerate_tables lists them (first cell most significant).


def _cell_masks(n: int, k: int) -> list[list[list[int]]]:
    """masks[q][c][r]: the set of tables that map state q on symbol c to r.

    Cell (q, c) is digit n*k-1-(q*k+c) of the rank in base n, so it holds r
    over runs of n**(cells after it) consecutive ranks, a pattern that
    repeats every n runs.  Each pattern is doubled up to the n**(n*k) bits
    (dividing 2**T - 1 by 2**P - 1 instead is quadratic in T)."""
    total = table_count(n, k)
    cells = []
    for cell in range(n * k):
        run = n ** (n * k - 1 - cell)
        values = []
        for r in range(n):
            bits, width = ((1 << run) - 1) << (r * run), n * run
            while width < total:
                bits |= bits << width
                width *= 2
            values.append(bits & ((1 << total) - 1))
        cells.append(values)
    return [cells[q * k : (q + 1) * k] for q in range(n)]


def kn_by_enumeration(x: str, y: str, n: int, alphabet: Alphabet) -> int:
    """Oracle for kernel.exact_kn: the pair's entry of
    joint_accept_count_grid, the n-state DFAs that accept both strings
    counted over every (table, accepting set) pair.

    Much slower than exact_kn; exists so the accessible-table counter and
    the closed form can be cross-checked against the definition.
    """
    return joint_accept_count_grid([x, y], n, alphabet)[0][1]


def pn_by_enumeration(x: str, y: str, n: int, alphabet: Alphabet) -> Fraction:
    from fractions import Fraction

    return Fraction(kn_by_enumeration(x, y, n, alphabet), dfa_space_size(n, len(alphabet)))


# ---------------------------------------------------------------------------
# Grid helpers: shared end-state memoization for exhaustive verification
# ---------------------------------------------------------------------------


def end_state_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> list[list[int]]:
    """ends[j][q]: the set of tables on which string j ends in state q.
    Holds n sets of n**(n*k) bits per string; intended for small n.

    The strings are walked in sorted order over every table at once, and
    ``path`` keeps the end states of every prefix of the last string
    walked, so a prefix that several strings share is walked once.  Each
    symbol costs n**2 ANDs: the tables that end in r are those that end in
    some q and map (q, symbol) to r, and the sets for distinct q are
    disjoint, so their sum is their union."""
    encoded = [alphabet.encode(s) for s in strings]
    total = table_count(n, len(alphabet))
    check_cap(total)
    masks = _cell_masks(n, len(alphabet))
    out: list[list[int]] = [[] for _ in strings]
    path = [[(1 << total) - 1] + [0] * (n - 1)]  # path[d][q]: d symbols end in q
    previous: list[int] = []
    for j in sorted(range(len(encoded)), key=encoded.__getitem__):
        e = encoded[j]
        shared = 0  # symbols e shares with the previous string
        while shared < min(len(e), len(previous)) and e[shared] == previous[shared]:
            shared += 1
        del path[shared + 1 :]
        for ci in e[shared:]:
            ends = path[-1]
            path.append([sum(ends[q] & masks[q][ci][r] for q in range(n)) for r in range(n)])
        out[j] = path[-1]
        previous = e
    return out


def agreement_count_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> list[list[int]]:
    """Pairwise table agreement counts over one shared end-state grid, by
    enumerating every table: the oracle that
    count.agreement_matrix(strings, n, alphabet) is checked against.  Each
    string's n end-state sets lie side by side in one integer, so a pair
    agrees on the tables where the two integers share a bit."""
    total = table_count(n, len(alphabet))
    packed = [sum(ends << (q * total) for q, ends in enumerate(row))
              for row in end_state_grid(strings, n, alphabet)]
    return [[(a & b).bit_count() for b in packed] for a in packed]


def joint_accept_count_grid(strings: Sequence[str], n: int, alphabet: Alphabet) -> list[list[int]]:
    """K_n of every pair of strings by direct enumeration over every DFA.

    A DFA is a (table, accepting set) pair, and it accepts a string when
    its accepting set holds the string's end state on its table.  For each
    of the 2**n accepting sets, a string's accepted tables are the union
    (the sum: they are disjoint) of its end-state sets over the set's
    states, and each pair adds the tables that accept both.  No use of
    the agreement identity, so it serves as the independent oracle for the
    closed-form path.
    """
    ends = end_state_grid(strings, n, alphabet)
    counts = [[0] * (i + 1) for i in range(len(ends))]  # the pairs j <= i, mirrored below
    for mask in range(2**n):
        accepted = [sum(row[q] for q in range(n) if mask >> q & 1) for row in ends]
        for i, a in enumerate(accepted):
            counts[i] = [c + (a & b).bit_count() for c, b in zip(counts[i], accepted)]
    return [[counts[max(i, j)][min(i, j)] for j in range(len(ends))] for i in range(len(ends))]


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
