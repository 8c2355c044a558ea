"""Agreement counts: on how many transition tables two strings end in the
same state, for every pair of a block's distinct strings.

For strings x, y and a state count n, let A(n) be the number of n-state
transition tables, out of T = n**(n*k), on which x and y end in the same
state.  A block is planned once (BlockPlan: its distinct strings, each
encoded once, and their prefix tries), and block_counts, given the depth
each string is counted to, lists a matrix of counts over its distinct
strings for each size up to the block's n_top.  One bit-sliced counter
(_sliced_agreement_counts) makes every count, over one of two sets of
tables: the accessible m-state tables in exact mode (C_m), or m sampled
n-state tables of ``stream`` in Monte Carlo mode (A_n).  The fixed
``automata.TABLE_CAP`` bounds T in exact mode, as it bounds the
enumeration oracle, so exact mode refuses the same state counts it always
did; check_table_cap checks it once per block, before any count.

block_counts is the one way into the counter: a kernel block counts
each string to depth min(|s|, n_max), and agreement_matrix, behind
exact_pn, exact_kn, mc_pn and verify, counts every string to one n.

A depends only on the part of a table that state 0 reaches.  Call a table
accessible when state 0 reaches every state, and label its states
canonically, in order of first appearance as the rows are scanned in
label order (the initially connected automata of Liskovets 1969; Bassino
and Nicaud, TCS 2007).  An n-state table is one accessible m-state table
(its reachable part, relabelled) for some m <= n, with the labels
1..m-1 mapped to distinct states other than 0 and the n - m other rows
free, so with C_m the number of accessible m-state tables on which x and
y end in the same state,

    A(n) = sum_{m <= n} (n-1)(n-2)...(n-m+1) * n**((n-m)*k) * C_m.

So exact mode counts C_1..C_n_top, and one count of C_m serves every
n >= m.  Over two symbols there are 1, 12, 216, 5,248 and 160,675
accessible tables for m = 1..5, against the 9,765,625 tables at n = 5
alone.  accessible_tables builds them bit-sliced, and each (m, k) is built
and cut into the counter's blocks once per process (_accessible_blocks).

Within a block of tables, sampled or accessible, everything is bit-sliced
in Python integers: a cell becomes n disjoint masks, one per successor
state, and a string's end states n disjoint masks, one per state.  The
strings are walked together as their prefix trie, depth first, so a
prefix that several strings share is walked once, and a trie edge costs
n*n ANDs of block-wide masks.  The agreement count of two strings is the
popcount of the AND of their end-state masks, summed over blocks.  Live
memory is one block of a sample, whatever its number of tables; the
accessible tables are kept for the process.

The names this module takes from ``automata`` and ``stream`` that a
caller may replace (``TABLE_CAP``, ``_BLOCK_SAMPLES``, draw_table_block)
are read through their module at call time, so each has one binding.
The counter runs on the caller's thread: it is pure Python and holds the
GIL.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache
from typing import Iterable, Sequence

from . import automata, stream
from .automata import Alphabet, CapExceededError, table_count

# One block of bit-sliced tables: (size, parts), bit t of parts[q][c][r]
# set when table t of the block maps state q on symbol c to r.
Block = tuple[int, Sequence[Sequence[Sequence[int]]]]


# ---------------------------------------------------------------------------
# Block plan and the bit-sliced counter
# ---------------------------------------------------------------------------


def _trie_plan(encoded: Sequence[Sequence[int]]) -> list[tuple[int, int, Sequence[int]]]:
    """A depth-first walk of the prefix trie of the encoded strings.

    The strings are taken in sorted order, each as (j, shared, steps): j
    is its index, shared the length of the prefix it shares with the
    previous string, and steps its symbols after that prefix, the trie
    edges that extend the previous string's path to it.  Strings that
    share a prefix are adjacent in sorted order, so over the whole plan
    every trie edge is a step exactly once.
    """
    plan = []
    previous: Sequence[int] = ()
    for j in sorted(range(len(encoded)), key=encoded.__getitem__):
        e = encoded[j]
        shared = 0
        for a, b in zip(previous, e):
            if a != b:
                break
            shared += 1
        plan.append((j, shared, e[shared:]))
        previous = e
    return plan


def _end_states(
    plan: list[tuple[int, int, Sequence[int]]], parts: Sequence[Sequence[Sequence[int]]], size: int
):
    """Yield (j, ends) for every string of the trie plan, in plan order.

    ends holds string j's end states on the block's tables as n disjoint
    masks laid end to end: bit q*size + t is set when it ends in state q
    on table t.  ``path`` holds the state masks reached at each depth of
    the current trie path; a trie edge on symbol c maps them by
    next[r] |= cur[q] & parts[q][c][r].
    """
    n = len(parts)
    path = [[(1 << size) - 1] + [0] * (n - 1)]
    for j, shared, steps in plan:
        del path[shared + 1 :]
        cur = path[-1]
        for c in steps:
            nxt = [0] * n
            for states, row in zip(cur, parts):
                if states:
                    for r, part in enumerate(row[c]):
                        nxt[r] |= states & part
            path.append(nxt)
            cur = nxt
        ends = 0
        for states in reversed(cur):
            ends = (ends << size) | states
        yield j, ends


class BlockPlan:
    """The one place a block's distinct strings and their encodings are
    decided: the distinct rows against the distinct cols, or the symmetric
    block of the distinct rows when cols is None (then ``symmetric``, and
    only entries (i, j) with j >= i are counted and assembled).

    Each distinct string is encoded once, which validates it, naming the
    first bad symbol of the first bad string.  row_ids and col_ids map a
    string to its distinct index, and row_plan and col_plan are the trie
    plans of their encodings in that order (col_plan is None for a
    symmetric block).  The counter and the block's value assembly read
    these, and expand maps the result back to the block's strings."""

    def __init__(self, rows: Sequence[str], cols: Sequence[str] | None, alphabet: Alphabet):
        self.rows = rows
        self.cols = rows if cols is None else cols
        self.symmetric = cols is None
        self.row_ids = {s: i for i, s in enumerate(dict.fromkeys(rows))}
        self.row_plan = _trie_plan([alphabet.encode(s) for s in self.row_ids])
        if cols is None:
            self.col_ids, self.col_plan = self.row_ids, None
        else:
            self.col_ids = {s: i for i, s in enumerate(dict.fromkeys(cols))}
            self.col_plan = _trie_plan([alphabet.encode(s) for s in self.col_ids])

    def expand(self, block: list[list]) -> list[list]:
        """The R x C matrix of the block's strings from a matrix over its
        distinct strings; a symmetric block's lower triangle is first
        mirrored, in place, from its upper triangle."""
        if self.symmetric:
            for i, line in enumerate(block):
                for j in range(i):
                    line[j] = block[j][i]
        if len(self.row_ids) == len(self.rows) and len(self.col_ids) == len(self.cols):
            return block  # no duplicates: the distinct strings are the strings, in order
        return [[block[self.row_ids[x]][self.col_ids[y]] for y in self.cols] for x in self.rows]


def _sliced_agreement_counts(plan: BlockPlan, blocks: Iterable[Block]) -> list[list[int]]:
    """Lists of end-state agreement counts over the tables of ``blocks``:
    entry (i, j) counts the tables on which distinct row i and distinct
    column j of the plan end in the same state.  A symmetric plan's entries
    with j < i stay 0: A(x, y) = A(y, x) exactly, and plan.expand mirrors
    them.

    The blocks are counted one at a time.  In a block, each distinct
    string's end states are one integer of n masks laid end to end
    (_end_states), so the agreement of two strings is the popcount of
    their AND.  The distinct rows' end states are kept for the block; the
    distinct columns' are counted against them as their trie walk reaches
    them, and dropped.  So, with blocks drawn as they are read, live memory
    is one block's tables and rows, however many blocks there are.
    """
    n_rows = len(plan.row_ids)
    counts = [[0] * len(plan.col_ids) for _ in range(n_rows)]
    for size, parts in blocks:
        row_ends = [0] * n_rows
        for i, ends in _end_states(plan.row_plan, parts, size):
            row_ends[i] = ends
        if plan.symmetric:
            for i, ends in enumerate(row_ends):
                line = counts[i]
                for j in range(i, n_rows):
                    line[j] += (ends & row_ends[j]).bit_count()
        else:
            for j, ends in _end_states(plan.col_plan, parts, size):
                for i, row in enumerate(row_ends):
                    counts[i][j] += (row & ends).bit_count()
    return counts


def _sampled_blocks(n: int, k: int, master_seed: int, m: int) -> Iterable[Block]:
    """The first m tables of n's stream, drawn block by block
    (draw_table_block) as the counter reads them."""
    for block, lo in enumerate(range(0, m, stream._BLOCK_SAMPLES)):
        size = min(stream._BLOCK_SAMPLES, m - lo)
        yield size, stream.draw_table_block(n, k, master_seed, block, size)


def check_table_cap(n_top: int, k: int) -> None:
    """Refuse with CapExceededError an exact block whose deepest term is
    n_top when its table count n_top**(n_top*k) is past automata.TABLE_CAP."""
    required = table_count(n_top, k) if n_top else 0
    if required > automata.TABLE_CAP:
        raise CapExceededError(required, automata.TABLE_CAP,
                               hint="use monte-carlo mode for large state counts")


def block_counts(
    plan: BlockPlan, row_depths: Sequence[int], col_depths: Sequence[int], k: int,
    sample: tuple[int, int] | None = None, top_only: bool = False,
) -> tuple[list[list[list[int]]], list[tuple[int, ...]] | None]:
    """(per_size, mix): one count matrix per size 1..n_top over the plan's
    distinct strings, from the bit-sliced counter.

    row_depths[i] and col_depths[j] are the sizes distinct row i and
    distinct column j are counted to: pair (i, j) needs sizes 1..depth,
    with depth = min(row_depths[i], col_depths[j]), and n_top is the
    largest such depth, min(max(row_depths), max(col_depths)).

    - ``sample`` (m, master_seed), Monte Carlo mode: per_size[n - 1] holds
      A_n over the first m tables of n's stream (draw_table_block), and
      mix is None; with ``top_only``, per_size holds only A_n_top;
    - exact mode: per_size[m - 1] holds C_m over the accessible m-state
      tables, and A_n = sum_{m <= n} mix[n-1][m-1] * C_m with mix[n-1] the
      weights accessible_weights(n, k).

    An exact block's table cap is checked for its largest term first
    (check_table_cap), and it ignores ``top_only``: A_n needs C_m for
    every m <= n.  Entries below the diagonal of a symmetric plan stay 0.
    """
    n_top = min(max(row_depths, default=0), max(col_depths, default=0))
    if sample is not None:
        m, seed = sample
        return [_sliced_agreement_counts(plan, _sampled_blocks(n, k, seed, m))
                for n in range(1, n_top + 1) if n == n_top or not top_only], None
    check_table_cap(n_top, k)
    mix = [accessible_weights(n, k) for n in range(1, n_top + 1)]
    return [_sliced_agreement_counts(plan, _accessible_blocks(m, k, stream._BLOCK_SAMPLES))
            for m in range(1, n_top + 1)], mix


def agreement_matrix(
    rows: Sequence[str], n: int, alphabet: Alphabet, cols: Sequence[str] | None = None,
    sample: tuple[int, int] | None = None,
) -> list[list[int]]:
    """R x C lists of A_n for one state count n: entry (i, j) counts the
    tables on which rows[i] and cols[j] end in the same state (cols
    defaults to rows), out of all n**(n*k) n-state tables, or out of the
    first m tables of n's stream when ``sample`` is (m, master_seed).

    The strings are planned as one block and counted by block_counts to
    depth n each, so the table cap and the counter are those of any
    block; ``mix`` folds accessible counts into A_n, and a sample is
    drawn for n alone (``top_only``).
    """
    if sample is not None:
        if sample[0] < 1:
            raise ValueError(f"sample count must be >= 1, got {sample[0]}")
        stream.check_seed(sample[1])
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    plan = BlockPlan(rows, cols, alphabet)
    per_size, mix = block_counts(plan, [n] * len(plan.row_ids), [n] * len(plan.col_ids),
                                 len(alphabet), sample, top_only=True)
    if mix is None:
        return plan.expand(per_size[-1])
    return plan.expand([[sum(map(operator.mul, mix[-1], cells)) for cells in zip(*lines)]
                        for lines in zip(*per_size)])


# ---------------------------------------------------------------------------
# The exact table set: the accessible tables
# ---------------------------------------------------------------------------


def accessible_tables(m: int, k: int) -> tuple[int, list[list[list[int]]]]:
    """(count, parts): every accessible m-state table over k symbols in
    canonical labelling, bit-sliced as in draw_table_block: bit t of
    parts[q][c][r] is set when table t maps state q on symbol c to r.  The
    lists are the caller's: _accessible_blocks cuts them in place.

    Canonical means: scanning the cells (q, c) in rank order, each holds an
    earlier label or the next new one, and label q appears before row q is
    scanned, so every state is reachable from 0.  Such a table is fixed by
    the cells p_1 < ... < p_{m-1} where labels 1..m-1 first appear (p_j in
    a row below j) and, at every other cell, a choice among the labels that
    appeared before it.  The tables of one choice of p are the product of
    those choices, taken in lexicographic order (the first cell most
    significant), so within them a cell's choice index is constant on runs
    of `run` tables, repeating with period size * run: the mask of index 0
    is one run tiled by doubling and the mask of index i is that tiling
    shifted i runs up.  Each group is then
    shifted past the tables of the groups before it.  No table is listed
    one at a time.  There are 1, 12, 216, 5248 and 160675 of them for
    m = 1..5 over two symbols: the initially connected automata of
    Liskovets (1969).
    """
    cells = m * k
    masks = [[0] * m for _ in range(cells)]
    count = 0
    for firsts in itertools.combinations(range(cells), m - 1):
        if any(p >= j * k for j, p in enumerate(firsts, 1)):
            continue  # label j would first appear after row j was scanned
        # cell i holds one of `size` labels from `low` on
        choices = []
        seen = 1
        for i in range(cells):
            if seen < m and firsts[seen - 1] == i:
                choices.append((seen, 1))
                seen += 1
            else:
                choices.append((0, seen))
        group = math.prod(size for _, size in choices)
        full = (1 << group) - 1
        run = group
        for cell, (low, size) in zip(masks, choices):
            run //= size
            tiled, width = (1 << run) - 1, size * run
            while width < group:
                tiled |= tiled << width
                width *= 2
            for i in range(size):
                cell[low + i] |= ((tiled << (i * run)) & full) << count
        count += group
    return count, [masks[q * k : (q + 1) * k] for q in range(m)]


def _cut(mask: int, width: int, blocks: int) -> list[int]:
    """The bits of mask as ``blocks`` runs of ``width`` bits, the last run
    taking the rest, lowest first.  The mask is halved at a run boundary
    and each half cut in turn, so every bit is copied once per level, in
    log2(blocks) levels."""
    if blocks == 1:
        return [mask]
    half = blocks // 2
    low = half * width
    return _cut(mask & ((1 << low) - 1), width, half) + _cut(mask >> low, width, blocks - half)


@cache
def _accessible_blocks(m: int, k: int, width: int) -> tuple[Block, ...]:
    """accessible_tables(m, k) cut into blocks of ``width`` tables, the
    blocks the counter reads: block b holds tables b*width onwards, as
    (size, parts) bit-sliced as in draw_table_block.  Built and cut once
    per process for each (m, k, width), the width being
    stream._BLOCK_SAMPLES when called.  Each mask is cut in place and its
    full width dropped at once, so the build holds about one copy of the
    tables, and only the cut tables are kept."""
    count, parts = accessible_tables(m, k)
    sizes = [min(width, count - lo) for lo in range(0, count, width)]
    for cell in itertools.chain.from_iterable(parts):
        for r in range(m):
            cell[r] = _cut(cell[r], width, len(sizes))
    return tuple((size, tuple(tuple(tuple(masks[b] for masks in cell) for cell in row)
                              for row in parts))
                 for b, size in enumerate(sizes))


def _completions(n: int, k: int, v: int, c: int) -> int:
    """(n-1)(n-2)...(n-v+1) * n**(n*k - c): the n-state tables that
    complete a partial table with v states visited, labelled 0..v-1, and c
    cells assigned.  The labels 1..v-1 name distinct states other than 0,
    and the n*k - c unassigned cells are free."""
    return math.perm(n - 1, v - 1) * n ** (n * k - c)


@cache
def accessible_weights(n: int, k: int) -> tuple[int, ...]:
    """(w(n, 1), ..., w(n, n)): w(n, m) = (n-1)(n-2)...(n-m+1) * n**((n-m)*k)
    n-state tables have a given accessible m-state table as the part that
    state 0 reaches, relabelled canonically: the completions of a partial
    table with m states visited and all m*k of their cells assigned.  Kept
    for the process, like the tables they weigh."""
    return tuple(_completions(n, k, m, m * k) for m in range(1, n + 1))

