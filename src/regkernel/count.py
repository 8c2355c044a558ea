"""Agreement counts: on how many transition tables two strings end in the
same state, for every pair of a block's distinct strings.

For strings x, y and a state count n, let A(n) be the number of n-state
transition tables, out of D_n, on which x and y end in the same state.
The two modes differ only in which tables give A_n and in D_n, and
term_plan alone decides both, for every size n <= n_top of a block: all
T = n**(n*k) tables in exact mode, counted as the accessible m-state
tables of every m <= n (below), or the first m tables of n's ``stream``
in Monte Carlo mode.  Its plan lists D_n per size and the table sets,
each with the integer weight it carries into each size.  The fixed
``automata.TABLE_CAP`` bounds the tables of one term in both modes, T in
exact mode, as it bounds the enumeration oracle, and m in Monte Carlo
mode, and term_plan checks it before any set is counted or drawn, once
per path: kernel.check_block for a kernel block, agreement_matrix for its
n.

A block is planned once (BlockPlan: its distinct strings, each encoded
once, and their prefix tries).  block_counts, given a term plan's sets,
the depth u each pair is counted to and one integer weight per size,
weights[n-1], returns one matrix over the block's distinct pairs, the
weighted sum sum_{n <= u} weights[n-1] * A_n of each.  One bit-sliced
counter (_sliced_agreement_counts) adds every set's weighted count into
it, once per set.  It skips a pair whose weight in a set is 0, and a set
that no pair weighs is not counted, so a sampled size that no pair
weighs is never drawn.  block_counts is the one way into the counter: a
kernel block counts each string to depth min(|s|, n_max) with the slopes
of its values as weights, and agreement_matrix, behind exact_pn,
exact_kn, mc_pn and verify, counts every string to one n with weight 1
on A_n alone.

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
n >= m: its set in the term plan weighs w(n, m) on each n >= m, w(n, m)
the weights of accessible_weights, so in a pair of depth u it weighs
sum_{n=m..u} weights[n-1] * w(n, m), and this module alone knows that
fold.  Over two symbols there are 1, 12, 216, 5,248 and 160,675
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
caller may replace (check_cap, which reads ``TABLE_CAP``,
``_BLOCK_SAMPLES``, draw_table_block) are read through their module at
call time, so each has one binding.
The counter runs on the caller's thread: it is pure Python and holds the
GIL.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, partial
from typing import Callable, Iterable, Sequence

from . import automata, stream
from .automata import Alphabet, table_count

# One block of bit-sliced tables: (size, parts), bit t of parts[q][c][r]
# set when table t of the block maps state q on symbol c to r.
Block = tuple[int, Sequence[Sequence[Sequence[int]]]]
# A term plan (term_plan): D_n of each size, and its table sets, each as
# (blocks, per_size): blocks() yields the set's tables block by block, and
# per_size[n-1] is the set's integer weight on size n.
TermPlan = tuple[list[int], list[tuple[Callable[[], Iterable[Block]], list[int]]]]


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


def _sliced_agreement_counts(
    plan: BlockPlan, blocks: Iterable[Block], weights: Sequence[Sequence[int]],
    counts: list[list[int]],
) -> None:
    """Add weights[i][j] times the end-state agreement count over the tables
    of ``blocks`` to counts[i][j], for distinct row i and distinct column j
    of the plan.  A pair of weight 0 is not counted, nor a row whose
    weights are all 0.  A symmetric plan's entries with j < i are left
    alone: A(x, y) = A(y, x) exactly, and plan.expand mirrors them.

    The blocks are counted one at a time.  In a block, each distinct
    string's end states are one integer of n masks laid end to end
    (_end_states), so the agreement of two strings is the popcount of
    their AND.  The distinct rows' end states are kept for the block; the
    distinct columns' are counted against them as their trie walk reaches
    them, and dropped.  So, with blocks drawn as they are read, live memory
    is one block's tables and rows, however many blocks there are.
    """
    n_rows = len(plan.row_ids)
    live = [i for i, line in enumerate(weights) if any(line)]
    for size, parts in blocks:
        row_ends = [0] * n_rows
        for i, ends in _end_states(plan.row_plan, parts, size):
            row_ends[i] = ends
        if plan.symmetric:
            for i in live:
                ends, line, ws = row_ends[i], counts[i], weights[i]
                for j in range(i, n_rows):
                    if w := ws[j]:
                        line[j] += w * (ends & row_ends[j]).bit_count()
        else:
            for j, ends in _end_states(plan.col_plan, parts, size):
                for i in live:
                    if w := weights[i][j]:
                        counts[i][j] += w * (row_ends[i] & ends).bit_count()


def _sampled_blocks(n: int, k: int, master_seed: int, m: int) -> Iterable[Block]:
    """The first m tables of n's stream, drawn block by block
    (draw_table_block) as the counter reads them."""
    for block, lo in enumerate(range(0, m, stream._BLOCK_SAMPLES)):
        size = min(stream._BLOCK_SAMPLES, m - lo)
        yield size, stream.draw_table_block(n, k, master_seed, block, size)


def term_plan(n_top: int, k: int, sample: tuple[int, int] | None = None) -> TermPlan:
    """(tables, sets): which tables each size n <= n_top of a block counts,
    and out of how many, the one place the mode decides it.  tables[n-1]
    is D_n, and each set is (blocks, per_size), a set of tables, read
    block by block from blocks(), whose agreement count adds
    per_size[n-1] times itself into A_n:

    - exact mode: D_n = n**(n*k), and one set per m, the accessible
      m-state tables with weight w(n, m) = accessible_weights(n, k)[m-1]
      on each n >= m;
    - ``sample`` (m, master_seed), Monte Carlo mode: D_n = m, and one set
      per n, the first m tables of n's stream (draw_table_block, drawn
      as they are read) with weight 1 on n alone.

    No set is built or drawn until blocks() is read, and each read starts
    afresh.  Before that, the one table-cap check (automata.check_cap)
    refuses a plan whose deepest term counts past automata.TABLE_CAP
    tables: n_top**(n_top*k) in exact mode, as the enumeration oracle is
    bounded, and m in Monte Carlo mode, so no term samples more tables
    than an exact one may count.  A plan with n_top 0 has no term.
    """
    ns = range(1, n_top + 1)
    if sample is None:
        if n_top:
            automata.check_cap(table_count(n_top, k),
                               hint="use monte-carlo mode for large state counts")
        return [table_count(n, k) for n in ns], [
            (partial(_accessible_blocks, m, k, stream._BLOCK_SAMPLES),
             [accessible_weights(n, k)[m - 1] if n >= m else 0 for n in ns]) for m in ns]
    m, seed = sample
    if n_top:
        automata.check_cap(m, "sampled tables per term", "raise --eps or --delta")
    return [m] * n_top, [(partial(_sampled_blocks, n, k, seed, m), [int(j == n) for j in ns])
                         for n in ns]


def block_counts(
    plan: BlockPlan, sets: Iterable[tuple[Callable[[], Iterable[Block]], Sequence[int]]],
    row_depths: Sequence[int], col_depths: Sequence[int], weights: Sequence[int],
) -> list[list[int]]:
    """One matrix over the plan's distinct strings: entry (i, j) is
    sum_{n <= u} weights[n-1] * A_n of distinct row i and distinct column
    j, with u = min(row_depths[i], col_depths[j]) the pair's depth,
    weights[n-1] the integer weight on size n, and A_n summed over the
    table sets of a term plan (term_plan, whose cap check the caller has
    run).  A set weighs sum_{n <= u} weights[n-1] * per_size[n-1] in a
    pair of depth u, so each set is counted once, for every size it
    serves; a set that no pair weighs is not read (so neither built nor
    drawn), nor a pair of weight 0 counted.  Entries below the diagonal of a
    symmetric plan stay 0.
    """
    counts = [[0] * len(col_depths) for _ in row_depths]
    for blocks, per_size in sets:
        by_depth = [0, *itertools.accumulate(map(operator.mul, weights, per_size))]
        by_row = {d: [by_depth[min(d, e)] for e in col_depths] for d in set(row_depths)}
        if any(map(any, by_row.values())):
            _sliced_agreement_counts(plan, blocks(), [by_row[d] for d in row_depths], counts)
    return counts


def agreement_matrix(
    rows: Sequence[str], n: int, alphabet: Alphabet, cols: Sequence[str] | None = None,
    sample: tuple[int, int] | None = None,
) -> list[list[int]]:
    """R x C lists of A_n for one state count n: entry (i, j) counts the
    tables on which rows[i] and cols[j] end in the same state (cols
    defaults to rows), out of all n**(n*k) n-state tables, or out of the
    first m tables of n's stream when ``sample`` is (m, master_seed).

    The strings are planned as one block, the term plan for n built (its
    cap check included), and block_counts counts its sets to depth n
    each, with weight 1 on A_n alone, so the counter is that of any
    block, and a sample is drawn for n alone.
    """
    if sample is not None:
        try:
            m = operator.index(sample[0])
        except TypeError as e:
            raise ValueError(f"sample count must be an integer: {e}") from e
        if m < 1:
            raise ValueError(f"sample count must be >= 1, got {m}")
        sample = (m, stream.check_seed(sample[1]))
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    plan = BlockPlan(rows, cols, alphabet)
    sets = term_plan(n, len(alphabet), sample)[1]
    return plan.expand(block_counts(plan, sets, [n] * len(plan.row_ids), [n] * len(plan.col_ids),
                                    [0] * (n - 1) + [1]))


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
    stream._BLOCK_SAMPLES when term_plan runs.  Each mask is cut in place
    and its full width dropped at once, so the build holds about one copy
    of the tables, and only the cut tables are kept."""
    count, parts = accessible_tables(m, k)
    sizes = [min(width, count - lo) for lo in range(0, count, width)]
    for cell in itertools.chain.from_iterable(parts):
        for r in range(m):
            cell[r] = _cut(cell[r], width, len(sizes))
    return tuple((size, tuple(tuple(tuple(masks[b] for masks in cell) for cell in row)
                              for row in parts))
                 for b, size in enumerate(sizes))


@cache
def accessible_weights(n: int, k: int) -> tuple[int, ...]:
    """(w(n, 1), ..., w(n, n)): w(n, m) = (n-1)(n-2)...(n-m+1) * n**((n-m)*k)
    n-state tables have a given accessible m-state table as the part that
    state 0 reaches, relabelled canonically: its labels 1..m-1 name
    distinct states other than 0, and the (n - m)*k cells of the other
    rows are free.  Kept for the process, like the tables they weigh."""
    return tuple(math.perm(n - 1, m - 1) * n ** ((n - m) * k) for m in range(1, n + 1))

