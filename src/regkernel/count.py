"""Agreement counts: on how many transition tables two strings end in the
same state, for every pair of a block's distinct strings.

For strings x, y and a state count n, let A(n) be the number of n-state
transition tables, out of T = n**(n*k), on which x and y end in the same
state.  A block is planned once (BlockPlan: its distinct strings, each
encoded once, and their prefix tries), and block_counts, given the depth
each string is counted to, lists a matrix of counts over its distinct
strings for each size up to the block's n_top, from one of three
counters: the accessible counter (C_m over the accessible m-state tables,
exact mode up to _EXHAUSTIVE_LIMIT), the walk (A_n over all n-state
tables, one walk per class, exact mode above the limit) or the stream
(A_n over m sampled tables of ``stream``, Monte Carlo mode).  The fixed
``automata.TABLE_CAP`` bounds T on both exact counters, as it bounds the
enumeration oracle, so exact mode refuses the same state counts it always
did; it is checked once per block, before any count.

block_counts is the one way into the counters: a kernel block counts
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

While T is at most _EXHAUSTIVE_LIMIT (2**16, so n <= 4 over two symbols),
exact mode counts C_1..C_n with the bit-sliced counter described below,
over the accessible tables that accessible_tables builds bit-sliced, once
per (m, k) in a process: 5,477 tables for n <= 4 over two symbols against
the 66,282 of all tables, and one count of C_m serves every n.

Above the limit, A is computed by a lazy walk that fills in only the table
cells the two strings visit and treats all unvisited states as one branch,
so it never lists the T tables.  One walk at the largest state count N
gives A(n) for every n <= N: it records a histogram h[v, c] of its
finished equal-end branches by states visited v and cells assigned c, and

    A(n) = sum_{v <= n} h[v, c] * (n-1)(n-2)...(n-v+1) * n**(n*k - c),

the same identity over partial tables, so a kernel value walks each pair
once, not once per n.  The walk does not branch on y's last step: when
that step reaches an unassigned cell, exactly one of its branches ends
where x ended, so it adds 1 to h[v, c + 1] directly.  The two counters
return the same integers, so the limit only decides speed: counting the
accessible tables for a block of many strings costs less than walking
each pair, and the walk wins once T grows.  Both are checked against the
enumeration oracle in ``automata``.

Permuting the symbols permutes the columns of a uniform table and leaves
its distribution unchanged, and A is symmetric, so every exact count is
constant on the class of (x, y) under symbol permutation and swapping.
Above the limit, an exact block walks one canonical pair per class of its
distinct pairs of equal depth, to that depth, and fills the class from
it.  The class is read off the codes the block's plan encoded, and the
walk runs on them: no string is encoded again.  That memo lives for one
call: nothing is cached between calls.

Within a block of tables, sampled or accessible, everything is bit-sliced
in Python integers: a cell becomes n disjoint masks, one per successor
state, and a string's end states n disjoint masks, one per state.  The
strings are walked together as their prefix trie, depth first, so a
prefix that several strings share is walked once, and a trie edge costs
n*n ANDs of block-wide masks.  The agreement count of two strings is the
popcount of the AND of their end-state masks, summed over blocks.  Live
memory is one block, whatever the number of tables.

The names this module takes from ``automata`` and ``stream`` that a
caller may replace (``TABLE_CAP``, ``_BLOCK_SAMPLES``, draw_table_block)
are read through their module at call time, so each has one binding.
Every counter runs on the caller's thread: the walk is pure Python and
holds the GIL, so the worker threads it once had made the 127-string walk
Gram at n <= 5 slower, not faster.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, partial
from typing import Callable, Sequence

from . import automata, stream
from .automata import Alphabet, CapExceededError, table_count

# Largest table count n**(n*k) at which exact mode counts the accessible
# tables with the bit-sliced counter instead of walking each class of
# pairs.  In process (medians of three runs, each counter forced), counting
# the accessible tables against the walk: one pair at 4**8 = 65536 tables
# 0.25 vs 0.26 ms; Grams of 63 and 127 strings at 4**8 8.4 vs 178 ms and
# 44 vs 1510 ms; 40 strings at 3**9 4.4 vs 10.8 ms; 85 strings at 3**12
# 345 vs 30 ms; one pair at 5**10 4.1 vs 0.39 ms.  So counting wins on
# every measured block below the limit.  Above it the table count alone
# does not pick the faster counter: counting loses on those two blocks but
# wins on Grams over two symbols at 5**10, 63 strings 0.23 vs 0.29 s and
# 127 strings 0.72 vs 4.3 s (README; a per-block cost model is ROADMAP
# item 12).
_EXHAUSTIVE_LIMIT = 1 << 16


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
    string to its distinct index, row_codes and col_codes hold the
    encodings in that order, and row_plan and col_plan are their trie plans
    (col_plan is None for a symmetric block).  Every counter of the block
    and its value assembly read these, and expand maps the result back to
    the block's strings."""

    def __init__(self, rows: Sequence[str], cols: Sequence[str] | None, alphabet: Alphabet):
        self.rows = rows
        self.cols = rows if cols is None else cols
        self.symmetric = cols is None
        self.row_ids = {s: i for i, s in enumerate(dict.fromkeys(rows))}
        self.row_codes = [alphabet.encode(s) for s in self.row_ids]
        self.row_plan = _trie_plan(self.row_codes)
        if cols is None:
            self.col_ids, self.col_codes, self.col_plan = self.row_ids, self.row_codes, None
        else:
            self.col_ids = {s: i for i, s in enumerate(dict.fromkeys(cols))}
            self.col_codes = [alphabet.encode(s) for s in self.col_ids]
            self.col_plan = _trie_plan(self.col_codes)

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
    plan: BlockPlan, count: int, draw: Callable[[int, int], Sequence[Sequence[Sequence[int]]]]
) -> list[list[int]]:
    """Lists of end-state agreement counts over ``count`` tables: entry
    (i, j) counts the tables on which distinct row i and distinct column j
    of the plan end in the same state.  A symmetric plan's entries with
    j < i stay 0: A(x, y) = A(y, x) exactly, and plan.expand mirrors them.

    The tables come bit-sliced in blocks of at most stream._BLOCK_SAMPLES,
    block b of size s being draw(b, s), and are counted one block at a
    time.  In a block, each distinct string's end states are one integer of
    n masks laid end to end (_end_states), so the agreement of two strings
    is the popcount of their AND.  The
    distinct rows' end states are kept for the block; the distinct
    columns' are counted against them as their trie walk reaches them,
    and dropped.  So live memory is one block's tables and rows, however
    many blocks there are.
    """
    n_rows = len(plan.row_ids)
    counts = [[0] * len(plan.col_ids) for _ in range(n_rows)]
    for block, lo in enumerate(range(0, count, stream._BLOCK_SAMPLES)):
        size = min(stream._BLOCK_SAMPLES, count - lo)
        parts = draw(block, size)
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


def block_counts(
    plan: BlockPlan, row_depths: Sequence[int], col_depths: Sequence[int], k: int,
    sample: tuple[int, int] | None = None,
) -> tuple[list[list[list[int]]], list[tuple[int, ...]] | None]:
    """(per_size, mix): one count matrix per size 1..n_top over the plan's
    distinct strings, from the counter that suits the block.

    row_depths[i] and col_depths[j] are the sizes distinct row i and
    distinct column j are counted to: pair (i, j) needs sizes 1..depth,
    with depth = min(row_depths[i], col_depths[j]), and n_top is the
    largest such depth, min(max(row_depths), max(col_depths)).

    - ``sample`` (m, master_seed), Monte Carlo mode: per_size[n - 1] holds
      A_n over the first m tables of n's stream (draw_table_block), and
      mix is None;
    - exact mode while n_top**(n_top*k) is at most _EXHAUSTIVE_LIMIT:
      per_size[m - 1] holds C_m over the accessible m-state tables, and
      A_n = sum_{m <= n} mix[n-1][m-1] * C_m with mix[n-1] the weights
      accessible_weights(n, k);
    - exact mode above the limit: per_size[n - 1] holds A_n from one walk
      per class of pair and depth (_walked_agreement_counts), and mix is
      None.

    An exact block's table cap is checked for its largest term first: the
    table count grows with n, so it decides for every pair.  Entries below
    the diagonal of a symmetric plan stay 0, and so does the walk's A_n for
    a pair whose depth is below n: assembly reads only a pair's first
    depth sizes.
    """
    n_top = min(max(row_depths, default=0), max(col_depths, default=0))
    if sample is not None:
        m, seed = sample
        return [_sliced_agreement_counts(plan, m, partial(stream.draw_table_block, n, k, seed))
                for n in range(1, n_top + 1)], None
    required = table_count(n_top, k) if n_top else 0
    if required > automata.TABLE_CAP:
        raise CapExceededError(required, automata.TABLE_CAP,
                               hint="use monte-carlo mode for large state counts")
    if required > _EXHAUSTIVE_LIMIT:
        return _walked_agreement_counts(plan, row_depths, col_depths, n_top, k), None
    mix = [accessible_weights(n, k) for n in range(1, n_top + 1)]
    return _accessible_agreement_counts(plan, n_top, k), mix


def agreement_matrix(
    rows: Sequence[str], n: int, alphabet: Alphabet, cols: Sequence[str] | None = None,
    sample: tuple[int, int] | None = None,
) -> list[list[int]]:
    """R x C lists of A_n for one state count n: entry (i, j) counts the
    tables on which rows[i] and cols[j] end in the same state (cols
    defaults to rows), out of all n**(n*k) n-state tables, or out of the
    first m tables of n's stream when ``sample`` is (m, master_seed).

    The strings are planned as one block and counted by block_counts to
    depth n each, so the table cap and the choice of counter are those of
    any block; ``mix`` folds accessible counts into A_n.
    """
    if sample is not None and sample[0] < 1:
        raise ValueError(f"sample count must be >= 1, got {sample[0]}")
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    plan = BlockPlan(rows, cols, alphabet)
    per_size, mix = block_counts(plan, [n] * len(plan.row_ids), [n] * len(plan.col_ids),
                                 len(alphabet), sample)
    if mix is None:
        return plan.expand(per_size[-1])
    return plan.expand([[sum(map(operator.mul, mix[-1], cells)) for cells in zip(*lines)]
                        for lines in zip(*per_size)])


# ---------------------------------------------------------------------------
# Exact counter above the limit: the lazy table walk
# ---------------------------------------------------------------------------


def _walk_counts(sx: Sequence[int], sy: Sequence[int], n_top: int, k: int) -> list[int]:
    """[A(1), ..., A(n_top)] for the encoded strings sx and sy over k
    symbols; the caller has checked n_top >= 1 and the table cap.

    A lazy walk (the principle of deferred decisions) at n_top states: x,
    then y, is run from state 0 on a partial table that is filled in only
    when the walk reaches an unassigned cell.  The v states visited so far
    carry the canonical labels 0..v-1.  At an unassigned cell the walk
    branches to each visited state, and to one fresh state labelled v that
    stands for all unvisited states: any relabeling of unvisited states maps
    completions to completions and keeps the end states equal or unequal.

    A finished branch whose two end states agree adds 1 to h[v, c], where
    v is the number of states it visited and c the number of cells it
    assigned.  None of its decisions depends on n except the fresh branches,
    which stand for n - 1, n - 2, ..., n - v + 1 states in turn, and its
    n*k - c unassigned cells are free, so for every n <= n_top

        A(n) = sum_{v <= n} h[v, c] * (n-1)(n-2)...(n-v+1) * n**(n*k - c).

    The walk runs in an x-phase and a y-phase.  When y's last symbol
    reaches an unassigned cell, the branch to visited state r ends at r and
    the fresh branch ends at v; x ended at a visited state end_x < v, so
    exactly one of the branches (r = end_x) agrees, with v states visited
    and c + 1 cells assigned.  That step adds 1 to h[v, c + 1] instead of
    recursing into its branches.
    """
    len_x, len_y = len(sx), len(sy)
    last_y = len_y - 1
    # cell q*k + c holds the successor of state q on symbol c, -1 if unassigned
    table = [-1] * (n_top * k)
    hist = [[0] * (n_top * k + 1) for _ in range(n_top + 1)]

    def walk_y(i: int, q: int, v: int, end_x: int, assigned: int) -> None:
        while i < len_y:
            cell = q * k + sy[i]
            r = table[cell]
            if r < 0:
                break
            q = r
            i += 1
        else:  # y ended on assigned cells
            if q == end_x:
                hist[v][assigned] += 1
            return
        assigned += 1
        if i == last_y:
            # y's last step: end_x < v, so of the branches to visited states
            # exactly r = end_x ends equal, and the fresh state v does not
            hist[v][assigned] += 1
            return
        i += 1
        for r in range(v):
            table[cell] = r
            walk_y(i, r, v, end_x, assigned)
        if v < n_top:
            table[cell] = v
            walk_y(i, v, v + 1, end_x, assigned)
        table[cell] = -1

    def walk_x(i: int, q: int, v: int, assigned: int) -> None:
        while i < len_x:
            cell = q * k + sx[i]
            r = table[cell]
            if r < 0:
                break
            q = r
            i += 1
        else:  # x ended on assigned cells: walk y from state 0
            walk_y(0, 0, v, q, assigned)
            return
        i += 1
        assigned += 1
        for r in range(v):
            table[cell] = r
            walk_x(i, r, v, assigned)
        if v < n_top:
            table[cell] = v
            walk_x(i, v, v + 1, assigned)
        table[cell] = -1

    walk_x(0, 0, 1, 0)
    return [sum(h * _completions(n, k, v, c)
                for v in range(1, n + 1) for c, h in enumerate(hist[v]) if h)
            for n in range(1, n_top + 1)]


def _completions(n: int, k: int, v: int, c: int) -> int:
    """(n-1)(n-2)...(n-v+1) * n**(n*k - c): the n-state tables that
    complete a partial table with v states visited, labelled 0..v-1, and c
    cells assigned.  The labels 1..v-1 name distinct states other than 0,
    and the n*k - c unassigned cells are free."""
    return math.perm(n - 1, v - 1) * n ** (n * k - c)


def _canonical_pair(x: Sequence[int], y: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Representative of the class of the encoded pair (x, y) under symbol
    permutation and swapping, on which every exact value is constant.

    Each order of the pair is relabelled by first appearance of its codes
    (over the first string, then the second) onto 0, 1, ...; the smaller
    of the two relabelled pairs is the representative.
    """

    def relabel(first: Sequence[int], second: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        names: dict[int, int] = {}
        for c in itertools.chain(first, second):
            names.setdefault(c, len(names))
        return tuple(map(names.get, first)), tuple(map(names.get, second))

    return min(relabel(x, y), relabel(y, x))


def _walked_agreement_counts(
    plan: BlockPlan, row_depths: Sequence[int], col_depths: Sequence[int], n_top: int, k: int
) -> list[list[list[int]]]:
    """[A_1, ..., A_n_top] over the distinct rows and columns of the plan,
    as _accessible_agreement_counts lists C_m, from one walk per class of
    the plan's codes: pairs are in one class when their canonical pairs
    under symbol permutation (_canonical_pair) and their depths
    min(row_depths[i], col_depths[j]) agree, and each class is walked once
    to its depth (_walk_counts) and copied to its pairs.  A_n stays 0 for a
    pair whose depth is below n, and below the diagonal of a symmetric
    plan.  The caller has checked the table cap at n_top."""
    rows, cols = plan.row_codes, plan.col_codes
    pairs = [(i, j) for i in range(len(rows))
             for j in range(i if plan.symmetric else 0, len(cols))]
    classes: dict[tuple, int] = {}
    class_of_pair = [
        classes.setdefault((_canonical_pair(rows[i], cols[j]), min(row_depths[i], col_depths[j])),
                           len(classes))
        for i, j in pairs
    ]
    class_counts = [_walk_counts(x, y, depth, k) if depth else [] for (x, y), depth in classes]
    per_n = [[[0] * len(cols) for _ in rows] for _ in range(n_top)]
    for (i, j), c in zip(pairs, class_of_pair):
        for counts, a in zip(per_n, class_counts[c]):
            counts[i][j] = a
    return per_n


# ---------------------------------------------------------------------------
# Exact counter up to the limit: the accessible tables
# ---------------------------------------------------------------------------


def accessible_tables(m: int, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """(count, parts): every accessible m-state table over k symbols in
    canonical labelling, bit-sliced as in draw_table_block: bit t of
    parts[q][c][r] is set when table t maps state q on symbol c to r.

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
    return count, tuple(tuple(tuple(masks[q * k + c]) for c in range(k)) for q in range(m))


@cache
def _accessible_parts(m: int, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """accessible_tables(m, k), built on first use and kept for the
    process: the value is immutable and depends only on (m, k)."""
    return accessible_tables(m, k)


def _accessible_block(m: int, k: int, block: int, size: int) -> list[list[list[int]]]:
    """Tables b*B, ..., b*B + size - 1 (b = block, B = stream._BLOCK_SAMPLES)
    of the accessible m-state tables, bit-sliced as in draw_table_block.
    A block that holds all of them is the kept parts themselves."""
    count, parts = _accessible_parts(m, k)
    if block == 0 and size == count:
        return parts
    lo = block * stream._BLOCK_SAMPLES
    full = (1 << size) - 1
    return [[[(mask >> lo) & full for mask in cell] for cell in row] for row in parts]


@cache
def accessible_weights(n: int, k: int) -> tuple[int, ...]:
    """(w(n, 1), ..., w(n, n)): w(n, m) = (n-1)(n-2)...(n-m+1) * n**((n-m)*k)
    n-state tables have a given accessible m-state table as the part that
    state 0 reaches, relabelled canonically: the completions of a partial
    table with m states visited and all m*k of their cells assigned.  Kept
    for the process, like the tables they weigh."""
    return tuple(_completions(n, k, m, m * k) for m in range(1, n + 1))


def _accessible_agreement_counts(plan: BlockPlan, n_top: int, k: int) -> list[list[list[int]]]:
    """[C_1, ..., C_n_top]: C_m lists, for distinct row i and distinct
    column j of the plan, the accessible m-state tables on which both end
    in the same state, counted by _sliced_agreement_counts."""
    return [
        _sliced_agreement_counts(
            plan, _accessible_parts(m, k)[0], partial(_accessible_block, m, k)
        )
        for m in range(1, n_top + 1)
    ]
