"""The Monte Carlo sample: a SHAKE-256 stream of transition tables, and the
package's one DFA sampler.

The sample of state count n is a stream, not a stored array: its tables
come in blocks of a fixed _BLOCK_SAMPLES, and each cell of a block is
drawn from SHAKE-256 (FIPS 202) keyed by (master_seed, n, block, cell,
round, bit-plane), as bit-planes with one bit per table
(draw_table_block).  So the first m tables are the same for every m, and a
replay does not depend on any library's generator.

sample_dfas decodes the stream's tables one at a time, with accepting
sets from a second SHAKE-256 stream keyed by (master_seed, n, block,
state) (draw_accept_block).  ``regkernel sample`` writes them, so the
sample behind any Monte Carlo run can be inspected.

hashlib is imported by the two draws only, so importing this module, and
every exact command, loads none of it.
"""

from __future__ import annotations

import operator
import struct
from typing import TYPE_CHECKING, Iterator

from .automata import Alphabet, Dfa

if TYPE_CHECKING:
    import numpy as np

_SEED_MASK = (1 << 64) - 1
_STREAM_DOMAIN = b"regkernel.sample.v4"
_ACCEPT_DOMAIN = b"regkernel.accept.v1"
# Tables per block of the Monte Carlo stream.  It is part of the stream
# format, not a tuning knob: a table's cells are keyed by its block and
# drawn at its position in the block.
_BLOCK_SAMPLES = 1 << 14


def check_seed(seed: int) -> int:
    """The master seed as a Python int, refused unless it is an integer in
    [0, 2**64): the streams key on its 64 bits, so 2**64 would silently
    replay seed 0, a float would fail at the first draw, and a numpy
    integer would overflow in it."""
    try:
        seed = operator.index(seed)
    except TypeError as e:
        raise ValueError(f"seed must be an integer: {e}") from e
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def draw_table_block(
    n: int, k: int, master_seed: int, block: int, size: int
) -> list[list[list[int]]]:
    """Tables b*B, ..., b*B + size - 1 (b = block, B = _BLOCK_SAMPLES) of
    the shared sample of n-state tables, bit-sliced: bit t of
    parts[q][c][r] is set when table b*B + t maps state q on symbol c to r.

    Each cell (q, c) of a block is drawn by rejection in rounds.  A round
    reads ceil(log2 n) bit-planes, bit-plane p being the first ceil(size/8)
    bytes of SHAKE-256 over the domain tag, then master_seed, n, block, q,
    c, the round and p as little-endian u64s.  Bit t of a plane (little
    endian) belongs to table t of the block, whose value in that round is
    the sum of bit_p << p.  A table takes the first value below n it
    reads, so every cell is uniform on range(n), independent of the others.
    n = 1 draws nothing.  No bit depends on size, so the sample of m
    tables is a prefix of the sample of any larger m.
    """
    from hashlib import shake_256

    full = (1 << size) - 1
    planes = (n - 1).bit_length()
    head = _STREAM_DOMAIN + struct.pack("<3Q", master_seed & _SEED_MASK, n, block)
    nbytes = (size + 7) // 8
    parts = []
    for q in range(n):
        row = []
        for c in range(k):
            cell = [0] * n
            pending, rnd = full, 0
            while pending:
                # groups[v] holds the pending tables that read value v this round
                groups = [pending]
                for p in reversed(range(planes)):
                    key = head + struct.pack("<4Q", q, c, rnd, p)
                    bits = int.from_bytes(shake_256(key).digest(nbytes), "little")
                    groups = [g for whole in groups for g in (whole ^ (whole & bits), whole & bits)]
                for r in range(n):
                    cell[r] |= groups[r]
                pending = 0
                for rejected in groups[n:]:
                    pending |= rejected
                rnd += 1
            row.append(cell)
        parts.append(row)
    return parts


def draw_accept_block(n: int, master_seed: int, block: int, size: int) -> list[int]:
    """Accepting sets of DFAs b*B, ..., b*B + size - 1 of the sample,
    bit-sliced: bit t of masks[q] is set when state q of DFA b*B + t
    accepts.  masks[q] is the first ceil(size/8) bytes, little endian, of
    SHAKE-256 over its own domain tag, then master_seed, n, block and q as
    little-endian u64s.  The kernel integrates these bits out and never
    reads them."""
    from hashlib import shake_256

    head = _ACCEPT_DOMAIN + struct.pack("<3Q", master_seed & _SEED_MASK, n, block)
    nbytes = (size + 7) // 8
    full = (1 << size) - 1
    return [
        int.from_bytes(shake_256(head + struct.pack("<Q", q)).digest(nbytes), "little")
        & full
        for q in range(n)
    ]


def sample_dfas(n: int, alphabet: Alphabet, master_seed: int, count: int) -> Iterator[Dfa]:
    """Yield the first ``count`` DFAs of the sample of (master_seed, n):
    DFA t has table t of the stream the Monte Carlo kernel counts
    (draw_table_block) and the accepting set of bit t of draw_accept_block,
    so it is uniform on the n**(n*k) * 2**n DFAs of n states."""
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    master_seed = check_seed(master_seed)
    k = len(alphabet)
    for block, lo in enumerate(range(0, count, _BLOCK_SAMPLES)):
        size = min(_BLOCK_SAMPLES, count - lo)
        parts = draw_table_block(n, k, master_seed, block, size)
        accepts = draw_accept_block(n, master_seed, block, size)
        for t in range(size):
            table = [[next(r for r, part in enumerate(cell) if part >> t & 1) for cell in row]
                     for row in parts]
            accepting = frozenset(q for q, mask in enumerate(accepts) if mask >> t & 1)
            yield Dfa(n=n, alphabet=alphabet, table=table, accepting=accepting)


def sample_dfa(n: int, alphabet: Alphabet, rng: np.random.Generator) -> Dfa:
    """DFA 0 of the sample of a 64-bit seed taken from a caller-owned numpy
    Generator: uniform, and deterministic given the generator's state."""
    return next(sample_dfas(n, alphabet, int(rng.integers(2**64, dtype="uint64")), 1))
