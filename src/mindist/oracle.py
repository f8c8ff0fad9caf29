"""Exact minimum distance by exhaustive enumeration of all 2^k codewords.

The sweep follows the reflected Gray sequence over information words, so
consecutive codewords differ by one generator row.  The k-bit Gray counter
is split into a low block of L = min(k, 16) bits and a high block of k - L
bits.

The low block is a table of the 2^L partial codewords in Gray order,
packed into uint64 lanes and stored lane-major (one row of 2^L words per
64 code bits).  It is built by reflection, one numpy call per low bit:
entries h..2h-1 are entries h-1..0 in reverse, each XORed with row
log2(h).

The high block is walked one Gray step at a time.  Each step XORs one
generator row into every table entry in place, so the table always holds
the current block's codewords.  The block is then scored into buffers
allocated once per call: a uint8 popcount per lane, summed over lanes
into the narrowest unsigned dtype that holds the sentinel weight n + 1.
With one lane (n <= 64) the popcount buffer is the weight buffer.
``argmin`` runs only when a block improves the best weight.

The visit order is exactly the single Gray chain (odd high blocks run
the low table in reverse), so "first codeword attaining the minimum" is
well defined and deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
from .errors import BudgetError
from .gf2 import BitWord, unpack_rows
from .results import DistanceEstimate

__all__ = ["ExactResult", "exact_min_distance", "exact_enumerator", "run", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 32

_LOW_BLOCK_BITS = 16


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exhaustive sweep.

    ``witness`` is the first codeword of minimum weight in sweep order.
    ``enumerator`` maps weight -> codeword count (weight 0 included) when
    collection was requested, else None.  ``enumerated`` counts the
    codewords visited (always 2^k).
    """

    d_exact: int
    witness: BitWord
    enumerator: dict[int, int] | None
    enumerated: int


def exact_min_distance(
    code: LinearCode,
    budget: int = DEFAULT_BUDGET,
    collect_enumerator: bool = False,
) -> ExactResult:
    """Minimum weight over all nonzero information words, with witness.

    Refuses to run when k exceeds ``budget`` (default 32) because the
    sweep visits 2^k codewords.
    """
    k, n = code.k, code.n
    if k > budget:
        raise BudgetError(
            f"k = {k} exceeds oracle budget {budget}: the sweep would visit "
            f"2^{k} = {1 << k} codewords"
        )
    lanes = (n + 63) // 64
    bits = unpack_rows(code.generator.rows, 64 * lanes)
    rows_u = np.packbits(bits, axis=1, bitorder="little").view("<u8")

    low = min(k, _LOW_BLOCK_BITS)
    high = k - low
    size = 1 << low

    # low-block table in Gray order, lane-major: column j = codeword of
    # gray(j) over rows[:low]; gray(j) for h <= j < 2h is gray(2h-1-j) | h
    table = np.zeros((lanes, size), dtype=np.uint64)
    for i in range(low):
        h = 1 << i
        np.bitwise_xor(table[:, h - 1::-1], rows_u[i, :, None], out=table[:, h:2 * h])

    counts = np.zeros(n + 1, dtype=np.int64) if collect_enumerator else None
    sentinel = n + 1
    # block buffers, allocated once; the weight dtype holds the sentinel
    lane_w = np.empty((lanes, size), dtype=np.uint8)
    w = lane_w[0] if lanes == 1 else np.empty(size, dtype=np.min_scalar_type(sentinel))
    best_w = sentinel
    best_block = best_pos = 0

    for b in range(1 << high):
        if b:
            # high Gray step b-1 -> b flips one row into every table entry
            row = rows_u[low + (b & -b).bit_length() - 1, :, None]
            np.bitwise_xor(table, row, out=table)
        np.bitwise_count(table, out=lane_w)
        if lanes > 1:
            np.add.reduce(lane_w, axis=0, dtype=w.dtype, out=w)
        if counts is not None:
            counts += np.bincount(w, minlength=n + 1)
        if b == 0:
            w[0] = sentinel  # the all-zero information word
        block_min = int(w.min())
        if block_min < best_w:
            best_w = block_min
            if b & 1:
                # odd high blocks are visited in reflected (reverse) order
                pos = len(w) - 1 - int(np.argmin(w[::-1]))
            else:
                pos = int(np.argmin(w))
            best_block, best_pos = b, pos

    info_bits = ((best_block ^ (best_block >> 1)) << low) | (best_pos ^ (best_pos >> 1))
    witness = code.encode(BitWord(k, info_bits))

    enumerator = None
    if counts is not None:
        enumerator = {wt: int(c) for wt, c in enumerate(counts) if c}
    return ExactResult(
        d_exact=best_w,
        witness=witness,
        enumerator=enumerator,
        enumerated=1 << k,
    )


def exact_enumerator(code: LinearCode, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Same sweep with the full weight enumerator populated."""
    return exact_min_distance(code, budget=budget, collect_enumerator=True)


def run(
    code: LinearCode,
    budget: int = DEFAULT_BUDGET,
    collect_enumerator: bool = False,
) -> DistanceEstimate:
    """The exact method's certified record; ``config`` holds the budget the
    sweep ran under, and the enumerator, when collected, is its one event."""
    started = time.perf_counter()
    res = exact_min_distance(code, budget=budget, collect_enumerator=collect_enumerator)
    events = []
    if res.enumerator is not None:
        events.append({"kind": "enumerator",
                       "counts": {str(w): c for w, c in sorted(res.enumerator.items())}})
    return DistanceEstimate.of(
        code, "exact", res.d_exact, res.witness,
        config={"budget": budget, "enumerator": bool(collect_enumerator)},
        rng_seed=None, started=started, events=events,
    )
