"""Soft-input ordered statistics decoding.

Received samples live on the BPSK axis (bit 0 -> -1, bit 1 -> +1): the
sign of a sample is its hard decision and the magnitude its reliability.
Decoding reduces the generator to identity form on the k most reliable
independent positions (the MRB), re-encodes the hard decisions there, and
reprocesses every error pattern of weight up to the configured order on
those positions, keeping the candidate closest to the received word in
Euclidean distance.

The candidate metric is the weighted disagreement with the hard-decision
word: the sum of |y_i| over the positions where the candidate differs.
Minimizing it is algebraically the same as minimizing Euclidean distance
or maximizing the correlation sum((1 - 2 bit_i) * (-y_i)).

The Gauss-Jordan pass runs on the generator's rows as Python ints (cheap
XOR, no per-pivot array traffic).  Scoring then covers every flip set of
weight 0..order in one vectorized pass.  The parity part of the reduced
generator is packed into uint64 lanes, ceil((n - k) / 64) per row, and a
flip set's parity change is the XOR of its rows' lanes.  Its cost relative
to the re-encoded hard decisions is read from per-byte lookup tables, each
holding the 256 partial sums of the signed parity weights one byte of a
lane can select, plus a gather of the flipped MRB reliabilities.

Those costs are rounded in an order of their own, so they only pick the
candidates within a float-error tolerance of the least cost.  When more
than one is that close, each is re-scored exactly with ``math.fsum``, and
among equal exact costs the lexicographically smallest codeword wins.  The
decoded word is thus a function of the received word alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .errors import ConsistencyError
from .gf2 import BitMatrix, BitWord, pack_rows, unpack_rows, xor_rows

__all__ = [
    "SoftWord",
    "hard_decision",
    "most_reliable_basis",
    "OsdDecoder",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 3


@dataclass(frozen=True)
class SoftWord:
    """Real-valued received samples; sign = hard decision, magnitude = reliability."""

    values: tuple[float, ...]

    @classmethod
    def from_iterable(cls, values: Sequence[float]) -> "SoftWord":
        return cls(tuple(float(v) for v in values))

    @classmethod
    def bpsk(cls, word: BitWord) -> "SoftWord":
        """Noiseless modulation: bit 0 -> -1.0, bit 1 -> +1.0."""
        return cls(tuple(1.0 if (word.bits >> i) & 1 else -1.0 for i in range(word.length)))

    @classmethod
    def all_zero_channel(cls, n: int) -> "SoftWord":
        """The all-zero codeword on the channel: (-1, -1, ..., -1)."""
        return cls((-1.0,) * n)

    @property
    def length(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def hard_decision(y: SoftWord) -> BitWord:
    """bit i = 1 iff y_i > 0; an exact zero demaps to 0."""
    bits = 0
    for i, v in enumerate(y.values):
        if v > 0:
            bits |= 1 << i
    return BitWord(y.length, bits)


# column j is bit j of the row index: multiplied by one byte's eight weights
# it lists the 256 partial sums that byte value can select
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.float64)

_EPS = float(np.finfo(np.float64).eps)

_PATTERN_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _patterns(k: int, order: int) -> np.ndarray:
    """Every MRB flip set of weight 0..order, one per column, padded with k.

    Columns hold max(order, 1) indices; the padding index k selects an
    all-zero lane and a zero weight, so it flips nothing.
    """
    key = (k, order)
    pat = _PATTERN_CACHE.get(key)
    if pat is None:
        width = max(order, 1)
        rows = [
            c + (k,) * (width - t) for t in range(order + 1) for c in combinations(range(k), t)
        ]
        pat = np.ascontiguousarray(np.array(rows, dtype=np.intp).T)
        _PATTERN_CACHE[key] = pat
    return pat


def _eliminate(rows: list[int], k: int, cols: Sequence[int]) -> list[int]:
    """In-place Gauss-Jordan taking the first k independent columns of
    ``cols``, in that order, as pivots.

    Returns the pivot columns in the order taken; afterwards row i is the
    only row with a 1 in pivot column i.
    """
    piv: list[int] = []
    r = 0
    for c in cols:
        bit = 1 << c
        p = next((i for i in range(r, k) if rows[i] & bit), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        pr = rows[r]
        for i in range(k):
            if i != r and rows[i] & bit:
                rows[i] ^= pr
        piv.append(c)
        r += 1
        if r == k:
            break
    if r != k:
        raise ConsistencyError(f"generator lost rank during reduction: {r} < k = {k}")
    return piv


def _reliability_order(abs_y: np.ndarray) -> np.ndarray:
    # stable sort on negated magnitudes: ties go to the lower original index
    return np.argsort(-abs_y, kind="stable")


class OsdDecoder:
    """Reusable order-l decoder for one code.

    ``decode`` accepts a SoftWord or a float sequence of finite samples and
    returns the decoded codeword in original position order.  Every flip
    set of weight up to the order is scored in one pass over packed parity
    lanes with per-byte lookup tables.  The winner is the candidate of
    least exact cost (``math.fsum`` of |y_i| where it differs from the hard
    decision); ties on that cost break toward the lexicographically smaller
    codeword, so the result is a function of y alone.
    """

    def __init__(self, code: LinearCode, order: int = DEFAULT_ORDER):
        if not 0 <= order <= code.k:
            raise ValueError(f"order {order} outside 0..k = {code.k}")
        self.code = code
        self.order = order
        self._patterns = _patterns(code.k, order)

    def _mrb_reduce(self, arr: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Shared per-word work: reliability sort and reduction on the MRB.

        Returns (rows, perm, |y|).  perm lists the MRB positions, then the
        others in decreasing reliability; rows are the generator rows, in
        original position order, reduced so that row i is the only one with
        a 1 at position perm[i] among the MRB.
        """
        code = self.code
        k, n = code.k, code.n
        if arr.shape[0] != n:
            raise ValueError(f"received word length {arr.shape[0]} != n = {n}")
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"received sample {i} is not finite: {arr[i]}")
        abs_y = np.abs(arr)
        cols = _reliability_order(abs_y).tolist()
        rows = list(code.generator.rows)
        piv = _eliminate(rows, k, cols)
        piv_set = set(piv)
        perm = np.array(piv + [c for c in cols if c not in piv_set], dtype=np.intp)
        return rows, perm, abs_y

    def decode(self, y: SoftWord | np.ndarray | Sequence[float]) -> BitWord:
        arr = y.as_array() if isinstance(y, SoftWord) else np.asarray(y, dtype=np.float64)
        k, n = self.code.k, self.code.n
        rows, perm, abs_y = self._mrb_reduce(arr)
        P8 = unpack_rows(rows, n)[:, perm[k:]]
        abs_p = abs_y[perm]
        h = arr > 0
        h_p = h[perm]
        # disagreement of the re-encoded hard decisions with h; the MRB half
        # agrees by construction
        disagree = ((h_p[:k].astype(np.uint8) @ P8) & 1) ^ h_p[k:]

        # parity rows as little-endian bytes in uint64 lanes, one lane-major
        # array per lane, plus the zero row that the padding index k selects
        nbytes = (n - k + 7) // 8
        nlanes = (nbytes + 7) // 8
        packed = np.zeros((k + 1, 8 * nlanes), dtype=np.uint8)
        packed[:k, :nbytes] = np.packbits(P8, axis=1, bitorder="little")
        lanes = np.ascontiguousarray(packed.view(np.uint64).T)
        pat = self._patterns
        xp = np.take(lanes, pat[0], axis=1)
        for col in pat[1:]:
            xp ^= np.take(lanes, col, axis=1)
        xb = xp.view(np.uint8).reshape(nlanes, -1, 8)

        # cost minus the base cost: flipping bit j adds |y_j| where the base
        # agreed with the hard decision and subtracts it where it disagreed
        w_mrb = np.append(abs_p[:k], 0.0)
        w_par = np.zeros(nbytes * 8)
        w_par[: n - k] = abs_p[k:] * (1.0 - 2.0 * disagree)
        tables = w_par.reshape(nbytes, 8) @ _BYTE_BITS.T
        costs = np.take(w_mrb, pat[0])
        for col in pat[1:]:
            costs += np.take(w_mrb, col)
        for b in range(nbytes):
            costs += np.take(tables[b], xb[b >> 3, :, b & 7].astype(np.intp))

        # each cost sums terms whose magnitudes add up to at most sum(|y|)
        # in a tree of depth at most 8 + nbytes + width, so its rounding
        # error is below tol / 2: a candidate more than tol above the least
        # cost cannot tie the best candidate exactly
        depth = 8 + nbytes + len(pat)
        tol = 2.0 * depth * _EPS * float(abs_y.sum())
        near = np.flatnonzero(costs <= costs.min() + tol)

        u0 = pack_rows(h_p[None, :k])[0]
        words = [
            xor_rows(rows, u0 ^ sum(1 << i for i in flips if i < k))
            for flips in pat[:, near].T.tolist()
        ]
        if len(words) == 1:
            return BitWord(n, words[0])
        # exact costs: sum |y_i| over the positions where a word differs
        # from the hard decision, correctly rounded
        h_bits = pack_rows(h[None])[0]
        abs_list = abs_y.tolist()
        exact = []
        for w in words:
            diff = w ^ h_bits
            exact.append(math.fsum(a for i, a in enumerate(abs_list) if (diff >> i) & 1))
        least = min(exact)
        tied = [BitWord(n, w) for w, c in zip(words, exact) if c == least]
        return min(tied, key=BitWord.to01)


def most_reliable_basis(
    code: LinearCode, y: SoftWord | np.ndarray | Sequence[float]
) -> tuple[BitMatrix, tuple[int, ...]]:
    """Systematic generator on the k most reliable independent positions.

    Returns (G', perm): G' is k x n with an identity on its first k
    columns, and perm maps G' column j to the original position index.
    The first k entries of perm are the MRB; positions skipped as
    dependent land among the trailing columns, which keep decreasing
    reliability order.
    """
    decoder = OsdDecoder(code, order=0)
    arr = y.as_array() if isinstance(y, SoftWord) else np.asarray(y, dtype=np.float64)
    rows, perm, _ = decoder._mrb_reduce(arr)
    gsys = pack_rows(unpack_rows(rows, code.n)[:, perm])
    return BitMatrix(code.n, tuple(gsys)), tuple(int(x) for x in perm)
