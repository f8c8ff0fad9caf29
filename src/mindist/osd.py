"""Soft-input ordered statistics decoding.

Received samples live on the BPSK axis (bit 0 -> -1, bit 1 -> +1): the
sign of a sample is its hard decision and the magnitude its reliability.
Decoding reduces the generator to identity form on the k most reliable
independent positions (the MRB), re-encodes the hard decisions there, and
reprocesses every error pattern of weight up to the configured order on
those positions, keeping the candidate closest to the received word in
Euclidean distance.

The candidate metric is evaluated as the weighted disagreement with the
hard-decision word (sum of |y_i| over positions where the candidate
differs), which is an affine function of the candidate bits; one matrix
product then scores a whole pattern-weight class at once.  Minimizing it
is algebraically the same as minimizing Euclidean distance or maximizing
the correlation sum((1 - 2 bit_i) * (-y_i)).

The per-decode Gauss-Jordan runs on rows packed into Python ints (cheap
XOR, no per-pivot array traffic); pattern scoring runs vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .errors import ConsistencyError
from .gf2 import BitMatrix, BitWord, pack_rows, unpack_rows

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


_COMBO_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combo_indices(k: int, t: int) -> np.ndarray:
    key = (k, t)
    idx = _COMBO_CACHE.get(key)
    if idx is None:
        idx = np.array(list(combinations(range(k), t)), dtype=np.intp)
        _COMBO_CACHE[key] = idx
    return idx


def _eliminate(rows: list[int], k: int, n: int) -> list[int]:
    """In-place Gauss-Jordan taking the first k independent columns as pivots.

    Returns the pivot column indices in the order taken (ascending).
    """
    piv: list[int] = []
    r = 0
    for c in range(n):
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

    ``decode`` accepts a SoftWord or a float sequence and returns the
    decoded codeword in original position order.  Ties on the candidate
    metric break toward the lexicographically smaller codeword, so
    decoding is deterministic.
    """

    def __init__(self, code: LinearCode, order: int = DEFAULT_ORDER):
        if not 0 <= order <= code.k:
            raise ValueError(f"order {order} outside 0..k = {code.k}")
        self.code = code
        self.order = order
        self._g8 = unpack_rows(code.generator.rows, code.n)
        self._combos = [_combo_indices(code.k, t) for t in range(1, order + 1)]

    def _mrb_reduce(self, arr: np.ndarray):
        """Shared per-word work: reliability sort, reduction, permuted views."""
        code = self.code
        k, n = code.k, code.n
        if arr.shape[0] != n:
            raise ValueError(f"received word length {arr.shape[0]} != n = {n}")
        abs_y = np.abs(arr)
        order_cols = _reliability_order(abs_y)
        rows = pack_rows(self._g8[:, order_cols])
        piv = _eliminate(rows, k, n)
        piv_set = set(piv)
        rest = [c for c in range(n) if c not in piv_set]
        bits = unpack_rows(rows, n)
        perm = np.concatenate([order_cols[piv], order_cols[rest]])
        return bits, piv, rest, perm, abs_y

    def decode(self, y: SoftWord | np.ndarray | Sequence[float]) -> BitWord:
        arr = y.as_array() if isinstance(y, SoftWord) else np.asarray(y, dtype=np.float64)
        k, n = self.code.k, self.code.n
        bits, piv, rest, perm, abs_y = self._mrb_reduce(arr)
        P8 = bits[:, rest]
        y_p = arr[perm]
        abs_p = abs_y[perm]

        h = (y_p > 0).astype(np.uint8)
        u0 = h[:k]
        c0_par = (u0 @ P8) & 1  # uint8 wraparound is mod 256, which preserves parity
        # disagreement with the hard decision; the MRB half of c0 agrees by construction
        disagree = (c0_par ^ h[k:]).astype(np.float64)
        base_cost = float(disagree @ abs_p[k:])
        # flipping candidate bit j changes the cost by +|y_j| where the base
        # agreed with the hard decision and -|y_j| where it disagreed
        w_mrb = abs_p[:k]
        w_par = abs_p[k:] * (1.0 - 2.0 * disagree)

        best_cost = base_cost
        best_pattern: tuple[int, ...] = ()
        best_word: BitWord | None = None  # materialized lazily for tie breaks
        for t, idx in enumerate(self._combos, start=1):
            xp = P8[idx[:, 0]]
            for col in range(1, t):
                xp = xp ^ P8[idx[:, col]]
            costs = w_mrb[idx].sum(axis=1) + xp.astype(np.float64) @ w_par
            costs += base_cost
            c_min = float(costs.min())
            if c_min > best_cost:
                continue
            ties = np.flatnonzero(costs == c_min)
            if len(ties) == 1:
                cand = tuple(int(x) for x in idx[ties[0]])
                cand_word = None
            else:
                cand, cand_word = self._lex_min(idx[ties], u0, P8, perm, n)
            if c_min < best_cost:
                best_cost, best_pattern, best_word = c_min, cand, cand_word
                continue
            # equal cost: the lexicographically smaller codeword wins
            if best_word is None:
                best_word = self._materialize(best_pattern, u0, P8, perm, n)
            if cand_word is None:
                cand_word = self._materialize(cand, u0, P8, perm, n)
            if cand_word.to01() < best_word.to01():
                best_pattern, best_word = cand, cand_word
        if best_word is None:
            best_word = self._materialize(best_pattern, u0, P8, perm, n)
        return best_word

    def _materialize(
        self,
        pattern: tuple[int, ...],
        u0: np.ndarray,
        P8: np.ndarray,
        perm: np.ndarray,
        n: int,
    ) -> BitWord:
        u = u0.copy()
        for i in pattern:
            u[i] ^= 1
        c_perm = np.concatenate([u, (u @ P8) & 1])
        out_bits = 0
        for j in np.flatnonzero(c_perm):
            out_bits |= 1 << int(perm[j])
        return BitWord(n, out_bits)

    def _lex_min(
        self,
        patterns: np.ndarray,
        u0: np.ndarray,
        P8: np.ndarray,
        perm: np.ndarray,
        n: int,
    ) -> tuple[tuple[int, ...], BitWord]:
        """Lexicographically smallest codeword among same-cost patterns.

        Vectorized: equal-cost tie sets are common when many samples share
        one reliability (every non-impulsed position in an impulse probe).
        """
        m, t = patterns.shape
        U = np.repeat(u0[None, :], m, axis=0)
        rows = np.arange(m)
        for col in range(t):
            U[rows, patterns[:, col]] ^= 1
        c_perm = np.concatenate([U, (U @ P8) & 1], axis=1)
        out = np.zeros((m, n), dtype=np.uint8)
        out[:, perm] = c_perm
        # MSB-first packing makes byte order equal bit-lexicographic order
        packed = np.packbits(out, axis=1)
        j = min(range(m), key=lambda i: packed[i].tobytes())
        return tuple(int(x) for x in patterns[j]), BitWord(n, pack_rows(out[j:j + 1])[0])


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
    bits, piv, rest, perm, _ = decoder._mrb_reduce(arr)
    rows = pack_rows(np.concatenate([bits[:, piv], bits[:, rest]], axis=1))
    return BitMatrix(code.n, tuple(rows)), tuple(int(x) for x in perm)
