"""Soft-input ordered statistics decoding.

A received word is a float64 array of samples on the BPSK axis (bit 0 ->
-1, bit 1 -> +1): the sign of a sample is its hard decision and the
magnitude its reliability.
Decoding reduces the generator to identity form on the k most reliable
independent positions (the MRB), re-encodes the hard decisions there, and
reprocesses every error pattern of weight up to the configured order on
those positions, keeping the candidate closest to the received word in
Euclidean distance.

The candidate metric is the weighted disagreement with the hard-decision
word: the sum of |y_i| over the positions where the candidate differs.
Minimizing it is algebraically the same as minimizing Euclidean distance
or maximizing the correlation sum((1 - 2 bit_i) * (-y_i)).

The MRB reduction (``gf2.eliminate``) runs on the generator's rows as
Python ints (cheap XOR, no per-pivot array traffic), and starts from a
basis each decoder caches.
The cached basis is the reduction of a word whose samples all tie: the
stable sort walks its columns in index order, and the decoder keeps the k
rows, each the only row with a 1 at its unit column.  A word is
reduced from those rows by walking its reliability order, one column at a
time.  If the column is the unit column of a row not yet fixed, that row
becomes the next pivot by a swap, with no XOR.  Otherwise the column takes
a Gauss-Jordan step: the first unfixed row with a 1 there becomes the
pivot and is XORed into every other row with that bit, and its own unit
column is dropped.  The result is bit for bit that of a reduction from the
generator's own rows.  The pivots, the first k independent columns in
reliability order, depend only on which sets of columns are independent,
and the reduced generator, G[:, piv]^-1 G, depends only on the row space
and the pivots, not on the basis the reduction starts from.  Most samples
of an impulse word are exactly -1 and the stable sort keeps them in index
order, so most pivots are unit columns of the cached basis, and only the
few columns the impulses move cost XORs.

Every candidate is an int codeword in original position order.  The
re-encoded hard decisions c0 are one XOR of the reduced rows, those of the
pivots where the hard decisions are 1, and a flip set's codeword is c0
XORed with its rows.  Only two arrays are gathered in MRB order: the
parity columns, and the reliabilities of the MRB positions.

The parity part of the reduced generator is then packed into uint64 lanes,
ceil((n - k) / 64) per row, and a flip set's parity change is the XOR of
its rows' lanes.  Its cost relative to the re-encoded hard decisions is
read from per-byte lookup tables, each holding the 256 partial sums of the
signed parity weights one byte of a lane can select, plus a gather of the
flipped MRB reliabilities.

Scoring takes two vectorized passes.  The first covers every flip set of
weight below the order.  The second covers the flip sets of weight equal
to the order, and runs only when the sum of the ``order`` least reliable
MRB positions is at most the base cost (that of the re-encoded hard
decisions) plus the least cost found so far plus twice the tie tolerance
below, and the post-order certificate below does not end the decode.  Any
such candidate differs from the hard decisions at its flipped MRB
positions, so that sum is a floor on its exact cost; when the floor is
higher, no candidate of the top order can come within the tolerance of the
least cost, and skipping the order leaves the decoded word unchanged.  On
impulse words (the all-zero word plus a few strong samples) most decodes
skip it, and the top order holds most of the flip sets.

Those costs are rounded in an order of their own, so they only pick the
candidates within a float-error tolerance of the least cost.  When more
than one is that close, each is re-scored exactly with ``math.fsum``, and
among equal exact costs the lexicographically smallest codeword wins.  The
decoded word is thus a function of the received word alone.

Two certificates prove that a candidate is the word full reprocessing
returns.  Both rest on one test.  Let c be a candidate, D1 the positions
where it differs from the hard decisions, and d_lb a lower bound on the
minimum distance, ``oracle.lower_bound(code)``: the bound of a search
capped at 2^``oracle.LOWER_BOUND_BUDGET`` combinations that starts from
``codes.identify``'s ``lower`` (the BCH or square-root bound, from the
generator), run once per code.  It is d on every criterion-4 code, where
``identify`` alone gives 1 to QDC(24,12) and 9 to QR(73,37), against
d = 8 and 13; the larger d_lb, the more often both tests below hold.  Any other codeword differs from c at d_lb or more positions
(their XOR is a nonzero codeword), at most |D1| of them in D1, so at
need = d_lb - |D1| or more positions outside D1.  There c agrees with
the hard decisions and the other codeword does not, so each such
position adds its |y_i| to that codeword's cost, which is therefore at
least the sum of the need smallest |y_i| outside D1.  The test is that
c's exact cost, the ``fsum`` of |y_i| over D1, is strictly below the
``fsum`` of that floor; it fails outright when need <= 0.  Correct
rounding is monotone: the strict test on the two rounded sums implies it
on the real sums, and every other codeword's rounded exact cost is at
least the rounded floor, so above c's.  c is then the unique codeword of
least exact cost.  Full reprocessing would return it: its LUT cost lies
within tol / 2 of its exact cost minus base, and any candidate of lower
LUT cost has a higher exact cost, so c lies within tol of the least LUT
cost, in the near set, where exact costs decide.

The zero certificate is MIM's test, run before a word is built: c is the
all-zero word, and D1 the P positions whose samples are above 0.  It
applies only when P <= order, since the zero word is then at most P MRB
flips from the hard decisions and so a candidate.  ``zero_certified``
takes the samples above 0 and the other magnitudes, so it needs no word:
MIM asks it of each probe's impulse list (the all-zero channel word plus
a few impulses, ``mim._certified``), and decodes only the probes it does
not certify.  ``decode`` does not run it: every word it is given is
reduced and scored.

The post-order certificate runs after the flip sets of weight below the
order, and only where the floor test above would score the top order: c
is the codeword of the scored flip set of least LUT cost (Taipale and
Pursley, IEEE T-IT 1991; Fossorier and Lin, IEEE T-IT 1995).  When it
holds, the decode returns c and skips the top order and the tie-break.
c is built once, as an int codeword, and D1 is c ^ h, with h the hard
decisions packed once per decode; when the test holds, that same c is
returned.  The size of D1, a popcount, comes first: with a weak bound need
is often at most 0 (with |D1| >= d_lb), and the test then ends before the
floor is gathered.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .errors import ConsistencyError
from .gf2 import BitMatrix, BitWord, eliminate, pack_rows, unpack_rows, xor_rows
from .oracle import lower_bound

__all__ = [
    "hard_decision",
    "most_reliable_basis",
    "OsdDecoder",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 3


def hard_decision(y: np.ndarray | Sequence[float]) -> BitWord:
    """bit i = 1 iff y_i > 0; an exact zero demaps to 0."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"received word of shape {arr.shape} is not a vector")
    return BitWord(len(arr), pack_rows((arr > 0)[None])[0])


# column j is bit j of the row index: multiplied by one byte's eight weights
# it lists the 256 partial sums that byte value can select
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.float64)

_EPS = float(np.finfo(np.float64).eps)


@cache
def _patterns(k: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The MRB flip sets of weight below ``order``, and those of weight
    ``order``, as two index tables with one flip set per column.

    The tables have max(order - 1, 1) and max(order, 1) rows; shorter flip
    sets are padded with k, which selects an all-zero lane and a zero
    weight, so it flips nothing.
    """

    def table(weights: range, width: int) -> np.ndarray:
        rows = [c + (k,) * (width - t) for t in weights for c in combinations(range(k), t)]
        return np.ascontiguousarray(np.array(rows, dtype=np.intp).reshape(-1, width).T)

    return table(range(order), max(order - 1, 1)), table(range(order, order + 1), max(order, 1))


def _score(
    pat: np.ndarray, lanes: np.ndarray, w_mrb: np.ndarray, tables: np.ndarray
) -> np.ndarray:
    """LUT cost, relative to the re-encoded hard decisions, of each flip set
    (column) of ``pat``: the XOR of its rows' parity lanes read byte by byte
    through ``tables``, plus its flipped MRB weights."""
    xp = np.take(lanes, pat[0], axis=1)
    for col in pat[1:]:
        xp ^= np.take(lanes, col, axis=1)
    xb = xp.view(np.uint8).reshape(len(lanes), -1, 8)
    costs = np.take(w_mrb, pat[0])
    for col in pat[1:]:
        costs += np.take(w_mrb, col)
    for b, table in enumerate(tables):
        costs += np.take(table, xb[b >> 3, :, b & 7].astype(np.intp))
    return costs


def _received(n: int, y: np.ndarray | Sequence[float]) -> np.ndarray:
    """``y`` as a float64 array, checked to be a length-n vector of finite
    samples."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"received word of shape {arr.shape} is not a length-{n} vector")
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"received sample {i} is not finite: {arr[i]}")
    return arr


def _mrb_reduce(
    rows: Sequence[int], units: Sequence[int | None], arr: np.ndarray
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Shared per-word work: reliability sort and reduction on the MRB.

    Reduces copies of ``rows`` on the k most reliable independent positions
    of the received samples ``arr`` (checked by ``_received``).  ``units``
    gives each row's unit column, or None (see ``gf2.eliminate``): a decoder
    passes its cached basis, whose unit columns make most pivots of an
    impulse word a row swap; ``most_reliable_basis``, and a decoder building
    that basis, pass the generator's own rows with none.  Returns (rows,
    perm, |y|).  perm lists the MRB positions, then the others in
    decreasing reliability; rows are in original position order, reduced
    so that row i is the only one with a 1 at position perm[i] among the
    MRB.  Both starts give the same result:
    the pivots depend only on the code and the reliability order, and the
    reduced rows, G[:, piv]^-1 G, only on the row space and the pivots.
    """
    abs_y = np.abs(arr)
    cols = _reliability_order(abs_y).tolist()
    rows, piv = list(rows), list(units)
    r = eliminate(rows, piv, cols)
    if r < len(rows):
        raise ConsistencyError(f"generator lost rank during reduction: {r} < k = {len(rows)}")
    piv_set = set(piv)
    perm = np.array(piv + [c for c in cols if c not in piv_set], dtype=np.intp)
    return rows, perm, abs_y


def _beats_floor(on: list[float], off: list[float], need: int) -> bool:
    """Whether the ``fsum`` of ``on`` is below the ``fsum`` of the ``need``
    smallest entries of ``off``, for 0 < need <= len(off).

    Both certificates end in this test: ``on`` holds the |y_i| where a
    candidate differs from the hard decisions and ``off`` the other |y_i|,
    and every other codeword differs from the candidate at ``need`` or more
    of the ``off`` positions.
    """
    return math.fsum(on) < math.fsum(sorted(off)[:need])


def _reliability_order(abs_y: np.ndarray) -> np.ndarray:
    # stable sort on negated magnitudes: ties go to the lower original index
    return np.argsort(-abs_y, kind="stable")


class OsdDecoder:
    """Reusable order-l decoder for one code.

    ``decode`` accepts a float array or sequence of finite samples and
    returns the decoded codeword in original position order.  Flip sets are
    scored over packed parity lanes with per-byte lookup tables: first those
    of weight below the order, then those of weight equal to it, unless the
    sum of the ``order`` smallest MRB reliabilities already exceeds the base
    cost plus the least cost so far by more than twice the tie tolerance.
    Such flip sets cannot tie the best candidate, so the skip never changes
    the result.  The winner is the candidate of least exact cost
    (``math.fsum`` of |y_i| where it differs from the hard decision); ties
    on that cost break toward the lexicographically smaller codeword, so the
    result is a function of y alone.  Every word is reduced from a basis
    the decoder builds once with ``_mrb_reduce``: the reduction of a word
    whose samples all tie, whose columns the stable sort walks in index
    order.  Every candidate is an int codeword in original position order,
    the re-encoded hard decisions XORed with the rows of its flip set.

    d_lb is ``oracle.lower_bound(code)``, d itself on the criterion-4
    codes, computed once per code.  Where the top order would be
    scored, the best flip set c of lower weight returns without it when
    its cost is below the sum of the d_lb - |D1| smallest magnitudes off
    D1, the positions where c differs from the hard decisions (c ^ h, with
    h the hard decisions packed once): that sum is a floor on the cost of
    every other codeword.  ``zero_certified`` is
    the same test on the all-zero word, for MIM's impulse lists.  The
    module docstring has the proofs, rounding included.  The decoded word
    is the one full reprocessing returns.
    """

    def __init__(self, code: LinearCode, order: int = DEFAULT_ORDER):
        if not 0 <= order <= code.k:
            raise ValueError(f"order {order} outside 0..k = {code.k}")
        self.code = code
        self.order = order
        self._patterns = _patterns(code.k, order)
        rows, perm, _ = _mrb_reduce(code.generator.rows, [None] * code.k, np.ones(code.n))
        self._basis = (tuple(rows), tuple(perm[: code.k].tolist()))
        self._d_lb = lower_bound(code)

    def zero_certified(self, on: list[float], off: list[float], ones: int = 0) -> bool:
        """Whether the all-zero word is provably the decoded word of a
        received word whose samples above 0 are ``on``, and whose other
        samples have the magnitudes ``off`` and, at ``ones`` more positions,
        exactly 1.0.

        With P = len(on), it is when P <= order and the zero word's cost,
        the sum of ``on``, is below the sum of the d_lb - P smallest of the
        other magnitudes (see the module docstring).  When P >= d_lb that
        sum is empty and the test fails: the zero word's cost is then above
        0.  MIM asks it of a probe's impulse list, with the untouched
        positions as ``ones``.
        """
        need = self._d_lb - len(on)
        if len(on) > self.order or need <= 0:
            return False
        if ones:
            off = off + [1.0] * min(ones, need)
        return _beats_floor(on, off, need)

    def decode(self, y: np.ndarray | Sequence[float]) -> BitWord:
        k, n = self.code.k, self.code.n
        arr = _received(n, y)
        rows, perm, abs_y = _mrb_reduce(*self._basis, arr)
        h = arr > 0
        h_bits = pack_rows(h[None])[0]
        # the re-encoded hard decisions, and where they disagree with the
        # hard decisions: never on the MRB
        c0 = xor_rows(rows, pack_rows(h[perm[:k]][None])[0])
        off0 = unpack_rows([c0 ^ h_bits], n)[0].view(bool)

        # parity rows as little-endian bytes in uint64 lanes, one lane-major
        # array per lane, plus the zero row that the padding index k selects
        nbytes = (n - k + 7) // 8
        nlanes = (nbytes + 7) // 8
        packed = np.zeros((k + 1, 8 * nlanes), dtype=np.uint8)
        packed[:k, :nbytes] = np.packbits(
            unpack_rows(rows, n)[:, perm[k:]], axis=1, bitorder="little"
        )
        lanes = np.ascontiguousarray(packed.view(np.uint64).T)

        # cost minus the base cost: flipping bit j adds |y_j| where the base
        # agreed with the hard decision and subtracts it where it disagreed
        w_mrb = np.append(abs_y[perm[:k]], 0.0)
        w_par = np.zeros(nbytes * 8)
        w_par[: n - k] = np.where(off0, -abs_y, abs_y)[perm[k:]]
        tables = w_par.reshape(nbytes, 8) @ _BYTE_BITS.T

        # each cost sums terms whose magnitudes add up to at most sum(|y|)
        # in a tree of depth at most 8 + nbytes + width, so its rounding
        # error is below tol / 2: a candidate more than tol above the least
        # cost cannot tie the best candidate exactly
        order = self.order
        depth = 8 + nbytes + max(order, 1)
        tol = 2.0 * depth * _EPS * float(abs_y.sum())
        low, top = self._patterns
        scored = [(low, _score(low, lanes, w_mrb, tables))] if order else []
        least = min((float(c.min()) for _, c in scored), default=math.inf)

        def word(flips: Sequence[int]) -> int:
            return c0 ^ xor_rows(rows, sum(1 << i for i in flips if i < k))

        # Score the weight-order flip sets only if one of them can come
        # within tol of the least cost.  Such a candidate differs from the
        # hard decisions at each of its flipped MRB positions, so its exact
        # cost is at least floor, the sum of the ``order`` smallest MRB
        # reliabilities (those of perm[:k] are non-increasing), and its LUT
        # cost is within tol / 2 of that exact cost minus base, the exact
        # cost of the re-encoded hard decisions.  Both sums are correctly
        # rounded, so when floor > base + least + 2 tol every skipped LUT
        # cost lies more than tol above least (the few roundings here stay
        # far below the tol / 2 to spare): none of them could enter the near
        # set, and the decoded word is the one full scoring would return.
        floor = math.fsum(abs_y[perm[k - order : k]].tolist())
        base = math.fsum(abs_y[off0].tolist())
        if floor <= base + least + 2.0 * tol:
            # Unless the post-order certificate holds: c, the codeword of
            # least LUT cost so far, differs from the hard decisions on D1,
            # and every other codeword differs from c at d_lb or more
            # positions, need or more of them outside D1.  When c's exact
            # cost is below the sum of the need smallest |y_i| there, c is
            # the decoded word (module docstring).
            if scored:
                c = word(low[:, int(np.argmin(scored[0][1]))].tolist())
                d1 = c ^ h_bits
                need = self._d_lb - d1.bit_count()
                if need > 0:
                    on = unpack_rows([d1], n)[0].view(bool)
                    if _beats_floor(abs_y[on].tolist(), abs_y[~on].tolist(), need):
                        return BitWord(n, c)
            scored.append((top, _score(top, lanes, w_mrb, tables)))
            least = min(least, float(scored[-1][1].min()))

        words = [
            word(flips)
            for pat, costs in scored
            for flips in pat[:, np.flatnonzero(costs <= least + tol)].T.tolist()
        ]
        if len(words) == 1:
            return BitWord(n, words[0])
        # exact costs: sum |y_i| over the positions where a word differs
        # from the hard decision, correctly rounded
        diffs = unpack_rows([w ^ h_bits for w in words], n).view(bool)
        exact = [math.fsum(abs_y[diff].tolist()) for diff in diffs]
        best = min(exact)
        tied = [BitWord(n, w) for w, c in zip(words, exact) if c == best]
        return min(tied, key=BitWord.to01)


def most_reliable_basis(
    code: LinearCode, y: np.ndarray | Sequence[float]
) -> tuple[BitMatrix, tuple[int, ...]]:
    """Systematic generator on the k most reliable independent positions.

    Returns (G', perm): G' is k x n with an identity on its first k
    columns, and perm maps G' column j to the original position index.
    The first k entries of perm are the MRB; positions skipped as
    dependent land among the trailing columns, which keep decreasing
    reliability order.

    A reference, kept public on purpose: no runner calls it (the decoder
    calls ``_mrb_reduce`` itself), but ``reference_decode`` in
    ``tests/test_osd.py`` builds its brute-force OSD from it, and the
    decoder is checked against that.
    """
    arr = _received(code.n, y)
    rows, perm, _ = _mrb_reduce(code.generator.rows, [None] * code.k, arr)
    gsys = pack_rows(unpack_rows(rows, code.n)[:, perm])
    return BitMatrix(code.n, tuple(gsys)), tuple(int(x) for x in perm)
