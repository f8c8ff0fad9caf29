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

The MRB reduction runs on the generator's rows as Python ints (cheap XOR,
no per-pivot array traffic), and starts from the code's basis B,
``LinearCode.basis``: the reduction of a word whose samples all tie, whose
columns the stable sort walks in index order.  Each of its k rows is the
only row with a 1 at its unit column.  A word's pivots are the first k
independent columns in its reliability order.  Most samples of an impulse
word are exactly -1 and the stable sort keeps them in index order, so
most pivots are unit columns of B, and the few that are not (about 5 on a
BCH(127,64) MIM word) take the place of as many dropped unit columns.
``_update`` finds the pivots by a walk that costs a reduction only at the
columns that are no free unit column, then applies the whole change to B
at once, as a low-rank update: the rows of the new pivots come from the
inverse of the small block of B on the dropped rows and the new pivots,
and every kept row takes the XOR of those rows where it has a 1 on a new
pivot.  The result is bit for bit that of ``gf2.eliminate`` from the
generator's own rows: the pivots depend only on which sets of columns are
independent, and the reduced generator, G[:, piv]^-1 G, only on the row
space and the pivots, not on the basis the reduction starts from.  B is
reduced once, when the code is built; the ``most_reliable_basis``
reference has no unit columns to update from, and is reduced from
scratch by ``eliminate`` (``_cold_reduce``).

Every candidate is an int codeword in original position order.  The
re-encoded hard decisions c0 are one XOR of the reduced rows, those of the
pivots where the hard decisions are 1, and a flip set's codeword is c0
XORed with its rows.  Only two arrays are gathered in MRB order: the
parity bits of the reduced rows, par, and the reliabilities of the MRB
positions, w.

A flip set's cost relative to c0 is its flipped MRB reliabilities plus the
signed parity weights s of the parity positions it flips: s_j = |y_j| where
c0 agrees with the hard decision and -|y_j| where it does not.  The flip
sets are scored a table at a time (``_patterns``), and a table of flip
sets of weight 2 or less comes from one Gram matrix: with single = w + par
s, the cost of flipping one row, and Q = (par * s) par^T, flipping rows i
and j costs single_i + single_j - 2 Q_ij, since a parity bit both rows
hold stays put (``_gram_score``).  A table with heavier flip sets, such as
the top order of an order-3 decoder, is scored from lookup tables
(``_score``): the parity part is packed into uint64 lanes, ceil((n - k) /
64) per row, a flip set's parity change is the XOR of its rows' lanes, and
per-byte tables hold the 256 partial sums of s that one byte of a lane can
select.  Each kernel's inputs are built only when a table of its kind is
scored, so an order-3 decode builds the lanes only for its top order.

Scoring takes two vectorized passes.  The first covers every flip set of
weight below the order.  The second covers the flip sets of weight equal
to the order, and runs only when the sum of the ``order`` least reliable
MRB positions is at most the base cost (that of the re-encoded hard
decisions) plus the least cost found so far plus twice the tie tolerance
below (the floor skip).  Any such candidate differs from the hard
decisions at its flipped MRB positions, so that sum is a floor on its
exact cost; when the floor is higher, no candidate of the top order can
come within the tolerance of the least cost, and skipping the order leaves
the decoded word unchanged.  On impulse words (the all-zero word plus a
few strong samples) most decodes skip it, and the top order holds most of
the flip sets.  Where the second pass runs on a lookup-table top table, a
prefilter below first drops the flip sets that cannot come that close, one
by one.

Those costs are rounded in an order of their own (a BLAS matmul's, for
the Gram costs), so they only pick the candidates within a tolerance tol
of the least cost, where tol / 2 bounds the rounding error of every
scored cost (``_tolerance``).  When more than one is that close, each is
re-scored exactly with ``math.fsum``, and among equal exact costs the
lexicographically smallest codeword wins.  The candidate of least exact
cost is always that close: its scored cost is within tol / 2 of its
exact cost minus base, and the least scored cost is at least the least
exact cost minus base minus tol / 2.  The decoded word is thus a function
of the received word alone, whatever order the sums were taken in.

The top-order prefilter runs where the floor skip scores the top order, on
a top table of three or more rows and at least ``_PREFILTER_MIN`` flip
sets.  It bounds the cost of each flip set F from below and scores only
those whose bound is within least + 2 tol.  Let A and D be the parity
positions where c0 agrees and disagrees with the hard decisions, and a and
d the numbers of them that F's parity change x_F flips.  F's exact cost
minus base is the sum of its ``order`` flipped MRB reliabilities, at least
floor (the sum of the ``order`` smallest), plus the |y_j| of its a flips on
A, at least SA[a], the sum of the a smallest |y_j| on A, minus the |y_j| of
its d flips on D, at most SD[d], the sum of the d largest on D.  So LB(F) =
floor + SA[a] - SD[d] is a floor on it; the floor skip is its weakest case,
a = 0 and d = |D|, as SD[|D|] = base.

The test is on integers: limit[d] counts the a with SA[a] <= fl(SD[d] +
fl(fl(least + 2 tol) - floor)) in floats (SA is non-decreasing from
SA[0] = 0), and F is scored iff a < limit[d] (``_survivors``).  So a
dropped F has SA[a] above that sum as computed.  SA and SD are running
sums of at most n - k magnitudes (``_prefix_sums``), so together within
(n - k) u sum(|y|) of their real values; floor is correctly rounded; and
least lies in [-sum(|y|) - tol / 2, 0] (0 is the cost of flipping
nothing, in the low table), so each of the other three roundings is at
most 3 u sum(|y|).  In all that is at most (n - k + 10) u sum(|y|), below
tol / 2 >= 4 (n - k + 3) u sum(|y|).  The real LB(F) therefore exceeds
least + 1.5 tol, and F's scored cost, within tol / 2 of its exact cost
minus base, lies above least + tol: F would neither enter the near set
nor lower the least cost, and the decoded word is the one full scoring
returns.

The counts come from the packed parity lanes that ``_score`` reads: each
decode XORs every pair of rows once, a (k + 1)^2 table per lane read at
the pair index that ``_patterns`` caches with the tables, and XORs in the
other rows of each flip set; a + d is the popcount of x_F and d that of
x_F on D.  On the top-order decodes of seeded BCH(127,64) MIM words at
most about 500 of the 41,664 flip sets survive, and mostly a few dozen.

The zero certificate (``zero_certified``) proves, with no word built, that
the all-zero word is the word full reprocessing returns.  It is MIM's
test: ``decode`` does not run it, and every word it is given is reduced
and scored.  Let D1 be the P positions whose samples are above 0, where
the zero word differs from the hard decisions, and d_lb a lower bound on
the minimum distance, ``oracle.lower_bound(code)``: the bound of a search
capped at 2^``oracle.LOWER_BOUND_BUDGET`` combinations that starts from
the ``lower`` of the code's ``identity`` (the BCH or square-root bound,
from the generator), run once per code.  It is d on every criterion-4
code, where the identity alone gives 1 to QDC(24,12) and 9 to QR(73,37),
against d = 8 and 13; the larger d_lb, the more often the test holds.

The zero word is a candidate when at most ``order`` of D1 lie on the MRB:
it is then that many MRB flips from the hard decisions.  The MRB lies
within the window of the n - d_lb + 1 most reliable positions.  Any n - d
+ 1 columns of the generator have rank k: a codeword that is 0 on them
has weight d - 1 or less, so it is 0, and so is its message (MacWilliams
and Sloane, *The Theory of Error-Correcting Codes*, ch. 1).  The walk in
reliability order has thus taken its k pivots by its (n - d + 1)-th
column, and d_lb <= d.  A sample v above 0 can rank in the window only
when fewer than n - d_lb + 1 of all the magnitudes are strictly above v.
Ties count as inside, so the test holds whichever way the stable sort
breaks them.  The zero word is a candidate when at most ``order`` of the
P samples can rank in the window; with P <= order it always is.

Every other codeword is nonzero, so it has d_lb or more 1s, at most P of
them in D1, and so need = d_lb - P or more outside D1.  There the zero
word agrees with the hard decisions and that codeword does not, so each
such position adds its |y_i| to that codeword's cost: every other
codeword costs at least the floor, the sum of the need smallest |y_i|
outside D1.  The test is that the zero word's exact cost, the ``fsum`` of
|y_i| over D1, is strictly below the ``fsum`` of the floor; it fails
outright when need <= 0.  Correct rounding is monotone: the strict test on
the two rounded sums implies it on the real sums, and every other
codeword's rounded exact cost is at least the rounded floor, so above the
zero word's.  The zero word is then the unique codeword of least exact
cost.  Full reprocessing would return it: its scored cost lies within
tol / 2 of its exact cost minus base, and any candidate of lower scored
cost has a higher exact cost, so it lies within tol of the least scored
cost, in the near set, where exact costs decide.

``zero_certified`` takes the samples above 0 and the other magnitudes, so
it needs no word: MIM asks it of a probe's impulse list (the all-zero
channel word plus a few impulses, ``mim._certified``), and decodes only
the probes it does not certify.  MIM settles many probes before asking,
from the level amplitude and the impulse count alone, with the bound the
decoder exposes as ``d_lb``.  On such a list most magnitudes are the
1.0 of the untouched positions, so impulses of 1 < a < 2 (samples below
1.0) fall out of the window unless there are d_lb or more impulses, which
leave fewer untouched positions than the window holds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, lru_cache
from itertools import chain, combinations
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

# The prefilter's fixed cost per decode, about 30 us on a 2-core host,
# outweighs what it saves on small top tables.  Measured there on seeded
# MIM words, it made a top-order decode 6-16% slower on order-3 top tables
# of 220 to 2,024 flip sets, and 2-3% faster at 2,925, 2-4% at 4,060,
# 10-15% at 7,140 and 7,770, and 40-50% at 41,664 (BCH(127,64)).
_PREFILTER_MIN = 2500


@cache
def _patterns(k: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The MRB flip sets of weight below ``order``, and those of weight
    ``order``, as two index tables with one flip set per column, and the
    pair index of the second table.

    The tables have max(order - 1, 2) and max(order, 2) rows; shorter flip
    sets are padded with k, which selects a zero row and a zero weight, so
    it flips nothing.  A two-row table is scored from the Gram matrix
    (``_gram_score``), a wider one from lookup tables (``_score``): an
    order-3 decoder scores its lower orders the first way and its top
    order the second.  A top table wider than two rows may go through the
    prefilter (``_survivors``) first, which reads the first two entries of
    each flip set as one index, i (k + 1) + j, into a table of pair XORs;
    that pair index is the third item, None for a two-row top table.

    Each table is filled in place from a flat ``fromiter`` of the
    combinations, so building them holds no Python tuple per flip set.  A
    two-row table stays intp, since ``_gram_score`` reads it as the flat
    index i (k + 1) + j; a wider one, and the pair index, are held in the
    smallest unsigned type that holds their values, k and (k + 1)^2 - 1,
    and built in it: the top table of k = 64, order 3 takes 125 KB as
    uint8, against 1 MB as intp.
    """

    def table(weights: range, width: int) -> np.ndarray:
        dtype = np.intp if width == 2 else np.min_scalar_type(k)
        counts = [math.comb(k, t) for t in weights]
        out = np.full((width, sum(counts)), k, dtype=dtype)
        start = 0
        for t, count in zip(weights, counts):
            flat = np.fromiter(chain.from_iterable(combinations(range(k), t)), dtype, count * t)
            out[:t, start : start + count] = flat.reshape(count, t).T
            start += count
        return out

    top = table(range(order, order + 1), max(order, 2))
    pairs = None
    if len(top) > 2:
        pairs = np.multiply(top[0], k + 1, dtype=np.min_scalar_type((k + 1) ** 2))
        pairs += top[1]
    return table(range(order), max(order - 1, 2)), top, pairs


def _gram(par: np.ndarray, w_mrb: np.ndarray, w_par: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_gram_score``'s arguments after the flip sets: single, the cost of
    flipping one row, w_mrb + par w_par, and the Gram matrix of the signed
    parity rows, (par * w_par) par^T.

    ``par`` holds the parity bits of the reduced rows (0/1, one row per MRB
    position plus the zero row of the padding index), ``w_mrb`` their MRB
    weights and ``w_par`` the signed parity weights.
    """
    signed = par * w_par
    return w_mrb + signed.sum(axis=1), signed @ par.T


def _gram_score(pat: np.ndarray, single: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Gram cost, relative to the re-encoded hard decisions, of each flip
    set (column) of the two-row table ``pat``: flipping rows i and j costs
    single_i + single_j - 2 gram_ij, since a parity bit that both rows hold
    stays put."""
    i, j = pat
    return single.take(i) + single.take(j) - 2.0 * gram.take(i * len(single) + j)


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


def _lanes(bits: np.ndarray) -> np.ndarray:
    """The rows of 0/1 ``bits`` packed as little-endian bytes in uint64
    lanes, ceil(m / 64) for m columns: one lane-major array per lane."""
    nbytes = (bits.shape[1] + 7) // 8
    packed = np.zeros((len(bits), 8 * ((nbytes + 7) // 8)), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _luts(w_par: np.ndarray) -> np.ndarray:
    """``_score``'s lookup tables: per byte of a lane, the 256 partial sums
    of the signed parity weights ``w_par`` that the byte can select."""
    nbytes = (len(w_par) + 7) // 8
    weights = np.zeros(8 * nbytes)
    weights[: len(w_par)] = w_par
    return weights.reshape(nbytes, 8) @ _BYTE_BITS.T


def _prefix_sums(w_par: np.ndarray, disagree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(SA, SD) of the prefilter: SA[a] is the sum of the a smallest |y_j|
    on the parity positions where the re-encoded hard decisions agree with
    the hard decisions, and SD[d] the sum of the d largest where they
    ``disagree``; both start at 0.  ``w_par`` holds the signed parity
    weights, -|y_j| where they disagree, so one sort lists the disagreeing
    magnitudes in descending order and then the agreeing ones ascending."""
    s = np.sort(w_par)
    nd = int(np.count_nonzero(disagree))
    return np.cumsum(np.append(0.0, s[nd:])), -np.cumsum(np.append(0.0, s[:nd]))


def _survivors(
    pat: np.ndarray, pairs: np.ndarray, lanes: np.ndarray, disagree: np.ndarray, limit: np.ndarray
) -> np.ndarray:
    """The columns of ``pat`` that pass the top-order prefilter: the flip
    sets that flip a parity bits where the re-encoded hard decisions agree
    with the hard decisions and d where they ``disagree`` (as lanes), with
    a < limit[d], tested as a + d < limit[d] + d.

    A flip set's parity change is the XOR of its rows' ``lanes``: the rows
    of its first two entries come as one pair XOR, read at ``pairs`` from a
    (k + 1)^2 table per lane, the others one by one.  The counts are uint8
    on one lane and summed in uint16 over several.
    """
    flips = ones = None
    for lane, dis in zip(lanes, disagree):
        x = np.bitwise_xor.outer(lane, lane).ravel().take(pairs)
        for col in pat[2:]:
            x ^= lane.take(col)
        f = np.bitwise_count(x)
        x &= dis
        o = np.bitwise_count(x)
        if flips is None:
            flips, ones = f, o
        else:
            flips, ones = flips + f.astype(np.uint16), ones + o.astype(np.uint16)
    return np.flatnonzero(flips < (limit + np.arange(len(limit))).astype(flips.dtype).take(ones))


def _tolerance(n: int, k: int, order: int, abs_y: np.ndarray) -> float:
    """tol: twice a bound on the rounding error of every scored cost.

    Each cost is a sum of terms, rounded at every node of a binary tree of
    some depth D, so its error is at most gamma_D times the sum of the
    terms' magnitudes, with gamma_D = D u / (1 - D u) <= (D + 1) u and u =
    eps / 2 (Higham, *Accuracy and Stability of Numerical Algorithms*, ch.
    4; any summation order, fused multiply-adds included).  A Gram cost
    sums w_i, w_j, the signed parity weights of rows i and j and -2 times
    those of both: at most 4 sum(|y|) in all, and BLAS sums each dot
    product of length n - k in some tree, so D <= n - k + 2.  A LUT cost
    sums at most sum(|y|), with D <= 7 + nbytes + order.  So tol / 2 =
    max(4 (n - k + 3), 8 + nbytes + order) u sum(|y|) bounds both errors
    (``abs_y.sum()``'s own error is far inside the slack of gamma_D).
    """
    nbytes = (n - k + 7) // 8
    return max(4 * (n - k + 3), 8 + nbytes + order) * _EPS * float(abs_y.sum())


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


@lru_cache
def _by_column(
    rows: tuple[int, ...], units: tuple[int, ...], n: int
) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """A code's basis read by column, for ``_update``.  For each of the n
    columns: the row it is the unit column of (-1 for none), that row as a
    bit (0 for none), the column as a k-bit int (bit i is row i's bit
    there), and the list of rows with a 1 there.  Memoized for the last 128
    bases (``lru_cache``'s default size): a decoder reads its code's on
    every word."""
    unit_row = [-1] * n
    for i, u in enumerate(units):
        unit_row[u] = i
    bits = unpack_rows(rows, n).T
    cols = [int.from_bytes(col.tobytes(), "little")
            for col in np.packbits(bits, axis=1, bitorder="little")]
    return (unit_row, [1 << i if i >= 0 else 0 for i in unit_row], cols,
            [np.flatnonzero(col).tolist() for col in bits])


def _update(
    rows: tuple[int, ...], units: tuple[int, ...], order: list[int]
) -> tuple[list[int], list[int]]:
    """The reduction of a code's basis B (``LinearCode.basis``) on the
    first k independent columns of ``order``, as a low-rank update.
    Returns (rows, perm) as ``_cold_reduce`` does: the rows and pivots of
    ``gf2.eliminate`` on the generator's own rows, with perm the pivots
    followed by the other columns in ``order``.  ``decode`` calls it on
    every word, with the word's reliability order.

    Column c of B is the k-bit vector col[c]; the unit column of row i is
    the unit vector e_i.  The walk takes the pivots greedily.  ``kept``
    holds the rows whose unit columns it took, and ``lead`` the other
    vectors it took, reduced modulo those rows: each is stored under one of
    its bits outside ``kept`` (its lead), which no other stored vector has
    outside ``kept``.  Above bit k each also carries the set of new pivots
    it sums, so that one XOR updates both.  A column is independent of
    those taken iff its vector, less the stored vectors of its leads, keeps
    a bit outside ``kept``.  So a unit column whose row is no lead is taken
    at once, and only the others cost a reduction: the columns that are no
    unit column, and the unit columns of leads.  A lead is the highest row
    it can be, since the basis's unit columns rise with their rows:
    its unit column then comes late in the walk, mostly as one of the
    dropped columns.

    The new pivots, those that are no unit column, replace the unit
    columns of the rows D outside ``kept``.  At the end the leads are D, and
    the vector stored under d is e_d outside ``kept``: its set of new
    pivots is column d of the inverse of C, the block of B on rows D and
    the new pivots.  So the row of new pivot p is Y_p, the sum of B_d over
    the d whose set holds p, and each kept row i becomes B_i plus the Y_p
    of the new pivots p where B_i has a 1.  That is G[:, piv]^-1 G, the
    same from any basis.
    """
    k, n = len(rows), len(order)
    unit_row, unit_bit, cols, col_rows = _by_column(rows, units, n)
    full = (1 << k) - 1
    kept = leads = 0
    lead: dict[int, int] = {}
    new: list[int] = []
    skipped: list[int] = []
    # walk in slices that end where the k-th pivot falls if no column of the
    # slice is skipped
    walked = 0
    while walked < min(k + len(skipped), n):
        stop = min(k + len(skipped), n)
        for c in order[walked:stop]:
            b = unit_bit[c]
            if b and not b & leads:
                kept |= b
                continue
            # a unit column sums no new pivot: e_i is 0 modulo kept once
            # its row is kept
            x = cols[c] if b else cols[c] | 1 << (k + len(new))
            m = x & leads
            while m:
                low = m & -m
                x ^= lead[low]
                m ^= low
            x &= ~kept
            if not x & full:
                skipped.append(c)
                continue
            # lead on x's highest row outside kept (see above)
            hi = 1 << (x & full).bit_length() - 1
            for key, v in lead.items():
                if v & hi:
                    lead[key] = v ^ x
            lead[hi] = x
            leads |= hi
            if b:
                # row i's stored vector is now e_i modulo kept: row i is kept
                del lead[b]
                leads ^= b
                kept |= b
            else:
                new.append(c)
        walked = stop
    if walked - len(skipped) < k:
        raise ConsistencyError(
            f"generator lost rank during reduction: {walked - len(skipped)} < k = {k}"
        )
    ys = [0] * len(new)
    for d, v in lead.items():
        row = rows[d.bit_length() - 1]
        t = v >> k
        while t:
            low = t & -t
            ys[low.bit_length() - 1] ^= row
            t ^= low
    # the dropped rows D take these XORs too, but are read no more
    out = list(rows)
    for c, y in zip(new, ys):
        for i in col_rows[c]:
            out[i] ^= y
    skip = set(skipped)
    piv = [c for c in order[:walked] if c not in skip]
    fresh = iter(ys)
    reduced = [out[unit_row[c]] if unit_bit[c] else next(fresh) for c in piv]
    return reduced, piv + skipped + order[walked:]


def _cold_reduce(rows: Sequence[int], cols: list[int]) -> tuple[list[int], list[int]]:
    """``gf2.eliminate`` of a copy of ``rows`` on the first len(rows)
    independent columns of ``cols``: (rows, perm), with perm the pivots
    followed by the other columns in ``cols``.  Row i is then the only row
    with a 1 at position perm[i] among the pivots.  Raises
    ``ConsistencyError`` when fewer than len(rows) columns are independent.
    """
    rows = list(rows)
    piv = eliminate(rows, cols)
    k, r = len(rows), len(piv)
    if r < k:
        raise ConsistencyError(f"generator lost rank during reduction: {r} < k = {k}")
    taken = set(piv)
    return rows, piv + [c for c in cols if c not in taken]


def _in_window(on: list[float], off: list[float], ones: int, window: int) -> int:
    """How many of ``on`` may rank among the ``window`` most reliable
    positions of a word whose magnitudes are ``on``, ``off`` and, at
    ``ones`` more positions, 1.0: those with fewer than ``window``
    magnitudes strictly above them, so ties count as inside.  The ``ones``
    block is counted, not listed: it lies above every v < 1.0."""
    mags = sorted(on + off)
    return sum(len(mags) - bisect_right(mags, v) + (ones if v < 1.0 else 0) < window
               for v in on)


def _reliability_order(abs_y: np.ndarray) -> np.ndarray:
    # stable sort on negated magnitudes: ties go to the lower original index
    return np.argsort(-abs_y, kind="stable")


class OsdDecoder:
    """Reusable order-l decoder for one code.

    ``decode`` accepts a float array or sequence of finite samples and
    returns the decoded codeword in original position order.  Every word
    is sorted by reliability and reduced by ``_update``'s low-rank update
    of the code's basis, ``LinearCode.basis``, reduced once when the code
    was built, on the columns in index order (the order of a word whose
    samples all tie).
    A table of flip sets of weight 2 or less is scored from one Gram matrix
    of the signed parity rows, a table of heavier ones over packed parity
    lanes with per-byte lookup tables, built only for it.  First come the
    flip sets of weight below the order, then those of weight equal to it,
    unless the sum of the ``order`` smallest MRB reliabilities already
    exceeds the base cost plus the least cost so far by more than twice
    the tie tolerance.  Such flip sets cannot tie the best candidate, so
    the skip never changes the result.  A top table scored from lookup
    tables (order 3 and up) with ``_PREFILTER_MIN`` or more flip sets
    first goes through a prefilter: it bounds each flip set's cost from
    below by floor + SA[a] - SD[d], where a and d count the parity bits it
    flips where the re-encoded hard decisions agree and disagree with the
    hard decisions, SA[a] sums the a smallest |y_j| where they agree and
    SD[d] the d largest where they disagree, and scores only the flip sets
    whose bound is within the least cost plus twice the tolerance.  On
    BCH(127,64) MIM words mostly a few dozen of 41,664 are left.  The
    winner is the candidate of least exact cost (``math.fsum`` of |y_i|
    where it differs from the hard decision); ties on that cost break
    toward the lexicographically smaller codeword, so the result is a
    function of y alone.  Every candidate is an int codeword in original
    position order, the re-encoded hard decisions XORed with the rows of
    its flip set.

    ``zero_certified`` proves, for MIM's impulse lists, that the all-zero
    word is the decoded word, with d_lb = ``oracle.lower_bound(code)``, d
    itself on the criterion-4 codes, computed once per code: the zero
    word is a candidate when at most ``order`` samples above 0 can rank
    among the n - d_lb + 1 most reliable positions, and its cost is below
    a floor on the cost of every other codeword.  The module docstring
    has the proofs, rounding included.  The decoded word is the one full
    reprocessing returns.  ``d_lb`` exposes that bound, read-only, so that
    a caller's shortcut is proven with the same one.
    """

    def __init__(self, code: LinearCode, order: int = DEFAULT_ORDER):
        if not 0 <= order <= code.k:
            raise ValueError(f"order {order} outside 0..k = {code.k}")
        self.code = code
        self.order = order
        self._patterns = _patterns(code.k, order)
        self._basis = code.basis
        self._d_lb = lower_bound(code)
        self._window = code.n - self._d_lb + 1

    @property
    def d_lb(self) -> int:
        """The lower bound on d that ``zero_certified`` is proven with,
        ``oracle.lower_bound(code)`` as it was when the decoder was built;
        read-only."""
        return self._d_lb

    def zero_certified(self, on: list[float], off: list[float], ones: int = 0) -> bool:
        """Whether the all-zero word is provably the decoded word of a
        received word whose samples above 0 are ``on``, and whose other
        samples have the magnitudes ``off`` and, at ``ones`` more positions,
        exactly 1.0.

        With P = len(on), it is when at most ``order`` of ``on`` can rank
        among the n - d_lb + 1 most reliable positions, which hold the MRB
        (``_in_window``), and the zero word's cost, the sum of ``on``, is
        below the sum of the d_lb - P smallest of the other magnitudes (see
        the module docstring).  When P >= d_lb that sum is empty and the
        test fails: the zero word's cost is then above 0.  MIM asks it of a
        probe's impulse list, with the untouched positions as ``ones``,
        when the probe's level amplitude and impulse count do not settle
        it first: with at most d_lb - 1 impulses summing to less than d_lb,
        the test holds when at most ``order`` of them are 2.0 or more, and
        only then when 2 d_lb < n + 3 (the ``mim`` module docstring has the
        proof).
        """
        need = self._d_lb - len(on)
        if need <= 0:
            return False
        if len(on) > self.order and _in_window(on, off, ones, self._window) > self.order:
            return False
        if ones:
            off = off + [1.0] * min(ones, need)
        return math.fsum(on) < math.fsum(sorted(off)[:need])

    def decode(self, y: np.ndarray | Sequence[float]) -> BitWord:
        k, n = self.code.k, self.code.n
        arr = _received(n, y)
        abs_y = np.abs(arr)
        rows, perm = _update(*self._basis, _reliability_order(abs_y).tolist())
        perm = np.array(perm, dtype=np.intp)
        h = arr > 0
        h_bits = pack_rows(h[None])[0]
        # the re-encoded hard decisions, and where they disagree with the
        # hard decisions: never on the MRB
        c0 = xor_rows(rows, pack_rows(h[perm[:k]][None])[0])
        off0 = unpack_rows([c0 ^ h_bits], n)[0].view(bool)

        # cost minus the base cost: flipping bit j adds |y_j| where the base
        # agreed with the hard decision and subtracts it where it disagreed.
        # par holds the parity bits of the reduced rows, one row per MRB
        # position plus the zero row that the padding index k selects.
        par = unpack_rows(rows + [0], n)[:, perm[k:]]
        w_mrb = np.append(abs_y[perm[:k]], 0.0)
        w_par = np.where(off0, -abs_y, abs_y)[perm[k:]]

        # a candidate more than tol above the least cost cannot tie the best
        # candidate exactly
        order = self.order
        tol = _tolerance(n, k, order, abs_y)
        gram = lanes = luts = None

        def score(pat: np.ndarray) -> np.ndarray:
            """Gram costs of a two-row table, LUT costs of a wider one; each
            kernel's inputs are built on first use, so the lookup tables
            only when a wider table is scored."""
            nonlocal gram, lanes, luts
            if len(pat) == 2:
                gram = _gram(par, w_mrb, w_par) if gram is None else gram
                return _gram_score(pat, *gram)
            lanes = _lanes(par) if lanes is None else lanes
            luts = _luts(w_par) if luts is None else luts
            return _score(pat, lanes, w_mrb, luts)

        low, top, pairs = self._patterns
        scored = [(low, score(low))] if order else []
        least = float(scored[0][1].min()) if scored else math.inf

        # Score the weight-order flip sets only if one of them can come
        # within tol of the least cost.  Such a candidate differs from the
        # hard decisions at each of its flipped MRB positions, so its exact
        # cost is at least floor, the sum of the ``order`` smallest MRB
        # reliabilities (those of perm[:k] are non-increasing), and its
        # scored cost is within tol / 2 of that exact cost minus base, the
        # exact cost of the re-encoded hard decisions.  Both sums are
        # correctly rounded, so when floor > base + least + 2 tol every
        # skipped cost lies more than tol above least (the few roundings
        # here, a few u sum(|y|), stay below the tol / 2 >= 12 u sum(|y|)
        # to spare): none of them could enter the near set, and the decoded
        # word is the one full scoring would return.
        floor = math.fsum(abs_y[perm[k - order : k]].tolist())
        base = math.fsum(abs_y[off0].tolist())
        if floor <= base + least + 2.0 * tol:
            if pairs is not None and top.shape[1] >= _PREFILTER_MIN:
                # the prefilter: a flip set that flips a parity bits where
                # c0 agrees with the hard decisions and d where it does not
                # costs at least floor + SA[a] - SD[d] (module docstring);
                # limit[d] counts the a that keep that within least + 2 tol
                disagree = off0[perm[k:]]
                sa, sd = _prefix_sums(w_par, disagree)
                limit = np.searchsorted(sa, sd + (least + 2.0 * tol - floor), side="right")
                lanes = _lanes(par) if lanes is None else lanes
                keep = _survivors(top, pairs, lanes, _lanes(disagree[None])[:, 0], limit)
                top = top[:, keep]
            if top.shape[1]:
                scored.append((top, score(top)))
                least = min(least, float(scored[-1][1].min()))

        words = [
            c0 ^ xor_rows(rows, sum(1 << i for i in flips if i < k))
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
    reduces each word by ``_update``), but ``reference_decode`` in
    ``tests/test_osd.py`` builds its brute-force OSD from it, and the
    decoder is checked against that.  It reduces from scratch, by
    ``_cold_reduce``.
    """
    arr = _received(code.n, y)
    rows, perm = _cold_reduce(code.generator.rows, _reliability_order(np.abs(arr)).tolist())
    gsys = pack_rows(unpack_rows(rows, code.n)[:, perm])
    return BitMatrix(code.n, tuple(gsys)), tuple(perm)
