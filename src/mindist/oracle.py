"""Exact minimum distance by a Brouwer-Zimmermann search, and the weight
enumerator by a sweep over all 2^k codewords.

The witness is the first codeword of least weight that the search scores,
in its scoring order.  The search reports it whether or not the
enumerator is collected; the sweep only counts weights.

The search (Zimmermann's algorithm, as described by Grassl, "Searching for
linear codes with large minimum distance", 2006, after Brouwer; see also
Leon, IEEE T-IT 1988) finds d without visiting every codeword.

Information sets.  The generator rows are reduced from scratch with
``gf2.eliminate`` on the columns no earlier set has taken.  Set j takes
r_j pivots; its first r_j rows each hold the only 1 of the set's rows at
their pivot column, and its other k - r_j rows are zero on every pivot
column of the set.  Repeating until the rank is 0 gives disjoint column
sets I_1, I_2, ...; the first has r_1 = k.  Each set's rows are a basis of
the code, so XORing any nonempty subset of them gives a nonzero codeword.

The bound.  A codeword is x G_j for one x per set, where G_j is set j's
reduced rows, and its weight on I_j is at least wt(x) - (k - r_j).  Once
every x of weight <= w_j has been scored in set j, a codeword not yet
scored weighs at least w_j + 1 - (k - r_j) on I_j, and, the I_j being
disjoint, at least the Zimmermann bound: the sum over sets of
max(0, w_j + 1 - (k - r_j)).  For w = 1, 2, ... each set with
k - r_j <= w (one whose term is then positive) is brought up to w_j = w,
levels it skipped first, and the search stops as soon as the bound
reaches the least weight scored: every codeword not scored weighs at
least that much, so it is d.  At w = k every set's term is r_j + 1, and
the terms sum above n minus the zero columns, so the loop always stops.

The bound holds at every step, so a search cut short still proves
d >= min(least weight scored, bound).  Every search starts from a bound
``known`` already proven from the generator (the ``lower`` of the code's
``identity``: the BCH or square-root bound, else 1), stops as soon as
the least weight scored is at most ``known`` (that weight is then d;
Grassl, 2006, stops the same way), and is capped at 2^budget
combinations scored.  Its result is the proven interval max(known,
min(bound, least weight)) <= d <= least weight.  ``exact_min_distance``
returns d when the interval closes and refuses (``BudgetError``) when it
does not; ``lower_bound`` is the interval's lower end under the cap
2^``LOWER_BOUND_BUDGET``, memoized per generator and known bound, which
MIM and the OSD decoder's certificates read.  It proves
d on every criterion-4 code, built or loaded from a file that keeps the
generator polynomial (``codes.save_code``).  The cap counts combinations
scored, not the 2^k codewords: a BCH(127,64) with its generator
polynomial stops at its BCH bound 21 after 45,824 combinations, and a
small-k code with many information sets can need more than 2^k (three
copies of the [7,3] simplex code, an [21,3] code, score 15).

Scoring.  Let s be the largest size with C(k, t) <= 2^16 for every
t <= s.  The weight-w combinations of a set's rows are its table of
w-subsets when w <= s, and otherwise each prefix of w - s rows XORed onto
the table of s-subsets of the rows below the prefix.  Each set keeps its
tables of t-subsets for t <= s as packed uint64 lanes in colex order, so
the subsets of rows 0..m-1 are the first C(m, t) entries, and the table
for t is built from the one for t - 1 with one XOR per row.  Lanes are
written into a block of at most 2^16 codewords and scored there with
``np.bitwise_count``.  A block whose least weight is below that of every
earlier block gives the witness: its first codeword of that weight.

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
the current block's codewords.  The block is weighed as the search's
blocks are, in buffers allocated once per call: a uint8 popcount per
lane, summed over lanes into the narrowest unsigned dtype that holds n.
The weights are then counted into the enumerator.  When they are uint8
(n <= 255) they are counted two at a time: the 2^L weights, viewed as
2^(L-1) uint16 keys a + 256 b, go through one bincount into 256 (n + 1)
bins, half the entries of counting the weights one by one.  At the end
the bins, read as an (n + 1) x 256 table of (b, a), fold back into the
enumerator as the sum of the column sums (counts of a) and the row sums
(counts of b); the fold counts both bytes alike, so the byte order of the
view does not matter.  For n >= 256 the weights are uint16 and are
counted one by one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

import numpy as np

from .codes import LinearCode
from .errors import BudgetError
from .gf2 import BitMatrix, BitWord, eliminate, to_lanes
from .results import DistanceEstimate

__all__ = [
    "ExactResult",
    "exact_min_distance",
    "exact_enumerator",
    "lower_bound",
    "run",
    "DEFAULT_BUDGET",
    "LOWER_BOUND_BUDGET",
]

DEFAULT_BUDGET = 32

# log2 of the combinations ``lower_bound``'s search may score: the least
# power of two with which it proves d on every criterion-4 code.  QR(73,37)
# takes the most, 5,670,398 (about 0.1 s on a 2-core x86 host, once per
# process; 2^22 proves 12); given their BCH bound, the BCH codes stop
# within 50,000.  Without it, as for a code loaded from a file with no
# generator polynomial, the search stops short at the level that would
# pass the cap: BCH(63,36) at 7 after 2,391,495 and BCH(127,64) at 9
# after 1,358,240 (9–12 ms)
LOWER_BOUND_BUDGET = 23

_LOW_BLOCK_BITS = 16
_BLOCK = 1 << _LOW_BLOCK_BITS


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search, with the sweep's enumerator if asked.

    ``witness`` is the first codeword of minimum weight the search scores
    (module docstring).  ``enumerator`` maps weight ->
    codeword count (weight 0 included) when collection was requested, else
    None.  ``enumerated`` counts the codewords scored: 2^k when the sweep
    collects the enumerator, and otherwise the combinations the search
    scored, a codeword found in several information sets counting once per
    set.
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

    The Brouwer-Zimmermann search, started from the bound proven from the
    generator and capped at 2^``budget`` combinations (default 2^32),
    finds d and the witness; it raises ``BudgetError``, naming the
    interval it proved, when the cap stops it before d.  With
    ``collect_enumerator`` the Gray sweep then also counts the weights of
    all 2^k codewords, which is refused up front when k exceeds
    ``budget``.  A bool, non-int or negative ``budget`` is a ``ValueError``.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    n, k = code.n, code.k
    if collect_enumerator and k > budget:
        raise BudgetError(
            f"k = {k} exceeds oracle budget {budget}: the enumerator sweep "
            f"visits 2^{k} = {1 << k} codewords"
        )
    lower, least, witness, scored = _prove(code.generator, code.identity.lower, budget)
    if lower < least:
        raise BudgetError(
            f"oracle budget {budget} stopped the search after {scored} of at most "
            f"2^{budget} combinations: it proved d in [{lower}, {min(least, n - k + 1)}]"
        )
    res = ExactResult(d_exact=least, witness=BitWord(n, witness), enumerator=None,
                      enumerated=scored)
    if collect_enumerator:
        return replace(res, enumerator=_sweep(code), enumerated=1 << k)
    return res


def _weight_buffers(lanes: int, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block buffers, allocated once per call: a uint8 popcount per lane and
    the weights, in the narrowest unsigned dtype that holds n.  With one
    lane (n <= 64) the popcount buffer is the weight buffer."""
    lane_w = np.empty((lanes, size), dtype=np.uint8)
    return lane_w, lane_w[0] if lanes == 1 else np.empty(size, dtype=np.min_scalar_type(n))


def _weigh(words: np.ndarray, lane_w: np.ndarray, w: np.ndarray) -> None:
    """Weights of the codewords ``words`` (lanes, m) into ``w``."""
    np.bitwise_count(words, out=lane_w)
    if lane_w.shape[0] > 1:
        np.add.reduce(lane_w, axis=0, dtype=w.dtype, out=w)


def _information_sets(generator: BitMatrix) -> list[tuple[list[int], list[int]]]:
    """(reduced rows, pivot columns) of each set, on disjoint columns."""
    free = list(range(generator.cols))
    sets = []
    while True:
        rows = list(generator.rows)
        piv = eliminate(rows, free)
        if not piv:
            return sets
        sets.append((rows, piv))
        taken = set(piv)
        free = [c for c in free if c not in taken]


class _InfoSet:
    """One information set's rows as lanes, and its subset tables."""

    def __init__(self, rows: list[int], pivots: list[int], n: int):
        k = len(rows)
        self.rank = len(pivots)
        self.lanes = np.ascontiguousarray(to_lanes(rows, n).T)  # (lanes, k)
        self.tables = [np.zeros((self.lanes.shape[0], 1), dtype=np.uint64)]
        self.top = 1  # the largest s with C(k, t) <= 2^16 for every t <= s
        while self.top < k and comb(k, self.top + 1) <= _BLOCK:
            self.top += 1
        self.done = 0  # every combination of at most this many rows is scored

    def table(self, t: int) -> np.ndarray:
        """The XORs of all t-subsets of the rows, in colex order."""
        while len(self.tables) <= t:
            s = len(self.tables)
            prev = self.tables[-1]
            k = self.lanes.shape[1]
            tab = np.empty((prev.shape[0], comb(k, s)), dtype=np.uint64)
            for m in range(s - 1, k):
                # subsets with largest row m: row m onto the (s-1)-subsets below it
                start, size = comb(m, s), comb(m, s - 1)
                np.bitwise_xor(prev[:, :size], self.lanes[:, m, None],
                               out=tab[:, start:start + size])
            self.tables.append(tab)
        return self.tables[t]

    def score(self, w: int, below: int, prefix: np.ndarray | None, scorer: _Scorer) -> None:
        """Queue every w-subset of rows 0..below-1, each XOR ``prefix``."""
        if w <= self.top:
            scorer.add(self.table(w)[:, :comb(below, w)], prefix)
            return
        for m in range(w - 1, below):
            row = self.lanes[:, m, None]
            self.score(w - 1, m, row if prefix is None else prefix ^ row, scorer)


class _Scorer:
    """Scores codewords in blocks of at most 2^16 and keeps the least
    weight and the first codeword of that weight scored."""

    def __init__(self, n: int):
        lanes = (n + 63) // 64
        self.block = np.empty((lanes, _BLOCK), dtype=np.uint64)
        self.lane_w, self.w = _weight_buffers(lanes, _BLOCK, n)
        self.pos = 0
        self.scored = 0
        self.best_w = n + 1
        self.best = 0

    def add(self, words: np.ndarray, prefix: np.ndarray | None) -> None:
        """Queue the codewords ``words`` (lanes, m), each XOR ``prefix``."""
        size = words.shape[1]
        if self.pos + size > _BLOCK:
            self.flush()
        out = self.block[:, self.pos:self.pos + size]
        if prefix is None:
            np.copyto(out, words)
        else:
            np.bitwise_xor(words, prefix, out=out)
        self.pos += size

    def flush(self) -> None:
        size, self.pos = self.pos, 0
        if not size:
            return
        self.scored += size
        w = self.w[:size]
        _weigh(self.block[:, :size], self.lane_w[:, :size], w)
        at = int(w.argmin())
        if w[at] < self.best_w:
            self.best_w = int(w[at])
            self.best = int.from_bytes(self.block[:, at].astype("<u8").tobytes(), "little")


def _search(generator: BitMatrix, max_words: int, known: int) -> tuple[int, int, int, int]:
    """Run the search until the bound reaches the least weight scored, or
    the least weight scored is at most ``known``, a proven lower bound on
    d, or until the next level of a set would take the count of
    combinations scored above ``max_words``.

    Returns (bound, least weight scored, the first codeword of that weight
    scored, combinations scored).  Every nonzero codeword weighs at least
    max(known, min(bound, least weight)), and when the search ran to its
    end, on either stop, the least weight is d and the codeword a witness.
    The scorer's block buffers are freed on return, before an enumerator
    sweep.
    """
    n, k = generator.cols, generator.nrows
    sets = [_InfoSet(rows, pivots, n) for rows, pivots in _information_sets(generator)]
    scorer = _Scorer(n)
    w = 0
    while True:  # ends by w = k at the latest, see the module docstring
        w += 1
        for info in sets:
            if k - info.rank > w:
                continue
            while info.done < w:
                if scorer.scored + scorer.pos + comb(k, info.done + 1) > max_words:
                    scorer.flush()
                    return _bound(sets, k), scorer.best_w, scorer.best, scorer.scored
                info.done += 1
                info.score(info.done, k, None, scorer)
            scorer.flush()
            bound = _bound(sets, k)
            if bound >= scorer.best_w or scorer.best_w <= known:
                return bound, scorer.best_w, scorer.best, scorer.scored


def _bound(sets: list[_InfoSet], k: int) -> int:
    """The Zimmermann bound on every codeword not yet scored."""
    return sum(max(0, s.done + 1 - (k - s.rank)) for s in sets)


def _prove(generator: BitMatrix, known: int, budget: int) -> tuple[int, int, int, int]:
    """The search from ``known``, a lower bound on d proven from the
    generator (``code.identity.lower``), capped at 2^``budget``
    combinations: (lower, least weight scored, the first codeword of that
    weight scored, combinations scored), where lower = max(known, min(bound,
    least weight)) <= d <= least weight.  d is proven, and the codeword a
    witness, when lower equals least weight."""
    bound, least, witness, scored = _search(generator, 1 << budget, known)
    return max(known, min(bound, least)), least, witness, scored


def lower_bound(code: LinearCode) -> int:
    """A lower bound on d: the lower end of the interval ``_prove`` proves
    under the cap 2^``LOWER_BOUND_BUDGET``, from the ``lower`` of the
    code's ``identity``.  It holds whether or not the search finished, and
    is d when it did (module docstring).  Memoized on the two inputs it
    reads, the generator and that bound, so each code pays it once per
    process.
    """
    return _proven(code.generator, code.identity.lower)


@lru_cache
def _proven(generator: BitMatrix, known: int) -> int:
    """``lower_bound`` of the code with this generator and proven bound,
    memoized for the last 128 keys (``lru_cache``'s default size)."""
    return _prove(generator, known, LOWER_BOUND_BUDGET)[0]


def _sweep(code: LinearCode) -> dict[int, int]:
    """Weight -> count over all 2^k codewords, the zero word included."""
    k, n = code.k, code.n
    rows_u = to_lanes(code.generator.rows, n)
    lanes = rows_u.shape[1]

    low = min(k, _LOW_BLOCK_BITS)
    high = k - low
    size = 1 << low

    # low-block table in Gray order, lane-major: column j = codeword of
    # gray(j) over rows[:low]; gray(j) for h <= j < 2h is gray(2h-1-j) | h
    table = np.zeros((lanes, size), dtype=np.uint64)
    for i in range(low):
        h = 1 << i
        np.bitwise_xor(table[:, h - 1::-1], rows_u[i, :, None], out=table[:, h:2 * h])

    lane_w, w = _weight_buffers(lanes, size, n)
    paired = w.dtype == np.uint8  # n <= 255: two weights per uint16 key
    keys = w.view(np.uint16) if paired else w
    bins = 256 * (n + 1) if paired else n + 1
    counts = np.zeros(bins, dtype=np.int64)
    for b in range(1 << high):
        if b:
            # high Gray step b-1 -> b flips one row into every table entry
            row = rows_u[low + (b & -b).bit_length() - 1, :, None]
            np.bitwise_xor(table, row, out=table)
        _weigh(table, lane_w, w)
        counts += np.bincount(keys, minlength=bins)
    if paired:
        # key = one weight + 256 * the other, in either byte order
        h = counts.reshape(n + 1, 256)
        counts = h.sum(axis=0)[:n + 1] + h.sum(axis=1)
    return {wt: int(c) for wt, c in enumerate(counts) if c}


def exact_enumerator(code: LinearCode, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """The exact result with the full weight enumerator populated."""
    return exact_min_distance(code, budget=budget, collect_enumerator=True)


def run(
    code: LinearCode,
    budget: int = DEFAULT_BUDGET,
    collect_enumerator: bool = False,
) -> DistanceEstimate:
    """The exact method's certified record, or ``BudgetError`` as
    ``exact_min_distance`` refuses; ``config`` holds the budget the oracle
    ran under, and the enumerator, when collected, is its one event."""
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
