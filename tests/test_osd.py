import hashlib
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mindist import oracle, osd
from mindist.cli import EXIT_OK, main
from mindist.codes import LinearCode, build_bch, build_dcc, build_qdc, build_qr, load_code
from mindist.errors import ConsistencyError
from mindist.gf2 import BitMatrix, BitWord, eliminate, unpack_rows, xor_rows
from mindist.mim import apply_pattern, make_pattern
from mindist.osd import OsdDecoder, hard_decision, most_reliable_basis


def all_codewords(code) -> list[BitWord]:
    """Independent enumeration of the whole code (small k only)."""
    out = []
    for info in range(1 << code.k):
        out.append(BitWord(code.n, xor_rows(code.generator.rows, info)))
    return out


def bpsk_table(codewords: list[BitWord]) -> np.ndarray:
    """Row i is codeword i on the BPSK axis: bit 0 -> -1.0, bit 1 -> +1.0."""
    return np.array(
        [[1.0 if (cw.bits >> i) & 1 else -1.0 for i in range(cw.length)] for cw in codewords]
    )


def ml_decode(codewords: list[BitWord], table: np.ndarray, y: np.ndarray) -> BitWord:
    """Exhaustive minimum-Euclidean-distance reference decoder.

    ``table`` is ``bpsk_table(codewords)``.  Ties break toward the
    lexicographically smaller codeword, matching the OSD tie rule.
    """
    costs = ((y - table) ** 2).sum(axis=1)
    return min((codewords[i] for i in np.flatnonzero(costs == costs.min())), key=BitWord.to01)


def reference_decode(code, y: np.ndarray, order: int) -> BitWord:
    """Brute-force order-``order`` reprocessing with the exact tie rule.

    Enumerates every flip set of weight up to ``order`` on the MRB that
    ``most_reliable_basis`` returns, scores each candidate with math.fsum
    of |y_i| where it differs from the hard decision, and returns the
    lexicographically smallest codeword among those of least cost.
    """
    n, k = code.n, code.k
    gsys, perm = most_reliable_basis(code, y)
    rows = tuple(sum(((r >> j) & 1) << perm[j] for j in range(n)) for r in gsys.rows)
    h = hard_decision(y).bits
    u0 = sum(((h >> perm[i]) & 1) << i for i in range(k))
    best = best_cost = None
    for t in range(order + 1):
        for combo in combinations(range(k), t):
            cand = xor_rows(rows, u0 ^ sum(1 << i for i in combo))
            diff = cand ^ h
            cost = math.fsum(abs(float(y[i])) for i in range(n) if (diff >> i) & 1)
            if best is None or cost < best_cost or (
                cost == best_cost and BitWord(n, cand).to01() < BitWord(n, best).to01()
            ):
                best, best_cost = cand, cost
    return BitWord(n, best)


def mim_words(n: int, count: int, seed: int) -> list[np.ndarray]:
    """Impulse words as MIM draws them: the all-zero channel word plus a
    half-integer amplitude split over random positions.  A few strong
    impulses leave most |y_i| at exactly 1.0, so exact cost ties are common."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        nb_error = rng.randint(2, 5)
        amplitude = rng.randint(5, 12) + 0.5
        words.append(apply_pattern(n, *make_pattern(n, nb_error, amplitude, rng)))
    return words


def random_code(n: int, k: int, rng: random.Random) -> LinearCode:
    while True:
        gen = BitMatrix(n, tuple(rng.getrandbits(n) for _ in range(k)))
        if gen.rank() == k:
            return LinearCode(n, k, gen)


def spy_scorers(monkeypatch, record):
    """Wrap both flip-set scorers, the Gram costs of two-row tables and the
    LUT costs of wider ones, so that each call first passes its table's
    column count to ``record``."""
    for name in ("_gram_score", "_score"):
        def spy(pat, *args, real=getattr(osd, name)):
            record(pat.shape[1])
            return real(pat, *args)

        monkeypatch.setattr(osd, name, spy)


@pytest.fixture
def scored_tables(monkeypatch):
    """Column counts of the flip-set tables that decodes score, in call order."""
    sizes = []
    spy_scorers(monkeypatch, sizes.append)
    return sizes


class TestHardDecision:
    def test_all_minus_one_is_zero_word(self):
        assert hard_decision(np.full(6, -1.0)) == BitWord(6)

    def test_sign_readout(self):
        y = [0.3, -0.1, 2.0]
        assert hard_decision(y).to01() == "101"

    def test_exact_zero_demaps_to_zero(self):
        y = [0.0, 1.0, -1.0]
        assert hard_decision(y).to01() == "010"


class TestMostReliableBasis:
    def test_identity_prefix_when_reliability_decreasing(self, golay24):
        y = np.array([float(24 - i) * (-1) ** i for i in range(24)])
        gsys, perm = most_reliable_basis(golay24, y)
        # strictly decreasing |y| and independent first k columns: identity order
        assert perm[: golay24.k] == tuple(range(golay24.k))
        for i in range(golay24.k):
            assert gsys.rows[i] & ((1 << golay24.k) - 1) == 1 << i

    def test_equal_reliabilities_prefer_lower_index(self, golay24):
        y = np.full(24, -1.0)
        _, perm = most_reliable_basis(golay24, y)
        assert perm[: golay24.k] == tuple(range(golay24.k))

    def test_mrb_reencoding_agrees_on_basis_positions(self, golay24):
        rng = random.Random(3)
        for _ in range(50):
            y = np.array([rng.uniform(-2, 2) for _ in range(24)])
            gsys, perm = most_reliable_basis(golay24, y)
            h = hard_decision(y)
            info = BitWord(golay24.k, sum(
                ((h.bits >> perm[i]) & 1) << i for i in range(golay24.k)
            ))
            cw_sys = BitWord(gsys.cols, xor_rows(gsys.rows, info.bits))
            for i in range(golay24.k):
                assert cw_sys[i] == (h.bits >> perm[i]) & 1

    def test_perm_is_permutation(self, golay24):
        y = np.array([0.1 * ((i * 7) % 11 - 5) for i in range(24)])
        _, perm = most_reliable_basis(golay24, y)
        assert sorted(perm) == list(range(24))


class TestOsdDecode:
    def test_noiseless_fixed_point(self, golay24):
        rng = random.Random(11)
        dec = OsdDecoder(golay24, order=1)
        for _ in range(50):
            cw = BitWord(24, xor_rows(golay24.generator.rows, rng.getrandbits(12)))
            assert dec.decode(np.where(list(cw), 1.0, -1.0)) == cw

    def test_all_minus_one_decodes_to_zero(self, golay24):
        for order in (0, 1, 2, 3):
            dec = OsdDecoder(golay24, order=order)
            assert dec.decode(np.full(24, -1.0)) == BitWord(24)

    def test_output_is_always_a_codeword(self, golay24):
        rng = random.Random(5)
        dec = OsdDecoder(golay24, order=2)
        for _ in range(60):
            y = [rng.uniform(-2, 2) for _ in range(24)]
            out = dec.decode(y)
            stacked = BitMatrix(24, golay24.generator.rows + (out.bits,))
            assert stacked.rank() == golay24.k

    def test_three_impulses_beat_or_match_zero_word(self, golay24):
        # amplitude-1 impulses on the all-zero channel word: y = 0.0 there
        rng = random.Random(17)
        dec = OsdDecoder(golay24, order=2)
        for _ in range(200):
            y = np.full(24, -1.0)
            y[rng.sample(range(24), 3)] += 1.0
            out = dec.decode(y)
            s = np.array([1.0 if (out.bits >> i) & 1 else -1.0 for i in range(24)])
            zero_cost = float(((y + 1.0) ** 2).sum())
            assert float(((y - s) ** 2).sum()) <= zero_cost

    def test_agreement_with_ml_on_impulsed_words(self, golay24):
        codewords = all_codewords(golay24)
        table = bpsk_table(codewords)
        rng = random.Random(23)
        dec = OsdDecoder(golay24, order=2)
        agree = 0
        trials = 400
        for _ in range(trials):
            y = np.full(24, -1.0)
            y[rng.sample(range(24), 3)] += 1.0
            if dec.decode(y) == ml_decode(codewords, table, y):
                agree += 1
        assert agree / trials >= 0.95

    def test_full_order_equals_ml_on_random_noise(self, golay24):
        # order k reprocessing enumerates the entire code: must match the
        # exhaustive reference exactly, tie rule included
        codewords = all_codewords(golay24)
        table = bpsk_table(codewords)
        rng = random.Random(29)
        dec = OsdDecoder(golay24, order=12)
        for _ in range(25):
            y = np.array([rng.uniform(-1.5, 1.5) for _ in range(24)])
            assert dec.decode(y) == ml_decode(codewords, table, y)

    def test_order_monotone_metric(self, golay24):
        rng = random.Random(31)
        for _ in range(20):
            y = np.array([rng.uniform(-1.5, 1.5) for _ in range(24)])
            prev = None
            for order in (0, 1, 2, 3):
                out = OsdDecoder(golay24, order=order).decode(y)
                s = np.array([1.0 if (out.bits >> i) & 1 else -1.0 for i in range(24)])
                cost = float(((y - s) ** 2).sum())
                if prev is not None:
                    assert cost <= prev + 1e-9
                prev = cost

    def test_scaling_invariance(self, golay24):
        rng = random.Random(37)
        dec = OsdDecoder(golay24, order=3)
        for _ in range(40):
            y = np.array([rng.uniform(-2, 2) for _ in range(24)])
            for alpha in (0.25, 3.0, 117.0):
                assert dec.decode(y) == dec.decode(alpha * y)

    def test_candidate_metric_optimality_within_searched_set(self, hamming7):
        # enumerate the searched patterns independently and verify the argmin
        rng = random.Random(41)
        dec = OsdDecoder(hamming7, order=2)
        for _ in range(80):
            y = np.array([rng.uniform(-2, 2) for _ in range(7)])
            out = dec.decode(y)
            s = np.array([1.0 if (out.bits >> i) & 1 else -1.0 for i in range(7)])
            out_cost = ((y - s) ** 2).sum()
            gsys, perm = most_reliable_basis(hamming7, y)
            h = hard_decision(y)
            u0 = sum(((h.bits >> perm[i]) & 1) << i for i in range(4))
            import itertools

            for t in (0, 1, 2):
                for combo in itertools.combinations(range(4), t):
                    u = u0
                    for i in combo:
                        u ^= 1 << i
                    cw_sys = BitWord(gsys.cols, xor_rows(gsys.rows, u))
                    cand = 0
                    for j in range(7):
                        if cw_sys[j]:
                            cand |= 1 << perm[j]
                    sc = np.array([1.0 if (cand >> i) & 1 else -1.0 for i in range(7)])
                    assert out_cost <= ((y - sc) ** 2).sum() + 1e-9

    def test_exact_tie_rule_on_impulse_words(self, golay24):
        # impulse words tie often: every non-impulsed sample has |y| = 1.0
        dec = OsdDecoder(golay24, order=3)
        for y in mim_words(24, 500, seed=1):
            assert dec.decode(y) == reference_decode(golay24, y, 3)

    @pytest.mark.parametrize("r", [63, 64, 65, 130])
    def test_lane_edges_match_reference(self, r):
        # parity parts that fill, overrun and span more than one 64-bit lane
        rng = random.Random(r)
        code = random_code(7 + r, 7, rng)
        dec = OsdDecoder(code, order=3)
        words = mim_words(code.n, 20, seed=r)
        words += [np.array([rng.uniform(-2, 2) for _ in range(code.n)]) for _ in range(20)]
        # equal or few distinct magnitudes: exact ties across bytes and lanes,
        # and the least reliable positions (the last lane's) weigh as much
        for values in ((-1.0, 1.0), (-1.0, -0.5, 0.25, 1.0)):
            words += [np.array([rng.choice(values) for _ in range(code.n)]) for _ in range(20)]
        for y in words:
            assert dec.decode(y) == reference_decode(code, y, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_rejected(self, golay24, bad):
        y = np.full(24, -1.0)
        y[5] = bad
        with pytest.raises(ValueError, match="sample 5 is not finite"):
            OsdDecoder(golay24, order=3).decode(y)
        with pytest.raises(ValueError, match="sample 5 is not finite"):
            most_reliable_basis(golay24, y)

    def test_order_bounds(self, golay24):
        with pytest.raises(ValueError):
            OsdDecoder(golay24, order=13)
        with pytest.raises(ValueError):
            OsdDecoder(golay24, order=-1)

    def test_rank_loss_is_a_consistency_error(self):
        assert len(eliminate([0b011, 0b011], range(3))) == 1
        with pytest.raises(ConsistencyError, match="lost rank"):
            osd._cold_reduce([0b011, 0b011], [0, 1, 2])

    def test_wrong_length_rejected(self, golay24):
        with pytest.raises(ValueError, match="length"):
            OsdDecoder(golay24, order=1).decode(np.zeros(23))

    @pytest.mark.parametrize("shape", [(24, 2), ()])
    def test_non_vector_rejected(self, golay24, shape):
        y = np.full(shape, -1.0)
        with pytest.raises(ValueError, match="not a length-24 vector"):
            OsdDecoder(golay24, order=1).decode(y)
        with pytest.raises(ValueError, match="not a length-24 vector"):
            most_reliable_basis(golay24, y)
        with pytest.raises(ValueError, match="not a vector"):
            hard_decision(y)


class TestTopOrderSkip:
    """Order-2 decodes on [I3 | P] with parity rows 1110, 1100 and 0011.

    On y = (-r0, -r1, -r1, b, b, b, b) with r0 >= r1 >= b, the MRB is
    positions 0..2 and the re-encoded hard decisions (the zero word) cost 4b.
    Flipping MRB position 1 or 2 costs r1 + 2b and flipping position 0 costs
    r0 + b.  Flipping positions 1 and 2, the weight-2 flip set at the floor,
    costs 2 r1 and gives 0111111, which matches the hard decisions on the
    parity and is lexicographically smaller than 1001110, the codeword of
    flipping position 0.  The low table holds 4 flip sets and the weight-2
    table 3.
    """

    CODE = LinearCode(7, 3, BitMatrix(7, (0b0111001, 0b0011010, 0b1100100)))

    @pytest.mark.parametrize(
        "r0, r1, b",
        [
            # dyadic: the floor, 2, equals base + least exactly, and lies
            # below the sum of the two largest MRB reliabilities
            (1.25, 1.0, 0.75),
            # 3 * 0.1 rounds up, so the LUT's least cost falls just below
            # its exact value and base + least just below the floor: only
            # the tolerance margin keeps the tying order
            (0.1, 0.1, 0.1),
        ],
    )
    def test_top_order_tie_is_scored_and_wins(self, scored_tables, r0, r1, b):
        y = np.array([-r0, -r1, -r1, b, b, b, b])
        out = OsdDecoder(self.CODE, order=2).decode(y)
        assert out == reference_decode(self.CODE, y, 2) == BitWord.parse("0111111")
        assert scored_tables == [4, 3]

    def test_floor_just_above_bound_skips(self, scored_tables):
        # r0 = r1 = 1 + 2^-43, b = 1: the floor exceeds base + least by
        # 2^-43, about 1.7 times the 2 tol margin, so the weight-2 flip sets
        # are not scored, and flipping position 0 still wins as it does
        # under full reprocessing
        r = 1.0 + 2.0**-43
        y = np.array([-r, -r, -r, 1.0, 1.0, 1.0, 1.0])
        out = OsdDecoder(self.CODE, order=2).decode(y)
        assert out == reference_decode(self.CODE, y, 2) == BitWord.parse("1001110")
        assert scored_tables == [4]

    def test_bch63_mim_words_match_reference(self, scored_tables):
        code = build_bch(6, 7)
        dec = OsdDecoder(code, order=3)
        words = mim_words(code.n, 30, seed=63)
        for y in words:
            assert dec.decode(y) == reference_decode(code, y, 3)
        top = dec._patterns[1].shape[1]
        scored_top = scored_tables.count(top)
        assert 0 < scored_top < len(words)


def zero_certified(decoder: OsdDecoder, y: np.ndarray) -> bool:
    """The zero certificate on a word's samples: those above 0, and the
    magnitudes of the others."""
    pos = y > 0
    return decoder.zero_certified(y[pos].tolist(), (-y[~pos]).tolist())


class TestZeroCertificate:
    """BCH(15,7) has d = 5, and ``codes.identify`` proves 5.

    Every word here has P = 2 samples above 0 at positions 0 and 1 and
    -1.0 elsewhere unless stated, so the floor on a nonzero codeword's cost
    is the sum of the 5 - 2 = 3 smallest magnitudes among the rest.  A
    certified word must decode to the zero word, and every word to the
    reference decoder's word.
    """

    CODE = build_bch(4, 2)

    def word(self, *positives: float) -> np.ndarray:
        y = np.full(15, -1.0)
        y[: len(positives)] = positives
        return y

    def test_bound_is_the_distance(self):
        assert OsdDecoder(self.CODE, order=2)._d_lb == 5

    def test_bound_is_exposed_read_only(self):
        # MIM's silent-level rule reads the bound the certificate is proven with
        decoder = OsdDecoder(self.CODE, order=2)
        assert decoder.d_lb == decoder._d_lb == 5
        with pytest.raises(AttributeError):
            decoder.d_lb = 1

    def test_cost_just_below_floor_is_certified(self):
        y = self.word(1.5, 1.25)  # zero costs 2.75 < 3.0
        dec = OsdDecoder(self.CODE, order=2)
        assert zero_certified(dec, y)
        assert dec.decode(y) == BitWord(15)
        assert reference_decode(self.CODE, y, 2) == BitWord(15)

    def test_cost_equal_to_floor_falls_through(self):
        y = self.word(1.5, 1.5)  # zero costs 3.0, the floor exactly
        dec = OsdDecoder(self.CODE, order=2)
        assert not zero_certified(dec, y)
        assert dec.decode(y) == reference_decode(self.CODE, y, 2)

    def test_more_positives_than_order_falls_through(self):
        # zero costs 2.0 < 3.0, but the two 1.0 samples tie the untouched
        # positions, so both count as inside the window that holds the
        # MRB: the zero word may be order + 1 MRB flips from the hard
        # decisions (here it is), so it is no candidate
        y = self.word(1.0, 1.0)
        dec = OsdDecoder(self.CODE, order=1)
        assert not zero_certified(dec, y)
        out = dec.decode(y)
        assert out == reference_decode(self.CODE, y, 1)
        assert out.weight > 0

    def test_floor_takes_d_lb_minus_p_samples(self):
        # a weight-5 codeword c: +1.0 on two of its positions, -0.5 on the
        # other three.  c costs 1.5 < 2.0, the zero word's cost, and the
        # floor is 3 * 0.5 = 1.5; one more sample in it would read 2.5
        c = next(cw for cw in all_codewords(self.CODE) if cw.weight == 5)
        support = [i for i in range(15) if c[i]]
        y = np.full(15, -1.0)
        y[support[:2]] = 1.0
        y[support[2:]] = -0.5
        dec = OsdDecoder(self.CODE, order=2)
        assert not zero_certified(dec, y)
        out = dec.decode(y)
        assert out == reference_decode(self.CODE, y, 2)
        assert out.weight > 0

    def test_zero_sample_is_no_floor(self, golay24):
        # QDC(24,12) gets d_lb = 8: with no positive sample zero costs 0,
        # certified while the 8 smallest magnitudes sum above 0
        dec = OsdDecoder(golay24, order=3)
        y = np.full(24, -1.0)
        assert zero_certified(dec, y) and dec.decode(y) == BitWord(24)
        y[7:15] = 0.0
        assert not zero_certified(dec, y)
        assert dec.decode(y) == reference_decode(golay24, y, 3)

    @pytest.mark.parametrize("make", [lambda: build_bch(6, 7), lambda: build_qr(47)], ids=["bch63", "qr47"])
    def test_mim_words_match_reference(self, make):
        code = make()
        dec = OsdDecoder(code, order=3)
        words = mim_words(code.n, 40, seed=code.n)
        certified = 0
        for y in words:
            out = dec.decode(y)
            assert out == reference_decode(code, y, 3)
            if zero_certified(dec, y):
                certified += 1
                assert out == BitWord(code.n)
        assert 0 < certified < len(words)


class TestProvenBound:
    """d_lb is ``oracle.lower_bound``: the capped search's bound from the
    one ``codes.identify`` proves, searched once per code.  It is d on every code
    here."""

    @pytest.mark.parametrize("make, d_lb", [
        (lambda: build_qdc(11), 8),
        (lambda: build_qr(41), 9),
        (lambda: build_qr(47), 11),
        (lambda: build_qr(73), 13),
        (lambda: build_bch(6, 7), 15),
        (lambda: build_bch(6, 5), 11),
        (lambda: build_bch(7, 10), 21),
    ], ids=["qdc24", "qr41", "qr47", "qr73", "bch63_24", "bch63_36", "bch127"])
    def test_pinned_bounds(self, make, d_lb):
        assert OsdDecoder(make(), order=1)._d_lb == d_lb

    def test_loaded_bch63_gets_a_search_bound(self, tmp_path):
        # a file with only the rows loads a GENERIC code, and the BCH
        # bound's 15 becomes 1; the search alone proves 15
        path = tmp_path / "b63.gm"
        path.write_text("63 24\n" + "".join(
            build_bch(6, 7).generator.row_word(i).to01() + "\n" for i in range(24)))
        code = load_code(path)
        assert code.family == "GENERIC" and code.identity.lower == 1
        assert OsdDecoder(code)._d_lb == 15

    def test_equal_generator_runs_no_second_search(self, monkeypatch, golay24):
        # lower_bound is memoized on the generator and the bound its
        # identity proves, which two equal codes share
        oracle._proven.cache_clear()
        calls = []

        def spy(*args, real=oracle._search):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_search", spy)
        assert OsdDecoder(golay24, order=1)._d_lb == 8
        assert OsdDecoder(build_qdc(11), order=3)._d_lb == 8
        assert oracle.lower_bound(golay24) == 8
        assert len(calls) == 1


class TestPostOrderCertificate:
    """Order-2 decodes on BCH(15,7), where ``codes.identify`` proves 5, of
    words at the edge of the post-order certificate (Taipale and Pursley,
    IEEE T-IT 1991; Fossorier and Lin, IEEE T-IT 1995).  That certificate
    returns the best candidate c of the lower orders when its exact cost is
    below a floor on every other codeword's cost: the sum of the d_lb - |D1|
    smallest magnitudes off D1, the positions where c differs from the hard
    decisions.  The decoder runs no such test.  On each word here the floor
    skip scores the top order, and the decoded word is the reference's.

    The low table holds the 8 flip sets of weight 0 and 1, the top table
    the 21 of weight 2.
    """

    CODE = build_bch(4, 2)
    C = BitWord.parse("100000010001011")  # a weight-5 codeword, row 0

    def near_c(self, *small: float) -> np.ndarray:
        """C with its bits 13 and 14 flipped on the hard decisions, all
        magnitudes 1.0 but for ``small`` at positions 0, 1 and 2.

        The MRB is positions 3..9, all at 1.0, and C is the re-encoded
        hard decisions, the low winner at cost 2.0 over D1 = {13, 14}.
        The MRB's two least reliable magnitudes sum to 2.0 as well, so the
        floor skip scores the top order, and need = 5 - 2 = 3: the
        certificate's floor is the sum of ``small``.
        """
        h = self.C.bits ^ (1 << 13) ^ (1 << 14)
        mag = np.ones(15)
        mag[: len(small)] = small
        return np.array([m if (h >> i) & 1 else -m for i, m in enumerate(mag)])

    def decode(self, y: np.ndarray, scored_tables) -> BitWord:
        """The order-2 decode of ``y``, checked to score both tables and
        to equal ``reference_decode``."""
        out = OsdDecoder(self.CODE, order=2).decode(y)
        assert scored_tables == [8, 21]
        assert out == reference_decode(self.CODE, y, 2)
        return out

    def test_cost_just_below_floor_scores_top_order(self, scored_tables):
        # C's cost, 2.0, is below the floor 0.5 + 0.75 + 0.75 + 2^-40
        assert self.decode(self.near_c(0.5, 0.75, 0.75 + 2.0**-40), scored_tables) == self.C

    # Two words in tenths, from a seeded search for words on which a
    # mutated certificate decides otherwise.  In the first, the decoded c
    # differs from the hard decisions at 5 (0.8) and 6 (0.6): its exact
    # cost, 1.4, equals the floor 0.3 + 0.5 + 0.6, but its LUT cost plus
    # the base rounds below 1.4.  In the second, c differs at 4 (0.3) and
    # 13 (0.8), and costs 1.1 against the floor 0.3 + 0.5 + 0.5 off D1; the
    # three smallest magnitudes of all, 0.3 + 0.3 + 0.5, include position 4
    # and would read 1.1.
    TENTHS_EQUAL = [-0.8, 0.6, -0.8, -0.6, 0.7, -0.8, -0.6, 0.6, -0.5, 0.8, -0.6, 0.3, -0.6, 0.6, 0.7]
    TENTHS_BELOW = [-0.5, 0.6, 0.5, 0.3, -0.3, -0.5, -0.5, -0.8, 0.7, -0.5, -0.7, 0.6, 0.5, 0.8, 0.8]

    def test_cost_below_floor_off_d1_scores_top_order(self, scored_tables):
        y = np.array(self.TENTHS_BELOW)
        out = self.decode(y, scored_tables)
        assert [i for i in range(15) if out[i] != (y[i] > 0)] == [4, 13]

    @pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "tenths"])
    def test_cost_equal_to_floor_scores_top_order(self, scored_tables, dyadic):
        y = self.near_c(0.5, 0.75, 0.75) if dyadic else np.array(self.TENTHS_EQUAL)
        self.decode(y, scored_tables)

    def test_need_not_positive_scores_top_order(self, scored_tables):
        # MRB positions 0..4 at -1.0 and 5, 6 at -0.25; +0.25 on parity
        # positions 7..11 and -0.25 on 12..14.  The zero word wins the low
        # table at cost 1.25 over D1 = {7..11}, so need = 5 - 5 = 0: no
        # floor off D1 exists, and the floor skip (0.5 against 1.25)
        # scores the top order
        y = np.array([-1.0] * 5 + [-0.25] * 2 + [0.25] * 5 + [-0.25] * 3)
        self.decode(y, scored_tables)


# The seven codes MIM runs on in the benchmark and in criteria 4 and 8
MIM_CODES = {
    "qdc24": lambda: build_qdc(11),
    "qr41": lambda: build_qr(41),
    "qr47": lambda: build_qr(47),
    "qr73": lambda: build_qr(73),
    "bch63_24": lambda: build_bch(6, 7),
    "bch63_36": lambda: build_bch(6, 5),
    "bch127": lambda: build_bch(7, 10),
}


def test_decoded_words_are_pinned():
    """The order-3 decodes of seeded impulse, Gaussian and all-+-1 words on
    the seven MIM codes, hashed.  The hash was recorded with byte lookup
    tables for every order and a Gauss-Jordan reduction of every word.
    The decoded word depends on neither the kernel nor the float order of
    the costs (the module docstring's proofs), so it must also hold under
    any BLAS thread count."""
    digest = hashlib.sha256()
    for seed, make in enumerate(MIM_CODES.values(), start=100):
        code = make()
        dec = OsdDecoder(code, order=3)
        for y in mixed_words(code.n, 40, seed=seed):
            digest.update(dec.decode(y).bits.to_bytes((code.n + 7) // 8, "little"))
    assert digest.hexdigest() == "c23314499539afc9c21bd0c3d256f6dc3b4cdb0e5ec7dd9981cc1bf57698d647"


class TestGramCosts:
    """The Gram costs of the flip sets of weight 0 to 2 lie within tol / 2
    of their exact cost minus base, the bound that the near set, the floor
    skip and the zero certificate rest on (``osd._tolerance``)."""

    @staticmethod
    def words(n: int, seed: int) -> list[np.ndarray]:
        """Magnitudes spread over 1e-6 to 1e6, and all-+-1 words, whose
        costs tie everywhere."""
        rng = np.random.default_rng(seed)
        signs = [rng.choice([-1.0, 1.0], size=n) for _ in range(6)]
        return [s * 10.0 ** rng.uniform(-6, 6, size=n) for s in signs[:3]] + signs[3:]

    @pytest.mark.parametrize("make", [lambda: build_qdc(11), lambda: build_qr(47),
                                      lambda: build_bch(6, 7), lambda: build_bch(7, 10)],
                             ids=["qdc24", "qr47", "bch63", "bch127"])
    def test_within_half_tol_of_exact(self, monkeypatch, make):
        code = make()
        n, k = code.n, code.k
        dec = OsdDecoder(code, order=3)
        seen = []
        for name in ("_update", "_gram_score"):
            def spy(*args, real=getattr(osd, name)):
                seen.append((args, real(*args)))
                return seen[-1][1]

            monkeypatch.setattr(osd, name, spy)
        for y in self.words(n, seed=n):
            seen.clear()
            dec.decode(y)
            (_, (rows, perm)), ((pat, *_), costs) = seen
            abs_y = np.abs(y)
            h = hard_decision(y).bits
            c0 = xor_rows(rows, sum(1 << i for i, p in enumerate(perm[:k]) if h >> p & 1))

            def terms(word: int) -> list[float]:
                return [float(abs_y[i]) for i in range(n) if (word ^ h) >> i & 1]

            minus_base = [-t for t in terms(c0)]
            half_tol = osd._tolerance(n, k, 3, abs_y) / 2
            for flips, cost in zip(pat.T.tolist(), costs.tolist()):
                word = c0 ^ xor_rows(rows, sum(1 << i for i in flips if i < k))
                assert abs(math.fsum(terms(word) + minus_base + [-cost])) <= half_tol


def permuted_dcc() -> LinearCode:
    """C(20,10) with its columns shuffled, so its basis in index order is
    not columns 0..k-1."""
    code = build_dcc(BitWord.parse("1001111110"))
    perm = random.Random(20).sample(range(code.n), code.n)
    rows = tuple(sum(((r >> j) & 1) << perm[j] for j in range(code.n)) for r in code.generator.rows)
    return LinearCode(code.n, code.k, BitMatrix(code.n, rows))


# (8,3) code whose columns 0 and 1 are equal and column 3 is the sum of
# columns 0 and 2: its basis in index order is columns 0, 2 and 4
DEPENDENT_LEAD = LinearCode(8, 3, BitMatrix(8, (0b00100111, 0b01001011, 0b11110000)))


def mixed_words(n: int, count: int, seed: int) -> list[np.ndarray]:
    """Impulse words, Gaussian words (no ties) and all-+-1 words (every
    sample ties), ``count`` of each."""
    rng = np.random.default_rng(seed)
    gauss = [rng.normal(size=n) for _ in range(count)]
    signs = [rng.choice([-1.0, 1.0], size=n) for _ in range(count)]
    return mim_words(n, count, seed) + gauss + signs


def cold_reduce(code: LinearCode, y: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and pivots of a reduction from the generator's own rows."""
    rows = list(code.generator.rows)
    piv = eliminate(rows, osd._reliability_order(np.abs(y)).tolist())
    return rows, piv


def warm_reduce(decoder: OsdDecoder, y: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and pivots of a reduction from the decoder's cached basis."""
    rows, perm = osd._update(*decoder._basis, osd._reliability_order(np.abs(y)).tolist())
    return rows, perm[: decoder.code.k]


def column_rank(code: LinearCode, cols: list[int]) -> int:
    mask = sum(1 << c for c in cols)
    return BitMatrix(code.n, tuple(r & mask for r in code.generator.rows)).rank()


class TestCachedBasis:
    """Each decoder reduces its words from a basis cached at construction;
    the rows and pivots must be those of a reduction from scratch."""

    CASES = {
        "bch63-mim": (lambda: build_bch(6, 7), lambda n: mim_words(n, 120, seed=3)),
        "qr47-mim": (lambda: build_qr(47), lambda n: mim_words(n, 120, seed=4)),
        "bch63-mixed": (lambda: build_bch(6, 7), lambda n: mixed_words(n, 30, seed=5)),
        "dcc20-permuted": (permuted_dcc, lambda n: mixed_words(n, 30, seed=6)),
        "dependent-lead": (lambda: DEPENDENT_LEAD, lambda n: mixed_words(n, 30, seed=7)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_warm_start_equals_cold_start(self, case):
        make_code, make_words = self.CASES[case]
        code = make_code()
        dec = OsdDecoder(code, order=min(3, code.k))
        for y in make_words(code.n):
            assert warm_reduce(dec, y) == cold_reduce(code, y)

    def test_cached_basis_skips_dependent_columns(self):
        assert OsdDecoder(DEPENDENT_LEAD, order=1)._basis[1] == (0, 2, 4)
        assert OsdDecoder(permuted_dcc(), order=1)._basis[1] != tuple(range(10))

    @pytest.mark.parametrize("case", CASES)
    def test_pivots_are_greedy_and_rows_reduced(self, case):
        make_code, make_words = self.CASES[case]
        code = make_code()
        n, k = code.n, code.k
        dec = OsdDecoder(code, order=1)
        for y in make_words(n)[::6]:
            rows, piv = warm_reduce(dec, y)
            greedy: list[int] = []
            for c in osd._reliability_order(np.abs(y)).tolist():
                if len(greedy) < k and column_rank(code, greedy + [c]) > len(greedy):
                    greedy.append(c)
            assert piv == greedy
            for i, c in enumerate(piv):
                assert [j for j, r in enumerate(rows) if (r >> c) & 1] == [i]
            assert BitMatrix(n, tuple(rows) + code.generator.rows).rank() == k


@pytest.fixture
def prefilter_everywhere(monkeypatch):
    """The top-order prefilter on every top table of three or more rows,
    however few flip sets it holds."""
    monkeypatch.setattr(osd, "_PREFILTER_MIN", 0)


class TestTopOrderPrefilter:
    """The prefilter's bound LB(F) = floor + SA[a] - SD[d] lies at or below
    the exact cost minus base of every top-order flip set F, ``_prefix_sums``
    holds SA and SD, and every flip set whose LUT cost is within tol of the
    least cost is scored (module docstring).

    Run on the seven MIM codes, on QR(151,76), whose n - k = 75 parity bits
    span two lanes, and on an order-4 decoder, whose low table is scored
    from lookup tables too and whose top table has four rows.
    """

    CASES = {
        **{name: (make, 3) for name, make in MIM_CODES.items()},
        "qr151": (lambda: build_qr(151), 3),
        "qr47-order4": (lambda: build_qr(47), 4),
    }

    @staticmethod
    def words(n: int, seed: int) -> list[np.ndarray]:
        """``mixed_words``, fewer on the longer codes, and the magnitudes of
        ``TestGramCosts.words``, spread over 1e-6 to 1e6."""
        count = 8 if n < 100 else 2
        return mixed_words(n, count, seed) + TestGramCosts.words(n, seed)[:3]

    @pytest.mark.parametrize("case", CASES)
    def test_bound_and_near_set(self, monkeypatch, prefilter_everywhere, case):
        make, order = self.CASES[case]
        code = make()
        n, k = code.n, code.k
        dec = OsdDecoder(code, order=order)
        real_score = osd._score
        seen: dict[str, list] = {}
        for name in ("_update", "_survivors", "_gram_score", "_score"):
            def spy(*args, real=getattr(osd, name), name=name):
                seen.setdefault(name, []).append((args, real(*args)))
                return seen[name][-1][1]

            monkeypatch.setattr(osd, name, spy)
        filtered = kept = total = 0
        for y in self.words(n, seed=n + order):
            seen.clear()
            dec.decode(y)
            if "_survivors" not in seen:
                continue
            [(_, (rows, perm))] = seen["_update"]
            [((pat, _, lanes, _, _), keep)] = seen["_survivors"]
            # the low table is scored first, by the Gram kernel at order 3
            low = seen["_score" if order > 3 else "_gram_score"][0][1]
            filtered, kept, total = filtered + 1, kept + len(keep), total + pat.shape[1]

            abs_y = np.abs(y)
            h = hard_decision(y).bits
            c0 = xor_rows(rows, sum(1 << i for i, p in enumerate(perm[:k]) if h >> p & 1))
            perm = np.array(perm)
            par = unpack_rows(rows + [0], n)[:, perm[k:]].view(bool)
            disagree = unpack_rows([c0 ^ h], n)[0][perm[k:]].view(bool)
            mags = abs_y[perm[k:]]
            w_par = np.where(disagree, -mags, mags)
            w_mrb = np.append(abs_y[perm[:k]], 0.0)
            tol = osd._tolerance(n, k, order, abs_y)

            # the flip sets' a and d, counted from the unpacked parity bits
            x = np.logical_xor.reduce(par[pat], axis=0)
            a, d = (x & ~disagree).sum(axis=1), (x & disagree).sum(axis=1)

            # SA and SD as fsums of the sorted magnitudes; _prefix_sums'
            # running sums lie within (n - k) u sum(|y|) of them
            up, down = sorted(mags[~disagree].tolist()), sorted(mags[disagree].tolist())[::-1]
            ref_sa = [math.fsum(up[:i]) for i in range(len(up) + 1)]
            ref_sd = [math.fsum(down[:i]) for i in range(len(down) + 1)]
            sa, sd = osd._prefix_sums(w_par, disagree)
            err = (n - k + 1) * np.finfo(float).eps / 2 * abs_y.sum()
            assert np.abs(sa - ref_sa).max() <= err and np.abs(sd - ref_sd).max() <= err

            # LB(F), correctly rounded, for each (a, d) that occurs
            floor = sorted(w_mrb[:k].tolist())[:order]
            lb = {ad: math.fsum(floor + up[: ad[0]] + [-v for v in down[: ad[1]]])
                  for ad in set(zip(a.tolist(), d.tolist()))}
            bound = np.array([lb[ad] for ad in zip(a.tolist(), d.tolist())])
            # a dense cost sums at most n - k + order terms, so it lies
            # within tol / 2 of the exact cost minus base, and is exact when
            # every magnitude is a multiple of 2^-10 below 2^20 (all-+-1
            # words, where every bound is tight); where that does not settle
            # it, the fsum of the flip set's terms decides
            cost = w_mrb[pat].sum(axis=0) + x @ w_par
            scaled = abs_y * 1024
            slack = 0.0 if np.array_equal(scaled, np.round(scaled)) and abs_y.max() < 2**20 else tol / 2
            for i in np.flatnonzero(bound > cost - slack).tolist():
                terms = w_mrb[pat[:, i]].tolist() + w_par[x[i]].tolist()
                assert bound[i] <= math.fsum(terms), pat[:, i]

            # the near set of full scoring, within tol of the least LUT or
            # Gram cost, is scored
            full = real_score(pat, lanes, w_mrb, osd._luts(w_par))
            least = min(low.min(), full.min())
            assert set(np.flatnonzero(full <= least + tol).tolist()) <= set(keep.tolist())
        assert filtered > 0 and kept < total

    def test_pinned_words_pass_the_prefilter(self, prefilter_everywhere):
        # the pinned decodes of the seven MIM codes, with every top table of
        # three rows prefiltered, the smallest included
        test_decoded_words_are_pinned()


class TestPatterns:
    """``_patterns``' flip-set tables and pair index, against a
    ``combinations`` reference."""

    @staticmethod
    def reference(k: int, weights: range, width: int) -> np.ndarray:
        cols = [c + (k,) * (width - len(c)) for t in weights for c in combinations(range(k), t)]
        return np.array(cols, dtype=np.intp).reshape(-1, width).T

    @pytest.mark.parametrize("k, order", [(k, t) for k in (0, 1, 2, 3, 5, 12, 24) for t in range(5)]
                             + [(64, 3)])
    def test_tables_match_combinations(self, k, order):
        low, top, pairs = osd._patterns.__wrapped__(k, order)
        for got, want in ((low, self.reference(k, range(order), max(order - 1, 2))),
                          (top, self.reference(k, range(order, order + 1), max(order, 2)))):
            # the Gram kernel reads a two-row table as the flat index
            # i (k + 1) + j; a wider one is compact
            assert got.dtype == (np.intp if len(want) == 2 else np.min_scalar_type(k))
            assert got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want)
        if order > 2:
            assert pairs.dtype == np.min_scalar_type((k + 1) ** 2)
            assert np.array_equal(pairs, top[0].astype(np.intp) * (k + 1) + top[1])
        else:
            assert pairs is None

    def test_peak_memory_is_near_the_tables(self):
        # building the 240 KB of tables and pair index of k = 64, order 3
        # holds no Python tuple per flip set
        tracemalloc.start()
        try:
            out = osd._patterns.__wrapped__(64, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(t.nbytes for t in out)
