import random

import numpy as np
import pytest

from mindist.errors import ConsistencyError
from mindist.gf2 import BitMatrix, BitWord
from mindist.osd import OsdDecoder, SoftWord, _eliminate, hard_decision, most_reliable_basis


def all_codewords(code) -> list[BitWord]:
    """Independent enumeration of the whole code (small k only)."""
    out = []
    for info in range(1 << code.k):
        out.append(code.encode(BitWord(code.k, info)))
    return out


def ml_decode(codewords: list[BitWord], y: np.ndarray) -> BitWord:
    """Exhaustive minimum-Euclidean-distance reference decoder.

    Ties break toward the lexicographically smaller codeword, matching the
    OSD tie rule.
    """
    best = None
    best_cost = None
    for cw in codewords:
        s = np.fromiter(((1.0 if (cw.bits >> i) & 1 else -1.0) for i in range(cw.length)),
                        dtype=np.float64, count=cw.length)
        cost = float(((y - s) ** 2).sum())
        if best is None or cost < best_cost or (cost == best_cost and cw.to01() < best.to01()):
            best, best_cost = cw, cost
    return best


class TestHardDecision:
    def test_all_minus_one_is_zero_word(self):
        assert hard_decision(SoftWord.all_zero_channel(6)) == BitWord.zeros(6)

    def test_sign_readout(self):
        y = SoftWord.from_iterable([0.3, -0.1, 2.0])
        assert hard_decision(y).to01() == "101"

    def test_exact_zero_demaps_to_zero(self):
        y = SoftWord.from_iterable([0.0, 1.0, -1.0])
        assert hard_decision(y).to01() == "010"


class TestMostReliableBasis:
    def test_identity_prefix_when_reliability_decreasing(self, golay24):
        y = SoftWord.from_iterable([float(24 - i) * (-1) ** i for i in range(24)])
        gsys, perm = most_reliable_basis(golay24, y)
        # strictly decreasing |y| and independent first k columns: identity order
        assert perm[: golay24.k] == tuple(range(golay24.k))
        for i in range(golay24.k):
            for j in range(golay24.k):
                assert gsys.entry(i, j) == (1 if i == j else 0)

    def test_equal_reliabilities_prefer_lower_index(self, golay24):
        y = SoftWord.all_zero_channel(24)
        _, perm = most_reliable_basis(golay24, y)
        assert perm[: golay24.k] == tuple(range(golay24.k))

    def test_mrb_reencoding_agrees_on_basis_positions(self, golay24):
        rng = random.Random(3)
        for _ in range(50):
            y = SoftWord.from_iterable([rng.uniform(-2, 2) for _ in range(24)])
            gsys, perm = most_reliable_basis(golay24, y)
            h = hard_decision(y)
            info = BitWord(golay24.k, sum(
                ((h.bits >> perm[i]) & 1) << i for i in range(golay24.k)
            ))
            cw_sys = gsys.mul_word(info)
            for i in range(golay24.k):
                assert cw_sys[i] == (h.bits >> perm[i]) & 1

    def test_perm_is_permutation(self, golay24):
        y = SoftWord.from_iterable([0.1 * ((i * 7) % 11 - 5) for i in range(24)])
        _, perm = most_reliable_basis(golay24, y)
        assert sorted(perm) == list(range(24))


class TestOsdDecode:
    def test_noiseless_fixed_point(self, golay24):
        rng = random.Random(11)
        dec = OsdDecoder(golay24, order=1)
        for _ in range(50):
            cw = golay24.encode(BitWord(12, rng.getrandbits(12)))
            assert dec.decode(SoftWord.bpsk(cw)) == cw

    def test_all_minus_one_decodes_to_zero(self, golay24):
        for order in (0, 1, 2, 3):
            dec = OsdDecoder(golay24, order=order)
            assert dec.decode(SoftWord.all_zero_channel(24)) == BitWord.zeros(24)

    def test_output_is_always_a_codeword(self, golay24):
        rng = random.Random(5)
        dec = OsdDecoder(golay24, order=2)
        for _ in range(60):
            y = [rng.uniform(-2, 2) for _ in range(24)]
            out = dec.decode(SoftWord.from_iterable(y))
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
        rng = random.Random(23)
        dec = OsdDecoder(golay24, order=2)
        agree = 0
        trials = 400
        for _ in range(trials):
            y = np.full(24, -1.0)
            y[rng.sample(range(24), 3)] += 1.0
            if dec.decode(y) == ml_decode(codewords, y):
                agree += 1
        assert agree / trials >= 0.95

    def test_full_order_equals_ml_on_random_noise(self, golay24):
        # order k reprocessing enumerates the entire code: must match the
        # exhaustive reference exactly, tie rule included
        codewords = all_codewords(golay24)
        rng = random.Random(29)
        dec = OsdDecoder(golay24, order=12)
        for _ in range(25):
            y = np.array([rng.uniform(-1.5, 1.5) for _ in range(24)])
            assert dec.decode(y) == ml_decode(codewords, y)

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
            h = hard_decision(SoftWord.from_iterable(y))
            u0 = sum(((h.bits >> perm[i]) & 1) << i for i in range(4))
            import itertools

            for t in (0, 1, 2):
                for combo in itertools.combinations(range(4), t):
                    u = u0
                    for i in combo:
                        u ^= 1 << i
                    cw_sys = gsys.mul_word(BitWord(4, u))
                    cand = 0
                    for j in range(7):
                        if cw_sys[j]:
                            cand |= 1 << perm[j]
                    sc = np.array([1.0 if (cand >> i) & 1 else -1.0 for i in range(7)])
                    assert out_cost <= ((y - sc) ** 2).sum() + 1e-9

    def test_order_bounds(self, golay24):
        with pytest.raises(ValueError):
            OsdDecoder(golay24, order=13)
        with pytest.raises(ValueError):
            OsdDecoder(golay24, order=-1)

    def test_rank_loss_is_a_consistency_error(self):
        with pytest.raises(ConsistencyError, match="lost rank"):
            _eliminate([0b011, 0b011], 2, 3)

    def test_wrong_length_rejected(self, golay24):
        with pytest.raises(ValueError, match="length"):
            OsdDecoder(golay24, order=1).decode(np.zeros(23))
