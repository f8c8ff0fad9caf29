import random
from collections import Counter

import pytest

from mindist.codes import LinearCode, build_dcc
from mindist.errors import BudgetError
from mindist.gf2 import BitMatrix, BitWord
from mindist.oracle import exact_enumerator, exact_min_distance

from conftest import naive_min_distance


def random_systematic(rng: random.Random, k: int, n: int) -> LinearCode:
    rows = tuple((1 << i) | (rng.getrandbits(n - k) << k) for i in range(k))
    return LinearCode(n, k, BitMatrix(n, rows))


def naive_enumerator(code: LinearCode) -> dict[int, int]:
    """Weight count over all 2^k codewords, built by doubling the word list
    row by row (no Gray order, no packing)."""
    words = [0]
    for row in code.generator.rows:
        words += [w ^ row for w in words]
    return dict(Counter(w.bit_count() for w in words))


class TestExactMinDistance:
    def test_c22_11_table_pin(self):
        code = build_dcc(BitWord.parse("00010110111"))
        assert exact_min_distance(code).d_exact == 7

    def test_c46_23_table_pin(self):
        code = build_dcc(BitWord.parse("01101101111101011110000"))
        assert exact_min_distance(code).d_exact == 11

    def test_repetition_enumerator(self):
        code = LinearCode(5, 1, BitMatrix.from_strings(["11111"]))
        res = exact_enumerator(code)
        assert res.d_exact == 5
        assert res.enumerator == {0: 1, 5: 1}
        assert res.witness == BitWord.ones(5)

    def test_repetition3_enumerator(self, repetition3):
        assert exact_enumerator(repetition3).enumerator == {0: 1, 3: 1}

    def test_hamming7_enumerator(self, hamming7):
        res = exact_enumerator(hamming7)
        assert res.enumerator == {0: 1, 3: 7, 4: 7, 7: 1}

    def test_golay24_enumerator_min_weight(self, golay24):
        res = exact_enumerator(golay24)
        nonzero = sorted(w for w in res.enumerator if w)
        assert nonzero[0] == 8
        assert sum(res.enumerator.values()) == 1 << 12

    def test_witness_properties(self, c20):
        res = exact_min_distance(c20)
        assert res.d_exact == 6
        assert res.witness.weight == 6
        assert res.witness.bits != 0
        # witness lies in the row space
        stacked = BitMatrix(c20.n, c20.generator.rows + (res.witness.bits,))
        assert stacked.rank() == c20.k

    def test_enumerated_count(self, c20):
        assert exact_min_distance(c20).enumerated == 1 << 10

    def test_enumerator_off_by_default(self, c20):
        assert exact_min_distance(c20).enumerator is None


class TestBudget:
    def test_refusal_names_cost(self):
        rng = random.Random(7)
        rows = tuple((1 << i) | (rng.getrandbits(40) << 40) for i in range(40))
        code = LinearCode(80, 40, BitMatrix(80, rows))
        with pytest.raises(BudgetError, match=r"2\^40"):
            exact_min_distance(code)

    def test_explicit_budget_override(self, c20):
        with pytest.raises(BudgetError):
            exact_min_distance(c20, budget=9)
        assert exact_min_distance(c20, budget=10).d_exact == 6


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_small_codes_bit_for_bit(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 11)
        extra = rng.randint(1, 10)
        rows = tuple((1 << i) | (rng.getrandbits(extra) << k) for i in range(k))
        code = LinearCode(k + extra, k, BitMatrix(k + extra, rows))
        want_d, want_witness = naive_min_distance(code)
        res = exact_min_distance(code)
        assert res.d_exact == want_d
        assert res.witness == want_witness

    def test_c20_bit_for_bit(self, c20):
        want_d, want_witness = naive_min_distance(c20)
        res = exact_min_distance(c20)
        assert (res.d_exact, res.witness) == (want_d, want_witness)

    def test_gray_low_block_boundary(self):
        # k above the low-block size exercises the high/low split
        rng = random.Random(123)
        k = 18
        rows = tuple((1 << i) | (rng.getrandbits(6) << k) for i in range(k))
        code = LinearCode(k + 6, k, BitMatrix(k + 6, rows))
        res = exact_min_distance(code)
        want_d, want_witness = naive_min_distance(code)
        assert (res.d_exact, res.witness) == (want_d, want_witness)

    @pytest.mark.parametrize("seed", range(2))
    def test_two_lane_codes_bit_for_bit(self, seed):
        # n > 64 packs each codeword into two uint64 lanes; k = 17 gives a
        # second, odd high block, which runs the low table in reverse
        code = random_systematic(random.Random(seed), 17, 70)
        want_d, want_witness = naive_min_distance(code)
        res = exact_min_distance(code)
        assert (res.d_exact, res.witness) == (want_d, want_witness)

    def test_tie_in_odd_block_takes_first_visited(self):
        # rows 15 and 16 have parities E = D + {x} and D, |D| = 2: row 16 and
        # row 15 ^ row 16 both weigh 3, and both lie in high block 1.  That
        # block visits gray(j) for j = 2^16 - 1 down to 0, so row 15 ^ row 16
        # (j = 2^16 - 1) comes before row 16 alone (j = 0).
        k, n = 17, 70
        rng = random.Random(5)
        rows = [(1 << i) | (rng.getrandbits(n - k) << k) for i in range(k - 2)]
        d_bits = (1 << k) | (1 << (k + 1))
        rows.append((1 << 15) | d_bits | (1 << (k + 2)))
        rows.append((1 << 16) | d_bits)
        code = LinearCode(n, k, BitMatrix(n, tuple(rows)))
        res = exact_min_distance(code)
        assert res.d_exact == 3
        assert res.witness.bits == rows[15] ^ rows[16]
        assert (res.d_exact, res.witness) == naive_min_distance(code)

    def test_weights_above_255_do_not_wrap(self):
        # n + 1 = 301 and a weight-290 codeword: both would wrap in uint8
        # (to 45 and 34), below the true distance
        k, n = 3, 300
        rng = random.Random(11)
        heavy = (1 << 289) - 1
        rows = (1 | (heavy << k),
                2 | (rng.getrandbits(n - k) << k),
                4 | (rng.getrandbits(n - k) << k))
        code = LinearCode(n, k, BitMatrix(n, rows))
        want_d, want_witness = naive_min_distance(code)
        assert want_d > 45
        res = exact_enumerator(code)
        assert (res.d_exact, res.witness) == (want_d, want_witness)
        assert res.enumerator == naive_enumerator(code)
        assert res.enumerator[290] == 1


class TestEnumeratorAgainstNaive:
    @pytest.mark.parametrize("n", [40, 70])
    def test_k18_enumerator(self, n):
        # k = 18: four high blocks, two of them reversed; one and two lanes
        code = random_systematic(random.Random(n), 18, n)
        res = exact_enumerator(code)
        want = naive_enumerator(code)
        assert want[0] == 1
        assert res.enumerator == want
        assert res.d_exact == min(w for w in want if w)


class TestStructuralInvariants:
    def test_d_at_most_any_row_weight(self, golay24):
        d = exact_min_distance(golay24).d_exact
        for i in range(golay24.k):
            assert d <= golay24.generator.row_word(i).weight

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_row_restriction(self, seed):
        rng = random.Random(seed)
        header = BitWord(10, rng.getrandbits(10) | 1)
        code = build_dcc(header)
        d_full = exact_min_distance(code).d_exact
        keep = sorted(rng.sample(range(10), 9))
        sub_rows = tuple(code.generator.rows[i] for i in keep)
        sub = LinearCode(20, 9, BitMatrix(20, sub_rows))
        assert exact_min_distance(sub).d_exact >= d_full

    def test_enumerator_total_is_2_pow_k(self, hamming7):
        res = exact_enumerator(hamming7)
        assert sum(res.enumerator.values()) == 1 << hamming7.k


@pytest.mark.extended
class TestExtendedTable9:
    @pytest.mark.parametrize(
        "header, d",
        [
            ("00011011111000110010010010010", 12),   # C(58,29)
            ("1100001010100011100000011010110", 12),  # C(62,31)
        ],
    )
    def test_large_rows(self, header, d):
        code = build_dcc(BitWord.parse(header))
        res = exact_min_distance(code, budget=code.k)
        assert res.d_exact == d
