import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindist.errors import DimensionError
from mindist.gf2 import (
    BinPoly,
    BitMatrix,
    BitWord,
    GF2mField,
    PRIMITIVE_POLYS,
    cyclotomic_coset,
    eliminate,
    pack_rows,
    poly_gcd,
    unpack_rows,
    xor_rows,
)
from mindist.codes import build_dcc


words = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
)


class TestBitWord:
    def test_weight_zero_word(self):
        assert BitWord(7).weight == 0

    def test_weight_hand_counted(self):
        assert BitWord.parse("1001111110").weight == 7

    @pytest.mark.parametrize("n", [1, 5, 33, 64, 100])
    def test_weight_all_ones(self, n):
        assert BitWord.parse("1" * n).weight == n

    def test_parse_round_trip(self):
        s = "100101110"
        assert BitWord.parse(s).to01() == s

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="index 2"):
            BitWord.parse("10x1")

    def test_index_zero_is_first_symbol(self):
        w = BitWord.parse("10")
        assert w[0] == 1 and w[1] == 0

    def test_xor_length_mismatch(self):
        with pytest.raises(DimensionError):
            BitWord(4) ^ BitWord(5)

    @given(words, st.integers(0, (1 << 64) - 1))
    def test_xor_triangle_inequality(self, nw, other_bits):
        n, bits = nw
        u = BitWord(n, bits)
        v = BitWord(n, other_bits & ((1 << n) - 1))
        assert (u ^ v).weight <= u.weight + v.weight
        assert (u ^ v).length == n


class TestEncode:
    """Encoding is ``xor_rows`` of the generator rows over an info word."""

    def test_zero_info_gives_zero_codeword(self, c20):
        assert xor_rows(c20.generator.rows, 0) == 0

    def test_identity_matrix_is_passthrough(self):
        g = BitMatrix(6, tuple(1 << i for i in range(6)))
        w = BitWord.parse("010110")
        assert xor_rows(g.rows, w.bits) == w.bits

    def test_c20_unit_vector_row(self, c20):
        # systematic row 0: info prefix e_0 then circulant row 0 = the header
        cw = BitWord(20, xor_rows(c20.generator.rows, 1))
        assert cw.to01() == "1000000000" + "1001111110"

    def test_c20_encode_prefix(self, c20):
        # first k bits of any encoding equal the information word
        for bits in (0b1, 0b1011, 0b1111111111):
            assert xor_rows(c20.generator.rows, bits) & 0x3FF == bits

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_linearity(self, a_bits, b_bits):
        rows = build_dcc(BitWord.parse("1001111110")).generator.rows
        assert xor_rows(rows, a_bits ^ b_bits) == xor_rows(rows, a_bits) ^ xor_rows(rows, b_bits)


def span_rank(vectors) -> int:
    """Rank of int vectors over GF(2), by a basis keyed on each vector's
    highest bit: a reference that shares no code with ``eliminate``."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            hi = v.bit_length() - 1
            if hi not in basis:
                basis[hi] = v
                break
            v ^= basis[hi]
    return len(basis)


def column(rows, c: int) -> int:
    """Column c of ``rows`` as an int, bit i from row i."""
    return sum(((r >> c) & 1) << i for i, r in enumerate(rows))


class TestEliminate:
    """``eliminate(rows, cols) -> pivots``, Gauss-Jordan from scratch."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_random_rows(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 16)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
        cols = rng.sample(range(n), rng.randint(1, n))
        out = list(rows)
        piv = eliminate(out, cols)
        # the greedy first independent columns of cols, at most len(rows)
        greedy: list[int] = []
        for c in cols:
            vectors = [column(rows, j) for j in greedy + [c]]
            if len(greedy) < len(rows) and span_rank(vectors) > len(greedy):
                greedy.append(c)
        assert piv == greedy
        # each pivot row is the only row with a 1 in its pivot column
        for i, c in enumerate(piv):
            assert [j for j, r in enumerate(out) if (r >> c) & 1] == [i]
        # the row space is kept
        assert span_rank(rows) == span_rank(out) == span_rank(rows + out)

    def test_dependent_rows_give_fewer_pivots(self):
        rows = [0b0110, 0b1011, 0b0110 ^ 0b1011]
        out = list(rows)
        assert eliminate(out, range(4)) == [0, 1]
        assert out[2] == 0
        assert span_rank(out) == span_rank(rows + out) == 2

    def test_empty_cols_take_no_pivot(self):
        rows = [0b101, 0b011]
        out = list(rows)
        assert eliminate(out, []) == []
        assert out == rows


class TestBitMatrix:
    def test_rank_of_identity(self):
        assert BitMatrix(6, tuple(1 << i for i in range(6))).rank() == 6

    def test_from_strings_rejects_ragged_rows(self):
        with pytest.raises(DimensionError, match="ragged"):
            BitMatrix.from_strings(["101", "10"])


class TestPackedRows:
    @given(st.integers(1, 130).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))))
    def test_round_trip(self, case):
        n, rows = case
        bits = unpack_rows(rows, n)
        assert bits.shape == (len(rows), n) and bits.dtype == np.uint8
        for row, unpacked in zip(rows, bits):
            assert [int(b) for b in unpacked] == [(row >> j) & 1 for j in range(n)]
        assert pack_rows(bits) == rows

    @given(st.lists(st.integers(0, (1 << 40) - 1), min_size=1, max_size=8), st.data())
    def test_xor_rows_is_vector_matrix_product(self, rows, data):
        mask = data.draw(st.integers(0, (1 << len(rows)) - 1))
        expected = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                expected ^= row
        assert xor_rows(tuple(rows), mask) == expected


class TestBinPoly:
    def test_square_of_x_plus_1(self):
        x1 = BinPoly.from_coeffs([1, 1])
        assert x1 * x1 == BinPoly.from_coeffs([1, 0, 1])

    def test_gcd_hand_factored(self):
        a = BinPoly.from_coeffs([1, 0, 1])  # x^2 + 1 = (x+1)^2
        b = BinPoly.from_coeffs([1, 1])
        assert poly_gcd(a, b) == b

    def test_self_mod_is_zero(self):
        p = BinPoly.from_exponents([4, 1, 0])
        assert not p % p

    def test_mod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            BinPoly(0b101) % BinPoly(0)

    def test_zero_degree_convention(self):
        assert BinPoly(0).degree == -1
        assert BinPoly(1).degree == 0

    @given(st.integers(1, 2**20 - 1), st.integers(1, 2**20 - 1))
    def test_degree_of_product(self, a, b):
        pa, pb = BinPoly(a), BinPoly(b)
        assert (pa * pb).degree == pa.degree + pb.degree

    @given(st.integers(0, 2**24 - 1), st.integers(1, 2**12 - 1))
    def test_mod_degree_shrinks(self, a, b):
        r = BinPoly(a) % BinPoly(b)
        assert r.degree < BinPoly(b).degree or not r

    @given(st.integers(0, 2**16 - 1), st.integers(1, 2**10 - 1))
    def test_divmod_reconstructs(self, a, b):
        pa, pb = BinPoly(a), BinPoly(b)
        q, r = divmod(pa, pb)
        assert q * pb + r == pa


class TestField:
    def test_multiplicative_group_order(self):
        f = GF2mField(4)
        assert f.alpha_pow(15) == 1
        assert all(f.alpha_pow(i) != 1 for i in range(1, 15))

    def test_log_addition(self):
        f = GF2mField(4)
        assert f.mul(f.alpha_pow(3), f.alpha_pow(5)) == f.alpha_pow(8)

    def test_alpha_fourth_under_default_modulus(self):
        # x^4 + x + 1: alpha^4 = alpha + 1 = the element 0b0011
        f = GF2mField(4)
        assert f.alpha_pow(4) == 0b0011

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_log_antilog_round_trip(self, m):
        # alpha_pow is a bijection from 0..2^m - 2 onto the nonzero
        # elements, so every nonzero element has exactly one log
        f = GF2mField(m)
        log = {f.alpha_pow(e): e for e in range(f.order)}
        assert sorted(log) == list(range(1, f.order + 1))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_field_axioms_exhaustive(self, m):
        f = GF2mField(m)
        q = 1 << m
        table = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                table[a, b] = f.mul(a, b)
        idx = np.arange(q)
        # commutativity and associativity
        assert (table == table.T).all()
        left = table[table[:, :, None], idx[None, None, :]]   # (a*b)*c
        right = table[idx[:, None, None], table[None]]        # a*(b*c)
        assert (left == right).all()
        # distributivity: a*(b^c) == (a*b)^(a*c)
        xor = idx[:, None] ^ idx[None, :]
        for a in range(q):
            lhs = table[a, xor]
            rhs = table[a][:, None] ^ table[a][None, :]
            assert (lhs == rhs).all()
        # unique inverses
        for a in range(1, q):
            assert sorted(table[a, 1:]) == list(range(1, q))
            assert np.count_nonzero(table[a] == 1) == 1

    @pytest.mark.parametrize("m", [0, 1, 17, 32])
    def test_out_of_range_degree(self, m):
        with pytest.raises(ValueError):
            GF2mField(m)

    def test_primitive_polys_are_primitive(self):
        # independently recheck primitivity: x must have full order
        for m, poly in PRIMITIVE_POLYS.items():
            order = (1 << m) - 1
            seen = set()
            x = 1
            for _ in range(order):
                seen.add(x)
                x <<= 1
                if x >> m:
                    x ^= poly
            assert x == 1 and len(seen) == order, f"m={m}"


class TestCyclotomicCoset:
    def test_zero_fixed_point(self):
        assert cyclotomic_coset(0, 15) == frozenset({0})
        assert cyclotomic_coset(0, 7) == frozenset({0})

    def test_hand_iterated_mod_15(self):
        assert cyclotomic_coset(1, 15) == frozenset({1, 2, 4, 8})
        assert cyclotomic_coset(5, 15) == frozenset({5, 10})

    @given(st.integers(1, 200))
    def test_closed_under_doubling(self, seed):
        n = 2 * seed + 1
        s = seed % n
        c = cyclotomic_coset(s, n)
        assert all((2 * x) % n in c for x in c)
        assert s in c

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            cyclotomic_coset(1, 8)
