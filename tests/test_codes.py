import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindist

from mindist import codes, gf2, mim, oracle
from mindist.cli import EXIT_OK, main
from mindist.codes import (
    LinearCode,
    build_bch,
    build_dcc,
    build_qdc,
    build_qr,
    identify,
    load_code,
    multiplicative_order_of_2,
    quadratic_residues,
    save_code,
)
from mindist.errors import RankError
from mindist.gf2 import BinPoly, BitMatrix, BitWord, GF2mField, eliminate, xor_rows
from mindist.oracle import exact_min_distance
from mindist.osd import OsdDecoder
from test_osd import DEPENDENT_LEAD, permuted_dcc

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestQuadraticResidues:
    def test_p7(self):
        assert quadratic_residues(7) == {1, 2, 4}

    def test_p11(self):
        assert quadratic_residues(11) == {1, 3, 4, 5, 9}

    def test_p3(self):
        assert quadratic_residues(3) == {1}

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_size_is_half(self, p):
        assert len(quadratic_residues(p)) == (p - 1) // 2

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 9, 15, 21])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            quadratic_residues(p)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_euler_criterion(self, p):
        q = quadratic_residues(p)
        for r in range(1, p):
            assert (r in q) == (pow(r, (p - 1) // 2, p) == 1)


class TestBch:
    def test_15_11_shape_and_design(self):
        code = build_bch(4, 1)
        assert (code.n, code.k) == (15, 11)
        assert code.identity.bch == 3
        assert code.family == "BCH"

    def test_31_26_shape(self):
        code = build_bch(5, 1)
        assert (code.n, code.k) == (31, 26)
        assert code.identity.bch == 3

    def test_hamming_7_4_is_bch_and_qr(self):
        # BCH(7,4) is QR(7): it keeps its BCH label, and identify proves both;
        # unlabelled, as loaded from a file, it takes QR first
        code = build_bch(3, 1)
        assert code.family == "BCH"
        assert code.identity == (3, True, 3)
        assert LinearCode(7, 4, code.generator, metadata=code.metadata).family == "QR"
        assert code.generator == build_qr(7).generator

    def test_generator_poly_m4_t1_is_primitive_poly(self):
        code = build_bch(4, 1)
        assert code.metadata["generator_poly"] == 0b10011

    @pytest.mark.parametrize(
        "m, t, n, k", [(4, 1, 15, 11), (4, 2, 15, 7), (5, 3, 31, 16), (6, 7, 63, 24), (6, 5, 63, 36), (7, 10, 127, 64)]
    )
    def test_known_dimensions(self, m, t, n, k):
        code = build_bch(m, t)
        assert (code.n, code.k) == (n, k)

    @pytest.mark.parametrize("m, t", [(3, 1), (4, 2), (5, 3), (6, 4)])
    def test_roots_alpha_1_to_2t(self, m, t):
        code = build_bch(m, t)
        g = BinPoly(code.metadata["generator_poly"])
        f = GF2mField(m)
        for i in range(1, 2 * t + 1):
            assert g.evaluate_in(f, f.alpha_pow(i)) == 0

    def test_generator_absorbs_everything(self):
        with pytest.raises(ValueError, match="absorbs"):
            build_bch(3, 4)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            build_bch(2, 1)
        with pytest.raises(ValueError):
            build_bch(10, 1)

    def test_oracle_pin_15_11(self):
        assert exact_min_distance(build_bch(4, 1)).d_exact == 3

    def test_systematized_encode_prefix(self):
        # the reduced cyclic rows are [I_k | P]; info word = codeword prefix
        code = build_bch(4, 2)
        for bits in (0b1, 0b1010110, 0b1111111):
            cw = xor_rows(code.generator.rows, bits)
            assert cw & ((1 << code.k) - 1) == bits


class TestQr:
    @pytest.mark.parametrize("p, k", [(7, 4), (17, 9), (23, 12), (31, 16), (41, 21), (47, 24), (73, 37)])
    def test_dimensions(self, p, k):
        code = build_qr(p)
        assert (code.n, code.k) == (p, k)
        assert code.family == "QR"

    def test_p7_is_hamming_distance_3(self, hamming7):
        assert exact_min_distance(hamming7).d_exact == 3

    @pytest.mark.parametrize("p, d", [(17, 5), (23, 7), (31, 7), (41, 9), (47, 11)])
    def test_oracle_pins(self, p, d):
        assert exact_min_distance(build_qr(p)).d_exact == d

    @pytest.mark.parametrize("p", [7, 17, 23, 31, 41, 47, 73])
    def test_generator_divides_x_p_minus_1(self, p):
        g = BinPoly(build_qr(p).metadata["generator_poly"])
        assert g.degree == (p - 1) // 2
        assert not BinPoly((1 << p) | 1) % g

    @pytest.mark.parametrize("p", [7, 17, 23, 31, 73])
    def test_roots_are_residue_powers(self, p):
        # checkable whenever the splitting field fits the table range
        m = multiplicative_order_of_2(p)
        f = GF2mField(m)
        beta = f.alpha_pow(f.order // p)
        g = BinPoly(build_qr(p).metadata["generator_poly"])
        for r in quadratic_residues(p):
            assert g.evaluate_in(f, f.pow(beta, r)) == 0

    @pytest.mark.parametrize("p", [3, 5, 11, 13, 19, 29, 37, 43])
    def test_rejects_2_nonresidue(self, p):
        with pytest.raises(ValueError, match="not a quadratic residue"):
            build_qr(p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="prime"):
            build_qr(9)


CYCLIC = [(f"bch-{m}-{t}", lambda m=m, t=t: build_bch(m, t))
          for m in range(3, 8) for t in (1, 2, 3, 5, 10) if 2 * t < (1 << m) - 1]
CYCLIC += [(f"qr{p}", lambda p=p: build_qr(p)) for p in (7, 17, 23, 31, 41, 47, 71, 73, 79)]


@pytest.mark.parametrize("make", [make for _, make in CYCLIC], ids=[key for key, _ in CYCLIC])
def test_cyclic_column_permutation_is_the_identity(make):
    # the rows x^i g(x), with g(0) = 1, are unit upper triangular on
    # columns 0..k-1: eliminate takes those pivots and moves no column, so
    # the record keeps no permutation, the stored rows are the reduced
    # shifts, and the stored generator spans the cyclic code itself
    code = make()
    n, k = code.n, code.k
    rows = [code.metadata["generator_poly"] << i for i in range(k)]
    assert eliminate(rows, range(n)) == list(range(k))
    assert tuple(rows) == code.generator.rows
    assert "column_permutation" not in code.metadata


@pytest.mark.parametrize("make", [lambda: build_bch(6, 7), lambda: build_bch(7, 10), lambda: build_qr(47)],
                         ids=["bch63_24", "bch127_64", "qr47"])
def test_cyclic_build_reduces_twice(make, monkeypatch):
    """A BCH or QR build reduces two row sets: the shifts x^i g(x) to
    [I_k | P], then the generator into ``code.basis``.  ``identify`` proves
    the hint by division and reduces nothing."""
    calls = []
    for module in (gf2, codes):
        monkeypatch.setattr(module, "eliminate", lambda *args: calls.append(args) or eliminate(*args))
    code = make()
    assert len(calls) == 2
    calls.clear()
    assert identify(code.generator, code.metadata["generator_poly"]) == code.identity
    assert calls == []


class TestDcc:
    def test_c20_shape(self, c20):
        assert (c20.n, c20.k) == (20, 10)
        assert c20.family == "DCC"

    def test_row_weights_are_header_weight_plus_one(self, c20):
        for i in range(c20.k):
            assert c20.generator.row_word(i).weight == 8

    def test_circulant_rows(self, c20):
        header = "1001111110"
        for i in range(10):
            row = c20.generator.row_word(i).to01()
            rotated = header[-i:] + header[:-i] if i else header
            assert row[10:] == rotated
            assert row[:10] == "".join("1" if j == i else "0" for j in range(10))

    def test_all_zero_header_distance_1(self):
        code = build_dcc(BitWord(4))
        assert exact_min_distance(code).d_exact == 1

    @pytest.mark.parametrize(
        "header, d",
        [("1001111110", 6), ("101000110111", 8), ("00010110111", 7)],
    )
    def test_table_pins(self, header, d):
        assert exact_min_distance(build_dcc(BitWord.parse(header))).d_exact == d

    def test_header_too_short(self):
        with pytest.raises(ValueError):
            build_dcc(BitWord.parse("1"))


class TestQdc:
    @pytest.mark.parametrize("p, n, k", [(11, 24, 12), (13, 28, 14), (19, 40, 20), (29, 60, 30)])
    def test_dimensions(self, p, n, k):
        code = build_qdc(p)
        assert (code.n, code.k) == (n, k)
        assert code.family == "QDC"

    @pytest.mark.parametrize("p, d", [(11, 8), (13, 8), (19, 8)])
    def test_oracle_pins(self, p, d):
        assert exact_min_distance(build_qdc(p)).d_exact == d

    def test_border_shape(self, golay24):
        g = golay24.generator
        k = 12
        # row 0 of B: corner 0 then all ones
        row0 = g.row_word(0).to01()[k:]
        assert row0 == "0" + "1" * 11
        # column 0 of B is all ones below the corner
        for i in range(1, k):
            assert (g.rows[i] >> k) & 1

    def test_residue_polynomial_weight(self):
        # p = 3 (mod 8): weight(b) = 1 + (p-1)/2; p = 5 (mod 8): (p-1)/2
        assert bin(build_qdc(11).metadata["b_poly"]).count("1") == 6
        assert bin(build_qdc(13).metadata["b_poly"]).count("1") == 6
        assert bin(build_qdc(19).metadata["b_poly"]).count("1") == 10

    def test_corner_configurable(self):
        code = build_qdc(11, corner=1)
        assert (code.generator.rows[0] >> 12) & 1

    @pytest.mark.parametrize("p", [7, 17, 23, 41])
    def test_rejects_wrong_residue_class(self, p):
        with pytest.raises(ValueError, match="mod 8"):
            build_qdc(p)


def loads(text: str) -> LinearCode:
    return load_code(io.StringIO(text))


class TestMatrixIO:
    def test_repetition_from_text(self):
        code = loads("3 1\n111\n")
        assert (code.n, code.k) == (3, 1)
        assert exact_min_distance(code).d_exact == 3

    def test_round_trip(self, tmp_path, c20):
        path = tmp_path / "c20.gm"
        save_code(c20, path)
        loaded = load_code(path)
        assert loaded.generator == c20.generator
        assert (loaded.n, loaded.k) == (20, 10)
        # a code with no generator polynomial gets no line for it
        assert len(path.read_text().splitlines()) == 11 and loaded.metadata == {}

    @pytest.mark.parametrize("code", [build_bch(6, 5), build_qr(73)], ids=["bch63_36", "qr73"])
    def test_generator_poly_round_trip(self, code):
        # the file keeps g as a hint, so the loaded code gets back the family
        # and the bound identify proves from it
        buf = io.StringIO()
        save_code(code, buf)
        g = code.metadata["generator_poly"]
        assert buf.getvalue().splitlines()[-1] == f"# generator_poly {g:#x}"
        loaded = loads(buf.getvalue())
        assert loaded.generator == code.generator
        assert (loaded.family, loaded.metadata) == (code.family, {"generator_poly": g})
        assert loaded.identity == code.identity and code.identity.lower > 1

    def test_saved_poly_outlives_a_changed_hint(self):
        # the file gets the polynomial the identity was proven from, so the
        # loaded code is BCH with the bound 11, not GENERIC with 1
        code = build_bch(6, 5)
        g = code.metadata["generator_poly"]
        code.metadata["generator_poly"] = 0
        buf = io.StringIO()
        save_code(code, buf)
        assert buf.getvalue().splitlines()[-1] == f"# generator_poly {g:#x}"
        loaded = loads(buf.getvalue())
        assert (loaded.family, loaded.identity) == ("BCH", (11, False, 11))
        assert loaded.proven_poly == code.proven_poly == g

    @pytest.mark.parametrize("construct, build", [
        (["--bch", "7", "10"], lambda: build_bch(7, 10)),
        (["--bch", "6", "7"], lambda: build_bch(6, 7)),
        (["--qr", "73"], lambda: build_qr(73)),
    ], ids=["bch127_64", "bch63_24", "qr73"])
    def test_loaded_code_matches_the_built_code(self, construct, build, tmp_path):
        # same family, identity, MIM defaults and seeded MIM record (bound
        # report included) but for the code's params and the times
        path = tmp_path / "code.gm"
        assert main(["construct", *construct, "--out", str(path)]) == EXIT_OK
        built, loaded = build(), load_code(path)
        assert loaded.family == built.family
        assert loaded.identity == built.identity
        cfg = mim.MimConfig.for_code(built, nb_test=3, rng_seed=1)
        assert cfg.d1 == (built.identity.bch or built.n // 2)  # 21, 15 and 36
        assert mim.MimConfig.for_code(loaded, nb_test=3, rng_seed=1) == cfg

        def record(code):
            doc = mim.run(code, cfg).to_dict()
            del doc["code"]["params"], doc["wall_time_seconds"]
            for event in doc["events"]:
                event.pop("time", None)
            return json.dumps(doc, sort_keys=True)

        assert record(loaded) == record(built)

    @pytest.mark.parametrize("tail", [
        "# generator_poly 0x7\n# generator_poly 0x7\n",
        "# generator_poly 7\n",
        "# generator_poly 0xG\n",
        "# note\n",
    ], ids=["twice", "no-0x", "not-hex", "other-comment"])
    def test_other_lines_after_k_rows_are_errors(self, tail):
        with pytest.raises(ValueError, match="unexpected text after the 2 rows"):
            loads("4 2\n1100\n0011\n" + tail)

    def test_trailing_newline_optional(self):
        assert loads("3 1\n111").generator == loads("3 1\n111\n").generator

    def test_short_row_reports_index(self):
        with pytest.raises(ValueError, match="row 1"):
            loads("10 2\n1010101010\n101010101\n")

    def test_bad_symbol(self):
        with pytest.raises(ValueError, match="row 0"):
            loads("4 1\n10x0\n")

    def test_rank_deficient_file(self):
        with pytest.raises(RankError):
            loads("4 2\n1010\n1010\n")

    def test_row_after_k_rows_is_an_error(self):
        with pytest.raises(ValueError, match="line 4: unexpected text after the 2 rows: '1111'"):
            loads("4 2\n1100\n0011\n1111\n")

    def test_blank_lines_after_k_rows_are_accepted(self):
        assert loads("4 2\n1100\n0011\n\n  \n").generator == loads("4 2\n1100\n0011\n").generator

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            loads("3\n111\n")


class TestLinearCode:
    def test_rejects_rank_deficient(self):
        with pytest.raises(RankError):
            LinearCode(4, 2, BitMatrix.from_strings(["1111", "1111"]))

    def test_rejects_k_equal_n(self):
        with pytest.raises(ValueError):
            LinearCode(2, 2, BitMatrix(2, (0b01, 0b10)))

    @pytest.mark.parametrize("family", ["GENERIC", "BCH", "DCC"])
    def test_unhashable_hint_proves_nothing(self, family):
        # a hint as a JSON reader would give it: a list of coefficients,
        # which is no int and so no polynomial
        gen = build_bch(3, 1).generator
        hint = {"generator_poly": [1, 1, 0, 1]}
        if family == "BCH":
            with pytest.raises(ValueError, match="do not prove a BCH code"):
                LinearCode(7, 4, gen, family=family, metadata=hint)
        else:
            code = LinearCode(7, 4, gen, family=family, metadata=hint)
            assert code.family == family and code.identity == (None, False, 1)

    def test_float_hint_proves_nothing(self):
        # only an int is a polynomial
        bch = build_bch(3, 1)
        hint = {"generator_poly": float(bch.metadata["generator_poly"])}
        assert LinearCode(7, 4, bch.generator, metadata=hint).family == "GENERIC"
        with pytest.raises(ValueError, match="do not prove a BCH code"):
            LinearCode(7, 4, bch.generator, family="BCH", metadata=hint)

    def test_identity_outlives_a_changed_hint(self):
        # what the code proved at construction is what every reader sees,
        # the MIM default d1 and the proven lower bound included
        code = build_bch(6, 5)
        code.metadata["generator_poly"] = 0
        assert (code.family, code.identity) == ("BCH", (11, False, 11))
        assert mim.MimConfig.for_code(code).d1 == 11
        assert oracle.lower_bound(code) == 11

    @pytest.mark.parametrize("name", ["identity", "basis"])
    def test_identity_is_derived(self, name):
        # not an argument, not compared, not in the repr
        (f,) = [f for f in dataclasses.fields(LinearCode) if f.name == name]
        assert (f.init, f.compare, f.repr) == (False, False, False)
        code = build_bch(3, 1)
        with pytest.raises(TypeError):
            LinearCode(7, 4, code.generator, **{name: getattr(code, name)})
        assert name not in repr(code)

    @pytest.mark.parametrize("make", [
        lambda: build_bch(6, 7),
        lambda: build_qr(23),
        lambda: build_dcc(BitWord.parse("1001111110")),
        lambda: build_qdc(11),
        lambda: LinearCode(7, 1, BitMatrix.from_strings(["1111111"])),
        permuted_dcc,
        lambda: DEPENDENT_LEAD,
    ], ids=["bch63_24", "qr23", "dcc20", "qdc24", "generic", "dcc20-permuted", "dependent-lead"])
    def test_basis_is_the_reduction_in_index_order(self, make):
        # the one reduction of the generator, which the OSD decoder reads;
        # the last two codes have pivots other than 0..k-1
        code = make()
        rows = list(code.generator.rows)
        piv = eliminate(rows, range(code.n))
        assert code.basis == (tuple(rows), tuple(piv))
        assert OsdDecoder(code, order=1)._basis is code.basis

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_rows_are_codewords(self, seed):
        import random

        rng = random.Random(seed)
        k = rng.randint(2, 8)
        header = BitWord(k, rng.getrandbits(k))
        code = build_dcc(header)
        d = exact_min_distance(code).d_exact
        for i in range(k):
            assert d <= code.generator.row_word(i).weight


BROKEN_CONSTRUCTIONS = """
from mindist import codes, gf2
from mindist.errors import ConsistencyError


def raises(make, message):
    try:
        make()
    except ConsistencyError as e:
        return message in str(e)
    return False


poly = gf2.PRIMITIVE_POLYS[4]
field = True
# x^4 + 1 = (x + 1)^4, where x^15 = x^3; x^4 + x^3 + x^2 + x + 1, where x^5 = 1
for bad in (0b10001, 0b11111):
    gf2.PRIMITIVE_POLYS[4] = bad
    field = field and raises(lambda: gf2.GF2mField(4), "is not primitive")
gf2.PRIMITIVE_POLYS[4] = poly
codes.multiplicative_order_of_2 = lambda p: 4  # GF(16)* has no element of order 7
qr = raises(lambda: codes.qr_generator_poly(7), "does not have order 7")
gf2.cyclotomic_coset = lambda s, n: frozenset({s})  # minimal polynomial x + alpha
minpoly = raises(lambda: gf2.GF2mField(4).minimal_polynomial(1), "left GF(2)")
ok = field and qr and minpoly
raise SystemExit(0 if ok else f"field raised: {field}, QR raised: {qr}, minpoly raised: {minpoly}")
"""


def test_construction_checks_hold_under_optimize():
    src = Path(mindist.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CONSTRUCTIONS],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
