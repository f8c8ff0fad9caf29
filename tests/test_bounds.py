import dataclasses
import json
import random

import pytest

from mindist import mim, oracle
from mindist.bounds import (
    BoundReport,
    build_report,
    enforce,
    krasikov_upper,
    qr_sqrt_lower,
    singleton,
    sqrt_display,
    truncate2,
)
from mindist.codes import (
    LinearCode,
    _cyclic_generator,
    build_bch,
    build_dcc,
    build_qdc,
    build_qr,
    identify,
    qr_factors,
)
from mindist.errors import ConsistencyError, RankError
from mindist.gf2 import BitMatrix, BitWord
from mindist.oracle import exact_min_distance


class TestSingleton:
    @pytest.mark.parametrize("n, k, want", [(7, 4, 4), (10, 9, 2), (255, 99, 157)])
    def test_values(self, n, k, want):
        assert singleton(n, k) == want

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            singleton(5, 5)


class TestQrSqrtLower:
    def test_n233_table_row(self):
        assert qr_sqrt_lower(233) == 16
        assert sqrt_display(233) == 15.26

    def test_n337_table_row(self):
        # sqrt(337) = 18.3575...; the published table truncates, so 18.35
        assert sqrt_display(337) == 18.35
        assert qr_sqrt_lower(337) == 19

    def test_n1(self):
        assert qr_sqrt_lower(1) == 1

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 100, 233, 337, 1000])
    def test_defining_inequality(self, n):
        d = qr_sqrt_lower(n)
        assert d * d >= n > (d - 1) * (d - 1)


class TestKrasikov:
    def test_n239_table_row(self):
        assert krasikov_upper(239) == 39.74

    def test_n439_table_row(self):
        assert krasikov_upper(439) == 73.01

    def test_n0_limit(self):
        assert krasikov_upper(0) == 0.0

    def test_truncation_not_rounding(self):
        # 0.166315 * 239 = 39.749285: rounding would give 39.75
        assert truncate2(39.749285) == 39.74


class TestPlessParity:
    """QR minimum weights are odd: an even find w implies distance <= w - 1,
    the report's ``parity_adjusted_d``."""

    def test_even_find_implies_odd(self):
        assert build_report("QR", 223, 112, 32).parity_adjusted_d == 31

    def test_odd_unchanged(self):
        assert build_report("QR", 223, 112, 27).parity_adjusted_d is None

    def test_non_qr_rejected(self):
        # the rule is not applied to a code that is not QR
        assert build_report("DCC", 20, 10, 10).parity_adjusted_d is None


class TestBuildReport:
    def test_generic_code_gets_singleton_only(self):
        r = build_report("DCC", 20, 10, 6)
        assert r.singleton_upper == 11
        assert r.sqrt_lower is None and r.krasikov_upper is None
        assert r.violated == () and r.warnings == ()

    def test_qr_report_fields(self):
        r = build_report("QR", 47, 24, 11)
        assert r.singleton_upper == 24
        assert r.sqrt_lower == 7
        assert r.krasikov_upper == truncate2(0.166315 * 47)
        assert r.parity_adjusted_d is None  # 11 is odd
        assert r.violated == ()

    def test_qr_even_estimate_gets_parity_note(self):
        r = build_report("QR", 223, 112, 32)
        assert r.parity_adjusted_d == 31

    def test_singleton_excess_warns_only(self):
        # a d above n - k + 1 is the weight of a verified codeword: a weak
        # upper bound, not an inconsistency
        r = build_report("DCC", 8, 6, 5)  # singleton is 3
        assert r.warnings == ("singleton",) and r.violated == ()
        assert enforce(r, "test") is r

    def test_sqrt_violation_hard(self):
        r = build_report("QR", 47, 24, 4)  # below sqrt lower bound 7
        assert "qr_sqrt_lower" in r.violated
        with pytest.raises(ConsistencyError, match="qr_sqrt_lower"):
            enforce(r, "test")

    def test_krasikov_excess_warns_only(self):
        r = build_report("QR", 47, 24, 20)  # above 7.81, below singleton
        assert "krasikov_upper" in r.warnings
        assert r.violated == ()
        enforce(r, "test")  # warnings never raise

    def test_sqrt_invariant_on_report(self):
        r = build_report("QR", 233, 117, 25)
        assert r.sqrt_lower**2 >= 233 > (r.sqrt_lower - 1) ** 2

    def test_to_dict_shape(self):
        # a record's bounds block holds every report field, tuples as lists
        d = oracle.run(build_qr(17)).to_dict()["bounds"]
        assert set(d) == {
            "singleton_upper", "sqrt_lower", "sqrt_of_n",
            "krasikov_upper", "parity_adjusted_d", "violated", "warnings",
        }
        assert d["sqrt_lower"] == 5 and d["singleton_upper"] == 9
        assert isinstance(d["violated"], list) and isinstance(d["warnings"], list)


# every BCH and QR code the tests build, with the lower bound ``identify``
# proves for it
BUILT = {
    "BCH(15,11)": (lambda: build_bch(4, 1), 3),
    "BCH(15,7)": (lambda: build_bch(4, 2), 5),
    "BCH(31,26)": (lambda: build_bch(5, 1), 3),
    "BCH(31,16)": (lambda: build_bch(5, 3), 7),
    "BCH(63,24)": (lambda: build_bch(6, 7), 15),
    "BCH(63,36)": (lambda: build_bch(6, 5), 11),
    "BCH(127,64)": (lambda: build_bch(7, 10), 21),
    "QR(7)": (lambda: build_qr(7), 3),
    "QR(17)": (lambda: build_qr(17), 5),
    "QR(23)": (lambda: build_qr(23), 7),
    "QR(31)": (lambda: build_qr(31), 7),
    "QR(41)": (lambda: build_qr(41), 7),
    "QR(47)": (lambda: build_qr(47), 9),
    "QR(73)": (lambda: build_qr(73), 9),
}

# above k = 32: the distances the criterion 4 and 8 MIM runs reach with a
# witness, which the literature gives as exact (the oracle's search proves
# each of them too, from the BCH or square-root bound)
PUBLISHED = {"BCH(63,36)": 11, "BCH(127,64)": 21, "QR(73)": 13}


def forged_hints(g: int) -> list:
    """Hints that do not prove the code whose generator polynomial is g."""
    return [
        build_bch(6, 5).metadata["generator_poly"],  # the wrong degree
        g ^ 0b110,  # the right degree, not a divisor of x^n - 1
        str(g),  # not a polynomial
        float(g),
        None,  # missing
    ]


class TestCertifiedLower:
    """The identity and lower bound ``codes.identify`` proves from a
    generator and its generator_poly hint, and the label checks on it."""

    @pytest.mark.parametrize("label", BUILT)
    def test_value_and_at_most_d(self, label):
        make, want = BUILT[label]
        code = make()
        facts = code.identity
        assert facts.lower == want
        d = PUBLISHED.get(label) or exact_min_distance(code).d_exact
        assert facts.lower <= d
        if label.startswith("BCH"):
            # the designed distance of every BCH code built here is 2t + 1
            assert facts.bch == 2 * code.metadata["t"] + 1
        else:
            # QR(7) is BCH(7,4); QR(31) is cyclic of length 2^5 - 1, not BCH
            assert facts.bch == (3 if label == "QR(7)" else None)
        assert facts.qr == label.startswith("QR")

    def test_bch127_bound_is_exact(self):
        # the BCH bound on BCH(127,64) is 21, the distance MIM finds
        assert build_bch(7, 10).identity.lower == 21

    @pytest.mark.parametrize("label", ["BCH(63,24)", "QR(47)"])
    def test_labels_are_not_read(self, label):
        # identify reads only the generator and the hint: a GENERIC copy
        # takes the proven family back, and the other label is refused
        code = BUILT[label][0]()
        assert dataclasses.replace(code, family="GENERIC").family == code.family
        other = {"BCH": "QR", "QR": "BCH"}[code.family]
        with pytest.raises(ValueError, match=f"do not prove a {other} code"):
            dataclasses.replace(code, family=other)

    def test_other_codes_get_1(self, c20):
        assert build_qdc(11).identity == (None, False, 1)
        assert c20.identity == (None, False, 1)
        assert build_dcc(BitWord.parse("1101")).identity == (None, False, 1)

    def test_forged_generator_poly_gets_1(self):
        bch = build_bch(6, 7)
        g = bch.metadata["generator_poly"]
        rng = random.Random(63)
        while True:
            rows = tuple(rng.getrandbits(63) for _ in range(24))
            if BitMatrix(63, rows).rank() == 24:
                break
        # right degree and a divisor of x^63 - 1, but not this generator
        assert identify(BitMatrix(63, rows), g) == (None, False, 1)
        for hint in forged_hints(g):
            assert identify(bch.generator, hint) == (None, False, 1)

    @pytest.mark.parametrize("label", ["BCH(63,24)", "QR(47)"])
    def test_forged_label_is_refused(self, label):
        code = BUILT[label][0]()
        for hint in forged_hints(code.metadata["generator_poly"]):
            metadata = {} if hint is None else {"generator_poly": hint}
            with pytest.raises(ValueError, match=f"do not prove a {code.family} code"):
                dataclasses.replace(code, metadata=metadata)
            assert dataclasses.replace(code, family="GENERIC", metadata=metadata).family == "GENERIC"

    def test_either_qr_factor_gets_the_sqrt_bound(self):
        # the non-residue factor generates an equivalent QR code; on the
        # residue code's rows it is a forged hint
        qr47 = build_qr(47)
        (g_n,) = [g for g in qr_factors(47) if g.bits != qr47.metadata["generator_poly"]]
        other = LinearCode(47, 24, _cyclic_generator(g_n, 47), metadata={"generator_poly": g_n.bits})
        assert other.family == "QR" and other.identity == (None, True, 9)
        assert exact_min_distance(other).d_exact == 11
        assert identify(qr47.generator, g_n.bits) == (None, False, 1)

    @pytest.mark.parametrize(
        "p, want",
        # d^2 >= p for p = 1 (mod 8), d^2 - d + 1 >= p for p = 7, then odd
        [(7, 3), (17, 5), (23, 7), (31, 7), (41, 7), (47, 9), (71, 9), (73, 9), (79, 11), (89, 11),
         (97, 11), (103, 11), (113, 11), (127, 13)],
    )
    def test_qr_sqrt_bound(self, p, want):
        code = build_qr(p)
        assert code.identity.lower >= want
        if (p + 1) & p:  # not 2^m - 1: the square-root bound alone
            assert code.identity.lower == want


def row_mixed(code: LinearCode, seed: int) -> BitMatrix:
    """The code's generator after 4k random row additions: the same row
    space, and full rank, in rows that are no longer reduced."""
    rows = list(code.generator.rows)
    rng = random.Random(seed)
    for _ in range(4 * code.k):
        i, j = rng.sample(range(code.k), 2)
        rows[i] ^= rows[j]
    return BitMatrix(code.n, tuple(rows))


class TestHintByDivision:
    """``identify`` accepts a hint g when g divides every generator row:
    any full-rank generator of the cyclic code g generates proves what the
    built code proves, and a generator of another code proves nothing."""

    def test_row_mixed_rows_get_the_built_identity(self):
        built = build_bch(6, 7)
        gen = row_mixed(built, 24)
        assert gen.rows != built.generator.rows
        code = LinearCode(63, 24, gen, metadata=dict(built.metadata))
        assert (code.family, code.identity) == (built.family, built.identity) == ("BCH", (15, False, 15))
        assert code.basis == built.basis

    @pytest.mark.parametrize("label", ["BCH(15,7)", "QR(47)"])
    def test_raw_shifts_get_the_built_identity(self, label):
        built = BUILT[label][0]()
        g = built.metadata["generator_poly"]
        shifts = BitMatrix(built.n, tuple(g << i for i in range(built.k)))
        code = LinearCode(built.n, built.k, shifts, metadata={"generator_poly": g})
        assert (code.family, code.identity) == (built.family, built.identity)
        assert code.identity.lower == BUILT[label][1]

    def test_row_mixed_record_is_the_built_record(self):
        # MIM decodes from the basis, which only the row space sets, so the
        # seeded record is the built code's but for the params and the times
        built = build_bch(6, 7)
        mixed = LinearCode(63, 24, row_mixed(built, 24), metadata={"generator_poly": built.metadata["generator_poly"]})
        cfg = mim.MimConfig.for_code(built, nb_test=3, rng_seed=1)
        assert mim.MimConfig.for_code(mixed, nb_test=3, rng_seed=1) == cfg

        def record(code):
            doc = mim.run(code, cfg).to_dict()
            del doc["code"]["params"], doc["wall_time_seconds"]
            for event in doc["events"]:
                event.pop("time", None)
            return json.dumps(doc, sort_keys=True)

        assert record(mixed) == record(built)

    def test_column_permuted_code_proves_nothing(self):
        # swapping columns 0 and 1 adds (1 + x) to a row with bits 10 there,
        # and g, of degree 39, does not divide 1 + x
        built = build_bch(6, 7)
        g = built.metadata["generator_poly"]
        rows = tuple(r & ~0b11 | (r & 1) << 1 | (r >> 1) & 1 for r in built.generator.rows)
        code = LinearCode(63, 24, BitMatrix(63, rows), metadata={"generator_poly": g})
        assert (code.family, code.identity, code.proven_poly) == ("GENERIC", (None, False, 1), None)
        with pytest.raises(ValueError, match="do not prove a BCH code"):
            LinearCode(63, 24, BitMatrix(63, rows), family="BCH", metadata={"generator_poly": g})

    def test_any_one_row_off_the_code_proves_nothing(self):
        # a flipped parity bit adds x^62, which g does not divide, and keeps
        # the rows full rank: every row is checked, not only some
        built = build_bch(6, 7)
        g = built.metadata["generator_poly"]
        for i in range(24):
            rows = list(built.generator.rows)
            rows[i] ^= 1 << 62
            code = LinearCode(63, 24, BitMatrix(63, tuple(rows)), metadata={"generator_poly": g})
            assert (code.family, code.identity) == ("GENERIC", (None, False, 1)), i

    def test_shifts_of_a_non_divisor_prove_nothing(self):
        # g ^ 0b110 divides its own shifts, but not x^63 - 1: the code they
        # span is not cyclic
        g = build_bch(6, 7).metadata["generator_poly"] ^ 0b110
        code = LinearCode(63, 24, BitMatrix(63, tuple(g << i for i in range(24))),
                          metadata={"generator_poly": g})
        assert (code.family, code.identity) == ("GENERIC", (None, False, 1))

    def test_rank_below_k_is_refused_before_identify(self):
        # every row a multiple of g, but row k - 1 the sum of rows 0 and 1:
        # division alone would prove the code, so LinearCode's rank check
        # must run first
        built = build_bch(6, 7)
        g = built.metadata["generator_poly"]
        rows = built.generator.rows[:-1] + (built.generator.rows[0] ^ built.generator.rows[1],)
        assert identify(BitMatrix(63, rows), g) == built.identity
        with pytest.raises(RankError) as exc:
            LinearCode(63, 24, BitMatrix(63, rows), metadata={"generator_poly": g})
        assert exc.value.rank == 23
