import random
from collections import Counter
from math import comb

import pytest

from mindist import oracle
from mindist.cli import EXIT_OK, main
from mindist.codes import LinearCode, build_bch, build_dcc, build_qdc, build_qr, load_code
from mindist.errors import BudgetError
from mindist.gf2 import BitMatrix, BitWord
from mindist.oracle import ExactResult, exact_enumerator, exact_min_distance
from mindist.results import DistanceEstimate

from conftest import naive_min_distance
from test_golden import without_runtimes


def random_systematic(rng: random.Random, k: int, n: int) -> LinearCode:
    rows = tuple((1 << i) | (rng.getrandbits(n - k) << k) for i in range(k))
    return LinearCode(n, k, BitMatrix(n, rows))


def random_full_rank(rng: random.Random, k: int, n: int) -> LinearCode:
    """A random generator with no identity part: the information sets the
    search reduces to are spread over the columns."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if BitMatrix(n, rows).rank() == k:
            return LinearCode(n, k, BitMatrix(n, rows))


def assert_exact(code: LinearCode) -> ExactResult:
    """The d-only result, checked: d is the naive sweep's, the witness is a
    codeword of weight d, and the enumerator call and a repeated d-only call
    give the same d and witness."""
    res = exact_min_distance(code)
    assert res.d_exact == naive_min_distance(code)
    assert res.witness.weight == res.d_exact
    assert BitMatrix(code.n, code.generator.rows + (res.witness.bits,)).rank() == code.k
    for again in (exact_enumerator(code), exact_min_distance(code)):
        assert (again.d_exact, again.witness) == (res.d_exact, res.witness)
    return res


def set_ranks(code: LinearCode) -> list[int]:
    return [len(pivots) for _, pivots in oracle._information_sets(code.generator)]


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
        assert res.witness == BitWord.parse("11111")

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
        # the sweep scores all 2^10 words; the search scores C(20,10)'s two
        # full-rank sets up to weight 2, where the bound 3 + 3 reaches d = 6
        assert set_ranks(c20) == [10, 10]
        assert exact_enumerator(c20).enumerated == 1 << 10
        assert exact_min_distance(c20).enumerated == 2 * (comb(10, 1) + comb(10, 2))

    def test_enumerator_off_by_default(self, c20):
        assert exact_min_distance(c20).enumerator is None


def simplex_copies() -> LinearCode:
    """Three copies of the [7,3] simplex code side by side: an [21,3] code
    of d = 12 whose seven information sets need 15 > 2^3 combinations."""
    rows = [r * 3 for r in ("1110100", "0111010", "0011101")]
    return LinearCode(21, 3, BitMatrix.from_strings(rows))


class TestBudget:
    def test_refusal_names_cost(self):
        # the 2^k refusal guards the enumerator sweep alone: the search
        # proves this [80,40] code's d without a sweep
        rng = random.Random(7)
        rows = tuple((1 << i) | (rng.getrandbits(40) << 40) for i in range(40))
        code = LinearCode(80, 40, BitMatrix(80, rows))
        with pytest.raises(BudgetError, match=r"2\^40"):
            exact_enumerator(code)
        assert exact_min_distance(code).d_exact == 10

    def test_explicit_budget_override(self, c20):
        # C(20,10) proves d = 6 in 110 combinations, within 2^9; its sweep
        # needs k = 10 <= budget
        assert exact_min_distance(c20, budget=9).d_exact == 6
        with pytest.raises(BudgetError, match=r"2\^10"):
            exact_enumerator(c20, budget=9)
        assert exact_enumerator(c20, budget=10).d_exact == 6

    def test_search_refusal_names_the_interval(self):
        # 15 combinations do not fit in 2^3: budget = k does not always prove d
        code = simplex_copies()
        with pytest.raises(BudgetError, match=r"after 6 of at most 2\^3 combinations: "
                                               r"it proved d in \[9, 12\]"):
            exact_min_distance(code, budget=3)
        res = exact_min_distance(code, budget=4)
        assert (res.d_exact, res.enumerated) == (12, 15)

    def test_hintless_bch127_refused_at_its_cap(self):
        # a GENERIC copy of BCH(127,64) has no BCH bound to stop at
        generic = LinearCode(127, 64, build_bch(7, 10).generator)
        with pytest.raises(BudgetError, match=r"\[9, 21\]"):
            exact_min_distance(generic, budget=oracle.LOWER_BOUND_BUDGET)

    @pytest.mark.parametrize("budget", [True, False, 9.5, 40.0, "32", None, -1])
    def test_invalid_budget_is_a_value_error(self, budget, c20):
        with pytest.raises(ValueError, match="budget must be an int >= 0"):
            exact_min_distance(c20, budget=budget)

    def test_zero_budget_scores_nothing(self, c20):
        # a cap of one combination is below any level of a 10-row set; the
        # two disjoint full-rank sets still prove d >= 2, Singleton d <= 11
        with pytest.raises(BudgetError, match=r"after 0 of at most 2\^0 combinations: "
                                               r"it proved d in \[2, 11\]"):
            exact_min_distance(c20, budget=0)


class TestKnownBound:
    """The exact method starts from the bound proven from the generator
    and stops once a codeword reaches it (Grassl, 2006)."""

    @pytest.mark.parametrize("make, construct, d", [
        (lambda: build_bch(7, 10), ["--bch", "7", "10"], 21),
        (lambda: build_qr(73), ["--qr", "73"], 13),
    ], ids=["bch127_64", "qr73"])
    def test_default_budget_proves_d_above_k_32(self, make, construct, d, tmp_path):
        # built, and loaded from the file construct writes, which keeps the
        # generator polynomial
        code = make()
        assert code.k > 32
        res = exact_min_distance(code)
        assert res.d_exact == res.witness.weight == d
        path = tmp_path / "code.gm"
        assert main(["construct", *construct, "--out", str(path)]) == EXIT_OK
        loaded = exact_min_distance(load_code(path))
        assert (loaded.d_exact, loaded.witness) == (d, res.witness)

    def test_stops_at_the_known_bound(self):
        # BCH(63,36): the BCH bound proves 11, and the first set's 36 rows
        # hold a word of weight 11
        res = exact_min_distance(build_bch(6, 5))
        assert (res.d_exact, res.enumerated) == (11, 36)

    def test_same_d_and_witness_without_the_known_bound(self):
        # the known bound only cuts the search short: a full search replaces
        # the witness only on a strictly lower weight
        cut = set()
        for label, (code, d) in built_codes().items():
            if code.k > 32:
                continue
            bare = LinearCode(code.n, code.k, code.generator)
            assert bare.identity.lower == 1
            res, full = exact_min_distance(code), exact_min_distance(bare)
            assert res.d_exact == full.d_exact == d, label
            assert res.witness == full.witness, label
            assert res.enumerated <= full.enumerated, label
            if res.enumerated < full.enumerated:
                cut.add(label)
        assert "BCH(63,24)" in cut


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_small_codes_bit_for_bit(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 11)
        extra = rng.randint(1, 10)
        rows = tuple((1 << i) | (rng.getrandbits(extra) << k) for i in range(k))
        code = LinearCode(k + extra, k, BitMatrix(k + extra, rows))
        assert_exact(code)

    def test_c20_bit_for_bit(self, c20):
        assert assert_exact(c20).d_exact == 6

    def test_gray_low_block_boundary(self):
        # k above the low-block size exercises the sweep's high/low split
        rng = random.Random(123)
        k = 18
        rows = tuple((1 << i) | (rng.getrandbits(6) << k) for i in range(k))
        code = LinearCode(k + 6, k, BitMatrix(k + 6, rows))
        assert_exact(code)
        assert exact_enumerator(code).enumerator == naive_enumerator(code)

    @pytest.mark.parametrize("seed", range(2))
    def test_two_lane_codes_bit_for_bit(self, seed):
        # n > 64 packs each codeword into two uint64 lanes; k = 17 gives a
        # second, odd high block, which runs the low table in reverse
        code = random_systematic(random.Random(seed), 17, 70)
        assert_exact(code)
        assert exact_enumerator(code).enumerator == naive_enumerator(code)

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
        assert assert_exact(code).d_exact > 45
        res = exact_enumerator(code)
        assert res.enumerator == naive_enumerator(code)
        assert res.enumerator[290] == 1

    def test_all_ones_word_in_the_last_paired_bin(self):
        # n = 255, the largest n whose weights are uint8 and are counted two
        # per uint16 key: weight 255 is the last bin of the fold
        k, n = 3, 255
        rng = random.Random(13)
        low = tuple((1 << i) | (rng.getrandbits(n - k) << k) for i in range(2))
        rows = (*low, ((1 << n) - 1) ^ low[0] ^ low[1])
        code = LinearCode(n, k, BitMatrix(n, rows))
        res = exact_enumerator(code)
        assert res.enumerator[255] == 1
        assert res.enumerator == naive_enumerator(code)


class TestSearchAgainstNaive:
    """The Brouwer-Zimmermann search reports the naive sweep's d and a
    witness of that weight."""

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_information_sets_bit_for_bit(self, seed):
        # n = 2k - 1 leaves the second set one column short of rank k, so its
        # term w + 1 - (k - r) = w counts from the first weight on
        rng = random.Random(seed)
        k = rng.randint(4, 11)
        while True:
            code = random_full_rank(rng, k, 2 * k - 1)
            if set_ranks(code)[1:2] == [k - 1] and naive_min_distance(code) >= 3:
                break
        assert_exact(code)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_non_systematic_bit_for_bit(self, seed):
        rng = random.Random(1000 + seed)
        k = rng.randint(2, 11)
        code = random_full_rank(rng, k, k + rng.randint(1, 2 * k + 4))
        assert_exact(code)

    @pytest.mark.parametrize("n", [2, 9, 64, 65, 130])
    def test_dimension_one(self, n):
        # one row: every set has rank 1, and the witness is the row itself
        row = random.Random(n).getrandbits(n) | 1
        code = LinearCode(n, 1, BitMatrix(n, (row,)))
        res = assert_exact(code)
        assert (res.d_exact, res.witness.bits) == (row.bit_count(), row)

    @pytest.mark.parametrize("n, seed", [(70, 0), (100, 1), (130, 2), (200, 3)])
    def test_multi_lane_bit_for_bit(self, n, seed):
        # n > 64 spreads each codeword over two or more uint64 lanes
        code = random_full_rank(random.Random(seed), 9, n)
        assert_exact(code)

    def test_stop_when_the_bound_reaches_the_least_weight(self):
        # The sets have ranks 5, 3, 2.  Weight 1 of the first set scores row
        # 3, of weight 3 = d, and brings the bound to 2; weight 2 brings it
        # to 3 + 0, and the search stops there, at equality, before the
        # second set's term turns positive.
        code = LinearCode(10, 5, BitMatrix.from_strings(
            ["1000011110", "0100010101", "0010011001", "0001001100", "0000110010"]))
        assert set_ranks(code) == [5, 3, 2]
        assert oracle._search(code.generator, 1 << 32, 1)[:2] == (3, 3)
        res = assert_exact(code)
        assert res.enumerated == comb(5, 1) + comb(5, 2)

    @pytest.mark.parametrize("header", ["1001111110", "00010110111", "101100010110"])
    def test_run_record_matches_the_sweep_record(self, header):
        # the seeded record of a d-only run, runtimes removed, is the one
        # built from its checked d and witness, on the code with its columns
        # permuted
        base = build_dcc(BitWord.parse(header))
        n = base.n
        perm = random.Random(header).sample(range(n), n)
        rows = tuple(sum(((row >> j) & 1) << perm[j] for j in range(n))
                     for row in base.generator.rows)
        code = LinearCode(n, base.k, BitMatrix(n, rows), family="DCC",
                          metadata={"column_permutation": perm})
        res = assert_exact(code)
        want = DistanceEstimate.of(code, "exact", res.d_exact, res.witness,
                                   config={"budget": 32, "enumerator": False},
                                   rng_seed=None, started=0.0, events=[])
        got = oracle.run(code)
        assert without_runtimes(got.to_json()) == without_runtimes(want.to_json())


class TestEnumeratorAgainstNaive:
    @pytest.mark.parametrize("n", [40, 70, 255])
    def test_k18_enumerator(self, n):
        # k = 18: four high blocks, two of them reversed; one, two and four
        # lanes, 255 being the largest n whose weights are counted in pairs
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


def built_codes() -> dict[str, tuple[LinearCode, int]]:
    """The codes the test modules build, with their distances: the oracle's
    up to k = 32, the literature's above it."""
    from test_acceptance import TABLE9_ROWS, _soundness_pool
    from test_bounds import BUILT, PUBLISHED
    from test_osd import DEPENDENT_LEAD, permuted_dcc

    codes = {label: make() for label, (make, _) in BUILT.items()}
    codes.update({f"QDC(p={p})": build_qdc(p) for p in (11, 13, 19)})
    for header in [row[2] for row in TABLE9_ROWS] + [
        "00011011111000110010010010010", "1100001010100011100000011010110",
    ]:
        codes[f"DCC({header})"] = build_dcc(BitWord.parse(header))
    codes.update({f"pool[{i}]": code for i, code in enumerate(_soundness_pool())})
    codes["repetition7"] = LinearCode(7, 1, BitMatrix.from_strings(["1111111"]))
    codes["permuted C(20,10)"] = permuted_dcc()
    codes["dependent lead"] = DEPENDENT_LEAD
    return {
        label: (code, PUBLISHED.get(label) or exact_min_distance(code, budget=code.k).d_exact)
        for label, code in codes.items()
    }


class TestLowerBound:
    """``lower_bound``: max(known, min(least weight scored, Zimmermann
    bound)) of a search from known = ``identify``'s ``lower``, capped at
    2^``LOWER_BOUND_BUDGET`` combinations, which also stops once the least
    weight scored is at most known."""

    def test_at_most_d_on_built_codes(self):
        # and equal to it: the search proves d on every one of them
        for label, (code, d) in built_codes().items():
            assert 1 <= code.identity.lower <= oracle.lower_bound(code) == d, label

    @pytest.mark.parametrize("seed", range(6))
    def test_at_most_d_on_random_codes(self, seed):
        # k from 17 up lets the cap stop the search
        rng = random.Random(seed)
        for _ in range(4):
            k = rng.randint(10, 26)
            code = random_full_rank(rng, k, rng.randint(k + 4, 3 * k))
            d = exact_min_distance(code).d_exact
            assert code.identity.lower <= oracle.lower_bound(code) <= d

    @pytest.mark.parametrize("cap", [0, 1, 10, 100, 1000, 5000])
    def test_any_cap_is_sound(self, cap, c20):
        bound, least, _, scored = oracle._search(c20.generator, cap, 1)
        assert scored <= cap
        assert min(bound, least) <= 6

    def test_proves_the_distance_where_the_cap_allows(self, golay24, c20):
        assert oracle.lower_bound(golay24) == 8
        assert oracle.lower_bound(c20) == 6
        assert oracle.lower_bound(build_qr(41)) == 9

    @pytest.mark.parametrize("construct, d", [
        (["--qr", "47"], 11),
        (["--qr", "73"], 13),
        (["--bch", "6", "7"], 15),
    ], ids=["qr47", "qr73", "bch63_24"])
    def test_pins_the_distance(self, construct, d, tmp_path):
        # built, loaded from the file construct writes, and loaded from a
        # file without its generator polynomial line, as written before
        # the line existed: that code is GENERIC and identify proves 1, so
        # the search alone proves d
        path = tmp_path / "code.gm"
        assert main(["construct", *construct, "--out", str(path)]) == EXIT_OK
        lines = path.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("# generator_poly 0x")
        bare = tmp_path / "bare.gm"
        bare.write_text("".join(lines[:-1]))
        old = load_code(bare)
        assert old.family == "GENERIC" and old.identity.lower == 1
        assert oracle.lower_bound(old) == d
        built = {"--qr": lambda: build_qr(int(construct[1])),
                 "--bch": lambda: build_bch(6, 7)}[construct[0]]()
        loaded = load_code(path)
        assert loaded.family == built.family
        assert loaded.identity == built.identity and built.identity.lower > 1
        assert oracle.lower_bound(loaded) == oracle.lower_bound(built) == d

    def test_known_bound_stops_the_search(self):
        # BCH(63,36): the BCH bound proves 11, and the search finds a word
        # of weight 11 among its first 36 combinations; without the known
        # bound it runs into the cap and proves only 7
        code = build_bch(6, 5)
        assert code.identity.lower == 11
        bound, least, _, scored = oracle._search(code.generator, 1 << oracle.LOWER_BOUND_BUDGET, 11)
        assert (least, scored) == (11, 36)
        bound, least, _, scored = oracle._search(code.generator, 1 << oracle.LOWER_BOUND_BUDGET, 1)
        assert min(bound, least) == 7 and scored > 2_000_000

    def test_a_float_hint_is_not_the_int_hint(self):
        # a float hint proves nothing, so the memo, keyed on the proven
        # bound, must not give it the equal int hint's entry
        code = build_bch(6, 5)
        floated = LinearCode(63, 36, code.generator,
                             metadata={"generator_poly": float(code.metadata["generator_poly"])})
        assert oracle.lower_bound(code) == 11
        assert floated.identity.lower == 1 and oracle.lower_bound(floated) == 7

    def test_cap_stops_the_search_short(self, monkeypatch):
        # a GENERIC copy of BCH(127,64) has no BCH bound to stop at, and the
        # cap stops its search at 9, against d = 21
        bch = build_bch(7, 10)
        generic = LinearCode(127, 64, bch.generator)
        assert generic.identity.lower == 1
        runs = []

        def spy(*args, real=oracle._search):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(oracle, "_search", spy)
        oracle._proven.cache_clear()
        assert oracle.lower_bound(generic) == 9
        ((bound, least, _, scored),) = runs
        assert scored <= 1 << oracle.LOWER_BOUND_BUDGET and bound < least
        assert min(bound, least) == 9
        # the bound the identity proves is part of the memo's key
        assert oracle.lower_bound(bch) == 21 and len(runs) == 2
