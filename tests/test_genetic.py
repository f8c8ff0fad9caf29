import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

from mindist import genetic
from mindist.codes import build_bch, build_dcc, build_qr
from mindist.errors import ConsistencyError
from mindist.genetic import (
    GaConfig,
    _mutator,
    _scorer,
    crossover_one_point,
    crossover_two_point,
    fitness,
    mutate_classic,
    run_variant_a,
    run_variant_b,
    select_tournament,
)
from mindist.gf2 import BitWord, xor_rows
from mindist.oracle import exact_min_distance


class FakeRng:
    """Scripted RNG: hands out queued ``getrandbits`` answers."""

    def __init__(self, getrandbits=()):
        self._bits = list(getrandbits)

    def getrandbits(self, k):
        v = self._bits.pop(0)
        assert 0 <= v < 1 << k
        return v


def parse(text: str) -> int:
    """Genes from a string like "1001"; the leftmost char is gene 0."""
    return BitWord.parse(text).bits


def genes(bits: int, k: int) -> str:
    return BitWord(k, bits).to01()


class TestFitness:
    def test_all_zero_scores_n(self, c20):
        assert fitness(c20.generator.rows, c20.n, 0) == 20

    def test_repetition(self, repetition3):
        assert fitness(repetition3.generator.rows, 3, parse("1")) == 3

    def test_c20_unit_vector(self, c20):
        assert fitness(c20.generator.rows, c20.n, 1) == 8


@pytest.fixture(scope="module")
def generators_k64():
    """(rows, n) of a k = 64 BCH, QR and DCC code; the first k rows of
    each generate a k-dimensional subcode."""
    dcc = build_dcc(BitWord(64, random.Random(64).getrandbits(64)))
    return {family: (code.generator.rows, code.n)
            for family, code in (("bch", build_bch(7, 10)), ("qr", build_qr(127)),
                                 ("dcc", dcc))}


class TestScorer:
    @staticmethod
    def check(rows, n, infos):
        assert _scorer(rows, n)(infos) == [fitness(rows, n, i) for i in infos]

    @staticmethod
    def infos(k):
        rng = random.Random(k)
        return [0, (1 << k) - 1, *(1 << i for i in range(k)),
                *(rng.getrandbits(k) for _ in range(300))]

    @pytest.mark.parametrize("family", ["bch", "qr", "dcc"])
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 24, 64])
    def test_matches_fitness(self, generators_k64, family, k):
        rows, n = generators_k64[family]
        self.check(rows[:k], n, self.infos(k))

    def test_nine_table_bytes(self):
        code = build_bch(7, 9)  # BCH(127,71)
        assert code.k == 71
        self.check(code.generator.rows, code.n, self.infos(71))

    def test_three_lanes(self):
        code = build_qr(151)  # n = 151 > 128: three uint64 lanes
        assert code.n == 151
        self.check(code.generator.rows, code.n, self.infos(code.k))

    def test_zero_and_repeated_words(self, generators_k64):
        rows, n = generators_k64["bch"]
        words = [0, 5, 0, 5, (1 << 64) - 1, 5, 0]
        assert _scorer(rows, n)(words)[0] == n
        self.check(rows, n, words)
        self.check(rows, n, [0] * 40)


class TestCrossover:
    @pytest.mark.parametrize(
        "cross", [crossover_one_point, crossover_two_point]
    )
    def test_identical_parents(self, cross):
        rng = random.Random(0)
        p = parse("1011001")
        assert cross(p, p, 7, rng) == (p, p)

    def test_one_point_forced_cut(self):
        # cut 2 is 1 + the 2-bit draw 1; the draw 3 is out of range, redrawn
        p1, p2 = parse("1100"), parse("0011")
        for draws in ([1], [3, 1]):
            ch1, ch2 = crossover_one_point(p1, p2, 4, FakeRng(getrandbits=draws))
            assert (genes(ch1, 4), genes(ch2, 4)) == ("1111", "0000")

    def test_two_point_forced_cuts(self):
        # cuts 2 and 4, drawn in either order as 1 + a 3-bit draw below 5,
        # then below 4: the second cut skips the first; 7 and 5 are redrawn
        p1, p2 = parse("111111"), parse("000000")
        for draws in ([1, 2], [3, 1], [7, 1, 5, 2]):
            ch1, ch2 = crossover_two_point(p1, p2, 6, FakeRng(getrandbits=draws))
            assert (genes(ch1, 6), genes(ch2, 6)) == ("110011", "001100")

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 64, 65])
    def test_cuts_are_randint_and_randrange_draws(self, k):
        # the inlined cut draws consume the stream exactly as randint and
        # randrange do, so seeded GA runs stay byte-identical
        def one_point(a, b, rng):
            cut = rng.randint(1, k - 1)
            low = (1 << cut) - 1
            return (a & low) | (b & ~low), (b & low) | (a & ~low)

        def two_point(a, b, rng):
            if k < 3:
                return a, b
            lo = rng.randrange(1, k)
            hi = rng.randrange(1, k - 1)
            if hi >= lo:
                hi += 1
            else:
                lo, hi = hi, lo
            mid = ((1 << hi) - 1) ^ ((1 << lo) - 1)
            return (a & ~mid) | (b & mid), (b & ~mid) | (a & mid)

        parents = random.Random(k)
        pairs = [(parents.getrandbits(k), parents.getrandbits(k)) for _ in range(10_000)]
        for cross, reference in ((crossover_one_point, one_point),
                                 (crossover_two_point, two_point)):
            ours, ref = random.Random(7), random.Random(7)
            assert [cross(a, b, k, ours) for a, b in pairs] == [
                reference(a, b, ref) for a, b in pairs
            ]
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize(
        "cross", [crossover_one_point, crossover_two_point]
    )
    def test_conservation(self, cross):
        rng = random.Random(42)
        for _ in range(300):
            k = rng.randint(2, 48)
            p1 = rng.getrandbits(k)
            p2 = rng.getrandbits(k)
            ch1, ch2 = cross(p1, p2, k, rng)
            assert ch1 >> k == ch2 >> k == 0
            assert (ch1 ^ ch2) == (p1 ^ p2)

    def test_two_point_cut_pairs_uniform(self):
        # crossing all-ones with all-zeros, the second child is the swapped
        # segment, genes lo..hi-1, so it shows the cut pair
        k, draws = 8, 21_000
        rng = random.Random(5)
        seen = Counter()
        for _ in range(draws):
            _, mid = crossover_two_point((1 << k) - 1, 0, k, rng)
            seen[(mid & -mid).bit_length() - 1, mid.bit_length()] += 1
        pairs = list(itertools.combinations(range(1, k), 2))
        assert set(seen) == set(pairs)
        expected = draws / len(pairs)
        chi2 = sum((seen[p] - expected) ** 2 / expected for p in pairs)
        assert chi2 < 45.31  # 0.999 quantile of chi-square with 20 df

    def test_one_point_degenerate_k1(self):
        assert crossover_one_point(1, 0, 1, random.Random(0)) == (1, 0)


class TestMutation:
    def test_classic_pm_zero_identity(self):
        w = parse("100110")
        assert mutate_classic(w, 6, 0.0, random.Random(0)) == w

    def test_classic_pm_one_complement(self):
        w = parse("100110")
        assert genes(mutate_classic(w, 6, 1.0, random.Random(0)), 6) == "011001"

    def test_classic_binomial_statistics(self):
        # p = 0.5 over 10^4 bits: flip count within 3 sigma on every trial
        rng = random.Random(7)
        n, p = 10_000, 0.5
        sigma = math.sqrt(n * p * (1 - p))
        for _ in range(20):
            flipped = mutate_classic(0, n, p, rng).bit_count()
            assert abs(flipped - n * p) < 3 * sigma

    @staticmethod
    def _flip_statistics(k, p_m, calls, seed):
        """Flip-count histogram and per-position flip counts of ``calls``
        classic mutations of the zero word."""
        rng = random.Random(seed)
        counts = Counter()
        per_pos = [0] * k
        for _ in range(calls):
            w = mutate_classic(0, k, p_m, rng)
            counts[w.bit_count()] += 1
            while w:
                per_pos[(w & -w).bit_length() - 1] += 1
                w &= w - 1
        return counts, per_pos

    @staticmethod
    def _position_chi2(per_pos):
        expected = sum(per_pos) / len(per_pos)
        return sum((c - expected) ** 2 / expected for c in per_pos)

    def test_classic_flip_count_binomial_positions_uniform(self):
        # k = 64, p_m = 0.02 (GA-B on BCH(127,64)): the flip count's mean
        # and variance lie within 4 standard errors of Binomial(k, p_m)
        k, p, calls = 64, 0.02, 60_000
        counts, per_pos = self._flip_statistics(k, p, calls, seed=11)
        mean = sum(c * m for c, m in counts.items()) / calls
        var = sum(m * (c - mean) ** 2 for c, m in counts.items()) / (calls - 1)
        mu, sigma2 = k * p, k * p * (1 - p)
        mu4 = sigma2 * (1 + 3 * (k - 2) * p * (1 - p))  # binomial 4th central moment
        assert abs(mean - mu) < 4 * math.sqrt(sigma2 / calls)
        assert abs(var - sigma2) < 4 * math.sqrt((mu4 - sigma2**2) / calls)
        assert self._position_chi2(per_pos) < 103.44  # 0.999 quantile, 63 df

    def test_classic_small_pm(self):
        # k = 24, p_m = 0.001: about 0.024 flips a word, the total within
        # 4 sigma of k * p_m * calls and spread uniformly over the positions
        k, p, calls = 24, 0.001, 60_000
        _, per_pos = self._flip_statistics(k, p, calls, seed=12)
        total = sum(per_pos)
        assert abs(total - calls * k * p) < 4 * math.sqrt(calls * k * p * (1 - p))
        assert self._position_chi2(per_pos) < 49.73  # 0.999 quantile, 23 df

    @pytest.mark.parametrize("p_m", [0.0, 0.001, 0.02, 0.5, 1.0])
    def test_runner_mutator_draws_like_mutate_classic(self, p_m):
        # the runners' closure keeps log(1 - p_m) per run; the draws and
        # the flips must be those of mutate_classic
        k = 24
        mutate = _mutator(GaConfig.variant_b(mutation_prob=p_m), k)
        r1, r2 = random.Random(4), random.Random(4)
        for bits in range(0, 1 << k, 99_991):
            assert mutate(bits, r1) == mutate_classic(bits, k, p_m, r2)
        assert r1.random() == r2.random()


class TestSelection:
    def test_population_of_one(self):
        rng = random.Random(0)
        assert select_tournament([5], 3, rng) == 0
        assert select_tournament([5], 1, rng) == 0

    def test_empty_tournament_rejected(self):
        rng = random.Random(0)
        for fits, size in (([], 2), ([5], 0)):
            with pytest.raises(ValueError, match="tournament"):
                select_tournament(fits, size, rng)

    def test_exhaustive_tournament_returns_global_best(self):
        fits = [9, 4, 7, 2, 8]
        rng = random.Random(1)
        for _ in range(20):
            assert fits[select_tournament(fits, 200, rng)] == 2

    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 1024])
    def test_picks_are_randrange_draws(self, m):
        # the inlined draws consume the stream exactly as randrange(m)
        # does, so seeded GA runs stay byte-identical
        draws = random.Random(m)
        fits = [draws.randrange(4) for _ in range(m)]

        def tournament(size, rng):
            best = rng.randrange(m)
            for _ in range(size - 1):
                j = rng.randrange(m)
                if fits[j] < fits[best]:
                    best = j
            return best

        ours, ref = random.Random(7), random.Random(7)
        # a tournament of one, variant A's pick, is the randrange draw itself
        assert [select_tournament(fits, 1, ours) for _ in range(10_000)] == [
            ref.randrange(m) for _ in range(10_000)
        ]
        assert [select_tournament(fits, 3, ours) for _ in range(10_000)] == [
            tournament(3, ref) for _ in range(10_000)
        ]
        assert ours.getstate() == ref.getstate()

    def test_runners_select_by_tournament_size(self, c20, monkeypatch):
        # variant A's default pick is a tournament of one; a configured size
        # reaches every selection of either runner
        sizes = []

        def recorder(fits, size, rng):
            sizes.append(size)
            return select_tournament(fits, size, rng)

        monkeypatch.setattr(genetic, "select_tournament", recorder)
        small = {"population_size": 20, "max_generations": 3, "rng_seed": 1}
        run_variant_a(c20, GaConfig.variant_a(**small))
        assert sizes and set(sizes) == {1}
        for runner, maker in ((run_variant_a, GaConfig.variant_a),
                              (run_variant_b, GaConfig.variant_b)):
            sizes.clear()
            runner(c20, maker(tournament_size=3, **small))
            assert sizes and set(sizes) == {3}


class TestRunVariantA:
    def test_repetition_returns_7_any_seed(self, repetition7):
        for seed in (0, 1, 2):
            cfg = GaConfig.variant_a(population_size=10, max_generations=2, rng_seed=seed)
            est = run_variant_a(repetition7, cfg)
            assert est.d == 7
            assert est.witness == BitWord.parse("1111111")

    def test_bch_15_11(self):
        code = build_bch(4, 1)
        cfg = GaConfig.variant_a(population_size=300, max_generations=30, rng_seed=0)
        est = run_variant_a(code, cfg)
        assert est.d == 3
        assert est.witness.weight == 3

    def test_determinism(self, c20):
        cfg = GaConfig.variant_a(population_size=60, max_generations=10, rng_seed=5)
        a = run_variant_a(c20, cfg)
        b = run_variant_a(c20, cfg)
        assert (a.d, a.witness) == (b.d, b.witness)
        assert a.events == b.events


# (code, variant, seed) -> d, witness bits and the sha256 of the events'
# JSON, for population 200 and 20 generations; any change to the draw
# stream, or to the order in which variant A breeds and scores, moves them
SEEDED_RECORDS = {
    ("bch63_24", "a", 0): (15, 0x4860218e78001000,
                           "feef2070873ad8ae9782a0ad3110919222ea27fae504cbd2e77c4516a9427ff1"),
    ("bch63_24", "b", 0): (15, 0x50150d700a00024,
                           "f60a517bbb5ce885ab090fd6f1bf94b053f683cef4547fb9f4e7a09d4bacd1a2"),
    ("bch63_24", "a", 1): (15, 0x4860218e78001000,
                           "cab839ee6553b3afdc0021936a9ae7b92c2d03c914fb8d014bfd80a9028a5d0e"),
    ("bch63_24", "b", 1): (15, 0x4860218e78001000,
                           "cab839ee6553b3afdc0021936a9ae7b92c2d03c914fb8d014bfd80a9028a5d0e"),
    ("bch127_64", "a", 0): (24, 0x50ec890a0062d3800080000002010000,
                            "668a0d929b097b77d87122352e4c9f30e582aa4748041579ef6e50bc4ae2b5fd"),
    ("bch127_64", "b", 0): (23, 0x10c16449d1543000000008000500080,
                            "982fa21202c6519ded49c3800f58a643ea927df38edbbc1a2eecc5c4c45da3ec"),
    ("bch127_64", "a", 1): (25, 0x86dd818c40180830880010000110000,
                            "e2420d0b611b70d6ba0500beddc27e0acbf4b974a8cb39af297419a0f9bccaf8"),
    ("bch127_64", "b", 1): (24, 0x6cae0550094d140800000000000084,
                            "a90a2464f13a28b3ae0290096db3784fa24e0ca506ef874c7899021e2a8366f1"),
}


@pytest.fixture(scope="module")
def bch_codes():
    return {"bch63_24": build_bch(6, 7), "bch127_64": build_bch(7, 10)}


@pytest.mark.parametrize("key", sorted(SEEDED_RECORDS),
                         ids=lambda key: "-".join(map(str, key)))
def test_seeded_records_are_pinned(bch_codes, key):
    name, variant, seed = key
    maker, runner = {"a": (GaConfig.variant_a, run_variant_a),
                     "b": (GaConfig.variant_b, run_variant_b)}[variant]
    est = runner(bch_codes[name],
                 maker(population_size=200, max_generations=20, rng_seed=seed))
    events = json.dumps(est.events, sort_keys=True).encode()
    assert (est.d, est.witness.bits, hashlib.sha256(events).hexdigest()) == SEEDED_RECORDS[key]


class TestRunVariantB:
    def test_bch_31_26(self):
        code = build_bch(5, 1)
        cfg = GaConfig.variant_b(population_size=300, max_generations=30, rng_seed=0)
        est = run_variant_b(code, cfg)
        assert est.d == 3

    def test_qr47_published_value(self):
        from mindist.codes import build_qr

        code = build_qr(47)
        cfg = GaConfig.variant_b(population_size=1000, max_generations=75, rng_seed=0)
        assert run_variant_b(code, cfg).d == 11

    def test_elitism_monotone_best(self, c20):
        cfg = GaConfig.variant_b(population_size=80, max_generations=25, rng_seed=2)
        est = run_variant_b(c20, cfg)
        hist = [e["best_fitness"] for e in est.events]
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_determinism(self, golay24):
        cfg = GaConfig.variant_b(population_size=60, max_generations=10, rng_seed=9)
        a = run_variant_b(golay24, cfg)
        b = run_variant_b(golay24, cfg)
        assert (a.d, a.witness) == (b.d, b.witness)

    def test_no_elitism_ablation_runs(self, c20):
        cfg = GaConfig.variant_b(
            population_size=40, max_generations=8, elite_count=0, rng_seed=0
        )
        est = run_variant_b(c20, cfg)
        assert est.witness.weight == est.d


class TestEstimateContract:
    @pytest.mark.parametrize("runner, maker", [
        (run_variant_a, GaConfig.variant_a),
        (run_variant_b, GaConfig.variant_b),
    ])
    def test_witness_is_codeword_and_upper_bound(self, runner, maker, c20):
        d_exact = exact_min_distance(c20).d_exact
        for seed in range(3):
            est = runner(c20, maker(population_size=40, max_generations=8, rng_seed=seed))
            assert est.witness.weight == est.d
            assert d_exact <= est.d
            # re-encode check: the witness is in the row space
            from mindist.gf2 import BitMatrix

            stacked = BitMatrix(c20.n, c20.generator.rows + (est.witness.bits,))
            assert stacked.rank() == c20.k

    @pytest.mark.parametrize("runner, maker", [
        (run_variant_a, GaConfig.variant_a),
        (run_variant_b, GaConfig.variant_b),
    ])
    def test_estimate_above_singleton_is_a_warning(self, runner, maker):
        # two individuals and one generation keep a random codeword of
        # BCH(31,26), often heavier than n - k + 1 = 6: still a verified
        # codeword, so a valid if weak upper bound
        code = build_bch(5, 1)
        above = 0
        for seed in range(5):
            est = runner(code, maker(population_size=2, max_generations=1, rng_seed=seed))
            report = est.bound_report
            assert est.witness.weight == est.d and report.violated == ()
            assert report.warnings == (("singleton",) if est.d > 6 else ())
            above += est.d > 6
        assert above == 3

    def test_variant_a_best_is_the_first_of_least_fitness(self, c20):
        rows, n = c20.generator.rows, c20.n
        pop = [1, 2, 3, 0]
        fits = [fitness(rows, n, b) for b in pop]
        d, witness = genetic._best_with_witness(c20, pop, fits)
        first = min(range(len(pop)), key=fits.__getitem__)
        assert d == fits[first] == witness.weight
        assert witness == BitWord(c20.n, xor_rows(c20.generator.rows, pop[first]))
        # the zero word scores n: first only when every individual ties at n
        with pytest.raises(ConsistencyError, match="zero word"):
            genetic._best_with_witness(c20, [0, 1], [n, n])

    def test_validation_rejects_odd_population(self):
        with pytest.raises(ValueError):
            GaConfig.variant_a(population_size=7).validate()

    @pytest.mark.parametrize("setting", [{"elite_count": 3}, {"elite_count": 0}])
    def test_variant_a_rejects_elite_settings(self, repetition7, setting):
        small = {"population_size": 10, "max_generations": 2, **setting}
        with pytest.raises(ValueError, match="variant A always copies the best half"):
            run_variant_a(repetition7, GaConfig.variant_a(**small))
        run_variant_b(repetition7, GaConfig.variant_b(**small))

    def test_validation_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            GaConfig.variant_b(mutation_prob=1.5).validate()

    @pytest.mark.parametrize("field, value", [
        ("tournament_size", 2.5), ("population_size", 40.0), ("max_generations", True),
        ("elite_count", 2.0), ("rng_seed", "3"), ("mutation_prob", True),
        ("crossover_prob", "0.5"),
    ])
    def test_validation_rejects_wrong_types(self, field, value):
        # a fraction would otherwise reach range() as a TypeError, and a
        # bool would pass as 0 or 1
        with pytest.raises(ValueError, match=field):
            GaConfig.variant_b(**{field: value}).validate()
