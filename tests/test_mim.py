import math
import random

import numpy as np
import pytest

from mindist.codes import LinearCode
from mindist.gf2 import BitMatrix, BitWord
from mindist.mim import MimConfig, apply_pattern, make_pattern, run
from mindist.oracle import exact_min_distance
from mindist.osd import hard_decision
from mindist.results import validate_result


class TestMakePattern:
    def test_single_position_gets_full_amplitude(self):
        rng = random.Random(0)
        positions, amplitudes = make_pattern(10, 1, 4.5, rng)
        assert amplitudes == (4.5,)
        assert len(positions) == 1

    def test_saturation_all_positions(self):
        rng = random.Random(1)
        positions, amplitudes = make_pattern(3, 3, 3.0, rng)
        assert sorted(positions) == [0, 1, 2]
        assert abs(sum(amplitudes) - 3.0) < 1e-9

    def test_amplitudes_positive_and_sum(self):
        rng = random.Random(2)
        for _ in range(200):
            nb_error, A = rng.randint(1, 24), rng.uniform(0.5, 9)
            positions, amplitudes = make_pattern(24, nb_error, A, rng)
            assert len(positions) == len(amplitudes) == nb_error
            assert len(set(positions)) == nb_error
            assert all(a > 0 for a in amplitudes)
            assert abs(sum(amplitudes) - A) < 1e-9

    def test_flat_partition_symmetry(self):
        # each of the 4 slots averages A/4 over many draws
        rng = random.Random(3)
        A, draws = 8.0, 10_000
        sums = [0.0] * 4
        for _ in range(draws):
            _, amplitudes = make_pattern(16, 4, A, rng)
            for i, a in enumerate(amplitudes):
                sums[i] += a
        # slot amplitude is A * Beta(1, 3): mean A/4, var A^2 * 3/80
        sigma_mean = math.sqrt(A * A * 3 / 80 / draws)
        for s in sums:
            assert abs(s / draws - A / 4) < 3 * sigma_mean

    def test_nb_error_out_of_range(self):
        with pytest.raises(ValueError):
            make_pattern(5, 6, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            make_pattern(5, 0, 1.0, random.Random(0))


class TestApplyPattern:
    def test_single_impulse_arithmetic(self):
        y = apply_pattern(5, (2,), (2.0,))
        assert y.dtype == np.float64 and y.shape == (5,)
        assert y[2] == pytest.approx(1.0)
        assert all(v == -1.0 for i, v in enumerate(y) if i != 2)

    def test_fresh_array_per_call(self):
        # callers may keep the words they decoded, so no buffer is reused
        y = apply_pattern(5, (2,), (2.0,))
        y[0] = 7.0
        assert apply_pattern(5, (2,), (2.0,))[0] == -1.0

    def test_hard_decision_flips_only_above_unit_amplitude(self):
        rng = random.Random(4)
        for _ in range(100):
            positions, amplitudes = make_pattern(20, rng.randint(1, 8), rng.uniform(0.5, 6), rng)
            flipped = hard_decision(apply_pattern(20, positions, amplitudes))
            expect = 0
            for pos, amp in zip(positions, amplitudes):
                if amp > 1.0:
                    expect |= 1 << pos
            assert flipped.bits == expect


class TestRun:
    def test_repetition_unique_witness(self, repetition7):
        # the default d1 cap (n/2) keeps the amplitude too low to ever pull
        # a length-7 repetition decoder off the zero word; open the range up
        # to the Singleton bound so the unique nonzero codeword is reachable
        cfg = MimConfig.for_code(repetition7, d1=7, nb_test=5, rng_seed=0)
        est = run(repetition7, cfg)
        assert est.d == 7
        assert est.witness == BitWord.parse("1111111")

    def test_golay_finds_8(self, golay24):
        cfg = MimConfig.for_code(golay24, nb_test=20, rng_seed=1)
        est = run(golay24, cfg)
        assert est.d == 8
        assert est.witness.weight == 8

    def test_qr47_explicit_range(self):
        from mindist.codes import build_qr

        code = build_qr(47)
        cfg = MimConfig(d0=1, d1=24, nb_test=50, error_max=10, rng_seed=1)
        assert run(code, cfg).d == 11

    def test_default_config_values(self, golay24):
        cfg = MimConfig.for_code(golay24)
        assert cfg.d0 == 1
        assert cfg.d1 == min(24 - 12 + 1, 12)
        assert cfg.error_max == min(20, cfg.d1)
        assert cfg.nb_test == 100

    def test_upper_bound_soundness(self, golay24):
        d_exact = exact_min_distance(golay24).d_exact
        for seed in range(3):
            est = run(golay24, MimConfig.for_code(golay24, nb_test=5, rng_seed=seed))
            assert d_exact <= est.d
            assert est.witness.weight == est.d
            stacked = BitMatrix(24, golay24.generator.rows + (est.witness.bits,))
            assert stacked.rank() == golay24.k

    def test_monotone_refinement_and_a_min(self, golay24):
        est = run(golay24, MimConfig.for_code(golay24, nb_test=10, rng_seed=2))
        weights = [e["weight"] for e in est.events if e["kind"] == "witness"]
        assert weights == sorted(weights, reverse=True)
        a_mins = [e["a_min"] for e in est.events if e["kind"] == "trial"]
        assert all(x >= y for x, y in zip(a_mins, a_mins[1:]))

    def test_witness_events_carry_time_and_word(self, golay24):
        est = run(golay24, MimConfig.for_code(golay24, nb_test=5, rng_seed=3))
        wits = [e for e in est.events if e["kind"] == "witness"]
        assert wits
        for e in wits:
            assert set(e) >= {"weight", "witness", "trial", "amplitude", "time"}
            assert e["witness"].count("1") == e["weight"]

    def test_no_witness_diagnostic(self):
        # repetition(31,1) with the amplitude capped at d1 = 1: a single
        # impulse of 1.5 cannot pull the decoder off the zero word
        code = LinearCode(31, 1, BitMatrix(31, ((1 << 31) - 1,)))
        cfg = MimConfig(d0=1, d1=1, nb_test=4, error_max=1, osd_order=1, rng_seed=0)
        est = run(code, cfg)
        assert est.witness is None
        assert est.d == 31  # untouched Singleton initialization
        assert any(e["kind"] == "no_witness" for e in est.events)
        validate_result(est.to_dict())  # the one record that may lack a witness

    def test_determinism(self, golay24):
        cfg = MimConfig.for_code(golay24, nb_test=5, rng_seed=7)
        a = run(golay24, cfg)
        b = run(golay24, cfg)
        assert (a.d, a.witness) == (b.d, b.witness)
        strip = lambda ev: [{k: v for k, v in e.items() if k != "time"} for e in ev]
        assert strip(a.events) == strip(b.events)

    def test_config_validation(self, golay24):
        with pytest.raises(ValueError):
            run(golay24, MimConfig(d0=0, d1=5))
        with pytest.raises(ValueError):
            run(golay24, MimConfig(d0=6, d1=5))
        with pytest.raises(ValueError):
            run(golay24, MimConfig(d0=1, d1=25))
        with pytest.raises(ValueError):
            run(golay24, MimConfig(d0=1, d1=5, nb_test=0))
