import gc
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mindist import mim, oracle, osd
from mindist.codes import LinearCode, build_bch, build_dcc, build_qdc, build_qr
from mindist.gf2 import BitMatrix, BitWord
from mindist.mim import MimConfig, apply_pattern, make_pattern, run
from mindist.oracle import exact_min_distance
from mindist.osd import OsdDecoder, hard_decision, most_reliable_basis
from mindist.results import validate_result

from test_osd import MIM_CODES, reference_decode, zero_certified


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


def sample_pattern(n, nb_error, amplitude, rng):
    """``make_pattern`` as written on ``random.sample`` and sorted cuts."""
    positions = tuple(rng.sample(range(n), nb_error))
    if nb_error == 1:
        return positions, (amplitude,)
    while True:
        cuts = sorted(rng.random() for _ in range(nb_error - 1))
        gaps = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        if all(g > 0.0 for g in gaps):
            break
    return positions, tuple(amplitude * g for g in gaps)


class Scripted(random.Random):
    """``random()`` returns ``script`` first; ``getrandbits`` is the base
    one, named here so that ``sample`` keeps drawing through it."""

    getrandbits = random.Random.getrandbits

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()


class TestSameStreamDraws:
    """``make_pattern`` consumes the stream ``random.sample`` and sorted
    ``random()`` cuts consume, and returns the same pattern: ``sample``'s
    set branch (n = 24 with nb_error <= 5, n = 127 with nb_error >= 6)
    and its pool branch (n = 73 with nb_error >= 6) on each side of the
    set sizes 21 and 85."""

    @pytest.mark.parametrize("n", [3, 21, 22, 24, 73, 85, 86, 127])
    def test_draws_match_random_sample(self, n):
        for nb_error in sorted({*range(1, min(n, 20) + 1), n}):
            for seed in range(3):
                mine, ref = random.Random(seed), random.Random(seed)
                for amplitude in (0.75, 3.5, 11.5):
                    got = make_pattern(n, nb_error, amplitude, mine)
                    assert got == sample_pattern(n, nb_error, amplitude, ref)
                assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("script", [[0.25, 0.25, 0.5], [0.0, 0.5, 0.75], [0.5, 0.5, 0.5]])
    def test_zero_gap_redraws_every_cut(self, script):
        mine, ref = Scripted(5, script), Scripted(5, script)
        got = make_pattern(24, 4, 6.5, mine)
        assert got == sample_pattern(24, 4, 6.5, ref)
        assert all(a > 0 for a in got[1])
        assert mine.getstate() == ref.getstate()


class TestImpulseCertificate:
    """``mim._certified`` reads the decoder's zero-word test off the
    impulse list; it must give the outcome of the same test on
    ``apply_pattern``'s word.  BCH(15,7) has d_lb = 5."""

    CODE = build_bch(4, 2)

    @staticmethod
    def dense(decoder, y) -> bool:
        """The zero certificate on ``apply_pattern``'s word."""
        got = zero_certified(decoder, y)
        if got:
            assert decoder.decode(y).weight == 0  # certified words decode to zero
        return got

    @pytest.mark.parametrize(
        "order, amplitudes, want",
        [
            (2, (3.0, 1.0, 1.0), False),  # two 0.0 samples: floor 0 + 0 + 1 + 1 = 2.0, the cost
            (2, (2.5, 1.0, 1.0), True),  # the same floor against 1.5
            (2, (2.0, 2.0), True),  # |y| = 1 ties the untouched positions: 2.0 < 3.0
            (3, (2.0, 2.0, 2.0), False),  # 3.0 against a floor of 2.0
            (2, (2.5, 2.5, 2.5), False),  # P = order + 1, all ranked above the untouched positions
            (5, (1.25,) * 5, False),  # P = d_lb, need = 0
            (4, (1.0625,) * 4 + (0.5,), True),  # need = 1: 0.25 against 0.5
            (4, (1.25,) * 4 + (0.5,), False),  # need = 1: 1.0 against 0.5
            (2, (1.5, 0.5), True),  # fewer weak impulses than need
            (2, (0.5, 0.5), True),  # P = 0: the zero word costs 0
            (2, (1.25,) + (0.25,) * 12, True),  # n - e = 2 < need: 0.25 against 3 * 0.75 + 1
            (2, (4.25,) + (0.25,) * 12, False),  # 3.25 against the same floor
            (2, (1.25,) + (0.25,) * 14, True),  # e = n: no untouched position
            # P = order + 1, but the three 0.5 samples rank below the 12
            # untouched positions, outside the window of n - d_lb + 1 = 11
            (2, (1.5, 1.5, 1.5), True),
            # two 1.0 samples tie the 13 untouched ones: ties count as
            # inside the window, so both may be on the MRB
            (1, (2.0, 2.0), False),
            # e = d_lb impulses leave 10 untouched positions, so the two
            # 0.5 samples rank inside the window: 1.0 < 1.5 is no use there
            (1, (1.5, 1.5, 0.5, 0.5, 0.5), False),
            # e = d_lb - 1: they rank below the 11 untouched positions
            (1, (1.5, 1.5, 0.5, 0.5), True),
        ],
    )
    def test_matches_the_dense_test(self, order, amplitudes, want):
        decoder = OsdDecoder(self.CODE, order=order)
        positions = tuple(range(len(amplitudes)))
        got = mim._certified(decoder, 15, amplitudes)
        assert got == want
        assert self.dense(decoder, apply_pattern(15, positions, amplitudes)) == want

    @pytest.mark.parametrize("name", list(MIM_CODES))
    def test_window_holds_the_mrb(self, name):
        """MIM probes of every amplitude level on the seven MIM codes: the
        MRB holds no more samples above 0 than ``_in_window`` counts, and
        every probe the window certifies with more than ``order`` of them
        decodes to the zero word.  The first three do so in
        ``reference_decode`` too, whose brute force is slow at k = 64."""
        code = MIM_CODES[name]()
        n, k = code.n, code.k
        decoder = OsdDecoder(code, order=3)
        cfg = MimConfig.for_code(code)
        rng = random.Random(name)
        windowed = []
        for amplitude in range(2, cfg.d1 + 1):
            for nb_error in range(cfg.error_max, 0, -1):
                positions, amplitudes = make_pattern(n, nb_error, amplitude + 0.5, rng)
                on = [-1.0 + a for a in amplitudes if a > 1.0]
                if len(on) <= decoder.order:
                    continue
                off = [abs(-1.0 + a) for a in amplitudes if a <= 1.0]
                y = apply_pattern(n, positions, amplitudes)
                _, perm = most_reliable_basis(code, y)
                inside = osd._in_window(on, off, n - nb_error, decoder._window)
                assert sum(y[p] > 0 for p in perm[:k]) <= inside
                if mim._certified(decoder, n, amplitudes):
                    windowed.append(y)
        assert windowed
        for y in windowed:
            assert decoder.decode(y) == BitWord(n)
        for y in windowed[:3]:
            assert reference_decode(code, y, decoder.order) == BitWord(n)

    @pytest.mark.parametrize("make", [lambda: build_qdc(11), lambda: build_qr(41), lambda: build_bch(6, 7)],
                             ids=["qdc24", "qr41", "bch63"])
    def test_every_seeded_probe_keeps_its_outcome(self, make, monkeypatch):
        code = make()
        reference = OsdDecoder(code, order=3)
        last = []
        draw, certified = mim.make_pattern, mim._certified
        outcomes = Counter()

        def draw_spy(*args):
            last[:] = draw(*args)
            return tuple(last)

        def certified_spy(decoder, n, amplitudes):
            got = certified(decoder, n, amplitudes)
            y = apply_pattern(n, *last)
            assert self.dense(reference, y) == got
            outcomes[got] += 1
            return got

        monkeypatch.setattr(mim, "make_pattern", draw_spy)
        monkeypatch.setattr(mim, "_certified", certified_spy)
        monkeypatch.setattr(mim, "lower_bound", no_stop)  # every trial's probes
        for seed in range(2):
            mim.run(code, MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed))
        assert outcomes[True] and outcomes[False]


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


def no_stop(code: LinearCode) -> int:
    """A ``lower_bound`` no witness reaches: patched into ``mim``, runs
    never stop early, and the decoder keeps its own bound."""
    return 1


def strip_times(events) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "time"} for e in events]


class TestCertifiedStop:
    """A run stops after the trial in which its witness reaches
    ``lower_bound(code)``.  The same seeded run with the stop switched off
    (``no_stop``) must give the same d and witness, and its events must
    begin with the stopped run's events but the last, a ``certified``
    event."""

    CODES = {
        "qdc24": lambda: build_qdc(11),
        "qr41": lambda: build_qr(41),
        "qr47": lambda: build_qr(47),
        "qr73": lambda: build_qr(73),
        "bch63_24": lambda: build_bch(6, 7),
        "bch63_36": lambda: build_bch(6, 5),
        "c20": lambda: build_dcc(BitWord.parse("1001111110")),
        "repetition7": lambda: LinearCode(7, 1, BitMatrix.from_strings(["1111111"])),
    }

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_stop_keeps_d_and_the_witness(self, name, monkeypatch):
        code = self.CODES[name]()
        # repetition7 needs the amplitude up to d = 7 to escape at all
        cfg = MimConfig.for_code(code, nb_test=3, error_max=min(20, code.n),
                                 osd_order=min(3, code.k), rng_seed=1,
                                 **({"d1": 7} if name == "repetition7" else {}))
        stopped = run(code, cfg)
        monkeypatch.setattr(mim, "lower_bound", no_stop)
        full = run(code, cfg)
        assert stopped.witness is not None
        assert (stopped.d, stopped.witness) == (full.d, full.witness)
        *head, last = strip_times(stopped.events)
        assert last == {"kind": "certified", "d_lb": stopped.d}
        assert head[-1]["kind"] == "trial"  # the stop closes its trial first
        assert stopped.d == oracle.lower_bound(code)
        assert head == strip_times(full.events)[:len(head)]
        assert not any(e["kind"] == "certified" for e in full.events)

    def test_no_stop_short_of_the_bound(self, monkeypatch):
        # this seed reaches 16 on BCH(63,24), d = 15: every trial runs
        code = build_bch(6, 7)
        cfg = MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=3)
        est = run(code, cfg)
        monkeypatch.setattr(mim, "lower_bound", no_stop)
        assert est.d == 16
        assert strip_times(est.events) == strip_times(run(code, cfg).events)


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

    def test_monotone_refinement_and_a_min(self, golay24, monkeypatch):
        monkeypatch.setattr(mim, "lower_bound", no_stop)  # all 10 trials
        est = run(golay24, MimConfig.for_code(golay24, nb_test=10, rng_seed=2))
        weights = [e["weight"] for e in est.events if e["kind"] == "witness"]
        assert weights == sorted(weights, reverse=True)
        a_mins = [e["a_min"] for e in est.events if e["kind"] == "trial"]
        assert len(a_mins) == 10
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
        # d_lb = 31 is the Singleton start value, but no witness reached it
        assert not any(e["kind"] == "certified" for e in est.events)
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

    @pytest.mark.parametrize("field, value", [
        ("error_max", 2.5), ("nb_test", True), ("d1", 5.0), ("osd_order", 2.5),
        ("rng_seed", "1"),
    ])
    def test_config_validation_rejects_wrong_types(self, field, value):
        # a fraction would otherwise reach range() as a TypeError, and a
        # bool would pass as 0 or 1
        cfg = MimConfig(**{"d0": 1, "d1": 5, "nb_test": 2, "error_max": 4, field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate(24)


def test_retained_record_size():
    """30 one-trial BCH(127,64) records, each kept with its ``to_json``
    text, as a caller that keeps its results holds them.  At 3,300 bytes a
    record the bound fails with the identity column permutation in the
    code's params (about 5,300) and without the slotted BitWord,
    BoundReport and DistanceEstimate (about 3,380); about 3,100 pass."""
    code = build_bch(7, 10)

    def record(seed):
        cfg = MimConfig.for_code(code, nb_test=1, error_max=20, osd_order=3, rng_seed=seed)
        est = run(code, cfg)
        return est, est.to_json()

    record(0)  # the decoder's and the bound's caches are not the records'
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [record(seed) for seed in range(1, 31)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 30 and retained < 30 * 3300
