import contextlib
import gc
import hashlib
import json
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mindist import mim, oracle, osd
from mindist.codes import LinearCode, build_bch, build_dcc, build_qdc, build_qr
from mindist.gf2 import BitMatrix, BitWord, eliminate
from mindist.mim import MimConfig, apply_pattern, make_pattern, run
from mindist.oracle import exact_min_distance
from mindist.osd import OsdDecoder, hard_decision, most_reliable_basis
from mindist.results import validate_result

from test_osd import MIM_CODES, permuted_dcc, reference_decode, zero_certified


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
        """Each probe ``_certified`` answers gets the dense test's answer,
        and each probe the silent-level rule settles before asking it
        passes the dense test."""
        code = make()
        reference = OsdDecoder(code, order=3)
        last, unasked, settled = [], [], []
        draw, certified = mim.make_pattern, mim._certified
        outcomes = Counter()

        def check_settled():
            if unasked:  # the last probe drawn asked no ``_certified``
                assert self.dense(reference, apply_pattern(code.n, *last))
                settled.append(last[1])

        def draw_spy(*args):
            check_settled()
            last[:] = draw(*args)
            unasked[:] = [True]
            return tuple(last)

        def certified_spy(decoder, n, amplitudes):
            unasked.clear()
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
        check_settled()
        assert outcomes[True] and outcomes[False]
        assert settled


class _Stop(Exception):
    """Ends a run at its second probe."""


def spy_probes(monkeypatch) -> list[list]:
    """Record each probe ``mim.run`` draws as [nb_error, amplitude,
    amplitudes, asked], with asked set once ``_certified`` is called on it."""
    probes = []
    draw, certified = mim.make_pattern, mim._certified

    def draw_spy(n, nb_error, amplitude, rng):
        got = draw(n, nb_error, amplitude, rng)
        probes.append([nb_error, amplitude, got[1], False])
        return got

    def certified_spy(decoder, n, amplitudes):
        probes[-1][3] = True
        return certified(decoder, n, amplitudes)

    monkeypatch.setattr(mim, "make_pattern", draw_spy)
    monkeypatch.setattr(mim, "_certified", certified_spy)
    return probes


class TestSilentLevelRule:
    """``mim.run`` settles a probe of e impulses at level A as the zero word,
    without asking ``_certified``, when e <= d_lb - 1 and A < d_lb (the
    region), and floor(A / 2) <= order or at most ``order`` amplitudes are
    2.0 or more; d_lb is the decoder's bound.  Inside the region that is
    exactly when the certificate passes, on every code here (2 d_lb < n + 3).
    BCH(15,7) has d_lb = 5 and n = 15."""

    CODE = TestImpulseCertificate.CODE

    def first_probe(self, monkeypatch, order, level, amplitudes) -> tuple[bool, bool]:
        """Run MIM with ``amplitudes`` as its first probe, at ``level``, up to
        its second draw: whether that probe asked ``_certified``, and whether
        it was decoded."""
        script = [(tuple(range(len(amplitudes))), amplitudes)]
        asked, decoded = [], []
        certified, build = mim._certified, mim.apply_pattern

        def draw(n, nb_error, amplitude, rng):
            if not script:
                raise _Stop
            assert (nb_error, amplitude) == (len(amplitudes), level)
            return script.pop()

        monkeypatch.setattr(mim, "make_pattern", draw)
        monkeypatch.setattr(mim, "_certified", lambda *args: asked.append(args) or certified(*args))
        monkeypatch.setattr(mim, "apply_pattern",
                            lambda *args: decoded.append(args) or build(*args))
        cfg = MimConfig(d0=int(level), d1=self.CODE.n, nb_test=1, error_max=len(amplitudes),
                        osd_order=order)
        with contextlib.suppress(_Stop):
            run(self.CODE, cfg)
        return bool(asked), bool(decoded)

    @pytest.mark.parametrize(
        "order, level, amplitudes, inside, want",
        [
            # A = d_lb - 0.5 and floor(A / 2) = order: a silent level; the
            # two 1.0 samples cost 2.0 against a floor of 0.5 + 1 + 1
            (2, 4.5, (2.0, 2.0, 0.5), True, True),
            # exactly order amplitudes >= 2.0 with P = 2 > order: the 0.5
            # sample ranks below the 12 untouched positions
            (1, 4.5, (2.5, 1.5, 0.5), True, True),
            # an amplitude of exactly 2.0 is the one that counts; a = 1.0
            # gives a 0.0 sample, a weak one
            (1, 4.5, (2.0, 1.5, 1.0), True, True),
            # two amplitudes of exactly 2.0: their 1.0 samples tie the
            # untouched positions and rank inside the window
            (1, 4.5, (2.0, 2.0, 0.5), True, False),
            # e = d_lb - 1: the two 0.75 samples rank below 11 untouched ones
            (1, 4.5, (1.75, 1.75, 0.5, 0.5), True, True),
            # e = d_lb: 10 untouched positions leave the 0.5 samples inside
            (1, 4.5, (1.5, 1.5, 0.5, 0.5, 0.5), False, False),
            # A = d_lb + 0.5, floor(A / 2) = order: 3.0 against 0.5 + 1 + 1
            (2, 5.5, (2.5, 2.5, 0.5), False, False),
            # A = d_lb + 0.5 with one amplitude >= 2.0: 2.5 against 1 + 1
            (1, 5.5, (2.5, 1.5, 1.5), False, False),
        ],
        ids=["silent-level", "order-strong", "one-at-2.0", "two-at-2.0", "e-d_lb-minus-1",
             "e-d_lb", "A-d_lb-plus-half-silent", "A-d_lb-plus-half-count"],
    )
    def test_edges(self, monkeypatch, order, level, amplitudes, inside, want):
        """``want`` is the certificate's answer, ``inside`` whether the probe
        lies in the region: the rule settles the region's certified probes,
        every other probe asks ``_certified``, and only refused ones decode."""
        assert math.isclose(math.fsum(amplitudes), level)
        decoder = OsdDecoder(self.CODE, order=order)
        assert decoder.d_lb == 5
        y = apply_pattern(15, tuple(range(len(amplitudes))), amplitudes)
        assert mim._certified(decoder, 15, amplitudes) == want
        assert TestImpulseCertificate.dense(decoder, y) == want
        asked, decoded = self.first_probe(monkeypatch, order, level, amplitudes)
        assert (asked, decoded) == (not (inside and want), not want)

    @pytest.mark.parametrize("name", list(MIM_CODES))
    def test_settled_probes_are_certified(self, mim_codes, name, monkeypatch):
        """Seeded runs with the stop switched off (``no_stop``, so the run's
        own bound is 1 and the rule must read the decoder's): every probe the
        rule settles is certified, and inside the region it settles exactly
        the certified ones."""
        code = mim_codes[name]
        decoder = OsdDecoder(code, order=3)
        d_lb, certified = decoder.d_lb, mim._certified
        assert 2 * d_lb < code.n + 3
        probes = spy_probes(monkeypatch)
        monkeypatch.setattr(mim, "lower_bound", no_stop)
        for seed in range(2):
            run(code, MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed))
        settled = 0
        for nb_error, level, amplitudes, asked in probes:
            inside = nb_error < d_lb and level < d_lb
            assert (not asked) == (inside and certified(decoder, code.n, amplitudes))
            settled += not asked
        assert settled

    def test_bch127_certifies_no_asked_probe(self, mim_codes, monkeypatch):
        """On the seeded BCH(127,64) runs of the pinned records, the rule
        settles every probe the certificate would pass: ``_certified`` passes
        none of the probes it is asked about, and each of them decodes."""
        code = mim_codes["bch127"]
        decoder = OsdDecoder(code, order=3)
        certified, build = mim._certified, mim.apply_pattern
        probes, decodes = spy_probes(monkeypatch), []
        monkeypatch.setattr(mim, "apply_pattern",
                            lambda *args: decodes.append(args) or build(*args))
        for seed in range(8):
            run(code, MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed))
        asked = [amplitudes for _, _, amplitudes, was_asked in probes if was_asked]
        assert len(probes) > 3000 and asked and len(asked) == len(decodes)
        assert not any(certified(decoder, code.n, amplitudes) for amplitudes in asked)


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


# The seeded records of the seven MIM codes, two trials each: d, the witness
# bits and the sha256 of the events without their times.  The decoder's
# shortcuts (the floor skip, the prefilter) and MIM's zero certificate each
# return the word that full reprocessing returns, so no change to them, nor
# the BLAS thread count, may move a record.
SEEDED_RECORDS = {
    ("qdc24", 0): (8, 0xac0506,
                   "aa1cccc444131e2a08193171b1a62539b3cefd1649204e660a172a3e2e7785a2"),
    ("qdc24", 1): (8, 0x6c800d,
                   "1800b9aa447e4352cfec1b76d0305980d32f0bec8b8f70f859107671df0f5f4c"),
    ("qdc24", 2): (8, 0x870846,
                   "4a473e7d3036fd281db111d9694474964e8e68a573e8aa4801d564cf9595e93f"),
    ("qdc24", 3): (8, 0x35c05,
                   "97781c574e11eae7cf9902290b6797b08e49512ab3960970ec79508819247a7f"),
    ("qdc24", 4): (8, 0x830929,
                   "b12dd5bd9b0fa5315ab5e41ecb9d570a5f33008c74ab5dee46233cae05862876"),
    ("qdc24", 5): (8, 0x93600c,
                   "810676a22bf1c9eab138ece485a5bfe72761096b111f4644502b2860a21c70d1"),
    ("qdc24", 6): (8, 0x4610c5,
                   "7aab615e05b3152698753d708b389c38390cbc4863a77328568a9922dc4f1350"),
    ("qdc24", 7): (8, 0xc452a0,
                   "4ac82f4222713e52c9e78210b21cb38729e7e4e6cf975b6ded13f60c394ac24d"),
    ("qr41", 0): (9, 0xa403804a00,
                  "609e1ca15ea0ff25328e1411342f2f01a2a0639df9822016195c2515b396e65f"),
    ("qr41", 1): (9, 0x84060c1808,
                  "471e40c3eb97fbf6d80a6fef5a0ff3e9fab755ab5cf2eed0143ac2c3b795c17b"),
    ("qr41", 2): (9, 0xb200013410,
                  "99e52a5c2a870be5548f099c5f97cc159f1e009956501926ff363afd94917127"),
    ("qr41", 3): (9, 0xa808101508,
                  "51196be4f42cd026f7183c481a2ae337d6931cfe0621a53f34c1c36db111db27"),
    ("qr41", 4): (9, 0xb268020100,
                  "e27a558d5160905270038d31eeb17c0854c4b3dd3336163885b40e004352933f"),
    ("qr41", 5): (9, 0xc180842030,
                  "d6b3893805f1edae651b37da693fb83fa275aa9f3e8ec6cb1f628e32c9d7a907"),
    ("qr41", 6): (9, 0xe408090102,
                  "a26041b0d0adf0d63a750a45144ed8d1bc1d8402310d80200c7091798c0b784a"),
    ("qr41", 7): (9, 0x10202a10a80,
                  "989d758a53895e8f04deb3e8ba646744c1ca8db3006d2fcaf1ad89c2ea725302"),
    ("qr47", 0): (11, 0x6aa140201010,
                  "ed3900db4fc98058428091ccffc5d576fbe7794b2121a6e5629957701760a6a2"),
    ("qr47", 1): (11, 0x58080a040838,
                  "565bc9cb63dc3db51a29da4ff57e169675f15883ecd2c9e460fc2231fdc98bea"),
    ("qr47", 2): (11, 0x35b000090440,
                  "990fedddb6e90ac9ba9b84221d437819ef4c5526646a3aefac3d3279c806efc9"),
    ("qr47", 3): (11, 0x60113e02004,
                  "9fccad45e1d17df2031415841c2974d3813f7268e98377e972ef882f64225b3f"),
    ("qr47", 4): (11, 0x102c044108a8,
                  "c70590517629946d021cb67364b90efeb763d8afa827cf8b45dac56baabcc1c2"),
    ("qr47", 5): (11, 0x4300d1021810,
                  "74899fe1599cb3885bd233a82f82c83060723fb3dd5afef08d502211fc439503"),
    ("qr47", 6): (11, 0x1b0201230802,
                  "7e16217431210f4360c131f30d44814c2c1744cf5c71aab95e973948a32c1c9f"),
    ("qr47", 7): (11, 0x5003030c841,
                  "967ab78e0b2a74d845b50467ac0f49a156732ea991c804f2a05378bfa2f39466"),
    ("qr73", 0): (13, 0x402c40006060002340,
                  "28184bc0707a66f2e4ca8c81b42d74f78d7644ebbe7487a5ac55d5141a65e8dd"),
    ("qr73", 1): (13, 0x1800b00806800c20010,
                  "b73b11e46ec3dc92d1e09a9906635c10cdefb07977ad8256958bd558873d384a"),
    ("qr73", 2): (13, 0x519314108000000108,
                  "1466e541f256f2ec8d889fac232110d56b092ccc2249a68484284a55498ba423"),
    ("qr73", 3): (13, 0x4027900801011101,
                  "2d92a51e45908520d2975f9c867910a260e974b6efaa5dfa02f89e0e7ab926f6"),
    ("qr73", 4): (14, 0x1210141404240840840,
                  "1e0b0b8281c99d9cf8f9b29517a7523c96073c63239c4592dfda7d34cb62e42c"),
    ("qr73", 5): (13, 0xd56400010090080002,
                  "d5f2b6dd44457ccaa77307ee42a2fd7f9d3eb53f545a016302d359b8d7253513"),
    ("qr73", 6): (13, 0x9aac800020120100,
                  "a9a69770c8e2b8ff4429402a7caf0fcadbf15da42798bc43835ff12c9dae58ae"),
    ("qr73", 7): (13, 0x1355900004024020000,
                  "44fc7ec683f4cdfcf453c8b769af8f89f19fbd2f7c62013ecbf8396f7d8730bf"),
    ("bch63_24", 0): (15, 0x20244b60008812c,
                      "a2da7ca1a0123e4c4e2e1afe750ae4b7fe88a24ba9592bdbb60b4c7f8fe5d4bc"),
    ("bch63_24", 1): (15, 0xa86b80500012050,
                      "993aaf3fb06517f84049103986f9bc7d0deb3fc3cc50db78077610180939837f"),
    ("bch63_24", 2): (15, 0x4740089100888029,
                      "ff450e99f5a3a01b49e724ca10f1b6d9e2c38d371494ab7943da165c0d3c7583"),
    ("bch63_24", 3): (16, 0x1421002a444a4221,
                      "a89b1393301d2f3fa9270a87fd5a13f1467972aef21a6d251c4b16b5b1ff54aa"),
    ("bch63_24", 4): (15, 0x1808639e00040024,
                      "22e9361e6630fe9c816d766c79db2e8178b0ea9be451118f3ff1e1cd43e359f8"),
    ("bch63_24", 5): (15, 0x16c0011025808091,
                      "93e2fae9a0b1e6746f78037587f780e889b60dd89e3008405b64e7f0c730f277"),
    ("bch63_24", 6): (15, 0x1202431c054089,
                      "228a3ed401f2c6ccf50acd7d1465d1b343c26cb268074883681f8c32898fa79d"),
    ("bch63_24", 7): (15, 0x50c014c00244434,
                      "ccf4d1c65c2fec03ac0b5b94cd2b74e5e1742f9e1b62018d6023cbe173cc9cc2"),
    ("bch63_36", 0): (11, 0x8094c001088300,
                      "a4db630624a908e438d2be8eceb9832881fc4cff168bab77132c50e2ba578e28"),
    ("bch63_36", 1): (11, 0x2600205000044540,
                      "847262999a8e9b9623091bc19491abd8ea6fadad19a75a71188bae090a5ccf90"),
    ("bch63_36", 2): (11, 0x4a44080100588000,
                      "ff1da3ed40b4d1ed7e9b1a70c4565beda5ccb8a38900a30d799e77c67f0d4231"),
    ("bch63_36", 3): (11, 0x8912c0802102000,
                      "6e42a8db8a9249f7630f178a06c3a60262854c446fd365edfee741bf6ef81501"),
    ("bch63_36", 4): (11, 0x20020ae420004008,
                      "daf65e7888d75cb5f717f081385cbdc44b55c5f7d26649607f062f246181f01f"),
    ("bch63_36", 5): (11, 0x524000401403401,
                      "bb9fd911fb4a780a427428481df3277e9880e9da03cf0b76592c8f74aeffd258"),
    ("bch63_36", 6): (11, 0x214302060090001,
                      "b26112cfe2cc98f6d3c2e70e61ec90a8ce2ad9a2f651f83833be1b2bcffe7964"),
    ("bch63_36", 7): (11, 0x140200a2a2000808,
                      "408d10017c14f7cf81b882098d4c4af882f01b4ff92a257899eb2c093c4ae7a8"),
    ("bch127", 0): (23, 0x4700270c410a08c00800008028022000,
                    "af5cf13da1352665461f45eef0430b26c8694a5f3b7f9f62ffa3049e3949c423"),
    ("bch127", 1): (23, 0x4b05104e012d80440080002000020200,
                    "06a9acb9bd4df3fa6d6a0020a01c6e9c0576fea177be64717a513c9657732db6"),
    ("bch127", 2): (23, 0x49560208148249400020009010010100,
                    "37ee3a0efb7b3d1d011a2774cff28e7ace1b133b46647748ff36c89b452949cc"),
    ("bch127", 3): (23, 0x6208607889841400310000060020000,
                    "c8ec7d46a91c9aacf3b74114d5160dedb8c15e4957ba7598b01c533d1f8877f6"),
    ("bch127", 4): (22, 0x81491c402180950000140808003000,
                    "95b2e8af7aac1c77b7f11acfba54e8c6484f199bcb56586f5e782a32d79cba0e"),
    ("bch127", 5): (23, 0x41414448426920848400020800120000,
                    "6b7ee0e22ba39649ed5d15c4621518edc4ad30f5628d00dc82bc21f820c6c65b"),
    ("bch127", 6): (22, 0x40b1480f0c5400001000000000541008,
                    "0de6b85155fd214bf3b9b4b0842c4df5ca1068790c837bcf5c1bb2fa59268bd3"),
    ("bch127", 7): (21, 0x4914400500d0142c0081040000000084,
                    "e874622ac62e07723690760f29a707ddafac0acca981bc2634eba7305392a1bf"),
}


@pytest.fixture(scope="module")
def mim_codes():
    return {name: make() for name, make in MIM_CODES.items()}


@pytest.mark.parametrize("key", sorted(SEEDED_RECORDS), ids=lambda key: "-".join(map(str, key)))
def test_seeded_records_are_pinned(mim_codes, key):
    name, seed = key
    code = mim_codes[name]
    est = run(code, MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed))
    events = json.dumps(strip_times(est.events), sort_keys=True).encode()
    assert (est.d, est.witness.bits, hashlib.sha256(events).hexdigest()) == SEEDED_RECORDS[key]


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


@pytest.mark.parametrize("make", [lambda: build_bch(7, 10), permuted_dcc],
                         ids=["bch127", "dcc20-permuted"])
def test_run_reduces_no_generator(make, monkeypatch):
    """A code reduces its generator once, when it is built, into
    ``code.basis``: with its ``lower_bound`` memoized, a run builds its
    decoder from that basis, reduces each word by ``osd._update`` and checks
    its witness against the basis, with no ``eliminate`` call.  Every
    module's imported name is spied on, ``gf2``'s own too (``rank`` calls
    it there)."""
    code = make()
    oracle.lower_bound(code)
    spied = {name: module for name, module in sys.modules.items()
             if name.startswith("mindist.") and getattr(module, "eliminate", None) is eliminate}
    assert {"mindist.gf2", "mindist.codes", "mindist.osd", "mindist.oracle"} <= spied.keys()
    calls = []
    for module in spied.values():
        monkeypatch.setattr(module, "eliminate", lambda *args: calls.append(args) or eliminate(*args))
    decodes, update = [], osd._update
    monkeypatch.setattr(osd, "_update", lambda *args: decodes.append(args) or update(*args))
    est = run(code, MimConfig.for_code(code, nb_test=3, rng_seed=1))
    assert est.witness is not None and decodes and calls == []


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
