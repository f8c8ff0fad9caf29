import contextlib
import gc
import hashlib
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mindist import mim, oracle, osd
from mindist.codes import LinearCode, build_bch, build_dcc, build_qdc, build_qr
from mindist.gf2 import BitMatrix, BitWord, eliminate
from mindist.mim import MimConfig, apply_pattern, make_pattern, run
from mindist.oracle import exact_min_distance
from mindist.osd import OsdDecoder, hard_decision, most_reliable_basis
from mindist.results import validate_result

from test_osd import (MIM_CODES, permuted_dcc, reference_decode, sample_pattern, sorted_cuts,
                      zero_certified)


class TestMakePattern:
    """``mim._split`` draws a probe's amplitudes, ``make_pattern`` places
    them at distinct uniform positions."""

    def test_single_position_gets_full_amplitude(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert mim._split(1, 4.5, rng) == (4.5,)
        assert rng.getstate() == state  # one impulse takes no cut
        positions, amplitudes = make_pattern(10, (4.5,), rng)
        assert amplitudes == (4.5,)
        assert len(positions) == 1

    def test_saturation_all_positions(self):
        rng = random.Random(1)
        positions, amplitudes = make_pattern(3, mim._split(3, 3.0, rng), rng)
        assert sorted(positions) == [0, 1, 2]
        assert abs(sum(amplitudes) - 3.0) < 1e-9

    def test_amplitudes_positive_and_sum(self):
        """Every split MIM draws, e = 1..20 impulses at the half-integer
        levels, sums to A within half an ulp of A per impulse: the gaps of
        ``random()``'s multiples of 2**-53 are exact and sum to 1, and each
        product rounds once."""
        rng = random.Random(2)
        for nb_error in range(1, 21):
            for level in range(1, 21):
                A = level + 0.5
                amplitudes = mim._split(nb_error, A, rng)
                assert len(amplitudes) == nb_error
                assert all(a > 0 for a in amplitudes)
                assert abs(math.fsum(amplitudes) - A) <= nb_error * math.ulp(A) / 2
        for _ in range(200):
            nb_error, A = rng.randint(1, 24), rng.uniform(0.5, 9)
            positions, amplitudes = make_pattern(24, mim._split(nb_error, A, rng), rng)
            assert len(positions) == len(amplitudes) == nb_error
            assert len(set(positions)) == nb_error
            assert all(a > 0 for a in amplitudes)
            assert abs(sum(amplitudes) - A) < 1e-9

    def test_flat_partition_symmetry(self):
        """Each of the e slots of a split is A * Beta(1, e - 1): mean A / e
        and variance A^2 (e - 1) / (e^2 (e + 1)), the same for every slot."""
        rng = random.Random(3)
        A, draws = 8.0, 10_000
        for nb_error in (2, 4, 7):
            sums = [0.0] * nb_error
            squares = [0.0] * nb_error
            for _ in range(draws):
                for i, a in enumerate(mim._split(nb_error, A, rng)):
                    sums[i] += a
                    squares[i] += a * a
            mean = A / nb_error
            var = A * A * (nb_error - 1) / (nb_error ** 2 * (nb_error + 1))
            sigma_mean = math.sqrt(var / draws)
            for s, q in zip(sums, squares):
                assert abs(s / draws - mean) < 4 * sigma_mean
                # the second moment var + mean^2, to within 10%
                assert abs(q / draws - (var + mean * mean)) < 0.1 * (var + mean * mean)

    def test_nb_error_out_of_range(self):
        with pytest.raises(ValueError):
            make_pattern(5, (0.2,) * 6, random.Random(0))
        with pytest.raises(ValueError):
            make_pattern(5, (), random.Random(0))


class Scripted(random.Random):
    """``random()`` returns ``script`` first."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()


class TestSameStreamDraws:
    """A decoded probe draws its split, ``mim._split``, then its positions,
    ``make_pattern``: the stream that sorted ``random()`` cuts and then
    ``random.sample`` consume, and the same pattern."""

    @pytest.mark.parametrize("n", [3, 21, 22, 24, 73, 85, 86, 127])
    def test_draws_match_random_sample(self, n):
        for nb_error in sorted({*range(1, min(n, 20) + 1), n}):
            for seed in range(3):
                mine, ref = random.Random(seed), random.Random(seed)
                for amplitude in (0.75, 3.5, 11.5):
                    got = make_pattern(n, mim._split(nb_error, amplitude, mine), mine)
                    amplitudes = sorted_cuts(nb_error, amplitude, ref)
                    assert got == (tuple(ref.sample(range(n), nb_error)), amplitudes)
                assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("script", [[0.25, 0.25, 0.5], [0.0, 0.5, 0.75], [0.5, 0.5, 0.5]])
    def test_zero_gap_redraws_every_cut(self, script):
        mine, ref = Scripted(5, script), Scripted(5, script)
        got = mim._split(4, 6.5, mine)
        assert got == sorted_cuts(4, 6.5, ref)
        assert all(a > 0 for a in got)
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
                positions, amplitudes = sample_pattern(n, nb_error, amplitude + 0.5, rng)
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
        and each probe the rule settles before asking it passes the dense
        test: those the count rule settles in seeded runs, and those of the
        silent levels, which a run does not draw, drawn here.  An undecoded
        probe draws no positions, so its word takes positions from a
        separate stream."""
        code = make()
        reference = OsdDecoder(code, order=3)
        place = random.Random(0)
        drawn, unasked, settled = [], [], []
        split, certified = mim._split, mim._certified
        outcomes = Counter()

        def word(amplitudes):
            return apply_pattern(code.n, tuple(place.sample(range(code.n), len(amplitudes))), amplitudes)

        def check_settled():
            if unasked:  # the last probe drawn asked no ``_certified``
                assert self.dense(reference, word(drawn[-1]))
                settled.append(drawn[-1])

        def split_spy(*args):
            check_settled()
            drawn.append(split(*args))
            unasked[:] = [True]
            return drawn[-1]

        def certified_spy(decoder, n, amplitudes):
            unasked.clear()
            got = certified(decoder, n, amplitudes)
            assert self.dense(reference, word(amplitudes)) == got
            outcomes[got] += 1
            return got

        monkeypatch.setattr(mim, "_split", split_spy)
        monkeypatch.setattr(mim, "_certified", certified_spy)
        monkeypatch.setattr(mim, "lower_bound", no_stop)  # every trial's probes
        for seed in range(2):
            cfg = MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed)
            mim.run(code, cfg)
            check_settled()
            unasked.clear()
            for _, _, amplitudes in silent_probes(reference, cfg):
                assert self.dense(reference, word(amplitudes))
                settled.append(amplitudes)
        assert outcomes[True] and outcomes[False]
        assert settled


def silent_probes(decoder: OsdDecoder, cfg: MimConfig) -> list[tuple]:
    """The probes a run of ``cfg`` settles at its silent levels without
    drawing them, as (nb_error, level, amplitudes), each split drawn by
    ``sorted_cuts`` from ``cfg.rng_seed``: every trial visits each level A
    of the schedule with A < d_lb and floor(A / 2) <= order, the lowest
    ones, and settles its probes of fewer than d_lb impulses."""
    rng = random.Random(cfg.rng_seed)
    d_lb, probes = decoder.d_lb, []
    for _ in range(cfg.nb_test):
        level = cfg.d0 + 0.5
        while level <= cfg.d1 + 0.5 and level < d_lb and level // 2 <= decoder.order:
            for nb_error in range(min(cfg.error_max, d_lb - 1), 0, -1):
                probes.append((nb_error, level, sorted_cuts(nb_error, level, rng)))
            level += 1.0
    return probes


class _Stop(Exception):
    """Ends a run at its second probe."""


def spy_probes(monkeypatch) -> list[list]:
    """Record each probe ``mim.run`` draws a split for as [nb_error,
    amplitude, amplitudes, asked], with asked set once ``_certified`` is
    called on it."""
    probes = []
    split, certified = mim._split, mim._certified

    def split_spy(nb_error, amplitude, rng):
        got = split(nb_error, amplitude, rng)
        probes.append([nb_error, amplitude, got, False])
        return got

    def certified_spy(decoder, n, amplitudes):
        probes[-1][3] = True
        return certified(decoder, n, amplitudes)

    monkeypatch.setattr(mim, "_split", split_spy)
    monkeypatch.setattr(mim, "_certified", certified_spy)
    return probes


class TestSilentLevelRule:
    """``mim.run`` settles a probe of e impulses at level A as the zero word,
    without asking ``_certified``, when e <= d_lb - 1 and A < d_lb (the
    region), and floor(A / 2) <= order or at most ``order`` amplitudes are
    2.0 or more; d_lb is the decoder's bound.  Inside the region that is
    exactly when the certificate passes, on every code here (2 d_lb < n + 3).
    A probe the silent rule settles is not drawn at all.  BCH(15,7) has
    d_lb = 5 and n = 15."""

    CODE = TestImpulseCertificate.CODE

    def first_probe(self, monkeypatch, order, level, amplitudes) -> tuple[bool, bool, bool]:
        """Run MIM with ``amplitudes`` as its first probe, at ``level``, up to
        its next draw: whether that probe was drawn, whether it asked
        ``_certified``, and whether it was decoded."""
        drawn, asked, decoded = [], [], []
        certified, build = mim._certified, mim.apply_pattern

        def split(nb_error, amplitude, rng):
            if drawn or (nb_error, amplitude) != (len(amplitudes), level):
                raise _Stop  # the second draw, or a first one past the probe
            drawn.append(True)
            return amplitudes

        monkeypatch.setattr(mim, "_split", split)
        monkeypatch.setattr(mim, "_certified", lambda *args: asked.append(args) or certified(*args))
        monkeypatch.setattr(mim, "apply_pattern",
                            lambda *args: decoded.append(args) or build(*args))
        cfg = MimConfig(d0=int(level), d1=self.CODE.n, nb_test=1, error_max=len(amplitudes),
                        osd_order=order)
        with contextlib.suppress(_Stop):
            run(self.CODE, cfg)
        return bool(drawn), bool(asked), bool(decoded)

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
            # e = d_lb at a silent level is drawn and asked: 1.0 < 1.5
            (2, 4.5, (1.5, 1.5, 0.5, 0.5, 0.5), False, True),
            # A = d_lb + 0.5, floor(A / 2) = order: 3.0 against 0.5 + 1 + 1
            (2, 5.5, (2.5, 2.5, 0.5), False, False),
            # A = d_lb + 0.5 with one amplitude >= 2.0: 2.5 against 1 + 1
            (1, 5.5, (2.5, 1.5, 1.5), False, False),
        ],
        ids=["silent-level", "order-strong", "one-at-2.0", "two-at-2.0", "e-d_lb-minus-1",
             "e-d_lb", "e-d_lb-silent-level", "A-d_lb-plus-half-silent", "A-d_lb-plus-half-count"],
    )
    def test_edges(self, monkeypatch, order, level, amplitudes, inside, want):
        """``want`` is the certificate's answer, ``inside`` whether the probe
        lies in the region: a silent level's probe is not drawn, the rule
        settles the region's other certified probes, every other probe asks
        ``_certified``, and only refused ones decode."""
        assert math.isclose(math.fsum(amplitudes), level)
        decoder = OsdDecoder(self.CODE, order=order)
        assert decoder.d_lb == 5
        y = apply_pattern(15, tuple(range(len(amplitudes))), amplitudes)
        assert mim._certified(decoder, 15, amplitudes) == want
        assert TestImpulseCertificate.dense(decoder, y) == want
        silent = inside and level // 2 <= order
        got = self.first_probe(monkeypatch, order, level, amplitudes)
        assert got == (not silent, not (inside and want), not want)

    @pytest.mark.parametrize("name", list(MIM_CODES))
    def test_settled_probes_are_certified(self, mim_codes, name, monkeypatch):
        """Seeded runs with the stop switched off (``no_stop``, so the run's
        own bound is 1 and the rule must read the decoder's): no probe of a
        silent level is drawn, and every one of them is certified; among
        the drawn probes, every one the rule settles is certified, and
        inside the region it settles exactly the certified ones."""
        code = mim_codes[name]
        decoder = OsdDecoder(code, order=3)
        d_lb, certified = decoder.d_lb, mim._certified
        assert 2 * d_lb < code.n + 3
        probes = spy_probes(monkeypatch)
        monkeypatch.setattr(mim, "lower_bound", no_stop)
        silent = []
        for seed in range(2):
            cfg = MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed)
            run(code, cfg)
            silent += silent_probes(decoder, cfg)
        for nb_error, level, amplitudes, asked in probes:
            inside = nb_error < d_lb and level < d_lb
            assert not (inside and level // 2 <= decoder.order)
            assert (not asked) == (inside and certified(decoder, code.n, amplitudes))
        assert silent and all(certified(decoder, code.n, amplitudes) for _, _, amplitudes in silent)

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
        assert len(probes) > len(asked) and asked and len(asked) == len(decodes)
        assert not any(certified(decoder, code.n, amplitudes) for amplitudes in asked)


class TestDrawOrder:
    """A probe draws only what decides it: nothing at a silent level, its
    split when the rule or ``_certified`` reads it, and its positions
    (``make_pattern``) only on the way to a decode."""

    @pytest.mark.parametrize("seed", range(4))
    def test_silent_levels_leave_the_stream(self, mim_codes, seed, monkeypatch):
        """BCH(127,64) at order 3 with error_max 20 < d_lb = 21: the levels
        1.5 to 7.5 are silent, so the first draw is at 8.5, from the
        untouched generator."""
        code = mim_codes["bch127"]
        first, split = [], mim._split

        def split_spy(nb_error, amplitude, rng):
            if not first:
                first.append((nb_error, amplitude, rng.getstate()))
            return split(nb_error, amplitude, rng)

        monkeypatch.setattr(mim, "_split", split_spy)
        run(code, MimConfig.for_code(code, nb_test=1, error_max=20, osd_order=3, rng_seed=seed))
        assert first == [(20, 8.5, random.Random(seed).getstate())]

    @pytest.mark.parametrize("name", list(MIM_CODES))
    def test_positions_only_for_decodes(self, mim_codes, name, monkeypatch):
        code = mim_codes[name]
        placed, decodes = [], []
        place, decode = mim.make_pattern, OsdDecoder.decode
        monkeypatch.setattr(mim, "make_pattern", lambda *args: placed.append(args) or place(*args))
        monkeypatch.setattr(OsdDecoder, "decode",
                            lambda *args: decodes.append(args) or decode(*args))
        for seed in range(2):
            run(code, MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3, rng_seed=seed))
        assert decodes and len(placed) == len(decodes)

    @pytest.mark.parametrize("n, nb_error, draws, critical", [
        (24, 5, 4000, 49.73),  # chi-square upper 0.001 point, 23 degrees of freedom
        (127, 20, 2000, 180.80),  # 126 degrees of freedom
    ])
    def test_positions_distinct_and_uniform(self, n, nb_error, draws, critical):
        rng = random.Random(6)
        amplitudes = (1.0,) * nb_error
        counts = Counter()
        for _ in range(draws):
            positions, got = make_pattern(n, amplitudes, rng)
            assert got is amplitudes and len(set(positions)) == nb_error
            assert all(0 <= p < n for p in positions)
            counts.update(positions)
        expected = draws * nb_error / n
        assert sum((counts[p] - expected) ** 2 / expected for p in range(n)) < critical


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
            positions, amplitudes = sample_pattern(20, rng.randint(1, 8), rng.uniform(0.5, 6), rng)
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

    @staticmethod
    def first_seed(code, cfg, stops: bool, seeds=range(20)) -> tuple[MimConfig, object]:
        """The config at the first of ``seeds`` whose run stops at the bound
        (``stops``) or ends short of it (not ``stops``), and that run: the
        rule that fixes each test's premise, so no seed is chosen by hand."""
        for seed in seeds:
            cfg = replace(cfg, rng_seed=seed)
            est = run(code, cfg)
            if any(e["kind"] == "certified" for e in est.events) == stops:
                return cfg, est
        raise AssertionError(f"no seed in {seeds} gives stops={stops}")

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_stop_keeps_d_and_the_witness(self, name, monkeypatch):
        """The first seed from 1 whose three trials reach the bound."""
        code = self.CODES[name]()
        # repetition7 needs the amplitude up to d = 7 to escape at all
        cfg = MimConfig.for_code(code, nb_test=3, error_max=min(20, code.n),
                                 osd_order=min(3, code.k),
                                 **({"d1": 7} if name == "repetition7" else {}))
        cfg, stopped = self.first_seed(code, cfg, stops=True, seeds=range(1, 21))
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
        """The first seed from 0 whose two trials end above d = 15 on
        BCH(63,24): every trial runs."""
        code = build_bch(6, 7)
        cfg = MimConfig.for_code(code, nb_test=2, error_max=20, osd_order=3)
        cfg, est = self.first_seed(code, cfg, stops=False)
        monkeypatch.setattr(mim, "lower_bound", no_stop)
        assert est.d > oracle.lower_bound(code) == 15
        assert sum(e["kind"] == "trial" for e in est.events) == 2
        assert strip_times(est.events) == strip_times(run(code, cfg).events)


# The seeded records of the seven MIM codes, two trials each: d, the witness
# bits and the sha256 of the events without their times.  The decoder's
# shortcuts (the floor skip, the prefilter) and MIM's zero certificate each
# return the word that full reprocessing returns, so no change to them, nor
# the BLAS thread count, may move a record.
SEEDED_RECORDS = {
    ("qdc24", 0): (8, 0x330a24,
                  "a0d2f62889745620ac744d5ab433d3b9b5a2617a4852b98f38d19e284d537c1a"),
    ("qdc24", 1): (8, 0x6c9c,
                  "7296b7a6818335959c80834cbbc2317f5dc7015a6e0d0b8095c4ddadfb4b2d7e"),
    ("qdc24", 2): (8, 0xac0506,
                  "aa1cccc444131e2a08193171b1a62539b3cefd1649204e660a172a3e2e7785a2"),
    ("qdc24", 3): (8, 0x338409,
                  "f4d9ba95f4d0afc1b508d1670c69002fc345524be3a48d72ffec32814aba573e"),
    ("qdc24", 4): (8, 0x6b380,
                  "b169c9e27ebb416727a829482b514aad862b8361bea8c878f8487ee146e28f82"),
    ("qdc24", 5): (8, 0x102e32,
                  "0bd879aed770127a6f493da93bc592d99f4707fbdc9ff0d2cc4294cfa70c6ebf"),
    ("qdc24", 6): (8, 0xc32441,
                  "a4798742416d1c718bacc0c85a16036cde76517089c3520c5f5ef3131250b758"),
    ("qdc24", 7): (8, 0x101a47,
                  "7ef0eee0b18f63a8597e1bd35cd631fe9f9457ef0c71766c2466de893b642ff1"),
    ("qr41", 0): (9, 0x8122211120,
                 "e3a125f507d87f554037c7d4887c523278db6058aceb24f0def2e858320918d2"),
    ("qr41", 1): (9, 0x40164d004,
                 "f304dcd65758d9d561bf85f0bbcb1507be68d1a905388dda7a3f1ea46a882cc1"),
    ("qr41", 2): (9, 0x8044308805,
                 "60cb9967162c8ad13550737557abc25b045444891f8423ab71550c3469635f47"),
    ("qr41", 3): (9, 0x4210183060,
                 "7745f091cf6459068ea735786ddb2df490c391c42c5df679d7410a2b05ff19e8"),
    ("qr41", 4): (9, 0x201005934,
                 "75df8e21c157ea1e80e28d90168cd92ba2e34a1db3582bcf98e877aa95f8c75a"),
    ("qr41", 5): (9, 0x9c81012020,
                 "f6a438999b10ecaeb009e68b690d104aaf3fd070eb0d4c7b51c340e1613b93f1"),
    ("qr41", 6): (9, 0x2048884448,
                 "3483c1a0114ffa82e721538790d3096a052ab7f2236c2d914ff6e92321132627"),
    ("qr41", 7): (9, 0x15010202a1,
                 "5a71fbe4b461842d1531f7645537600e293574b3698bc91b9ab83a9f2cad8b5b"),
    ("qr47", 0): (11, 0x2c0802140154,
                 "1d10b4d00f575b4414490ef709249b405ecd71781247dddbfb32041a2378b964"),
    ("qr47", 1): (11, 0x2029000a5230,
                 "556a5c6b81766f468c7e599509a3b85b06a8306ad69e15827210c7465732c7cf"),
    ("qr47", 2): (11, 0x541020a09880,
                 "d99f1fb2e4ad7c58abf8c6c4e03764a12c721465fe18560075a21bb9500abd5c"),
    ("qr47", 3): (11, 0xc600112b400,
                 "b07dcbad9e18bf84cdac2f0964697c9d6137ff96d1a6ac9fb8b7f6aeef9d8002"),
    ("qr47", 4): (11, 0x59111204420,
                 "029a874a21b84739f4edee524be548022ad57a59da0b15f48dfd367588d24973"),
    ("qr47", 5): (11, 0x2051040514c0,
                 "ab40ae7d628661e34ab1927b30e9c3ca855d4d856319b1b68b1d4e31c1488da8"),
    ("qr47", 6): (11, 0x450808000a63,
                 "e0adfa2601a9c0c1b90c9531c19c0e3853025f5148f80028c546cfeec672d401"),
    ("qr47", 7): (11, 0x146048038050,
                 "1f5382f44608e76f058ba636522ef8f5bd8013fb2a03080f67fc0392bdbe85cc"),
    ("qr73", 0): (13, 0x20805f402080010800,
                 "3a786ff54660a58191e2b7338be94cb54b3a1bbd470d1fc165fd1d07204a678b"),
    ("qr73", 1): (13, 0x201492500840024002,
                 "4c65717a487ac7e4eba7843634930968e3a3711a6694868f68993ee70e94f153"),
    ("qr73", 2): (15, 0x320948015044040050,
                 "388ab51a35071e63d477d230196b0df7b4e1bbd06d75a6cb37258c2930c7361e"),
    ("qr73", 3): (14, 0x119528020120214000,
                 "899e7a3e7389cba8e5c926ec25fd9f8a46a1fae12b6db7969c7826e62f4a99e9"),
    ("qr73", 4): (13, 0x8a8802c10000020d,
                 "b9c6b451f3301947a635aee4a75cc205c27ecc8c80264f125cbd1eba35fd1e00"),
    ("qr73", 5): (13, 0x844088181102210080,
                 "2ff36b7b621a7ea1f27105b275b468a4af2faaf2f3ce53a8e72c5b79cd47ba7b"),
    ("qr73", 6): (13, 0x242101808424001c00,
                 "0568ce332f58d6254af6da411f715d897e66a79d35baa565fa9aeda19dd1056b"),
    ("qr73", 7): (13, 0x64c50420000000420a,
                 "dbeb37631b6d9ff0cf2f211f48ba52a2860eeedb99745bc6889d4e4907f9ff28"),
    ("bch63_24", 0): (15, 0x96c001102580809,
                     "b7f01fab030e5d073cd92a5018016662a5111b162bdc291f8cdc7285098b57d0"),
    ("bch63_24", 1): (16, 0x419ab0141201801,
                     "08998493b27df258e5d8242c16cdff01f7988235147e2b87df1caada94059d31"),
    ("bch63_24", 2): (15, 0x1010c8680a981010,
                     "7dd16a78f7184c30e4083e860d60be12c5065ac5470971cb28ef3eda59a570e3"),
    ("bch63_24", 3): (15, 0x6014c814020110d0,
                     "3f81397912cb001617ff4d55f07dc6fce70440142dbf38dda6278b6ff4ddc081"),
    ("bch63_24", 4): (15, 0x221a18053205008,
                     "a359cd1873da0784853b54603503911f19ffe4694daa41fb158cb28e249fc6ed"),
    ("bch63_24", 5): (15, 0x12050150d700a000,
                     "f00fa0ca7cccf02a76aa75157c8d8c4bb2faf31e78b3924b343de492fc18e9f9"),
    ("bch63_24", 6): (15, 0x40a02a1ae0140004,
                     "a6d76adb99d1d07f6451f81e5c96c1c636dda14a63fa4f1026d21803312d25e1"),
    ("bch63_24", 7): (15, 0x430258150021910,
                     "eb4dfa42c732404724418b268dc91c3bd499571689329a21adb0dc529587db81"),
    ("bch63_36", 0): (11, 0x40a2020802340040,
                     "9e4cda5b268ee1850d776bba03e9e2bc9eeae3ac7744c8961d4578d34a013266"),
    ("bch63_36", 1): (11, 0x42104440a88008,
                     "0f249df0244e7480a0039ba8e9414465bf6737d0a345854cc77b6f3a035704ec"),
    ("bch63_36", 2): (11, 0x1912108008180800,
                     "338c1679d3516e7bd1fb42583820eb0e02535484b60b0c50f4c44e0457def4df"),
    ("bch63_36", 3): (11, 0x41c3002204002800,
                     "eee23d831ecc23dabed305d8a9444bd0b6b260705ddad12774d0bb23d2e8a41e"),
    ("bch63_36", 4): (11, 0x1000e82084a80000,
                     "7258a31439db52e74472198a4ff6e7aa022cc6da0b76dbbd499ab80954561060"),
    ("bch63_36", 5): (11, 0x4002044244624000,
                     "63f2bde6fd31f6e2353b20a4abd1763805cb4aa0ce58cd4486786fe786644164"),
    ("bch63_36", 6): (11, 0x2080160020082409,
                     "e1a06d922214ad284dd4aff13c11ea28f314c9d247b905fed310a2fc4cb3b481"),
    ("bch63_36", 7): (11, 0x4a60008441800080,
                     "9cba84ed25176bab53debad76710b9555b01706bbb25be508afdbc68a02ace38"),
    ("bch127", 0): (21, 0x192a40020068360010d00000030000,
                   "5f280e3a6c2d2e3d2757f9813949ab4d641aae77a14fcd38fb3e653463ff1bd3"),
    ("bch127", 1): (21, 0x44412b0082094208000401c010400000,
                   "4bb31227aa6706f38f9a394cbfbc070d66cc4032a5bac2abe21eacb7fda23983"),
    ("bch127", 2): (22, 0x3010402c03148270021022200000080,
                   "dc9e7028d0413af1572dafddc283b87957726793addc2a81bda28bc9c0fefd39"),
    ("bch127", 3): (21, 0x20041488150320010000000880404628,
                   "dd470828dcc386b21912cd6e91c3632ba6450607a5de65c28fc420a7b6efaf3c"),
    ("bch127", 4): (22, 0x4001e0d2042100a30008001110004004,
                   "386bc9aa536e45e75fe271397bf7deb6e0392f978e0e38a7225fb876961288c4"),
    ("bch127", 5): (22, 0x22000a0312e053480060008002000001,
                   "5536aa88d0dc31f52749367b62a6863b5c5da9157960ee0e55b06ae8998fc008"),
    ("bch127", 6): (21, 0xa070025200028da4002000002101000,
                   "70faa0db39d2130707e5f236571cbe5891dc304319aae7cd8c175383dd562243"),
    ("bch127", 7): (22, 0xd006843056910402000200200000808,
                   "98daee688cf8c8f1cf39379d7561b88c932a6b846f3566f4dde112b83595661c"),
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
