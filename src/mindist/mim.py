"""Multiple-impulse minimum-distance estimation.

The channel word for the all-zero codeword is (-1, -1, ..., -1).  Each
probe splits a total impulse amplitude A across a few random positions,
pushing those samples toward the bit-1 side, and hands the perturbed word
to the OSD decoder.  Once the noise is strong enough the decoder escapes
to nearby nonzero codewords, and the lightest codeword ever decoded is
the distance estimate (a sound upper bound: the witness is a real
codeword).  Most probes stay at the zero word, and the decoder's
zero-word certificate proves it from the impulse list alone (``_certified``):
those probes build no word and run no decode.  The certificate counts
only the samples above 0 that can rank among the n - d_lb + 1 most
reliable positions, which hold the decoder's MRB, so a probe passes with
more than ``order`` impulses above 1.0 when the weaker ones rank below
the untouched positions.

Many probes need not even ask it: with d_lb the decoder's bound
(``OsdDecoder.d_lb``), a probe of e impulses at level A is the zero word
when e <= d_lb - 1 and A < d_lb, and either floor(A / 2) <= ``order``
(the silent rule, one test per level) or at most ``order`` amplitudes
are 2.0 or more (the count rule, one count per probe).  The proof runs
through the certificate's two tests, P being the number of impulses
above 1.0 and W = e - P the others:

- Window.  For a in [1, 2], -1.0 + a is exact (Sterbenz), so a sample is
  below 1.0 exactly when a < 2.0.  Such a sample has the n - e >= n -
  d_lb + 1 untouched 1.0s above it, a full window, so it ranks outside,
  and at most the #{a >= 2.0} others rank inside: at most ``order``.
- Floor.  Each of the P impulses above 1.0 exceeds 1, so P < A < d_lb,
  need = d_lb - P >= 1 and need - W = d_lb - e >= 1: the need smallest
  magnitudes off the samples above 0 are the W weak ones and d_lb - e of
  the n - e untouched 1.0s.  The zero word's cost, the sum of a - 1
  over the strong impulses, is below that floor, the sum of 1 - a over
  the weak ones plus d_lb - e, exactly when the amplitudes sum to less
  than d_lb.  They sum to A, a half-integer below d_lb, so the margin is
  at least 0.5, against rounding errors of a few ulps of A in the split
  and in the certificate's sums.

The amplitudes sum to A, so #{a >= 2.0} <= floor(A / 2): the silent
rule is the count rule's level-wide case.  Inside the region, where e <=
d_lb - 1 and A < d_lb, the count rule is the certificate itself when
2 d_lb < n + 3, as on all seven MIM codes: an impulse of a >= 2.0 has at
most e - 1 <= d_lb - 2 < n - d_lb + 1 magnitudes above it, so it ranks
inside the window, and more than ``order`` of them (so P > ``order``
too) fail the certificate.  On such a code the rule settles every probe
of the region that the certificate would pass, and ``_certified`` is
asked there only to refuse.  Every other probe goes through
``_certified``.

A probe draws only what decides it.  A probe the silent rule settles
draws nothing; on BCH(127,64), with error_max 20 < d_lb = 21, that skips
the levels 1.5 to 7.5 whole.  Every other probe draws its split first
(``_split``), which the count rule and ``_certified`` read, and only a
probe that goes on to a decode draws its positions (``make_pattern``).
The MIM process keeps its law: a settled probe's outcome does not
depend on the draws it skips, every later probe still takes fresh
uniform values, and the positions are independent of the split, so
drawing them second changes no distribution.  On 56 seeded runs of the
seven MIM codes of criteria 4 and 8 (seeds 0-7, two trials, error_max
20, order 3), 8,677 probes draw a split, 5,434 of them ask
``_certified``, and 321 draw positions and decode; on BCH(127,64) the
counts are 1,353, 19 and 19.

The amplitude schedule per trial starts at d0 - 0.5 and climbs in steps
of 1.0 while every decode at the level still returns the all-zero word,
capped by a ceiling A_min that starts at d1 + 0.5 and shrinks to each
trial's final amplitude, so later trials stop probing above the level
where escapes already happen.

A run ends early once its witness weighs ``oracle.lower_bound(code)``:
that bound is proven, so no later probe can find a lighter codeword, and
d and the witness are final.  The run then closes the trial, records a
``certified`` event, and stops.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bounds import singleton
from .codes import LinearCode
from .gf2 import BitWord
from .oracle import lower_bound
from .osd import DEFAULT_ORDER, OsdDecoder
from .results import DistanceEstimate

__all__ = ["MimConfig", "make_pattern", "apply_pattern", "run"]


@dataclass(frozen=True)
class MimConfig:
    """Amplitude range, trial counts, and decoder order for one run."""

    d0: int
    d1: int
    nb_test: int = 100
    error_max: int = 20
    osd_order: int = DEFAULT_ORDER
    rng_seed: int = 0

    def validate(self, n: int) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if not 1 <= self.d0 <= self.d1 <= n:
            raise ValueError(
                f"need 1 <= d0 <= d1 <= n, got d0={self.d0}, d1={self.d1}, n={n}"
            )
        if not 1 <= self.error_max <= n:
            raise ValueError(f"error_max {self.error_max} outside 1..{n}")
        if self.nb_test < 1:
            raise ValueError(f"nb_test {self.nb_test} < 1")

    @classmethod
    def for_code(cls, code: LinearCode, **overrides) -> "MimConfig":
        """Defaults: d0 = 1; d1 = the designed distance of a BCH code, as
        the code's ``identity`` proves it from the generator, else the
        Singleton bound capped at n/2; error_max = min(20, d1); decoder
        order min(3, k).  A given order above k fails in ``run``."""
        d1 = code.identity.bch
        if d1 is None:
            d1 = min(singleton(code.n, code.k), code.n // 2)
        cfg = cls(d0=1, d1=d1, error_max=min(20, d1),
                  osd_order=min(DEFAULT_ORDER, code.k))
        return replace(cfg, **overrides)


def _split(nb_error: int, amplitude: float, rng: random.Random) -> tuple[float, ...]:
    """``amplitude`` split over ``nb_error`` >= 1 impulses by a flat simplex
    partition: the gaps between nb_error - 1 sorted ``random()`` cuts of
    [0, 1], times the amplitude; the cuts are drawn again while a gap is 0."""
    if nb_error == 1:
        return (amplitude,)
    uniform = rng.random
    while True:
        cuts = sorted([uniform() for _ in range(nb_error - 1)])
        cuts.append(1.0)
        amplitudes, prev = [], 0.0
        for cut in cuts:
            gap = cut - prev
            if gap <= 0.0:
                break
            amplitudes.append(amplitude * gap)
            prev = cut
        else:
            return tuple(amplitudes)


def make_pattern(n: int, amplitudes: tuple[float, ...],
                 rng: random.Random) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """``(positions, amplitudes)``: the impulses of a split placed at
    distinct uniform positions of a length-n word, the
    ``rng.sample(range(n), len(amplitudes))`` draws."""
    if not 1 <= len(amplitudes) <= n:
        raise ValueError(f"{len(amplitudes)} impulses outside 1..{n}")
    return tuple(rng.sample(range(n), len(amplitudes))), amplitudes


def apply_pattern(n: int, positions: tuple[int, ...], amplitudes: tuple[float, ...]) -> np.ndarray:
    """All-zero channel word plus the impulses: y_i = -1 + amplitude_i, as a
    new float64 array of length n on every call."""
    y = np.full(n, -1.0)
    for pos, amp in zip(positions, amplitudes):
        y[pos] += amp
    return y


def _certified(decoder: OsdDecoder, n: int, amplitudes: tuple[float, ...]) -> bool:
    """Whether ``decoder`` certifies that the probe word of these impulses
    (at distinct positions) decodes to the zero word, read off the impulse
    list: ``apply_pattern`` puts -1.0 + a at each impulse and -1.0
    elsewhere, so the samples above 0 are -1.0 + a for a > 1, and the
    other magnitudes are |-1.0 + a| for the weak impulses and 1.0 at the
    n - len(amplitudes) untouched positions, passed as a count."""
    on = [-1.0 + a for a in amplitudes if a > 1.0]
    off = [abs(-1.0 + a) for a in amplitudes if a <= 1.0]
    return decoder.zero_certified(on, off, n - len(amplitudes))


def run(code: LinearCode, cfg: MimConfig | None = None) -> DistanceEstimate:
    """Estimate the minimum distance; exact whenever any minimum-weight
    codeword is reachable by the decoder from a perturbed all-zero word.

    Starts from the Singleton bound and keeps the lightest nonzero decoded
    codeword.  Stops after the trial in which the witness reaches
    ``lower_bound(code)``, with a ``certified`` event: d is then proven.
    If no decode ever escapes the all-zero word the result is the
    untouched initialization, flagged by a missing witness ("no witness"
    diagnostic) and a terminal event.
    """
    if cfg is None:
        cfg = MimConfig.for_code(code)
    n, k = code.n, code.k
    cfg.validate(n)
    started = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    decoder = OsdDecoder(code, cfg.osd_order)
    d_lb = lower_bound(code)
    # the silent-level rule reads the bound the certificate is proven with
    bound, order = decoder.d_lb, decoder.order

    a_min = cfg.d1 + 0.5
    d_t = singleton(n, k)
    witness: BitWord | None = None
    events: list[dict] = []

    for trial in range(cfg.nb_test):
        amplitude = cfg.d0 - 0.5
        all_zero = True
        while all_zero and amplitude <= a_min - 1.0:
            amplitude += 1.0
            level_all_zero = True
            quiet = amplitude < bound
            # a silent level settles its probes of fewer than bound
            # impulses by the rule: they draw nothing
            low = bound - 1 if quiet and amplitude // 2 <= order else 0
            for nb_error in range(cfg.error_max, low, -1):
                amplitudes = _split(nb_error, amplitude, rng)
                if quiet and nb_error < bound and sum(a >= 2.0 for a in amplitudes) <= order:
                    continue  # the zero word, settled by the count rule
                if _certified(decoder, n, amplitudes):
                    continue  # the zero word, with no word built or decoded
                decoded = decoder.decode(apply_pattern(n, *make_pattern(n, amplitudes, rng)))
                w = decoded.weight
                if w:
                    level_all_zero = False
                    if w <= d_t and (witness is None or w < witness.weight):
                        d_t = w
                        witness = decoded
                        events.append(
                            {
                                "kind": "witness",
                                "weight": w,
                                "witness": decoded.to01(),
                                "trial": trial,
                                "amplitude": amplitude,
                                "time": round(time.perf_counter() - started, 6),
                            }
                        )
                        if w <= d_lb:
                            break  # no codeword is lighter
            all_zero = level_all_zero
        a_min = amplitude
        events.append({"kind": "trial", "trial": trial, "a_min": a_min})
        # the Singleton start value is no witness, even when it equals d_lb
        if witness is not None and d_t <= d_lb:
            events.append({"kind": "certified", "d_lb": d_lb,
                           "time": round(time.perf_counter() - started, 6)})
            break

    if witness is None:
        events.append({"kind": "no_witness", "d_init": d_t})
    return DistanceEstimate.of(code, "mim", d_t, witness, asdict(cfg), cfg.rng_seed,
                               started, events)
