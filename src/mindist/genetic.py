"""Genetic minimum-distance search, variants A and B.

Both variants evolve k-bit information words and score an individual by
the weight of its encoding (the all-zero encoding scores n, the worst
value, so the zero codeword never wins).  They differ in selection, in
the order of the stochastic operators, and in how offspring enter the
next population:

  variant A: mutate the two parents, then cross with probability p_c,
             and keep only the lighter child; elites are the best half.
  variant B: cross with probability p_c then mutate both children and
             insert both, otherwise insert one parent chosen at random;
             elite count is a free parameter and the best individual ever
             seen is tracked across generations.

Operator defaults per variant follow the published parameter sets
(crossover 93%/80%, mutation 1%/2%, 75 generations; one-point crossover
with a uniform pick, a tournament of one, vs two-point crossover with a
tournament of two).

Classic mutation draws the geometric gap to the next flipped gene
(Devroye's skip method for Bernoulli sequences, *Non-Uniform Random
Variate Generation*, Springer 1986), so a k-gene word costs about
k*p_m + 1 draws instead of k.  Tournament picks and crossover cuts take
``randrange``'s own ``getrandbits`` draws, inlined.

The runners score a whole generation in one call: byte tables of XORed
generator rows (the Method of Four Russians) as uint64 lanes, one numpy
gather over every word and byte, an XOR-reduce and a popcount.  Variant B
scores its population once a generation.  Variant A breeds all its child
pairs before it scores any: selection reads only the previous
generation's fitness, and no draw depends on a child's score, so breeding
first consumes the random stream exactly as scoring each pair in turn
does, and seeded runs are unchanged.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .codes import LinearCode
from .errors import ConsistencyError
from .gf2 import BitWord, to_lanes, xor_rows
from .results import DistanceEstimate

__all__ = [
    "GaConfig",
    "fitness",
    "crossover_one_point",
    "crossover_two_point",
    "mutate_classic",
    "select_tournament",
    "run_variant_a",
    "run_variant_b",
]

CROSSOVER_KINDS = ("one_point", "two_point")


@dataclass
class GaConfig:
    """Hyperparameters for one GA run; a record's ``config`` is its fields.

    The runner called, ``run_variant_a`` or ``run_variant_b``, is the
    variant, and ``variant_a``/``variant_b`` give each its published
    defaults.  Both select parents by tournaments of ``tournament_size``;
    variant A's 1 is a uniform pick.  ``elite_count`` is variant B's: None
    means 5% of the population and 0 copies no elites.  Variant A's
    best-half copy is part of its definition, so ``run_variant_a`` rejects
    an ``elite_count``.
    """

    population_size: int = 1000
    max_generations: int = 75
    elite_count: int | None = None
    crossover_prob: float = 0.8
    mutation_prob: float = 0.02
    crossover_kind: str = "two_point"
    tournament_size: int = 2
    rng_seed: int = 0

    @classmethod
    def variant_a(cls, **overrides) -> "GaConfig":
        cfg = cls(
            crossover_prob=0.93,
            mutation_prob=0.01,
            crossover_kind="one_point",
            tournament_size=1,
        )
        return replace(cfg, **overrides)

    @classmethod
    def variant_b(cls, **overrides) -> "GaConfig":
        return cls(**overrides)

    def validate(self) -> None:
        ints = ["population_size", "max_generations", "tournament_size", "rng_seed"]
        if self.elite_count is not None:
            ints.append("elite_count")
        for name in ints:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError(
                f"population size must be even and >= 2, got {self.population_size}"
            )
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError(f"crossover_prob {self.crossover_prob} outside [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob {self.mutation_prob} outside [0, 1]")
        if self.crossover_kind not in CROSSOVER_KINDS:
            raise ValueError(f"unknown crossover kind {self.crossover_kind!r}")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.elite_count is not None and not 0 <= self.elite_count <= self.population_size:
            raise ValueError(
                f"elite_count {self.elite_count} outside 0..{self.population_size}"
            )

    def resolved_elite_count(self) -> int:
        """Variant B's elite size."""
        if self.elite_count is not None:
            return self.elite_count
        return max(1, self.population_size * 5 // 100)


# ---------------------------------------------------------------------------
# fitness (genes are k-bit ints; ``rows`` are the generator's packed rows)


def fitness(rows: tuple[int, ...], n: int, info: int) -> int:
    """Weight of the encoding; n when the encoding is the zero word."""
    w = xor_rows(rows, info).bit_count()
    return w if w else n


def _scorer(rows: tuple[int, ...], n: int) -> Callable[[list[int]], list[int]]:
    """``[fitness(rows, n, b) for b in words]``, a whole generation a call.

    Each run of 8 generator rows gets a 256-entry table holding the XOR of
    every subset of them, built by doubling (the Method of Four Russians),
    as uint64 lanes: ``flat[lane, 256 * j + byte]`` is that lane of byte
    j's subset.  A call joins the words' little-endian bytes, gathers every
    (byte, word) entry at once, XOR-reduces over the bytes and counts the
    bits over the lanes.
    """
    nbytes = (len(rows) + 7) // 8
    padded = tuple(rows) + (0,) * (8 * nbytes - len(rows))
    groups = to_lanes(padded, n).T.reshape(-1, nbytes, 8)  # (lanes, bytes, rows of a byte)
    tables = np.zeros((groups.shape[0], nbytes, 256), dtype=np.uint64)
    for i in range(8):
        h = 1 << i
        np.bitwise_xor(tables[:, :, :h], groups[:, :, i, None], out=tables[:, :, h:2 * h])
    flat = tables.reshape(-1, 256 * nbytes)
    offsets = np.arange(0, 256 * nbytes, 256)[:, None]

    def score(words: list[int]) -> list[int]:
        data = b"".join([b.to_bytes(nbytes, "little") for b in words])
        idx = np.frombuffer(data, dtype=np.uint8).reshape(len(words), nbytes).T + offsets
        codewords = np.bitwise_xor.reduce(flat.take(idx, axis=1), axis=1)  # (lanes, m)
        w = np.bitwise_count(codewords).sum(axis=0)
        w[w == 0] = n
        return w.tolist()

    return score


# ---------------------------------------------------------------------------
# crossover (k-bit ints; children always satisfy ch1^ch2 == a^b)


def crossover_one_point(a: int, b: int, k: int, rng: random.Random) -> tuple[int, int]:
    """Cut at a position in 1..k-1 and swap suffixes.  Degenerate for k < 2."""
    if k < 2:
        return a, b
    # rng.randint(1, k - 1), drawn inline as select_tournament draws
    bits = (k - 1).bit_length()
    cut = rng.getrandbits(bits) + 1
    while cut >= k:
        cut = rng.getrandbits(bits) + 1
    low = (1 << cut) - 1
    return (a & low) | (b & ~low), (b & low) | (a & ~low)


def crossover_two_point(a: int, b: int, k: int, rng: random.Random) -> tuple[int, int]:
    """Swap the segment between two cut positions.  Degenerate for k < 3."""
    if k < 3:
        return a, b
    # a uniform ordered pair of distinct cuts in 1..k-1, then sorted; lo is
    # rng.randrange(1, k) and hi rng.randrange(1, k - 1), drawn inline as
    # select_tournament draws
    draw = rng.getrandbits
    bits = (k - 1).bit_length()
    lo = draw(bits) + 1
    while lo >= k:
        lo = draw(bits) + 1
    bits = (k - 2).bit_length()
    hi = draw(bits) + 1
    while hi >= k - 1:
        hi = draw(bits) + 1
    if hi >= lo:
        hi += 1
    else:
        lo, hi = hi, lo
    mid = ((1 << hi) - 1) ^ ((1 << lo) - 1)
    return (a & ~mid) | (b & mid), (b & ~mid) | (a & mid)


_CROSSOVERS = {
    "one_point": crossover_one_point,
    "two_point": crossover_two_point,
}


# ---------------------------------------------------------------------------
# mutation


def mutate_classic(bits: int, k: int, p_m: float, rng: random.Random) -> int:
    """Flip each of the k genes independently with probability p_m."""
    if p_m <= 0.0:
        return bits
    if p_m >= 1.0:
        return bits ^ ((1 << k) - 1)
    return _flip_gaps(bits, k, math.log1p(-p_m), rng)


def _flip_gaps(bits: int, k: int, log_q: float, rng: random.Random) -> int:
    """Classic mutation with ``log_q = log(1 - p_m)``, 0 < p_m < 1.

    The gap to the next flipped gene is floor(log(U) / log_q) for U
    uniform on (0, 1], and P(gap >= j) = (1 - p_m)^j: each gene flips
    independently with probability p_m, at one draw per flip plus one.
    """
    i = 0
    while True:
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= k - i:
            return bits
        i += int(gap)
        bits ^= 1 << i
        i += 1


# ---------------------------------------------------------------------------
# selection (populations are parallel lists of genes and cached fitness)


def select_tournament(
    fitnesses: list[int], size: int, rng: random.Random
) -> int:
    """Index of the fittest of ``size`` uniform picks; ties keep the first.

    Each pick is the draw ``rng.randrange(len(fitnesses))`` makes, taken
    the way CPython takes it: ``getrandbits`` of the length's bit count,
    drawn again while it is not below the length.  Inlined, it consumes the
    same stream without randrange's argument checks and call layers.
    """
    m = len(fitnesses)
    if not m or size < 1:
        raise ValueError(f"tournament of {size} over {m} individuals")
    bits = m.bit_length()
    draw = rng.getrandbits
    best = -1
    for _ in range(size):
        j = draw(bits)
        while j >= m:
            j = draw(bits)
        if best < 0 or fitnesses[j] < fitnesses[best]:
            best = j
    return best


# ---------------------------------------------------------------------------
# population plumbing


def _random_weight_word(k: int, rng: random.Random) -> int:
    """A k-bit word with weight drawn uniformly from 1..k, ones placed uniformly."""
    w = rng.randint(1, k)
    bits = 0
    for pos in rng.sample(range(k), w):
        bits |= 1 << pos
    return bits


def _initial_population(k: int, size: int, rng: random.Random) -> list[int]:
    return [_random_weight_word(k, rng) for _ in range(size)]


def _sort_by_fitness(pop: list[int], fits: list[int]) -> tuple[list[int], list[int]]:
    # stable: equal fitness keeps original index order, so runs are reproducible
    order = sorted(range(len(pop)), key=fits.__getitem__)
    return [pop[i] for i in order], [fits[i] for i in order]


def _mutator(cfg: GaConfig, k: int):
    p_m = cfg.mutation_prob
    if 0.0 < p_m < 1.0:
        log_q = math.log1p(-p_m)
        return lambda bits, rng: _flip_gaps(bits, k, log_q, rng)
    return lambda bits, rng: mutate_classic(bits, k, p_m, rng)


def _best_with_witness(
    code: LinearCode, pop: list[int], fits: list[int]
) -> tuple[int, BitWord]:
    """Variant A's result: the first individual of least fitness, the one
    the stable sort puts first, and its codeword.

    That individual is never the zero word.  The initial population holds
    none (``_random_weight_word`` draws weight 1..k), position 0 of the
    sorted population is copied unchanged each generation, and a zero word
    scores n, the worst fitness, so it can only tie a word ahead of it,
    never pass it.  The raise guards that argument.
    """
    best = min(range(len(pop)), key=fits.__getitem__)
    if not pop[best]:
        raise ConsistencyError("ga_a: the best individual is the zero word")
    return fits[best], BitWord(code.n, xor_rows(code.generator.rows, pop[best]))


# ---------------------------------------------------------------------------
# variant A


def run_variant_a(code: LinearCode, cfg: GaConfig) -> DistanceEstimate:
    """Best-half elitism, mutate-then-cross, keep the lighter child.

    Each generation copies the best half, then fills the other half one
    child per pairing: two parents picked by tournaments of
    ``tournament_size`` (one by default: a uniform pick over the whole
    sorted population), bitwise mutation, crossover with probability p_c,
    and the lighter of the two children survives (the second on a tie).
    Returns the best of the final population.
    """
    cfg.validate()
    if cfg.elite_count is not None:
        raise ValueError("variant A always copies the best half; it takes no elite_count")
    started = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    rows, n, k = code.generator.rows, code.n, code.k
    size = cfg.population_size
    cross = _CROSSOVERS[cfg.crossover_kind]
    score = _scorer(rows, n)
    mutate = _mutator(cfg, k)
    tsize = cfg.tournament_size

    pop = _initial_population(k, size, rng)
    fits = score(pop)
    events: list[dict] = []
    for gen in range(1, cfg.max_generations):
        pop, fits = _sort_by_fitness(pop, fits)
        events.append({"generation": gen, "best_fitness": fits[0]})
        # breed every pair, then score all children in one call: no draw
        # reads a child's score, so the stream is the one-pair-at-a-time one
        half = size // 2
        children = []
        for _ in range(half):
            pa = pop[select_tournament(fits, tsize, rng)]
            pb = pop[select_tournament(fits, tsize, rng)]
            pa = mutate(pa, rng)
            pb = mutate(pb, rng)
            if rng.random() < cfg.crossover_prob:
                children += cross(pa, pb, k, rng)
            else:
                children += (pa, pb)
        child_fits = score(children)
        new_pop = pop[:half]
        new_fits = fits[:half]
        for i in range(0, size, 2):
            j = i if child_fits[i] < child_fits[i + 1] else i + 1
            new_pop.append(children[j])
            new_fits.append(child_fits[j])
        pop, fits = new_pop, new_fits
    d, witness = _best_with_witness(code, pop, fits)
    events.append({"generation": cfg.max_generations, "best_fitness": d})
    return DistanceEstimate.of(code, "ga_a", d, witness, asdict(cfg), cfg.rng_seed,
                               started, events)


# ---------------------------------------------------------------------------
# variant B


def run_variant_b(code: LinearCode, cfg: GaConfig) -> DistanceEstimate:
    """Tournament selection, cross-then-mutate, global best tracking.

    Each generation copies the configured elite count, then fills the rest:
    with probability p_c the selected parents are crossed and both mutated
    children inserted, otherwise a single parent (either, with equal
    probability) passes through.  The returned estimate is the best
    individual observed in any generation.  Generation 1 scores the initial
    population, whose words weigh 1..k, so the best is set before the loop
    can end; a later zero word scores n and never passes it.
    """
    cfg.validate()
    started = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    rows, n, k = code.generator.rows, code.n, code.k
    size = cfg.population_size
    elite = cfg.resolved_elite_count()
    cross = _CROSSOVERS[cfg.crossover_kind]
    score = _scorer(rows, n)
    mutate = _mutator(cfg, k)
    tsize = cfg.tournament_size

    pop = _initial_population(k, size, rng)
    best_f = n + 1
    best_bits = 0
    events: list[dict] = []
    for gen in range(1, cfg.max_generations + 1):
        fits = score(pop)
        for b, f in zip(pop, fits):
            if f < best_f:
                best_f, best_bits = f, b
        events.append({"generation": gen, "best_fitness": best_f})
        if gen == cfg.max_generations:
            break
        pop, fits = _sort_by_fitness(pop, fits)
        new_pop = pop[:elite]
        while len(new_pop) < size:
            i1 = select_tournament(fits, tsize, rng)
            i2 = select_tournament(fits, tsize, rng)
            if rng.random() < cfg.crossover_prob:
                ch1, ch2 = cross(pop[i1], pop[i2], k, rng)
                new_pop.append(mutate(ch1, rng))
                if len(new_pop) < size:
                    new_pop.append(mutate(ch2, rng))
            else:
                new_pop.append(pop[i1] if rng.random() < 0.5 else pop[i2])
        pop = new_pop
    witness = BitWord(code.n, xor_rows(rows, best_bits))
    return DistanceEstimate.of(code, "ga_b", best_f, witness, asdict(cfg), cfg.rng_seed,
                               started, events)
