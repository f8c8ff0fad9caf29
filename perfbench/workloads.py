"""The benchmark's workloads: codes with published distances and the
estimate calls made on them.

A *pass* is one workload's full list of estimate calls.  Every estimate
seed and every code permutation comes from the workload seed, so one seed
always gives the same inputs.  All library calls go through module
attributes (``mim.run``, ``codes.build_qr``, ...) so that the traced run can
wrap them from outside the package.

Run as a script, ``python3 perfbench/workloads.py <workload> <seed>`` only
imports ``mindist`` and builds the workload's codes; ``run.py`` times that
child process to measure set-up.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mindist import codes, genetic, mim, oracle  # noqa: E402
from mindist.bounds import build_report, enforce  # noqa: E402
from mindist.codes import LinearCode  # noqa: E402
from mindist.gf2 import BitMatrix, BitWord  # noqa: E402
from mindist.results import DistanceEstimate  # noqa: E402

# One MIM trial per estimate: the first trial climbs the amplitude until the
# decoder escapes, which is where the criterion-4 codes first reach their
# published distance, and a short pass can be repeated many times a run.
# Each code gets several estimates with their own seeds, so that one
# pass's time does not hang on one seed's amplitude schedule.
MIM_TRIALS = 1
GA_POPULATION = 1000
GA_GENERATIONS = 75


@dataclass(frozen=True)
class Target:
    """A code of the workload: a short label, how to build it and its published d."""

    key: str
    build: Callable[[random.Random], LinearCode]
    d: int


@dataclass(frozen=True)
class Call:
    """One estimate call of a pass; ``run`` returns a DistanceEstimate."""

    key: str
    method: str
    run: Callable[[], DistanceEstimate]


@dataclass(frozen=True)
class Workload:
    name: str
    targets: tuple[Target, ...]
    plan: Callable[[dict[str, LinearCode], random.Random], list[Call]]
    exact: bool  # the estimate must equal the published distance

    def build(self, seed: int) -> dict[str, LinearCode]:
        rng = random.Random(f"codes/{seed}")
        return {t.key: t.build(rng) for t in self.targets}

    def published(self) -> dict[str, int]:
        return {t.key: t.d for t in self.targets}


def _fixed(make: Callable[[], LinearCode]) -> Callable[[random.Random], LinearCode]:
    return lambda rng: make()


def _permuted_dcc(header: str) -> Callable[[random.Random], LinearCode]:
    """Table 9 double circulant with its columns permuted by the seed.

    A column permutation keeps the distance and the sweep's cost, so each
    seed gives an equivalent code with the same published distance.
    """

    def build(rng: random.Random) -> LinearCode:
        code = codes.build_dcc(BitWord.parse(header))
        n = code.n
        perm = rng.sample(range(n), n)
        rows = tuple(
            sum(((row >> j) & 1) << perm[j] for j in range(n)) for row in code.generator.rows
        )
        return LinearCode(n, code.k, BitMatrix(n, rows), family="DCC",
                          metadata={**code.metadata, "column_permutation": perm})

    return build


def _mim(code: LinearCode, nb_test: int, seed: int) -> DistanceEstimate:
    cfg = mim.MimConfig.for_code(code, nb_test=nb_test, error_max=20, osd_order=3,
                                 rng_seed=seed)
    return mim.run(code, cfg)


def _exact(code: LinearCode, enumerator: bool) -> DistanceEstimate:
    """Oracle result as a record, built as ``mindist estimate --method exact`` does."""
    started = time.perf_counter()
    sweep = oracle.exact_enumerator if enumerator else oracle.exact_min_distance
    res = sweep(code, budget=code.k)
    events = []
    if res.enumerator is not None:
        events.append({"kind": "enumerator",
                       "counts": {str(w): c for w, c in sorted(res.enumerator.items())}})
    return DistanceEstimate(
        family=code.family,
        n=code.n,
        k=code.k,
        method="exact",
        d=res.d_exact,
        witness=res.witness,
        config={"budget": code.k, "enumerator": enumerator},
        rng_seed=None,
        wall_time_seconds=time.perf_counter() - started,
        bound_report=enforce(build_report(code.family, code.n, code.k, res.d_exact), "exact"),
        code_params=dict(code.metadata),
        events=tuple(events),
    )


def _ga(variant: str, code: LinearCode, seed: int) -> DistanceEstimate:
    if variant == "a":
        cfg = genetic.GaConfig.variant_a(population_size=GA_POPULATION,
                                         max_generations=GA_GENERATIONS, rng_seed=seed)
        return genetic.run_variant_a(code, cfg)
    cfg = genetic.GaConfig.variant_b(population_size=GA_POPULATION,
                                     max_generations=GA_GENERATIONS, rng_seed=seed)
    return genetic.run_variant_b(code, cfg)


def _plan_mim(estimates: int):
    def plan(built: dict[str, LinearCode], rng: random.Random) -> list[Call]:
        return [Call(key, "mim", partial(_mim, code, MIM_TRIALS, rng.getrandbits(32)))
                for key, code in built.items() for _ in range(estimates)]

    return plan


def _plan_oracle(built: dict[str, LinearCode], rng: random.Random) -> list[Call]:
    calls = [Call(key, "exact", partial(_exact, code, False)) for key, code in built.items()]
    calls.append(Call("k27", "enum", partial(_exact, built["k27"], True)))
    return calls


def _plan_ga(built: dict[str, LinearCode], rng: random.Random) -> list[Call]:
    return [Call(key, f"ga_{v}", partial(_ga, v, code, rng.getrandbits(32)))
            for key, code in built.items() for v in ("a", "b")]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "mim-small",
            (
                Target("qdc24", _fixed(lambda: codes.build_qdc(11)), 8),
                Target("qr41", _fixed(lambda: codes.build_qr(41)), 9),
                Target("qr47", _fixed(lambda: codes.build_qr(47)), 11),
                Target("qr73", _fixed(lambda: codes.build_qr(73)), 13),
                Target("bch63_24", _fixed(lambda: codes.build_bch(6, 7)), 15),
                Target("bch63_36", _fixed(lambda: codes.build_bch(6, 5)), 11),
            ),
            _plan_mim(estimates=4),
            exact=False,
        ),
        Workload(
            "mim-bch127",
            (Target("bch127", _fixed(lambda: codes.build_bch(7, 10)), 21),),
            _plan_mim(estimates=3),
            exact=False,
        ),
        Workload(
            "oracle-dcc",
            (
                Target("k22", _permuted_dcc("1100011101010101001111"), 10),
                Target("k27", _permuted_dcc("011000110000111111101101000"), 11),
                Target("k29", _permuted_dcc("00011011111000110010010010010"), 12),
            ),
            _plan_oracle,
            exact=True,
        ),
        Workload(
            "ga-bch",
            (
                Target("bch63_24", _fixed(lambda: codes.build_bch(6, 7)), 15),
                Target("bch127", _fixed(lambda: codes.build_bch(7, 10)), 21),
            ),
            _plan_ga,
            exact=False,
        ),
    )
}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
