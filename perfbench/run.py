"""mindist benchmark: fixed-seed MIM, oracle and GA workloads.

    python3 perfbench/run.py --workload mim-small --seed 1 --seconds 30 --trace 0

Draws the workload's pass (its list of estimate calls, see workloads.py)
from the seed and repeats it in a closed loop, one call after another in
this one process, while the next repeat still fits in ``--seconds``.  Every
estimate is certified outside the timed window.  With ``--trace 0`` the
last line of output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a fixed number of
(untraced, traced) pass pairs.  A record with the environment, and the
spans of a traced run, is written under ``perfbench/out/``.  The exit code
is 0 only when every estimate passed its checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ROOT, WORKLOADS, Call, Workload
from mindist.gf2 import BitMatrix
from mindist.results import DistanceEstimate, validate_result
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 7
TRACE_PAIRS = 2  # (untraced, traced) pass pairs in a traced run
# Fastest time of reference_work() on the 2-core Xeon host (Python 3.11,
# numpy 2.4) that the bounds in BENCHMARK.json were set on
REFERENCE_SECONDS = 0.0016


class CheckError(Exception):
    """An estimate failed certification."""


@dataclass
class Outcome:
    call: Call
    est: DistanceEstimate | None
    text: str | None
    seconds: float
    scale: float  # REFERENCE_SECONDS over the reference time measured around the call
    error: str | None = None


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome]


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]  # the metrics of the JSON line
    attempted: int
    problems: list[str]
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed and recorded
    detail: dict = field(default_factory=dict)  # recorded only
    tracer: spans.Tracer | None = None


def reference_work() -> int:
    s = 0
    for i in range(30_000):
        s ^= i * 7
    return s


def reference_time() -> float:
    """Fastest of three timings of reference_work: how fast the host runs now."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - started)
    return best


def run_pass(calls: list[Call], tracer: spans.Tracer | None = None) -> Pass:
    """Make the calls in order; time each estimate together with its to_json.

    The reference work runs between calls, outside their timing, and each
    call is scaled by the faster of the reference times on either side.
    """
    outcomes = []
    started = time.perf_counter()
    ref = reference_time()
    for call in calls:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open("call", f"{call.method}:{call.key}")
        try:
            est = call.run()
            text, error = est.to_json(), None
        except Exception:  # a failed estimate is counted and reported, not fatal
            est, text, error = None, None, traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.close()
        seconds = time.perf_counter() - t0
        ref_after = reference_time()
        outcomes.append(Outcome(call, est, text, seconds,
                                REFERENCE_SECONDS / min(ref, ref_after), error))
        ref = ref_after
    return Pass(time.perf_counter() - started, outcomes)


def certify(o: Outcome, code, published: int, exact: bool) -> None:
    """Raise CheckError unless the estimate is a certified upper bound."""
    if o.error is not None:
        raise CheckError(o.error)
    est, w = o.est, o.est.witness
    if w is None or w.bits == 0:
        raise CheckError("no nonzero witness")
    if w.length != code.n or BitMatrix(code.n, code.generator.rows + (w.bits,)).rank() != code.k:
        raise CheckError("witness is not a codeword")
    if w.weight != est.d:
        raise CheckError(f"witness weight {w.weight} != d = {est.d}")
    if est.d < published or (exact and est.d != published):
        raise CheckError(f"d = {est.d} against published distance {published}")
    try:
        validate_result(json.loads(o.text))
    except ValueError as exc:
        raise CheckError(f"record fails the result schema: {exc}") from None


def check_passes(wl: Workload, built: dict, passes: list[Pass]) -> list[str]:
    """One message per failed estimate.

    Every pass makes the same calls, so each repeat of a call must also
    return the same distance and witness as its first run.
    """
    published = wl.published()
    problems = []
    for outcomes in zip(*(p.outcomes for p in passes)):
        first = outcomes[0]
        for o in outcomes:
            try:
                certify(o, built[o.call.key], published[o.call.key], wl.exact)
                if first.est is not None and (o.est.d, o.est.witness) != (
                        first.est.d, first.est.witness):
                    raise CheckError("a repeat of the call returned another estimate")
            except CheckError as exc:
                problems.append(f"{o.call.method} on {o.call.key}: {exc}")
    return problems


def pass_total(passes: list[Pass], measure) -> float:
    """Sum over the calls of a pass of each call's median measure over the passes."""
    return sum(statistics.median(measure(o) for o in outcomes)
               for outcomes in zip(*(p.outcomes for p in passes)))


def time_to_d(o: Outcome, published: int) -> float:
    """Time of the first MIM witness at the published distance, else the call time."""
    if o.est is not None and o.call.method == "mim":
        for e in o.est.events:
            if e["kind"] == "witness" and e["weight"] == published:
                return e["time"]
    return o.seconds


def measure_setup(wl: Workload, seed: int) -> list[tuple[float, float]]:
    """Process start, ``import mindist`` and building the codes, in a child.

    Returns (seconds, scale) per child, scaled as calls are in run_pass.
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), wl.name, str(seed)]
    times = []
    ref = reference_time()
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - started
        ref_after = reference_time()
        times.append((seconds, REFERENCE_SECONDS / min(ref, ref_after)))
        ref = ref_after
    return times


def timed_run(wl: Workload, seed: int, seconds: float) -> RunResult:
    """Repeat one pass of the seed's calls while the next one fits in ``seconds``.

    Times are in reference seconds: each measured time is multiplied by
    the call's ``scale``.  The host the bounds were set on switches between
    a fast state and one ~1.8x slower for seconds to a minute at a time;
    scaling by the reference work takes most of that swing out.  Each
    call's median over the repeats is summed over the pass.
    """
    setup = measure_setup(wl, seed)
    built = wl.build(seed)
    calls = wl.plan(built, random.Random(f"calls/{seed}"))
    started = time.perf_counter()
    passes = [run_pass(calls)]
    while time.perf_counter() - started + passes[-1].wall <= seconds:
        passes.append(run_pass(calls))
    problems = check_passes(wl, built, passes)

    published = wl.published()
    gap = sum(o.est.d - published[o.call.key] for o in passes[0].outcomes if o.est)
    attempted = sum(len(p.outcomes) for p in passes)
    return RunResult(
        metrics={
            "wall_s": (pass_total(passes, lambda o: o.seconds * o.scale), "s"),
            "setup_s": (statistics.median(t * scale for t, scale in setup), "s"),
            "time_to_d_s": (pass_total(
                passes, lambda o: time_to_d(o, published[o.call.key]) * o.scale), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        attempted=attempted,
        problems=problems,
        # d_gap and fail_ratio read 0 on a healthy run, so they are printed
        # and recorded but are not metrics the benchmark gates on
        extra={
            "d_gap": (gap, "count"),
            "fail_ratio": (len(problems) / attempted, "ratio"),
            "passes": (len(passes), "count"),
            "unscaled_wall_s": (pass_total(passes, lambda o: o.seconds), "s"),
            "unscaled_setup_s": (statistics.median(t for t, _ in setup), "s"),
            "host_speed": (statistics.median(o.scale for p in passes for o in p.outcomes),
                           "ratio"),
        },
        detail={"pass_wall_s": [p.wall for p in passes], "setup_s_and_scale": setup},
    )


def traced_run(wl: Workload, seed: int) -> RunResult:
    """Fixed pairs of one untraced and one traced pass of the same calls."""
    tracer, capture = spans.Tracer(), spans.DecodeCapture()
    tracer.run_id = "setup"
    with spans.installed(tracer, capture):
        built = wl.build(seed)
    calls = wl.plan(built, random.Random(f"calls/{seed}"))
    traced, untraced = [], []
    for i in range(TRACE_PAIRS):
        # alternate which side goes first so warm-up costs fall on both
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.run_id = f"{wl.name}/{seed}/{i}"
                with spans.installed(tracer, capture):
                    traced.append(run_pass(calls, tracer))
            else:
                untraced.append(run_pass(calls))
    problems = check_passes(wl, built, traced + untraced)
    problems += spans.check_spans(tracer)
    overhead = (pass_total(traced, lambda o: o.seconds * o.scale)
                / pass_total(untraced, lambda o: o.seconds * o.scale) - 1.0)
    try:
        layer = spans.layer_metrics(tracer, capture, traced, built, wl.published(), overhead)
    except spans.TraceError as exc:
        problems.append(str(exc))
        layer = {}
    return RunResult(
        metrics={name: (value, spans.LAYER_METRICS[name][0]) for name, value in layer.items()},
        attempted=sum(len(p.outcomes) for p in traced + untraced),
        problems=problems,
        tracer=tracer,
    )


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread cap of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    env = environment(args.seed)
    result = traced_run(wl, args.seed) if args.trace else timed_run(wl, args.seed, args.seconds)
    correct = not result.problems
    shown = {**result.metrics, **result.extra}

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name, "environment": env, "correct": correct,
        "attempted": result.attempted, "failed": len(result.problems),
        "problems": result.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "detail": result.detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if result.tracer is not None:
        result.tracer.write(OUT / f"{stem}.spans.jsonl")

    print(f"mindist benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for problem in result.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": len(result.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
