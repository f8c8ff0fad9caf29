"""Spans around mindist's public entry points, and the per-layer metrics
computed from them.

The tracer replaces module and class attributes of the package for the
length of a traced pass, so the package itself carries no tracing code.
Spans stay in memory as ``[name, start, end, parent, run_id, tag]`` lists
and are written out when the run ends.  The benchmark opens one ``call``
span around each estimate call (tag ``<method>:<code>``); every layer span
nests under one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from mindist import codes, genetic, mim, oracle, osd, results

from workloads import GA_GENERATIONS

# codes whose first decoded words the OSD order probe replays, by (n, k)
PROBE_CODES = {(24, 12): "qdc24", (73, 37): "qr73", (127, 64): "bch127"}
PROBE_WORDS = 40
PROBE_REPEATS = 3
PROBE_ORDERS = (0, 1, 2, 3)

ORACLE_KEYS = ("k22", "k27", "k29")

# per-layer metric -> (unit, which direction is better)
LAYER_METRICS = {
    "osd.decode_ms.p50": ("ms", "lower"),
    "osd.decode_ms.p99": ("ms", "lower"),
    "osd.decodes": ("count", "lower"),
    "osd.busy_s": ("s", "lower"),
    "osd.share": ("ratio", "lower"),
    "osd.init_ms": ("ms", "lower"),
    "osd.escape_ratio": ("ratio", "higher"),
    **{f"osd.order{t}_ms.{c}": ("ms", "lower") for c in PROBE_CODES.values() for t in PROBE_ORDERS},
    **{f"osd.score3_ms.{c}": ("ms", "lower") for c in PROBE_CODES.values()},
    "mim.run_s": ("s", "lower"),
    "mim.self_s": ("s", "lower"),
    "mim.pattern_us": ("us", "lower"),
    "mim.trials": ("count", "lower"),
    **{f"oracle.sweep_s.{k}": ("s", "lower") for k in ORACLE_KEYS},
    "oracle.enum_s.k27": ("s", "lower"),
    "oracle.enum_ratio": ("ratio", "lower"),
    "oracle.codewords_per_s": ("1/s", "higher"),
    "oracle.lane_words": ("count", "lower"),
    "genetic.run_s.a": ("s", "lower"),
    "genetic.run_s.b": ("s", "lower"),
    "genetic.generations_per_s.a": ("1/s", "higher"),
    "genetic.generations_per_s.b": ("1/s", "higher"),
    "genetic.hit_ratio": ("ratio", "higher"),
    "codes.build_ms": ("ms", "lower"),
    "results.to_json_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
}

# spans every successful call of a method must contain
EXPECTED = {
    "mim": {"mim.run", "mim.make_pattern", "mim.apply_pattern", "osd.init", "osd.decode"},
    "exact": {"oracle.exact_min_distance"},
    "enum": {"oracle.exact_min_distance"},
    "ga_a": {"genetic.run_variant_a"},
    "ga_b": {"genetic.run_variant_b"},
}


class TraceError(Exception):
    """An order-3 probe decode differs from the codeword the run decoded."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []

    def open(self, name: str, tag: str = "") -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, tag])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, "tag": tag}) + "\n")


class DecodeCapture:
    """Counts escapes (nonzero decodes) and keeps the first words decoded
    for each probe code, with the codeword the run decoded."""

    def __init__(self):
        self.escapes = 0
        self.words: dict[str, list] = defaultdict(list)

    def after_decode(self, args, decoded) -> None:
        decoder, y = args[0], args[1]
        self.escapes += decoded.weight != 0
        label = PROBE_CODES.get((decoder.code.n, decoder.code.k))
        if label is not None and len(self.words[label]) < PROBE_WORDS:
            self.words[label].append((decoder.code, y, decoded))


@contextlib.contextmanager
def installed(tracer: Tracer, capture: DecodeCapture):
    """Wrap the layers' public functions for the duration of the block."""
    points = [(codes, name, "codes.build", None) for name in dir(codes) if name.startswith("build_")]
    points += [
        (oracle, "exact_min_distance", "oracle.exact_min_distance", None),
        (genetic, "run_variant_a", "genetic.run_variant_a", None),
        (genetic, "run_variant_b", "genetic.run_variant_b", None),
        (mim, "run", "mim.run", None),
        (mim, "make_pattern", "mim.make_pattern", None),
        (mim, "apply_pattern", "mim.apply_pattern", None),
        (osd.OsdDecoder, "__init__", "osd.init", None),
        (osd.OsdDecoder, "decode", "osd.decode", capture.after_decode),
        (results.DistanceEstimate, "to_json", "results.to_json", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in points]
    try:
        for owner, attr, name, after in points:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def osd_probe(capture: DecodeCapture) -> dict[str, float]:
    """Decode the captured words again with fresh decoders of each order.

    Returns ``osd.order{t}_ms.<code>`` (median per-decode time) and
    ``osd.score3_ms.<code>`` (order 3 minus order 2); codes with no
    captured words read 0.  Raises TraceError when an order-3 decode
    differs from the codeword the run decoded.
    """
    out: dict[str, float] = {}
    for label in PROBE_CODES.values():
        words = capture.words.get(label, [])
        for t in PROBE_ORDERS:
            samples = []
            if words:
                decoder = osd.OsdDecoder(words[0][0], t)
                for _ in range(PROBE_REPEATS):
                    for _, y, want in words:
                        started = time.perf_counter()
                        got = decoder.decode(y)
                        samples.append(time.perf_counter() - started)
                        if t == 3 and got != want:
                            raise TraceError(f"order-3 probe decode on {label} differs from the run")
            out[f"osd.order{t}_ms.{label}"] = _median(samples) * 1e3
        out[f"osd.score3_ms.{label}"] = out[f"osd.order3_ms.{label}"] - out[f"osd.order2_ms.{label}"]
    return out


def check_spans(tracer: Tracer) -> list[str]:
    """Names of expected spans missing from each call, as messages."""
    spans = tracer.spans
    seen: dict[int, set[str]] = defaultdict(set)
    for i, span in enumerate(spans):
        root = _call_root(spans, i)
        if root is not None and root != i:
            seen[root].add(span[0])
    problems = []
    for i, span in enumerate(spans):
        if span[0] != "call":
            continue
        method = span[5].split(":")[0]
        missing = (EXPECTED[method] | {"results.to_json"}) - seen[i]
        if missing:
            problems.append(f"call {span[5]} in {span[4]} lacks spans {sorted(missing)}")
    if not any(span[0] == "codes.build" for span in spans):
        problems.append("no codes.build span")
    return problems


def layer_metrics(tracer: Tracer, capture: DecodeCapture, traced: list, built: dict,
                  published: dict, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of the ``traced`` passes; ``*_s`` totals are per pass.

    ``overhead_ratio`` is the traced passes' time over the same passes'
    time without spans, minus 1.
    """
    spans = tracer.spans
    passes = len(traced)
    traced_wall = sum(o.seconds for p in traced for o in p.outcomes)
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    durs: dict[str, list[float]] = defaultdict(list)
    tagged: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        durs[name].append(end - start)
        self_time[name] += end - start - child[i]
        if parent is not None and spans[parent][0] == "call" and name != "call":
            covered += end - start
            tagged[f"{name}@{spans[parent][5]}"].append(end - start)

    m: dict[str, float] = {}
    decode, init = durs["osd.decode"], durs["osd.init"]
    osd_busy = sum(decode) + sum(init)
    m["osd.decode_ms.p50"] = _median(decode) * 1e3
    m["osd.decode_ms.p99"] = _p99(decode) * 1e3
    m["osd.decodes"] = len(decode)
    m["osd.busy_s"] = osd_busy / passes
    m["osd.share"] = osd_busy / traced_wall
    m["osd.init_ms"] = _median(init) * 1e3
    m["osd.escape_ratio"] = capture.escapes / len(decode) if decode else 0.0
    m.update(osd_probe(capture))

    make = durs["mim.make_pattern"]
    m["mim.run_s"] = sum(durs["mim.run"]) / passes
    m["mim.self_s"] = self_time["mim.run"] / passes
    m["mim.pattern_us"] = (sum(make) + sum(durs["mim.apply_pattern"])) / len(make) * 1e6 if make else 0.0
    m["mim.trials"] = sum(
        sum(e["kind"] == "trial" for e in o.est.events)
        for p in traced for o in p.outcomes if o.call.method == "mim" and o.est is not None
    )

    sweep = "oracle.exact_min_distance@exact:"
    for key in ORACLE_KEYS:
        m[f"oracle.sweep_s.{key}"] = _median(tagged.get(sweep + key, []))
    m["oracle.enum_s.k27"] = _median(tagged.get("oracle.exact_min_distance@enum:k27", []))
    m["oracle.enum_ratio"] = (m["oracle.enum_s.k27"] / m["oracle.sweep_s.k27"]
                              if m["oracle.sweep_s.k27"] else 0.0)
    words = seconds = lane_words = 0.0
    for label, times in tagged.items():
        if label.startswith("oracle.exact_min_distance@"):
            code = built[label.split(":")[1]]
            lane_words += (1 << code.k) * ((code.n + 63) // 64) * len(times)
            if label.startswith(sweep):
                words += (1 << code.k) * len(times)
                seconds += sum(times)
    m["oracle.codewords_per_s"] = words / seconds if seconds else 0.0
    m["oracle.lane_words"] = lane_words / passes

    ga = [o for p in traced for o in p.outcomes if o.call.method.startswith("ga_") and o.est]
    for v in ("a", "b"):
        times = durs[f"genetic.run_variant_{v}"]
        m[f"genetic.run_s.{v}"] = sum(times) / passes
        m[f"genetic.generations_per_s.{v}"] = (len(times) * GA_GENERATIONS / sum(times)
                                              if times else 0.0)
    m["genetic.hit_ratio"] = (sum(o.est.d == published[o.call.key] for o in ga) / len(ga)
                              if ga else 0.0)

    m["codes.build_ms"] = sum(durs["codes.build"]) * 1e3
    m["results.to_json_ms"] = _median(durs["results.to_json"]) * 1e3
    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.unattributed_ratio"] = 1.0 - covered / traced_wall
    return {name: m[name] for name in LAYER_METRICS}


def _call_root(spans: list, i: int) -> int | None:
    while i is not None and spans[i][0] != "call":
        i = spans[i][3]
    return i


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]
