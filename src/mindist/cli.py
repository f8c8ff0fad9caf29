"""Command-line front end: construct codes, estimate distances, batch tables.

Exit codes: 0 success, 2 configuration or domain error, 3 resource
refusal (oracle budget), 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import codes as codes_mod
from . import genetic, mim, oracle
from .errors import BudgetError, ConsistencyError
from .gf2 import BitWord
from .osd import DEFAULT_ORDER, OsdDecoder, hard_decision
from .results import DistanceEstimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CONSISTENCY = 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindist",
        description="Construct binary linear block codes and estimate their minimum distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a code and write its generator matrix")
    which = p_con.add_mutually_exclusive_group(required=True)
    which.add_argument("--bch", nargs=2, type=int, metavar=("M", "T"),
                       help="narrow-sense BCH of length 2^M - 1 with capacity T")
    which.add_argument("--qr", type=int, metavar="P", help="quadratic residue code of prime length P")
    which.add_argument("--dcc", metavar="BITS", help="double circulant from a binary header")
    which.add_argument("--qdc", type=int, metavar="P",
                       help="bordered quadratic double circulant, prime P = +-3 mod 8")
    p_con.add_argument("--corner", type=int, choices=(0, 1), default=0,
                       help="QDC border corner entry (default 0)")
    p_con.add_argument("--out", required=True, help="output matrix path")
    p_con.set_defaults(handler=_cmd_construct)

    p_est = sub.add_parser("estimate", help="estimate the minimum distance of a code",
                           allow_abbrev=False)
    _add_estimate_args(p_est)
    p_est.set_defaults(handler=partial(_cmd_estimate, p_est))

    p_tab = sub.add_parser("table", help="run a batch of estimates and emit CSV")
    p_tab.add_argument("--spec", required=True,
                       help="one run per line: CODE METHOD [key=value ...], keys "
                            "being estimate flags written with _")
    p_tab.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p_tab.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="run rows on N worker processes (default sequential)")
    p_tab.set_defaults(handler=_cmd_table)

    p_dec = sub.add_parser("decode", help="debug: OSD-decode one received word")
    p_dec.add_argument("--code", required=True)
    p_dec.add_argument("--y", required=True,
                       help="received samples, comma or space separated floats "
                            "(use --y=... when the first sample is negative)")
    p_dec.add_argument("--order", type=int, default=None)
    p_dec.set_defaults(handler=_cmd_decode)
    return parser


def _add_estimate_args(p_est: argparse.ArgumentParser) -> None:
    """Each method flag's dest is the setting it sets: a config field, or
    an ``oracle.run`` parameter."""
    p_est.add_argument("--code", required=True, help="generator matrix file")
    p_est.add_argument("--method", required=True, choices=("exact", "ga-a", "ga-b", "mim"))
    p_est.add_argument("--seed", dest="rng_seed", type=int)
    p_est.add_argument("--json", metavar="PATH", help="write the full result record here")
    p_est.add_argument("--budget", type=int,
                       help="exact method: log2 of the combinations its search may score, "
                            "and the largest k its --enumerator sweep may take (default 32)")
    p_est.add_argument("--enumerator", dest="collect_enumerator", action="store_true",
                       help="collect the weight enumerator (exact method)")
    p_est.add_argument("--population", dest="population_size", type=int)
    p_est.add_argument("--generations", dest="max_generations", type=int)
    p_est.add_argument("--elite-count", type=int)
    p_est.add_argument("--crossover-prob", type=float)
    p_est.add_argument("--mutation-prob", type=float)
    p_est.add_argument("--crossover", dest="crossover_kind", choices=genetic.CROSSOVER_KINDS)
    p_est.add_argument("--tournament-size", type=int)
    p_est.add_argument("--d0", type=int)
    p_est.add_argument("--d1", type=int)
    p_est.add_argument("--nb-test", type=int)
    p_est.add_argument("--error-max", type=int)
    p_est.add_argument("--osd-order", type=int)


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args) -> int:
    if args.bch:
        m, t = args.bch
        code = codes_mod.build_bch(m, t)
    elif args.qr is not None:
        code = codes_mod.build_qr(args.qr)
    elif args.dcc is not None:
        code = codes_mod.build_dcc(BitWord.parse(args.dcc))
    else:
        code = codes_mod.build_qdc(args.qdc, corner=args.corner)
    codes_mod.save_code(code, args.out)
    print(f"{code.label()} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


_GA_READS = {f.name for f in fields(genetic.GaConfig)}
_READS = {
    "exact": {"budget", "collect_enumerator"},
    "ga-a": _GA_READS,
    "ga-b": _GA_READS,
    "mim": {f.name for f in fields(mim.MimConfig)},
}


def _given(parser: argparse.ArgumentParser, args) -> dict:
    """The method flags that were set, by dest; a set flag that the method
    does not read is an error naming the flag."""
    given = {}
    for action in parser._actions:
        value = getattr(args, action.dest, action.default)
        if action.dest in ("code", "method", "json") or value == action.default:
            continue
        if action.dest not in _READS[args.method]:
            raise ValueError(f"{action.option_strings[0]} is not read by --method {args.method}")
        given[action.dest] = value
    return given


def _estimate(code: codes_mod.LinearCode, parser: argparse.ArgumentParser,
              args) -> DistanceEstimate:
    given = _given(parser, args)
    if args.method == "exact":
        return oracle.run(code, **given)
    if args.method == "mim":
        return mim.run(code, mim.MimConfig.for_code(code, **given))
    if args.method == "ga-a":
        return genetic.run_variant_a(code, genetic.GaConfig.variant_a(**given))
    return genetic.run_variant_b(code, genetic.GaConfig.variant_b(**given))


def _cmd_estimate(parser: argparse.ArgumentParser, args) -> int:
    code = codes_mod.load_code(args.code)
    est = _estimate(code, parser, args)
    wit = est.witness.weight if est.witness is not None else "none"
    print(f"code: {est.family}({est.n},{est.k})  method: {est.method}")
    print(f"d = {est.d}  witness weight = {wit}")
    b = est.bound_report
    bound_bits = [f"singleton <= {b.singleton_upper}"]
    if b.sqrt_lower is not None:
        bound_bits.append(f"sqrt lower >= {b.sqrt_lower} (sqrt(n) = {b.sqrt_of_n:.2f})")
    if b.krasikov_upper is not None:
        bound_bits.append(f"krasikov <= {b.krasikov_upper:.2f}")
    if b.parity_adjusted_d is not None:
        bound_bits.append(f"parity-implied d <= {b.parity_adjusted_d}")
    print("bounds: " + ", ".join(bound_bits))
    if b.warnings:
        print("warnings: " + ", ".join(b.warnings))
    print(f"runtime: {est.wall_time_seconds:.3f}s")
    if args.json:
        Path(args.json).write_text(est.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


class _RowParser(argparse.ArgumentParser):
    """The ``estimate`` arguments; a parse error becomes a row error, not an exit."""

    def __init__(self):
        super().__init__(prog="table row", add_help=False, allow_abbrev=False)
        _add_estimate_args(self)

    def error(self, message):
        raise ValueError(message)


def _parse_bool(key: str, value: str) -> bool:
    """true/false/1/0 in any case; anything else is an error."""
    text = value.strip().lower()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"{key} must be true or false (or 1 or 0), got {value!r}")


def _parse_row(parser: _RowParser, line: str) -> argparse.Namespace:
    """``CODE METHOD key=value ...`` parsed as ``estimate`` arguments.

    ``key=value`` becomes ``--key value`` with ``_`` written as ``-``; a
    switch (``enumerator``) is passed bare when its value is true or 1 and
    left out when it is false or 0, in any case.  A row writes no JSON
    record, so ``json`` is an error.
    """
    tokens = line.split()
    if len(tokens) < 2:
        raise ValueError(f"expected 'CODE METHOD [key=value ...]', got {line!r}")
    switches = {a.option_strings[0] for a in parser._actions if a.nargs == 0}
    argv = ["--code", tokens[0], "--method", tokens[1]]
    for tok in tokens[2:]:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        flag = "--" + key.replace("_", "-")
        if flag in switches:
            argv += [flag] if _parse_bool(key, value) else []
        else:
            argv += [flag, value]
    args = parser.parse_args(argv)
    if args.json is not None:
        raise ValueError("--json is not written by a table row; use estimate --json")
    return args


def _run_table_row(line: str) -> tuple[dict, bool]:
    """One CSV row, and whether the row failed a consistency check."""
    code, method = (line.split() + ["", ""])[:2]
    out = {"code": code, "method": method, "d": "", "runtime": "", "seed": "", "error": ""}
    try:
        parser = _RowParser()
        args = _parse_row(parser, line)
        est = _estimate(codes_mod.load_code(args.code), parser, args)
        out["d"] = est.d
        out["runtime"] = f"{est.wall_time_seconds:.3f}"
        out["seed"] = est.rng_seed
    except Exception as e:  # per-row failures become rows, the batch continues
        out["error"] = str(e)
        return out, isinstance(e, ConsistencyError)
    return out, False


def _cmd_table(args) -> int:
    if args.parallel < 1:
        raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
    lines = []
    for raw in Path(args.spec).read_text(encoding="utf-8").splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if args.parallel > 1 and len(lines) > 1:
        with ProcessPoolExecutor(max_workers=min(args.parallel, len(lines))) as pool:
            results = list(pool.map(_run_table_row, lines))
    else:
        results = [_run_table_row(line) for line in lines]
    sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=["code", "method", "d", "runtime", "seed", "error"])
        writer.writeheader()
        writer.writerows(row for row, _ in results)
    finally:
        if args.out:
            sink.close()
    return EXIT_CONSISTENCY if any(failed for _, failed in results) else EXIT_OK


# ---------------------------------------------------------------------------
# decode


def _cmd_decode(args) -> int:
    code = codes_mod.load_code(args.code)
    text = args.y.replace(",", " ")
    y = [float(tok) for tok in text.split()]
    order = args.order if args.order is not None else min(DEFAULT_ORDER, code.k)
    decoded = OsdDecoder(code, order).decode(y)
    print(f"hard decision: {hard_decision(y).to01()}")
    print(f"decoded:       {decoded.to01()}")
    print(f"weight:        {decoded.weight}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
