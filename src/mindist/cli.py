"""Command-line front end: construct codes, estimate distances, batch tables.

Exit codes: 0 success, 2 configuration or domain error, 3 resource
refusal (oracle budget), 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
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
    which.add_argument("--load", metavar="PATH", help="copy an existing matrix file")
    p_con.add_argument("--corner", type=int, choices=(0, 1), default=0,
                       help="QDC border corner entry (default 0)")
    p_con.add_argument("--design-distance", type=int, default=None,
                       help="override the BCH designed-distance label")
    p_con.add_argument("--out", required=True, help="output matrix path")
    p_con.set_defaults(handler=_cmd_construct)

    p_est = sub.add_parser("estimate", help="estimate the minimum distance of a code")
    _add_estimate_args(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

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
    p_est.add_argument("--code", required=True, help="generator matrix file")
    p_est.add_argument("--method", required=True, choices=("exact", "ga-a", "ga-b", "mim"))
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--json", metavar="PATH", help="write the full result record here")
    p_est.add_argument("--budget", type=int, default=None, help="oracle k budget override")
    p_est.add_argument("--enumerator", action="store_true",
                       help="collect the weight enumerator (exact method)")
    p_est.add_argument("--config", metavar="PATH",
                       help="GA config file (JSON or key = value lines)")
    p_est.add_argument("--population", type=int, default=None)
    p_est.add_argument("--generations", type=int, default=None)
    p_est.add_argument("--elite-count", type=int, default=None)
    p_est.add_argument("--crossover-prob", type=float, default=None)
    p_est.add_argument("--mutation-prob", type=float, default=None)
    p_est.add_argument("--crossover", choices=genetic.CROSSOVER_KINDS, default=None)
    p_est.add_argument("--selection", choices=genetic.SELECTION_KINDS, default=None)
    p_est.add_argument("--tournament-size", type=int, default=None)
    p_est.add_argument("--mutation", choices=genetic.MUTATION_KINDS, default=None)
    p_est.add_argument("--no-elitism", action="store_true")
    p_est.add_argument("--d0", type=int, default=None)
    p_est.add_argument("--d1", type=int, default=None)
    p_est.add_argument("--nb-test", type=int, default=None)
    p_est.add_argument("--error-max", type=int, default=None)
    p_est.add_argument("--osd-order", type=int, default=None)


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args) -> int:
    if args.bch:
        m, t = args.bch
        code = codes_mod.build_bch(m, t, design_distance=args.design_distance)
    elif args.qr is not None:
        code = codes_mod.build_qr(args.qr)
    elif args.dcc is not None:
        code = codes_mod.build_dcc(BitWord.parse(args.dcc))
    elif args.qdc is not None:
        code = codes_mod.build_qdc(args.qdc, corner=args.corner)
    else:
        code = codes_mod.load_code(args.load)
    codes_mod.save_code(code, args.out)
    print(f"{code.label()} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _ga_config(args, variant: str) -> genetic.GaConfig:
    mapping: dict = {}
    if args.config:
        mapping.update(_read_config_file(args.config))
    flag_map = {
        "population_size": args.population,
        "max_generations": args.generations,
        "elite_count": args.elite_count,
        "crossover_prob": args.crossover_prob,
        "mutation_prob": args.mutation_prob,
        "crossover_kind": args.crossover,
        "selection_kind": args.selection,
        "tournament_size": args.tournament_size,
        "mutation_kind": args.mutation,
    }
    mapping.update({k: v for k, v in flag_map.items() if v is not None})
    if args.no_elitism:
        mapping["elitism_enabled"] = False
    mapping["rng_seed"] = args.seed
    return genetic.GaConfig.from_mapping(variant, mapping)


def _read_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _estimate(code: codes_mod.LinearCode, method: str, args) -> DistanceEstimate:
    if method == "exact":
        return oracle.run(code, budget=args.budget, collect_enumerator=args.enumerator)
    if method == "ga-a":
        return genetic.run_variant_a(code, _ga_config(args, "A"))
    if method == "ga-b":
        return genetic.run_variant_b(code, _ga_config(args, "B"))
    overrides: dict = {"rng_seed": args.seed}
    for field_name, value in (
        ("d0", args.d0), ("d1", args.d1), ("nb_test", args.nb_test),
        ("error_max", args.error_max), ("osd_order", args.osd_order),
    ):
        if value is not None:
            overrides[field_name] = value
    return mim.run(code, mim.MimConfig.for_code(code, **overrides))


def _cmd_estimate(args) -> int:
    code = codes_mod.load_code(args.code)
    est = _estimate(code, args.method, args)
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

    def error(self, message):
        raise ValueError(message)


def _parse_row(line: str) -> argparse.Namespace:
    """``CODE METHOD key=value ...`` parsed as ``estimate`` arguments.

    ``key=value`` becomes ``--key value`` with ``_`` written as ``-``; a
    bool flag (``enumerator``, ``no_elitism``) is passed bare when its
    value is 1 or true and left out otherwise.
    """
    tokens = line.split()
    if len(tokens) < 2:
        raise ValueError(f"expected 'CODE METHOD [key=value ...]', got {line!r}")
    parser = _RowParser(prog="table row", add_help=False)
    _add_estimate_args(parser)
    argv = ["--code", tokens[0], "--method", tokens[1]]
    for tok in tokens[2:]:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        flag = "--" + key.replace("_", "-")
        if isinstance(parser.get_default(key), bool):
            argv += [flag] if value in ("1", "true", "True") else []
        else:
            argv += [flag, value]
    return parser.parse_args(argv)


def _run_table_row(line: str) -> tuple[dict, bool]:
    """One CSV row, and whether the row failed a consistency check."""
    out = {"code": "", "method": "", "d": "", "runtime": "", "seed": "", "error": ""}
    try:
        args = _parse_row(line)
        out["code"], out["method"], out["seed"] = args.code, args.method, args.seed
        est = _estimate(codes_mod.load_code(args.code), args.method, args)
        out["d"] = est.d
        out["runtime"] = f"{est.wall_time_seconds:.3f}"
        if est.rng_seed is None:
            out["seed"] = ""
    except Exception as e:  # per-row failures become rows, the batch continues
        out["error"] = str(e)
        return out, isinstance(e, ConsistencyError)
    return out, False


def _cmd_table(args) -> int:
    lines = []
    for raw in Path(args.spec).read_text(encoding="utf-8").splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if args.parallel > 1 and len(lines) > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
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
