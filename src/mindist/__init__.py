"""Minimum-distance workbench for binary linear block codes.

Construct BCH, quadratic-residue, double-circulant, and bordered quadratic
double-circulant codes; compute exact minimum distances by a
Brouwer-Zimmermann information-set search (and weight enumerators by a
Gray-coded sweep over all 2^k codewords); and estimate distances of larger
codes with two genetic-algorithm variants or the multiple-impulse method
driven by a soft-input ordered statistics decoder.  Every estimate carries
a witness codeword and a bound report.
"""

from .bounds import (
    BoundReport,
    krasikov_upper,
    qr_sqrt_lower,
    singleton,
)
from .codes import (
    LinearCode,
    build_bch,
    build_dcc,
    build_qdc,
    build_qr,
    load_code,
    quadratic_residues,
    save_code,
)
from .errors import BudgetError, ConsistencyError, DimensionError, RankError
from .genetic import GaConfig, fitness, run_variant_a, run_variant_b
from .gf2 import BinPoly, BitMatrix, BitWord, GF2mField, cyclotomic_coset
from .mim import MimConfig, apply_pattern, make_pattern
from .mim import run as run_mim
from .oracle import ExactResult, exact_enumerator, exact_min_distance
from .osd import OsdDecoder, hard_decision, most_reliable_basis
from .results import DistanceEstimate, SCHEMA_VERSION, validate_result

__version__ = "0.1.0"

__all__ = [
    "BinPoly",
    "BitMatrix",
    "BitWord",
    "BoundReport",
    "BudgetError",
    "ConsistencyError",
    "DimensionError",
    "DistanceEstimate",
    "ExactResult",
    "GF2mField",
    "GaConfig",
    "LinearCode",
    "MimConfig",
    "OsdDecoder",
    "RankError",
    "SCHEMA_VERSION",
    "apply_pattern",
    "build_bch",
    "build_dcc",
    "build_qdc",
    "build_qr",
    "cyclotomic_coset",
    "exact_enumerator",
    "exact_min_distance",
    "fitness",
    "hard_decision",
    "krasikov_upper",
    "load_code",
    "make_pattern",
    "most_reliable_basis",
    "qr_sqrt_lower",
    "quadratic_residues",
    "run_mim",
    "run_variant_a",
    "run_variant_b",
    "save_code",
    "singleton",
    "validate_result",
]
