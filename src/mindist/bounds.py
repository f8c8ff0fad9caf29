"""Analytic bounds on the minimum distance, and sanity rails for estimates.

Each bound and the codes it holds for:

- Singleton, d <= n - k + 1: every (n, k) linear code.  An estimate above
  it is still the weight of a verified codeword, so a valid if weak upper
  bound, and the report lists it as a warning.
- The square-root lower bound d^2 >= p, and the odd-minimum-weight parity
  rule: binary quadratic residue codes of prime length p = +-1 (mod 8).
  In the reports they are applied to codes labelled QR.
- The 0.166315*n upper bound is reported for comparison the way the source
  tables use it, but only as a warning: its hypotheses (doubly-even
  self-dual codes) are narrower than the codes it gets applied to here.
- ``certified_lower`` proves a lower bound from the generator itself and
  never trusts a label (see its docstring):
  - the BCH bound, for a cyclic code of length 2^m - 1 whose generator
    polynomial has delta - 1 consecutive powers of a primitive element
    among its zeros: d >= delta;
  - the square-root bound, sharpened to d^2 - d + 1 >= p when
    p = -1 (mod 8) and rounded up to odd, for a binary QR code of prime
    length p;
  - 1 for any other code.

Table displays truncate to 2 decimals rather than round; that is the only
rule consistent with the published reference values (sqrt(337) -> 18.35).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import LinearCode, _cyclic_generator, _is_prime, qr_factors
from .errors import ConsistencyError
from .gf2 import PRIMITIVE_POLYS, BinPoly, BitMatrix, GF2mField, cyclotomic_coset, systematize

__all__ = [
    "BoundReport",
    "singleton",
    "qr_sqrt_lower",
    "krasikov_upper",
    "pless_parity_adjust",
    "truncate2",
    "build_report",
    "certified_lower",
    "generator_lower",
]

KRASIKOV_COEFFICIENT = 0.166315


def singleton(n: int, k: int) -> int:
    """d <= n - k + 1 for any (n, k) linear code."""
    if not 1 <= k < n:
        raise ValueError(f"need n > k >= 1, got ({n}, {k})")
    return n - k + 1


def qr_sqrt_lower(n: int) -> int:
    """Smallest integer d with d^2 >= n."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    return math.isqrt(n - 1) + 1


def certified_lower(code: LinearCode) -> int:
    """A lower bound on the minimum distance, proven from the generator:
    ``generator_lower(code.generator, code.metadata.get("generator_poly"))``."""
    return generator_lower(code.generator, code.metadata.get("generator_poly"))


def generator_lower(generator: BitMatrix, hint: object) -> int:
    """A lower bound on the minimum distance of the code ``generator``
    spans, proven from the generator.

    Reads no label a caller can set (``family``, ``design_distance``).  The
    generator polynomial ``hint`` (a code's ``metadata["generator_poly"]``)
    is used only when it is an int and after it is checked: g has degree
    n - k, divides x^n - 1, and systematizing the cyclic rows x^i g(x)
    reproduces the generator's rows exactly.  The code is then a column
    permutation of the cyclic code generated by g, which has the same
    distance.  The bound is the larger of these, when they apply:

    - n = 2^m - 1 (m in the field table): the BCH bound.  If g has among
      its zeros alpha^b, alpha^(b+1), .., alpha^(b+delta-2) for a primitive
      alpha (exponents mod n), every nonzero codeword of the cyclic code
      has weight >= delta.  g's zeros are whole cyclotomic cosets, so g is
      evaluated at one representative of each.
    - n = p prime, p = +-1 (mod 8), and g is one of the two QR factors of
      x^p - 1: the square-root bound on the minimum odd-like weight d_o of
      a QR code (MacWilliams & Sloane, ch. 16, section 6, Theorem 1):
      d_o^2 >= p, and d_o^2 - d_o + 1 >= p when p = -1 (mod 4).  The
      extended binary QR code is even and its automorphism group is
      transitive, so puncturing a minimum word of it at the extension
      coordinate shows that the minimum weight of the QR code is odd, and
      equal to d_o; the bound is rounded up to odd.

    Any other code gets 1.
    """
    n, k = generator.cols, generator.nrows
    if type(hint) is not int or hint <= 0:
        return 1
    g = BinPoly(hint)
    x_n_1 = BinPoly((1 << n) | 1)
    if g.degree != n - k or x_n_1 % g:
        return 1
    if systematize(_cyclic_generator(g, n))[0].rows != generator.rows:
        return 1
    bound = 1
    m = n.bit_length()
    if n == (1 << m) - 1 and m in PRIMITIVE_POLYS:
        bound = _bch_bound(g, GF2mField(m))
    if _is_prime(n) and n % 8 in (1, 7) and g in qr_factors(n):
        bound = max(bound, _qr_sqrt_bound(n))
    return bound


def _bch_bound(g: BinPoly, f: GF2mField) -> int:
    """1 + the longest run of consecutive exponents e (mod n) with
    g(alpha^e) = 0, for n = 2^m - 1 and alpha the field's generator."""
    n = f.order
    zeros: set[int] = set()
    seen: set[int] = set()
    for s in range(n):
        if s not in seen:
            coset = cyclotomic_coset(s, n)
            seen |= coset
            if g.evaluate_in(f, f.alpha_pow(s)) == 0:
                zeros |= coset
    run = 0
    for start in zeros:
        if (start - 1) % n not in zeros:
            e = start
            while e % n in zeros:
                e += 1
            run = max(run, e - start)
    return run + 1


def _qr_sqrt_bound(p: int) -> int:
    """Least odd d with d^2 >= p, or with d^2 - d + 1 >= p if p = -1 (mod 8)."""
    d = 1
    while (d * d - d + 1 if p % 8 == 7 else d * d) < p:
        d += 1
    return d | 1


def sqrt_display(n: int) -> float:
    """sqrt(n) truncated to 2 decimals, as tabulated."""
    return truncate2(math.sqrt(n))


def krasikov_upper(n: int) -> float:
    """The 0.166315 * n upper bound, truncated to 2 decimals."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    return truncate2(KRASIKOV_COEFFICIENT * n)


def pless_parity_adjust(family: str, d_found: int) -> tuple[int, bool]:
    """QR minimum weights are odd: an even find w implies distance <= w - 1.

    Returns (adjusted value, parity_implied flag).  The implied value has no
    witness; callers must keep reporting the witness at the found weight.
    """
    if family != "QR":
        raise ValueError(f"parity rule applies to QR codes only, not {family}")
    if d_found % 2 == 1:
        return d_found, False
    return d_found - 1, True


def truncate2(x: float) -> float:
    """Truncate toward zero to 2 decimal places."""
    return math.trunc(x * 100) / 100


@dataclass(frozen=True)
class BoundReport:
    """Bound values and violation flags attached to one estimate."""

    singleton_upper: int
    sqrt_lower: int | None = None
    sqrt_of_n: float | None = None
    krasikov_upper: float | None = None
    parity_adjusted_d: int | None = None
    violated: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def build_report(family: str, n: int, k: int, d: int) -> BoundReport:
    """Evaluate every applicable bound against an estimated distance.

    The one hard violation is a QR-labelled code's estimate below the
    square-root bound; an estimate above the Singleton or the 0.166315*n
    bound is a warning.
    """
    violated: list[str] = []
    warnings: list[str] = []
    s = singleton(n, k)
    if d > s:
        warnings.append("singleton")
    sqrt_lb = sqrt_n = kras = parity = None
    if family == "QR":
        sqrt_lb = qr_sqrt_lower(n)
        sqrt_n = sqrt_display(n)
        if d < sqrt_lb:
            violated.append("qr_sqrt_lower")
        kras = krasikov_upper(n)
        if d > kras:
            warnings.append("krasikov_upper")
        adjusted, implied = pless_parity_adjust(family, d)
        if implied:
            parity = adjusted
    return BoundReport(
        singleton_upper=s,
        sqrt_lower=sqrt_lb,
        sqrt_of_n=sqrt_n,
        krasikov_upper=kras,
        parity_adjusted_d=parity,
        violated=tuple(violated),
        warnings=tuple(warnings),
    )


def enforce(report: BoundReport, context: str) -> BoundReport:
    """Raise ConsistencyError on hard violations; pass warnings through."""
    if report.violated:
        raise ConsistencyError(
            f"{context}: estimate violates {', '.join(report.violated)}"
        )
    return report
