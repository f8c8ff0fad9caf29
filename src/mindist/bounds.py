"""Analytic bounds on the minimum distance, and sanity rails for estimates.

Each bound and the codes it holds for:

- Singleton, d <= n - k + 1: every (n, k) linear code.  An estimate above
  it is still the weight of a verified codeword, so a valid if weak upper
  bound, and the report lists it as a warning.
- The square-root lower bound d^2 >= p, and the odd-minimum-weight parity
  rule: binary quadratic residue codes of prime length p = +-1 (mod 8).
  In the reports they are applied to codes of family QR, a label that
  ``codes.identify`` has proven from the generator.
- The 0.166315*n upper bound is reported for comparison the way the source
  tables use it, but only as a warning: its hypotheses (doubly-even
  self-dual codes) are narrower than the codes it gets applied to here.

The lower bounds proven from the generator itself (the BCH bound and the
sharpened square-root bound) are ``codes.identify``'s.

Table displays truncate to 2 decimals rather than round; that is the only
rule consistent with the published reference values (sqrt(337) -> 18.35).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError

__all__ = [
    "BoundReport",
    "singleton",
    "qr_sqrt_lower",
    "krasikov_upper",
    "truncate2",
    "build_report",
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


def sqrt_display(n: int) -> float:
    """sqrt(n) truncated to 2 decimals, as tabulated."""
    return truncate2(math.sqrt(n))


def krasikov_upper(n: int) -> float:
    """The 0.166315 * n upper bound, truncated to 2 decimals."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    return truncate2(KRASIKOV_COEFFICIENT * n)


def truncate2(x: float) -> float:
    """Truncate toward zero to 2 decimal places."""
    return math.trunc(x * 100) / 100


@dataclass(frozen=True, slots=True)
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

    The one hard violation is a QR code's estimate below the square-root
    bound; an estimate above the Singleton or the 0.166315*n bound is a
    warning.  QR minimum weights are odd, so an even estimate d of a QR
    code implies a distance <= d - 1, its ``parity_adjusted_d``; that value
    has no witness, and the record keeps the witness's d.
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
        if d % 2 == 0:
            parity = d - 1
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
