"""Binary linear block code constructions: BCH, QR, DCC, and QDC families.

All constructors return a LinearCode whose generator matrix is in
systematic form [I_k | P] (the double-circulant families by shape).  A
cyclic code's rows x^i g(x), with g(0) = 1, are unit upper triangular on
columns 0..k-1, so ``gf2.eliminate`` on them takes pivots 0..k-1 and the
reduced rows are [I_k | P] with no column moved: the stored generator of a
BCH or QR code spans the cyclic code itself.

``identify`` owns what a generator proves: that the code is BCH or QR, and
a lower bound on its distance.  A cyclic code is the set of multiples of
its generator polynomial, so it proves a hint g by division, with no
reduction.  ``LinearCode`` runs it once, keeps the answer as ``identity``
and checks its label against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, TextIO

from .errors import ConsistencyError, DimensionError, RankError
from .gf2 import (
    BinPoly,
    BitMatrix,
    BitWord,
    GF2mField,
    PRIMITIVE_POLYS,
    cyclotomic_coset,
    eliminate,
    poly_gcd,
)

__all__ = [
    "Identity",
    "LinearCode",
    "identify",
    "quadratic_residues",
    "build_bch",
    "build_qr",
    "build_dcc",
    "build_qdc",
    "load_code",
    "save_code",
]

FAMILIES = ("BCH", "QR", "DCC", "QDC", "GENERIC")


@dataclass(frozen=True)
class LinearCode:
    """An (n, k) binary linear code given by a full-rank generator matrix.

    ``identity`` is ``identify`` of the generator and its ``generator_poly``
    hint, taken once at construction, after ``basis`` has proven the full
    rank ``identify`` needs: what the code is and the distance bound it
    proves stay fixed, whatever later happens to ``metadata``.  It is
    derived, so it is no argument, is not compared and is not in the repr.
    Any full-rank generator of the cyclic code the hint generates proves
    it, reduced or not (the raw shifts x^i g(x), say).  ``family`` is checked against it: a ``BCH`` or ``QR`` label it
    does not prove is a ``ValueError``, and a ``GENERIC`` code it proves
    takes the proven family, QR first.  ``DCC`` and ``QDC`` labels are kept
    as given, since nothing is proven from them.  ``proven_poly`` is the
    ``generator_poly`` hint that ``identity`` proved BCH or QR from, kept
    with it for ``save_code`` (None when the identity proves neither); it is
    derived the same way.

    ``basis`` is the generator's one Gauss-Jordan reduction, ``gf2.eliminate``
    of its rows on the columns in index order, run once here, where it also
    proves full rank: (rows, pivots), row i the only row with a 1 at pivot
    i.  The OSD decoder starts every word's reduction from it, and
    ``DistanceEstimate.of`` tests its witness against it.  It is derived
    like ``identity``.
    """

    n: int
    k: int
    generator: BitMatrix
    family: str = "GENERIC"
    metadata: dict = field(default_factory=dict)
    basis: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False, compare=False, repr=False)
    identity: Identity = field(init=False, compare=False, repr=False)
    proven_poly: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"need n > k >= 1, got ({self.n}, {self.k})")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.generator.nrows != self.k or self.generator.cols != self.n:
            raise DimensionError(
                f"generator is {self.generator.nrows}x{self.generator.cols}, "
                f"expected {self.k}x{self.n}"
            )
        rows = list(self.generator.rows)
        piv = eliminate(rows, range(self.n))
        if len(piv) != self.k:
            raise RankError(f"generator rank {len(piv)} < k = {self.k}", rank=len(piv))
        object.__setattr__(self, "basis", (tuple(rows), tuple(piv)))
        hint = self.metadata.get("generator_poly")
        facts = identify(self.generator, hint)
        object.__setattr__(self, "identity", facts)
        object.__setattr__(self, "proven_poly", hint if facts.bch or facts.qr else None)
        if self.family in ("BCH", "QR", "GENERIC"):
            proven = [f for f, ok in (("QR", facts.qr), ("BCH", facts.bch)) if ok]
            if self.family == "GENERIC" and proven:
                object.__setattr__(self, "family", proven[0])
            elif self.family != "GENERIC" and self.family not in proven:
                raise ValueError(f"the generator and its generator_poly hint "
                                 f"do not prove a {self.family} code")

    def label(self) -> str:
        return f"{self.family}({self.n},{self.k})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def quadratic_residues(p: int) -> frozenset[int]:
    """The set {x^2 mod p : 1 <= x <= p-1} for an odd prime p."""
    if not _is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    return frozenset((x * x) % p for x in range(1, p))


# ---------------------------------------------------------------------------
# BCH


def build_bch(m: int, t: int) -> LinearCode:
    """Narrow-sense primitive BCH code of length 2^m - 1.

    The generator polynomial is the lcm of the minimal polynomials of
    alpha^1 .. alpha^2t over the fixed GF(2^m) representation.  Its roots
    include 2t consecutive powers of alpha, so by the BCH bound the
    distance is at least 2t + 1, or the larger designed distance that
    ``identify`` gives when the zeros run on past alpha^2t.
    """
    if not 3 <= m <= 9:
        raise ValueError(f"BCH field degree {m} outside supported range 3..9")
    if t < 1:
        raise ValueError(f"error capacity t must be >= 1, got {t}")
    n = (1 << m) - 1
    f = GF2mField(m)
    g = BinPoly(1)
    covered: set[int] = set()
    for i in range(1, 2 * t + 1):
        if i % n in covered:
            continue
        coset = cyclotomic_coset(i % n, n)
        covered.update(coset)
        g = g * f.minimal_polynomial(i)
    k = n - g.degree
    if k <= 0:
        raise ValueError(
            f"generator polynomial absorbs the whole length: deg g = {g.degree} >= n = {n}"
        )
    return LinearCode(
        n,
        k,
        _cyclic_generator(g, n),
        family="BCH",
        metadata={
            "m": m,
            "t": t,
            "generator_poly": g.bits,
            "primitive_poly": PRIMITIVE_POLYS[m],
        },
    )


def _cyclic_generator(g: BinPoly, n: int) -> BitMatrix:
    """The rows x^i * g(x), i = 0..k-1, reduced to [I_k | P]: with g(0) = 1
    they are unit upper triangular on columns 0..k-1, so ``eliminate``
    takes those pivots and moves no column."""
    rows = [g.bits << i for i in range(n - g.degree)]
    eliminate(rows, range(n))
    return BitMatrix(n, tuple(rows))


# ---------------------------------------------------------------------------
# QR


def multiplicative_order_of_2(p: int) -> int:
    o, x = 1, 2 % p
    while x != 1:
        x = (2 * x) % p
        o += 1
    return o


def qr_factors(p: int) -> tuple[BinPoly, BinPoly]:
    """The two degree-(p-1)/2 factors of x^p - 1 (p prime, p = +-1 mod 8).

    Derived from the residue idempotent: with 2 a residue mod p, the residue
    polynomial sum_{r in Q} x^r has all residue-indexed roots or all
    non-residue-indexed roots of x^p - 1, so its gcd with x^p - 1 (after
    stripping a possible x + 1 factor) is one of the two factors; the other
    is x^p - 1 divided by it and by x + 1.  Which side the gcd gives is not
    checked here.
    """
    Q = quadratic_residues(p)
    if 2 not in Q:
        raise ValueError(
            f"2 is not a quadratic residue mod {p} (need p = +-1 mod 8, got {p % 8})"
        )
    theta = BinPoly.from_exponents(Q)
    x_p_1 = BinPoly((1 << p) | 1)
    g = poly_gcd(theta, x_p_1)
    x_plus_1 = BinPoly(0b11)
    head, rem = divmod(g, x_plus_1)
    if not rem:
        g = head
    if g.degree != (p - 1) // 2:
        raise ConsistencyError(
            f"QR({p}) generator degree {g.degree} != {(p - 1) // 2}"
        )
    if x_p_1 % g:
        raise ConsistencyError(f"QR({p}) generator does not divide x^{p} - 1")
    return g, x_p_1 // x_plus_1 // g


def qr_generator_poly(p: int) -> BinPoly:
    """Degree-(p-1)/2 generator polynomial of a binary QR code of length p.

    One of the two ``qr_factors``; they generate equivalent codes.  When the
    splitting field fits in the supported table range the root set is
    checked and the residue-side factor is returned.
    """
    g, other = qr_factors(p)
    m = multiplicative_order_of_2(p)
    if m in PRIMITIVE_POLYS:
        g = _qr_pick_residue_side(p, g, other, m)
    return g


def _qr_pick_residue_side(p: int, g: BinPoly, other: BinPoly, m: int) -> BinPoly:
    """Return the factor whose roots are alpha^r for r in Q, verified in GF(2^m)."""
    Q = quadratic_residues(p)
    f = GF2mField(m)
    # beta = alpha^((2^m - 1)/p) has multiplicative order exactly p
    beta = f.alpha_pow(f.order // p)
    if f.pow(beta, p) != 1 or beta == 1:
        raise ConsistencyError(f"QR({p}): alpha^((2^{m} - 1)/{p}) does not have order {p}")
    r0 = next(iter(Q))
    chosen = g if g.evaluate_in(f, f.pow(beta, r0)) == 0 else other
    for r in Q:
        if chosen.evaluate_in(f, f.pow(beta, r)) != 0:
            raise ConsistencyError(f"QR({p}) root check failed at residue {r}")
    return chosen


def build_qr(p: int) -> LinearCode:
    """Binary quadratic residue code of prime length p (p = +-1 mod 8).

    Dimension (p+1)/2, generated by the residue-side factor of x^p - 1.
    """
    g = qr_generator_poly(p)
    n, k = p, (p + 1) // 2
    return LinearCode(
        n,
        k,
        _cyclic_generator(g, n),
        family="QR",
        metadata={
            "p": p,
            "generator_poly": g.bits,
        },
    )


# ---------------------------------------------------------------------------
# identity


class Identity(NamedTuple):
    """What a generator proves about its code (see ``identify``)."""

    bch: int | None  # the designed distance of a narrow-sense BCH code
    qr: bool  # a binary quadratic residue code
    lower: int  # a lower bound on the minimum distance


def identify(generator: BitMatrix, hint: object) -> Identity:
    """What the code ``generator`` spans is, and a lower bound on its
    distance, proven from the generator (MacWilliams & Sloane, *The Theory
    of Error-Correcting Codes*: the BCH bound, ch. 7; QR codes, ch. 16).

    The generator polynomial ``hint`` (a code's ``metadata["generator_poly"]``)
    is used only when it is an int and after it is checked: g has degree
    n - k, divides x^n - 1, and divides every generator row.  The code is
    then the cyclic code C_g generated by g: a row divisible by g is
    a(x) g(x) with deg a < k, so the rows lie in C_g, whose dimension is
    k, and the k rows have rank k (the precondition below), so they span
    all of C_g.  Otherwise (a float, a str or a list hint, or rows that are
    not all multiples of g, say) nothing is proven:
    ``Identity(None, False, 1)``.

    - ``bch``: for n = 2^m - 1 (m in the field table), the designed distance
      delta when g's zeros, over the field's primitive alpha, are exactly
      the cyclotomic cosets of 1 .. delta - 1, with delta - 1 the run of
      zero exponents from 1: the narrow-sense code ``build_bch`` builds.
    - ``qr``: n = p prime, p = +-1 (mod 8), and g is one of the two
      ``qr_factors(p)``.
    - ``lower``: the larger of these, when they apply, else 1.
      - The BCH bound: if g has among its zeros alpha^b, .., alpha^(b+delta-2)
        (exponents mod n), every nonzero codeword has weight >= delta.
      - For a QR code, the square-root bound on the minimum odd-like weight
        d_o (MacWilliams & Sloane, ch. 16, section 6, Theorem 1): d_o^2 >=
        p, and d_o^2 - d_o + 1 >= p when p = -1 (mod 4).  The extended
        binary QR code is even and its automorphism group is transitive,
        so puncturing a minimum word of it at the extension coordinate
        shows that the minimum weight of the QR code is odd, and equal to
        d_o; the bound is rounded up to odd.

    Precondition: ``generator`` has full row rank.  Division alone cannot
    tell k rows of C_g from fewer independent ones.  ``LinearCode``, its one
    caller in the package, proves the rank first, in its ``basis``, and
    keeps the answer as ``identity``.
    """
    n, k = generator.cols, generator.nrows
    g = BinPoly(hint) if type(hint) is int and hint > 0 else None
    if (g is None or g.degree != n - k or BinPoly((1 << n) | 1) % g
            or any(BinPoly(r) % g for r in generator.rows)):
        return Identity(None, False, 1)
    bch, lower = None, 1
    m = n.bit_length()
    if n == (1 << m) - 1 and m in PRIMITIVE_POLYS:
        bch, lower = _bch_facts(g, GF2mField(m))
    qr = _is_prime(n) and n % 8 in (1, 7) and g in qr_factors(n)
    if qr:
        lower = max(lower, _qr_sqrt_bound(n))
    return Identity(bch, qr, lower)


def _bch_facts(g: BinPoly, f: GF2mField) -> tuple[int | None, int]:
    """(designed distance or None, BCH bound) of the cyclic code of length
    n = 2^m - 1 generated by g, over the field's generator alpha.  g's zeros
    are whole cyclotomic cosets, so g is evaluated at one representative of
    each.  The bound is 1 + the longest run of consecutive zero exponents
    (mod n); the designed distance is delta = 1 + the run from exponent 1,
    when the zeros are exactly the cosets of 1 .. delta - 1.  k >= 1, so
    some exponent is not a zero and every run ends."""
    n = f.order
    zeros: set[int] = set()
    seen: set[int] = set()
    for s in range(n):
        if s not in seen:
            coset = cyclotomic_coset(s, n)
            seen |= coset
            if g.evaluate_in(f, f.alpha_pow(s)) == 0:
                zeros |= coset

    def run(start: int) -> int:
        e = start
        while e % n in zeros:
            e += 1
        return e - start

    bound = 1 + max((run(s) for s in zeros if (s - 1) % n not in zeros), default=0)
    delta = 1 + run(1)
    narrow = set().union(*(cyclotomic_coset(i, n) for i in range(1, delta)))
    return (delta if zeros == narrow else None), bound


def _qr_sqrt_bound(p: int) -> int:
    """Least odd d with d^2 >= p, or with d^2 - d + 1 >= p if p = -1 (mod 8)."""
    d = 1
    while (d * d - d + 1 if p % 8 == 7 else d * d) < p:
        d += 1
    return d | 1


# ---------------------------------------------------------------------------
# double circulants


def _rotate_right(v: int, shift: int, width: int) -> int:
    shift %= width
    if shift == 0:
        return v
    mask = (1 << width) - 1
    return ((v << shift) | (v >> (width - shift))) & mask


def build_dcc(header: BitWord) -> LinearCode:
    """Rate-1/2 double-circulant code [I_k | A] from a circulant header.

    Row i of A is the header cyclically right-shifted by i positions.
    """
    k = header.length
    if k < 2:
        raise ValueError(f"header length {k} < 2")
    rows = tuple(
        (1 << i) | (_rotate_right(header.bits, i, k) << k) for i in range(k)
    )
    return LinearCode(
        2 * k,
        k,
        BitMatrix(2 * k, rows),
        family="DCC",
        metadata={"header": header.to01()},
    )


def build_qdc(p: int, corner: int = 0) -> LinearCode:
    """Bordered quadratic double-circulant code of length 2(p + 1).

    Requires a prime p = +-3 (mod 8).  The right block B has the bordered
    shape: corner entry (default 0), an all-ones first row and first column,
    and a p x p circulant body built from the residue polynomial
    b(x) = 1 + sum_{r in Q} x^r when p = 3 (mod 8) and sum_{r in Q} x^r when
    p = -3 (mod 8).
    """
    if p % 8 not in (3, 5):
        raise ValueError(f"p = {p} is not +-3 mod 8 (p mod 8 = {p % 8})")
    if corner not in (0, 1):
        raise ValueError(f"corner entry must be 0 or 1, got {corner}")
    Q = quadratic_residues(p)
    b = 0
    for r in Q:
        b |= 1 << r
    if p % 8 == 3:
        b |= 1
    k = p + 1
    n = 2 * k
    ones = (1 << p) - 1
    b_rows = [corner | (ones << 1)]
    b_rows += [1 | (_rotate_right(b, i, p) << 1) for i in range(p)]
    rows = tuple((1 << i) | (b_rows[i] << k) for i in range(k))
    return LinearCode(
        n,
        k,
        BitMatrix(n, rows),
        family="QDC",
        metadata={"p": p, "corner": corner, "b_poly": b},
    )


# ---------------------------------------------------------------------------
# matrix file I/O
#
# Text format: line 1 = "n k"; then k rows of n characters from {0, 1};
# then, for a code proven BCH or QR from a generator polynomial g, the line
# "# generator_poly 0x..." with g's coefficient bits in hex (bit i holds
# x^i).  g is the code's ``proven_poly``, the hint as it was when the code
# was built, whatever its ``metadata`` holds now.  Loading restores it as
# the ``generator_poly`` hint, which ``identify`` checks against the rows
# before it uses it, so the file adds no trust: the loaded code is GENERIC
# until ``identify`` proves it BCH or QR.  Files without the line load as
# before.


def save_code(code: LinearCode, dest: str | Path | TextIO) -> None:
    if hasattr(dest, "write"):
        _write_matrix(code, dest)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            _write_matrix(code, fh)


def _write_matrix(code: LinearCode, fh: TextIO) -> None:
    fh.write(f"{code.n} {code.k}\n")
    for i in range(code.k):
        fh.write(code.generator.row_word(i).to01())
        fh.write("\n")
    if code.proven_poly is not None:
        fh.write(f"# generator_poly {code.proven_poly:#x}\n")


def load_code(src: str | Path | TextIO) -> LinearCode:
    """Read a generator matrix file; verifies shape and full rank.  Lines
    after the k rows must be blank, but for one generator polynomial line."""
    if hasattr(src, "read"):
        return _read_matrix(src)
    with open(src, "r", encoding="ascii") as fh:
        return _read_matrix(fh)


def _read_matrix(fh: TextIO) -> LinearCode:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError(f"expected 'n k' header line, got {header!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"non-integer dimensions in header {header!r}") from None
    rows = []
    for i in range(k):
        line = fh.readline().strip()
        if len(line) != n:
            raise ValueError(
                f"row {i}: expected {n} symbols, got {len(line)}"
            )
        if set(line) - {"0", "1"}:
            raise ValueError(f"row {i}: symbols outside {{0,1}}")
        rows.append(line)
    metadata = {}
    for i, line in enumerate(fh, start=k + 2):
        hint = re.fullmatch(r"# generator_poly 0x([0-9a-f]+)", line.strip())
        if hint and not metadata:
            metadata["generator_poly"] = int(hint[1], 16)
        elif line.strip():
            raise ValueError(f"line {i}: unexpected text after the {k} rows: {line.strip()!r}")
    return LinearCode(n, k, BitMatrix.from_strings(rows), metadata=metadata)
