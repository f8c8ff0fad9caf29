"""Bit-packed GF(2) vectors, matrices, polynomials, and GF(2^m) fields.

Words and matrix rows are stored as Python integers where bit i is the
symbol at index i, index 0 being the first transmitted bit.  Binary
polynomials use the same packing with bit i as the coefficient of x^i,
so a word and the polynomial it represents are literally the same int.
Weight is a single popcount; XOR is a single int op.  The oracle and the
genetic scorer weigh codewords in uint64 lanes that ``to_lanes`` builds
from these rows.  ``unpack_rows`` and ``pack_rows`` convert such rows to
and from 0/1 numpy matrices for the vectorized code.  ``eliminate`` is
the package's Gauss-Jordan routine, always from scratch: a code's basis
(``LinearCode.basis``, reduced once when the code is built, which the OSD
decoder and the witness check read), the reduced cyclic rows of a BCH or
QR code, the OSD reference reduction, and the oracle's information sets
all run it.  The decoder reduces each word from the code's basis by a
low-rank update of its own (``osd._update``), which gives the rows
``eliminate`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConsistencyError, DimensionError

__all__ = [
    "BitWord",
    "BitMatrix",
    "BinPoly",
    "GF2mField",
    "PRIMITIVE_POLYS",
    "cyclotomic_coset",
    "eliminate",
    "poly_gcd",
    "xor_rows",
    "pack_rows",
    "unpack_rows",
    "to_lanes",
]


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True, slots=True)
class BitWord:
    """A fixed-length binary vector.

    ``bits`` packs the symbols into an int with bit i = symbol at index i.
    Immutable; XOR of equal-length words is a word of the same length.
    """

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in {self.length} positions")

    @classmethod
    def parse(cls, text: str) -> "BitWord":
        """Build from a string like ``"1001"``; leftmost char is index 0."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid symbol {ch!r} at index {i}")
        return cls(len(text), bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        return (self.bits >> index) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.length != other.length:
            raise DimensionError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitWord(self.length, self.bits ^ other.bits)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.to01()


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class BitMatrix:
    """A binary matrix stored as one packed int per row (bit j = column j)."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError(f"negative cols {self.cols}")
        for i, r in enumerate(self.rows):
            if r < 0 or r >> self.cols:
                raise ValueError(f"row {i} does not fit in {self.cols} columns")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        """Rows parsed as ``BitWord.parse`` does; all rows of one length."""
        words = [BitWord.parse(s) for s in rows]
        cols = words[0].length if words else 0
        if any(w.length != cols for w in words):
            raise DimensionError("ragged rows")
        return cls(cols, tuple(w.bits for w in words))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_word(self, i: int) -> BitWord:
        return BitWord(self.cols, self.rows[i])

    def rank(self) -> int:
        """Row rank over GF(2) by elimination on a scratch copy."""
        return len(eliminate(list(self.rows), range(self.cols)))


def xor_rows(rows: tuple[int, ...], mask: int) -> int:
    """XOR of ``rows[i]`` over the set bits i of ``mask``."""
    acc = 0
    while mask:
        acc ^= rows[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return acc


def unpack_rows(rows: Iterable[int], n: int) -> np.ndarray:
    """Packed int rows as a 0/1 uint8 matrix with ``n`` columns."""
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)
    return np.unpackbits(arr, axis=1, count=n, bitorder="little")


def pack_rows(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 uint8 matrix as ints with bit j = column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def to_lanes(rows: list[int] | tuple[int, ...], n: int) -> np.ndarray:
    """Rows, each below bit n, as a (len(rows), ceil(n / 64)) uint64 array."""
    size = 8 * ((n + 63) // 64)
    data = b"".join(row.to_bytes(size, "little") for row in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), size // 8)


def eliminate(rows: list[int], cols: Iterable[int]) -> list[int]:
    """In-place Gauss-Jordan taking the first len(rows) independent columns
    of ``cols``, in that order, as pivots; returns the pivots in the order
    taken.

    With r pivots, row i < r is afterwards the only row with a 1 in column
    pivots[i], and rows r.. are zero on every pivot column.  The row space
    is kept.  The pivots depend only on the row space and ``cols``, and the
    reduced pivot rows, G[:, piv]^-1 G, only on the row space and the
    pivots, not on the basis the rows start from.
    """
    k = len(rows)
    piv: list[int] = []
    for c in cols:
        r = len(piv)
        if r == k:
            break
        bit = 1 << c
        p = next((i for i in range(r, k) if rows[i] & bit), None)
        if p is None:
            continue
        pr = rows[p]
        for i in range(k):
            if i != p and rows[i] & bit:
                rows[i] ^= pr
        rows[r], rows[p] = pr, rows[r]
        piv.append(c)
    return piv


# ---------------------------------------------------------------------------
# binary polynomials


@dataclass(frozen=True, order=True)
class BinPoly:
    """Polynomial over GF(2), packed with bit i = coefficient of x^i."""

    bits: int = 0

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient pack")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "BinPoly":
        """Coefficients lowest degree first."""
        v = 0
        for i, c in enumerate(coeffs):
            if c not in (0, 1):
                raise ValueError(f"coefficient {c!r} is not a bit")
            v |= c << i
        return cls(v)

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "BinPoly":
        v = 0
        for e in exponents:
            v ^= 1 << e
        return cls(v)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        a, b, r = self.bits, other.bits, 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return BinPoly(r)

    def __divmod__(self, other: "BinPoly") -> tuple["BinPoly", "BinPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.bits, other.bits
        db = b.bit_length() - 1
        q = 0
        while a and a.bit_length() - 1 >= db:
            s = a.bit_length() - 1 - db
            q |= 1 << s
            a ^= b << s
        return BinPoly(q), BinPoly(a)

    def __mod__(self, other: "BinPoly") -> "BinPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "BinPoly") -> "BinPoly":
        return divmod(self, other)[0]

    def evaluate_in(self, f: "GF2mField", point: int) -> int:
        """Evaluate at a GF(2^m) element by Horner's rule."""
        acc = 0
        for i in range(self.degree, -1, -1):
            acc = f.mul(acc, point) ^ ((self.bits >> i) & 1)
        return acc

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            if (self.bits >> e) & 1:
                terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
        return " + ".join(terms)


def poly_gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """gcd in GF(2)[x]; monic automatically."""
    x, y = a, b
    while y:
        x, y = y, x % y
    return x


# ---------------------------------------------------------------------------
# GF(2^m)

# Lexicographically smallest primitive polynomial per extension degree,
# packed as ints (bit i = coefficient of x^i).  Fixing one choice per m keeps
# BCH generator polynomials reproducible across runs and machines.
PRIMITIVE_POLYS: dict[int, int] = {
    2: 0b111,                    # x^2 + x + 1
    3: 0b1011,                   # x^3 + x + 1
    4: 0b10011,                  # x^4 + x + 1
    5: 0b100101,                 # x^5 + x^2 + 1
    6: 0b1000011,                # x^6 + x + 1
    7: 0b10000011,               # x^7 + x + 1
    8: 0b100011101,              # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,             # x^9 + x^4 + 1
    10: 0b10000001001,           # x^10 + x^3 + 1
    11: 0b100000000101,          # x^11 + x^2 + 1
    12: 0b1000001010011,         # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,        # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000101011,       # x^14 + x^5 + x^3 + x + 1
    15: 0b1000000000000011,      # x^15 + x + 1
    16: 0b10000000000101101,     # x^16 + x^5 + x^3 + x^2 + 1
}


class GF2mField:
    """GF(2^m) with log/antilog tables over a fixed primitive polynomial.

    Elements are ints in [0, 2^m): bit i is the coefficient of alpha^i in
    the polynomial basis.  alpha (= x, the int 2) is primitive by choice
    of the modulus, so every nonzero element is a power of alpha.
    """

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLYS:
            raise ValueError(
                f"extension degree {m} outside supported range "
                f"2..{max(PRIMITIVE_POLYS)}"
            )
        self.m = m
        self.order = (1 << m) - 1
        self.primitive_poly = BinPoly(PRIMITIVE_POLYS[m])
        exp = [0] * (2 * self.order)
        log = [0] * (1 << m)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= PRIMITIVE_POLYS[m]
        # primitive: x returns to 1 after 2^m - 1 steps and not before
        if x != 1 or 1 in exp[1 : self.order]:
            raise ConsistencyError(f"primitive polynomial table entry for m = {m} is not primitive")
        exp[self.order:] = exp[: self.order]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def alpha_pow(self, e: int) -> int:
        """alpha^e (exponent taken mod 2^m - 1)."""
        return self._exp[e % self.order]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % self.order]

    def minimal_polynomial(self, exponent: int) -> BinPoly:
        """Minimal polynomial of alpha^exponent over GF(2).

        Product of (x - alpha^j) over the cyclotomic coset of the exponent;
        the result provably has coefficients in GF(2).
        """
        coset = cyclotomic_coset(exponent % self.order, self.order)
        coeffs = [1]  # field-element coefficients, lowest degree first
        for j in coset:
            root = self.alpha_pow(j)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] ^= c
                nxt[i] ^= self.mul(c, root)
            coeffs = nxt
        if any(c not in (0, 1) for c in coeffs):
            raise ConsistencyError(
                f"minimal polynomial of alpha^{exponent} left GF(2): {coeffs}"
            )
        return BinPoly.from_coeffs(coeffs)


def cyclotomic_coset(s: int, n: int) -> frozenset[int]:
    """The 2-cyclotomic coset of s mod n: {s, 2s, 4s, ...} mod n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {n}")
    if not 0 <= s < n:
        raise ValueError(f"residue {s} out of range mod {n}")
    out = set()
    x = s
    while x not in out:
        out.add(x)
        x = (2 * x) % n
    return frozenset(out)
