"""Arithmetic over GF(4) with bit-packed vectors.

GF(4) is realized as GF(2)[x]/(x^2 + x + 1).  An element a + b*w (w the
class of x) is stored as the two-bit integer digit d = 2*b + a, so

    0 -> 0,  1 -> 1,  2 -> w,  3 -> w + 1.

Addition of digits is XOR.  The multiplication table is generated at
import time from an explicit polynomial multiply-and-reduce, not written
out by hand, so the table is its own derivation.

Vectors pack one digit per two bits of a Python int: coordinate i lives
at bits 2i and 2i+1.  Vector addition is a single integer XOR regardless
of dimension.  Scalar multiplication and dot products work on the two
bit-planes (low plane = coefficient of 1, high plane = coefficient of w):
for x with planes (a, b) and scalar w the product has planes (b, a^b),
and for scalar w+1 = w^2 it has planes (a^b, a).  Elementwise products
of x = (a, b) and y = (c, d) have low plane (a&c)^(b&d) and high plane
(a&d)^(b&c)^(b&d); a dot product XOR-folds those planes, which is a
parity popcount per plane.  Nothing in this module touches floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

_DIGITS = "0123"


def _poly_mul_mod(a: int, b: int) -> int:
    # carry-less multiply of two-bit polynomials, reduced mod x^2 + x + 1 (0b111)
    prod = 0
    for i in range(2):
        if (b >> i) & 1:
            prod ^= a << i
    for i in (3, 2):
        if (prod >> i) & 1:
            prod ^= 0b111 << (i - 2)
    return prod


MUL = tuple(tuple(_poly_mul_mod(a, b) for b in range(4)) for a in range(4))
INV = (None, 1, 3, 2)

assert all(MUL[a][INV[a]] == 1 for a in range(1, 4))


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return INV[a]


def _lo_mask(dim: int) -> int:
    # 0b0101...01 with dim pairs: (4^dim - 1) / 3
    return ((1 << (2 * dim)) - 1) // 3


def _scale(bits: int, c: int, mask: int) -> int:
    """c times a packed vector, mask = _lo_mask(dim), on the two bit-planes."""
    if c < 2:
        return bits if c else 0
    lo = bits & mask
    hi = (bits >> 1) & mask
    if c == 2:  # w * (a + b*w) = b + (a^b)*w
        return ((lo ^ hi) << 1) | hi
    return (lo << 1) | (lo ^ hi)  # (w+1) * (a + b*w) = (a^b) + a*w


def _dot(x: int, y: int, mask: int) -> int:
    """Dot product of two packed vectors, mask = _lo_mask(dim): the parities
    of the two planes of their elementwise product."""
    a, b = x & mask, (x >> 1) & mask
    c, d = y & mask, (y >> 1) & mask
    lo = (a & c) ^ (b & d)
    hi = (a & d) ^ (b & c) ^ (b & d)
    return ((hi.bit_count() & 1) << 1) | (lo.bit_count() & 1)


def _lead(bits: int) -> int:
    """The first nonzero coordinate of a nonzero packed vector."""
    return ((bits & -bits).bit_length() - 1) >> 1


@dataclass(frozen=True, slots=True, repr=False)
class FVector:
    """Immutable vector over GF(4), digits packed two bits per coordinate."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if self.bits < 0 or self.bits >> (2 * self.dim):
            raise ValueError("packed value out of range for dimension")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_digits(cls, digits: Iterable[int]) -> "FVector":
        bits = 0
        dim = 0
        for d in digits:
            if not 0 <= d <= 3:
                raise ValueError(f"digit {d!r} outside 0..3")
            bits |= d << (2 * dim)
            dim += 1
        return cls(dim, bits)

    @classmethod
    def from_text(cls, text: str) -> "FVector":
        """Parse a digit string; character i is coordinate i."""
        try:
            return cls.from_digits(_DIGITS.index(ch) for ch in text.strip())
        except ValueError:
            raise ValueError(f"invalid vector text {text!r}") from None

    @classmethod
    def zeros(cls, dim: int) -> "FVector":
        return cls(dim, 0)

    @classmethod
    def unit(cls, dim: int, index: int) -> "FVector":
        if not 0 <= index < dim:
            raise ValueError("unit index out of range")
        return cls(dim, 1 << (2 * index))

    # -- accessors ------------------------------------------------------

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError("coordinate out of range")
        return (self.bits >> (2 * i)) & 3

    def digits(self) -> tuple[int, ...]:
        return tuple((self.bits >> (2 * i)) & 3 for i in range(self.dim))

    def to_text(self) -> str:
        return "".join(_DIGITS[d] for d in self.digits())

    def __repr__(self) -> str:
        return f"FVector({self.to_text()!r})"

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_zero_one(self) -> bool:
        """True when every coordinate lies in {0, 1}."""
        return (self.bits >> 1) & _lo_mask(self.dim) == 0

    # -- arithmetic -----------------------------------------------------

    def _check_dim(self, other: "FVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "FVector") -> "FVector":
        self._check_dim(other)
        return FVector(self.dim, self.bits ^ other.bits)

    def scalar_mul(self, c: int) -> "FVector":
        if c == 1:
            return self
        if not 0 <= c <= 3:
            raise ValueError("scalar outside 0..3")
        return FVector(self.dim, _scale(self.bits, c, _lo_mask(self.dim)))

    def dot(self, other: "FVector") -> int:
        self._check_dim(other)
        return _dot(self.bits, other.bits, _lo_mask(self.dim))

    def slice(self, start: int, stop: int) -> "FVector":
        if not 0 <= start <= stop <= self.dim:
            raise ValueError("slice bounds out of range")
        width = stop - start
        return FVector(width, (self.bits >> (2 * start)) & ((1 << (2 * width)) - 1))


@dataclass(frozen=True, slots=True, repr=False)
class FMat:
    """Matrix over GF(4): an immutable tuple of packed row vectors."""

    rows: tuple[FVector, ...]  # from any sequence of rows

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        m = rows[0].dim
        if any(r.dim != m for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @property
    def h(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return self.rows[0].dim

    def matvec(self, v: FVector) -> FVector:
        if v.dim != self.m:
            raise ValueError(f"dimension mismatch: matrix has {self.m} columns, vector {v.dim}")
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= row.dot(v) << (2 * i)
        return FVector(self.h, bits)

    def __repr__(self) -> str:
        return f"FMat([{', '.join(r.to_text() for r in self.rows)}])"


def outer(a: FVector, v: FVector) -> FMat:
    """Rank-one matrix a v^T (entry (i, j) = a[i] * v[j])."""
    return FMat([v.scalar_mul(ai) for ai in a.digits()])


def rank_and_kernel(mat: FMat) -> tuple[int, FVector | None]:
    """Rank of mat and, if column-rank deficient, a kernel vector.

    Gaussian elimination over GF(4) on the rows' packed ints, a row at a
    time: a row clears its first nonzero column with one XOR of a multiple
    of that column's pivot, or becomes its pivot, scaled to a leading 1.
    When the rank is below m the witness is the kernel vector whose first
    free coordinate is 1 and whose other free coordinates are 0, read off
    the pivots by back substitution in descending column order: it is
    nonzero and row.dot(kernel) == 0 for every row, an explicit witness
    that x -> mat x is not injective.
    """
    m = mat.m
    mask = _lo_mask(m)
    pivots: dict[int, int] = {}  # column -> its pivot row, scaled to a leading 1
    for row in mat.rows:
        r = row.bits
        while r:
            col = _lead(r)
            d = (r >> (2 * col)) & 3
            p = pivots.get(col)
            if p is None:
                pivots[col] = _scale(r, inv(d), mask)
                break
            r ^= _scale(p, d, mask)
    rank = len(pivots)
    if rank == m:
        return rank, None
    free_col = next(c for c in range(m) if c not in pivots)
    kernel = 1 << (2 * free_col)
    for col in sorted(pivots, reverse=True):  # the later coordinates are already solved
        kernel |= _dot(pivots[col], kernel, mask) << (2 * col)  # -x = x in char 2
    return rank, FVector(m, kernel)
