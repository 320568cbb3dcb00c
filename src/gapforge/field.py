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
parity popcount per plane.

Distances are exact `fractions.Fraction` values; nothing in this module
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

ORDER = 4
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


def add(a: int, b: int) -> int:
    """Sum of two field elements (characteristic 2, so XOR)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    return MUL[a][b]


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return INV[a]


def _lo_mask(dim: int) -> int:
    # 0b0101...01 with dim pairs: (4^dim - 1) / 3
    return ((1 << (2 * dim)) - 1) // 3


class FVector:
    """Immutable vector over GF(4), digits packed two bits per coordinate."""

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if bits < 0 or bits >> (2 * dim):
            raise ValueError("packed value out of range for dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("FVector is immutable")

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
    def ones(cls, dim: int) -> "FVector":
        return cls(dim, _lo_mask(dim))

    @classmethod
    def unit(cls, dim: int, index: int, value: int = 1) -> "FVector":
        if not 0 <= index < dim:
            raise ValueError("unit index out of range")
        if not 0 <= value <= 3:
            raise ValueError("value outside 0..3")
        return cls(dim, value << (2 * index))

    # -- accessors ------------------------------------------------------

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError("coordinate out of range")
        return (self.bits >> (2 * i)) & 3

    def digits(self) -> tuple[int, ...]:
        return tuple((self.bits >> (2 * i)) & 3 for i in range(self.dim))

    def to_text(self) -> str:
        return "".join(_DIGITS[d] for d in self.digits())

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits())

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FVector)
            and self.dim == other.dim
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))

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

    __sub__ = __add__  # characteristic 2

    def scalar_mul(self, c: int) -> "FVector":
        if c == 0:
            return FVector(self.dim, 0)
        if c == 1:
            return self
        mask = _lo_mask(self.dim)
        lo = self.bits & mask
        hi = (self.bits >> 1) & mask
        if c == 2:  # w * (a + b*w) = b + (a^b)*w
            return FVector(self.dim, ((lo ^ hi) << 1) | hi)
        if c == 3:  # (w+1) * (a + b*w) = (a^b) + a*w
            return FVector(self.dim, (lo << 1) | (lo ^ hi))
        raise ValueError("scalar outside 0..3")

    def dot(self, other: "FVector") -> int:
        self._check_dim(other)
        mask = _lo_mask(self.dim)
        a = self.bits & mask
        b = (self.bits >> 1) & mask
        c = other.bits & mask
        d = (other.bits >> 1) & mask
        lo = (a & c) ^ (b & d)
        hi = (a & d) ^ (b & c) ^ (b & d)
        return ((hi.bit_count() & 1) << 1) | (lo.bit_count() & 1)

    def concat(self, other: "FVector") -> "FVector":
        return FVector(self.dim + other.dim, self.bits | (other.bits << (2 * self.dim)))

    def slice(self, start: int, stop: int) -> "FVector":
        if not 0 <= start <= stop <= self.dim:
            raise ValueError("slice bounds out of range")
        width = stop - start
        return FVector(width, (self.bits >> (2 * start)) & ((1 << (2 * width)) - 1))

    def hamming_differences(self, other: "FVector") -> int:
        self._check_dim(other)
        z = self.bits ^ other.bits
        return ((z | (z >> 1)) & _lo_mask(self.dim)).bit_count()


def dist(v: FVector, u: FVector) -> Fraction:
    """Normalized Hamming distance as an exact fraction."""
    if v.dim == 0:
        raise ValueError("distance undefined for dimension 0")
    return Fraction(v.hamming_differences(u), v.dim)


def concat_all(parts: Sequence[FVector]) -> FVector:
    bits = 0
    dim = 0
    for p in parts:
        bits |= p.bits << (2 * dim)
        dim += p.dim
    return FVector(dim, bits)


def block_linear(a: FVector, v: FVector) -> FVector:
    """Contract blocks of v against a.

    For a of dimension d and v of dimension d*n, coordinate j of the
    result is sum_i a[i] * v[j*d + i].  With d = 1 this is plain scalar
    multiplication of v by a[0]; it is linear in both arguments and
    block_linear(a, g) recovers a^T applied blockwise.
    """
    d = a.dim
    if d == 0:
        raise ValueError("contraction vector must have positive dimension")
    if v.dim % d != 0:
        raise ValueError(f"dimension {v.dim} not a multiple of block size {d}")
    n = v.dim // d
    out = 0
    abits = a.bits
    vbits = v.bits
    blockmask = (1 << (2 * d)) - 1
    for j in range(n):
        block = FVector(d, (vbits >> (2 * d * j)) & blockmask)
        out |= FVector(d, abits).dot(block) << (2 * j)
    return FVector(n, out)


class FMat:
    """Matrix over GF(4): an immutable tuple of packed row vectors."""

    __slots__ = ("h", "m", "rows")

    def __init__(self, rows: Sequence[FVector]):
        rows = tuple(rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        m = rows[0].dim
        if any(r.dim != m for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "h", len(rows))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("FMat is immutable")

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "FMat":
        return cls([FVector.from_digits(row) for row in entries])

    @classmethod
    def zeros(cls, h: int, m: int) -> "FMat":
        return cls([FVector.zeros(m)] * h)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def matvec(self, v: FVector) -> FVector:
        if v.dim != self.m:
            raise ValueError(f"dimension mismatch: matrix has {self.m} columns, vector {v.dim}")
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= row.dot(v) << (2 * i)
        return FVector(self.h, bits)

    def flatten(self) -> FVector:
        """Rows concatenated in row-major order."""
        return concat_all(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FMat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"FMat([{', '.join(r.to_text() for r in self.rows)}])"


def outer(a: FVector, v: FVector) -> FMat:
    """Rank-one matrix a v^T (entry (i, j) = a[i] * v[j])."""
    return FMat([v.scalar_mul(ai) for ai in a.digits()])


def rank_and_kernel(rows: Sequence[FVector]) -> tuple[int, FVector | None]:
    """Rank of the row list and, if column-rank deficient, a kernel vector.

    Gaussian elimination over GF(4) on packed rows.  The kernel vector,
    when present, satisfies row.dot(kernel) == 0 for every row and is
    nonzero, giving an explicit witness that the stacked map is not
    injective.
    """
    if not rows:
        raise ValueError("need at least one row")
    m = rows[0].dim
    if any(r.dim != m for r in rows):
        raise ValueError("ragged rows")
    work = [r for r in rows if not r.is_zero()]
    pivots: list[tuple[int, FVector]] = []  # (pivot column, normalized row)
    for col in range(m):
        pivot_row = None
        for idx, r in enumerate(work):
            if r[col] != 0:
                pivot_row = work.pop(idx)
                break
        if pivot_row is None:
            continue
        pivot_row = pivot_row.scalar_mul(inv(pivot_row[col]))
        work = [
            r + pivot_row.scalar_mul(r[col]) if r[col] != 0 else r
            for r in work
        ]
        work = [r for r in work if not r.is_zero()]
        pivots = [
            (pc, pr + pivot_row.scalar_mul(pr[col]) if pr[col] != 0 else pr)
            for pc, pr in pivots
        ]
        pivots.append((col, pivot_row))
    rank = len(pivots)
    if rank == m:
        return rank, None
    pivot_cols = {pc for pc, _ in pivots}
    free_col = next(c for c in range(m) if c not in pivot_cols)
    digits = [0] * m
    digits[free_col] = 1
    for pc, pr in pivots:
        digits[pc] = pr[free_col]  # x_pivot = -coef = coef in char 2
    return rank, FVector.from_digits(digits)
