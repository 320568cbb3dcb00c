"""Encoding schemes: tuples of GF(4) matrices and their quality conditions.

A scheme is a tuple (A_1, ..., A_ell) of h x m matrices.  It induces two
encoders over a vector v in F^m:

    g(v)      = (A_1 v, ..., A_ell v)          in F^(ell*h)
    f(a, v)   = (a^T A_1 v, ..., a^T A_ell v)  in F^ell,   a in F^h

so f(a, v) = block_linear(a, g(v)) coordinate for coordinate.

Against a finite test set V (with sum target t adjoined) a scheme is
good when three conditions hold:

  (injective)   g(v) != 0 for every nonzero v in F^m;
  (separating)  for nonzero a, f(a, .) is injective on V;
  (self-corr)   f(a, v + w) != f(a', u + w) for all w in V, distinct
                v, u in V \\ {w}, and nonzero a, a'.

Random schemes satisfy all three with constant probability once
ell >= 2 log2 |V| + 2h; `derandomize_scheme` constructs one
deterministically with coordinate selectors plus greedy rows chosen by
conditional expectations.

For a single random matrix A and fixed (b, v) != scalar-aligned (c, u),
the events b^T A v = c^T A u hit exactly a 1/4 fraction of matrices:
b^T A v equals the dot product of A flattened with outer(b, v)
flattened, so the difference of the two forms is a nonzero linear
functional of A's entries.  `collision_frequency` measures this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .errors import BudgetExceededError
from .field import FMat, FVector, MUL, block_linear, outer, rank_and_kernel
from .rng import SplitMix64

_MUL_NP = np.array(MUL, dtype=np.uint8)
_INV_NP = np.array([0, 1, 3, 2], dtype=np.uint8)


@dataclass(frozen=True)
class EncodingScheme:
    """Matrices A_1..A_ell, all h x m, with a provenance note.

    provenance is one of "seeded-random(seed=S)", "derandomized", or
    "explicit" for hand-built schemes.
    """

    h: int
    m: int
    ell: int
    mats: tuple[FMat, ...]
    provenance: str

    def __post_init__(self):
        if self.ell != len(self.mats):
            raise ValueError("ell disagrees with number of matrices")
        if self.ell < 1:
            raise ValueError("need at least one matrix")
        for A in self.mats:
            if A.h != self.h or A.m != self.m:
                raise ValueError("matrix shape mismatch")
        if not self.provenance:
            raise ValueError("provenance must be nonempty")


def sample_scheme(seed: int, h: int, m: int, ell: int) -> EncodingScheme:
    """Scheme with entries drawn from SplitMix64(seed).

    Draw order is fixed for reproducibility: matrices A_1 upward, rows
    top to bottom, columns left to right, one generator word per entry,
    the digit being the word's top two bits.
    """
    if min(h, m, ell) < 1:
        raise ValueError("h, m, ell must be positive")
    gen = SplitMix64(seed)
    mats = []
    for _ in range(ell):
        rows = []
        for _ in range(h):
            rows.append(FVector.from_digits(gen.next_digit() for _ in range(m)))
        mats.append(FMat(rows))
    return EncodingScheme(h, m, ell, tuple(mats), f"seeded-random(seed={seed})")


def encode_g(scheme: EncodingScheme, v: FVector) -> FVector:
    """Concatenation (A_1 v, ..., A_ell v), dimension ell*h."""
    bits = 0
    for i, A in enumerate(scheme.mats):
        bits |= A.matvec(v).bits << (2 * scheme.h * i)
    return FVector(scheme.ell * scheme.h, bits)


def encode_f(scheme: EncodingScheme, a: FVector, v: FVector) -> FVector:
    """(a^T A_1 v, ..., a^T A_ell v), dimension ell."""
    if a.dim != scheme.h:
        raise ValueError(f"contraction vector dimension {a.dim} != h = {scheme.h}")
    bits = 0
    for i, A in enumerate(scheme.mats):
        bits |= a.dot(A.matvec(v)) << (2 * i)
    return FVector(scheme.ell, bits)


def nonzero_vectors(dim: int):
    for packed in range(1, 4**dim):
        yield FVector(dim, packed)


@dataclass(frozen=True)
class ConditionWitness:
    """Counterexample to one scheme condition.

    condition is "injective", "separating", or "self-correcting";
    the vectors are the objects that collide (content depends on the
    condition, see check_scheme).
    """

    condition: str
    alphas: tuple[FVector, ...]
    vectors: tuple[FVector, ...]


@dataclass(frozen=True)
class SchemeReport:
    cond_injective: bool
    cond_separating: bool
    cond_self_correcting: bool
    witness: ConditionWitness | None

    @property
    def all_pass(self) -> bool:
        return self.cond_injective and self.cond_separating and self.cond_self_correcting


def check_scheme(
    scheme: EncodingScheme,
    test_set: Sequence[FVector],
    budget: int = 10_000_000,
) -> SchemeReport:
    """Decide the three conditions for the scheme against a test set.

    Injectivity of g on all of F^m is decided exactly by the rank of the
    stacked ell*h x m matrix (a kernel vector is the witness), not by
    enumerating F^m.  The separation and self-correction conditions are
    checked by hashing f-values over the test set; their cost is about
    4^h * |V| and 4^h * |V|^2 evaluations, guarded by the budget.

    The report carries at most one witness: the first failure in the
    order injective, separating, self-correcting.
    """
    V = list(test_set)
    if not V:
        raise ValueError("test set must be nonempty")
    if any(v.dim != scheme.m for v in V):
        raise ValueError("test vector dimension differs from scheme")
    if len(set(V)) != len(V):
        raise ValueError("test set has duplicates")
    cost = (4**scheme.h) * len(V) * max(len(V), 1)
    if cost > budget:
        raise BudgetExceededError(
            f"condition checks need about {cost} evaluations",
            needed=cost,
            budget=budget,
        )

    witness = None

    rank, kernel = rank_and_kernel([row for A in scheme.mats for row in A.rows])
    cond_inj = rank == scheme.m
    if not cond_inj and witness is None:
        witness = ConditionWitness("injective", (), (kernel,))

    cond_sep = True
    for a in nonzero_vectors(scheme.h):
        seen: dict[int, FVector] = {}
        for v in V:
            key = encode_f(scheme, a, v).bits
            if key in seen and seen[key] != v:
                cond_sep = False
                if witness is None:
                    witness = ConditionWitness("separating", (a,), (seen[key], v))
                break
            seen[key] = v
        if not cond_sep:
            break

    cond_self = True
    for w in V:
        seen_pairs: dict[int, tuple[FVector, FVector]] = {}
        for x in V:
            if x == w:
                continue
            for a in nonzero_vectors(scheme.h):
                key = encode_f(scheme, a, x + w).bits
                prev = seen_pairs.get(key)
                if prev is not None and prev[1] != x:
                    cond_self = False
                    if witness is None:
                        witness = ConditionWitness(
                            "self-correcting", (prev[0], a), (prev[1], x, w)
                        )
                    break
                seen_pairs[key] = (a, x)
            if not cond_self:
                break
        if not cond_self:
            break

    return SchemeReport(cond_inj, cond_sep, cond_self, witness)


# -- rank-one agreement frequency ----------------------------------------


def _validate_collision_args(b: FVector, c: FVector, v: FVector, u: FVector) -> None:
    if b.dim != c.dim or v.dim != u.dim:
        raise ValueError("shape mismatch between the two bilinear forms")
    if b.is_zero() or c.is_zero():
        raise ValueError("b and c must be nonzero")
    for s in (1, 2, 3):
        if v == u.scalar_mul(s):
            raise ValueError("v must not be a scalar multiple of u")


def collision_frequency(
    b: FVector,
    c: FVector,
    v: FVector,
    u: FVector,
    samples: int,
    seed: int,
    require_valid: bool = True,
) -> Fraction:
    """Monte Carlo frequency of b^T A v == c^T A u over uniform A.

    For admissible inputs (b, c nonzero; v not a scalar multiple of u)
    the true value is exactly 1/4.  With require_valid=False degenerate
    inputs are measured as-is (e.g. b == c, v == u gives frequency 1).
    Sampling uses numpy's seeded generator; both bilinear forms are
    evaluated directly.
    """
    if require_valid:
        _validate_collision_args(b, c, v, u)
    if samples < 1:
        raise ValueError("need at least one sample")
    h, m = b.dim, v.dim
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 4, size=(samples, h, m), dtype=np.uint8)

    def form(lhs: FVector, rhs: FVector) -> np.ndarray:
        rv = np.array(rhs.digits(), dtype=np.uint8)
        Av = np.bitwise_xor.reduce(_MUL_NP[A, rv[None, None, :]], axis=2)
        lv = np.array(lhs.digits(), dtype=np.uint8)
        return np.bitwise_xor.reduce(_MUL_NP[lv[None, :], Av], axis=1)

    hits = int(np.count_nonzero(form(b, v) == form(c, u)))
    return Fraction(hits, samples)


def collision_frequency_exhaustive(
    b: FVector, c: FVector, v: FVector, u: FVector, budget: int = 1 << 22
) -> Fraction:
    """Exact agreement frequency over every matrix A in F^(h x m)."""
    h, m = b.dim, v.dim
    total = 4 ** (h * m)
    if total > budget:
        raise BudgetExceededError(
            f"would enumerate {total} matrices", needed=total, budget=budget
        )
    hits = 0
    for digits in itertools.product(range(4), repeat=h * m):
        A = FMat.from_entries([digits[i * m : (i + 1) * m] for i in range(h)])
        if b.dot(A.matvec(v)) == c.dot(A.matvec(u)):
            hits += 1
    return Fraction(hits, total)


# -- derandomization ------------------------------------------------------


def derandomize_projections(m: int, h: int) -> list[FMat]:
    """Coordinate selectors: A_j picks block j of an m-vector.

    Row i of A_j is the unit vector at column j*h + i, or zero past the
    last column when h does not divide m, so g(v) = (A_1 v, ..., A_n v)
    is v itself chopped into ceil(m/h) zero-padded blocks, which is
    injective on all of F^m.
    """
    if m < 1 or h < 1:
        raise ValueError("m and h must be positive")
    return [
        FMat([FVector.unit(m, j + i) if j + i < m else FVector.zeros(m) for i in range(h)])
        for j in range(0, m, h)
    ]


def conditional_expectation_vector(constraints) -> FVector:
    """Greedy vector a with few zero dot products against the constraints.

    Input: N nonzero vectors over F^D (sequence of FVector or a numpy
    uint8 array of digit rows).  The uniform-random expectation of
    #{i : <a, C_i> = 0} is N/4; fixing coordinates left to right and
    minimizing the conditional expectation at each step (ties: smallest
    digit, ordered 0 < 1 < w < w+1) yields a with zero count at most
    floor(N/4).

    At step j only constraints whose last nonzero coordinate is j can
    become decided-zero, and each is zeroed by exactly one digit choice,
    so the argmin reduces to a frequency count over those rows.
    """
    if isinstance(constraints, np.ndarray):
        C = np.ascontiguousarray(constraints, dtype=np.uint8)
        if C.ndim != 2:
            raise ValueError("constraint array must be 2-dimensional")
    else:
        rows = list(constraints)
        if not rows:
            raise ValueError("need at least one constraint")
        C = np.array([r.digits() for r in rows], dtype=np.uint8)
    n, d = C.shape
    if n == 0 or d == 0:
        raise ValueError("need at least one constraint of positive dimension")
    nonzero = C != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("constraints must be nonzero vectors")
    lastnz = d - 1 - np.argmax(nonzero[:, ::-1], axis=1)

    partial = np.zeros(n, dtype=np.uint8)  # running dot with chosen prefix
    digits = []
    for j in range(d):
        col = C[:, j]
        closing = lastnz == j
        if closing.any():
            # the digit that zeroes row i is partial_i * inv(col_i)
            needed = _MUL_NP[partial[closing], _INV_NP[col[closing]]]
            counts = np.bincount(needed, minlength=4)
            choice = int(np.argmin(counts))  # argmin takes the first = smallest digit
        else:
            choice = 0
        digits.append(choice)
        if choice:
            partial ^= _MUL_NP[choice, col]
    return FVector.from_digits(digits)


def zero_dot_count(a: FVector, constraints: Sequence[FVector]) -> int:
    return sum(1 for c in constraints if a.dot(c) == 0)


@dataclass(frozen=True)
class DerandomizationStats:
    n_constraints: int
    rounds: int


def derandomize_scheme(
    test_set: Sequence[FVector],
    h: int,
    m: int,
    budget: int = 10_000_000,
) -> tuple[EncodingScheme, DerandomizationStats]:
    """Deterministic scheme passing all three conditions for the test set.

    Starts from ceil(m/h) coordinate selectors (injectivity is then
    structural) and encodes the remaining requirements as rank-one
    constraint matrices, flattened row-major to F^(h*m):

      separating       outer(a, v + u)             a != 0, v != u in V
      self-correcting  outer(a, v+w) + outer(a', u+w)   w in V, v != u

    A scheme matrix B satisfies a constraint D when <B.flatten(), D> != 0.
    Each round appends one conditional-expectations matrix, which zeroes
    at most a quarter of the still-violated constraints, so the number of
    rounds is at most ceil(log4(N+1)).
    """
    V = list(test_set)
    if len(V) < 1:
        raise ValueError("test set must be nonempty")
    if len(set(V)) != len(V):
        raise ValueError("test set has duplicates")
    if any(v.dim != m for v in V):
        raise ValueError("test vector dimension differs from m")
    if h < 1:
        raise ValueError("h must be positive")

    nz_alphas = list(nonzero_vectors(h))
    n_alpha = len(nz_alphas)
    n = len(V)
    est = n_alpha * n * (n - 1) + (n_alpha * (n - 1)) ** 2 * n // 2
    if est > budget:
        raise BudgetExceededError(
            f"would enumerate about {est} constraints", needed=est, budget=budget
        )

    constraints: list[FVector] = []
    for v, u in itertools.combinations(V, 2):
        diff = v + u
        for a in nz_alphas:
            constraints.append(outer(a, diff).flatten())
    for w in V:
        others = [x for x in V if x != w]
        for (v, u) in itertools.combinations(others, 2):
            vw, uw = v + w, u + w
            for a in nz_alphas:
                left = outer(a, vw).flatten()
                for ap in nz_alphas:
                    constraint = left + outer(ap, uw).flatten()
                    if constraint.is_zero():
                        # outer(a, v+w) == outer(a', u+w): no scheme can
                        # tell these apart, self-correction is unachievable
                        raise ValueError(
                            "self-correction unachievable: "
                            f"{u.to_text()}+{w.to_text()} is a scalar multiple "
                            f"of {v.to_text()}+{w.to_text()}"
                        )
                    constraints.append(constraint)
    n_constraints = len(constraints)

    mats = derandomize_projections(m, h)
    flat_mats = [A.flatten() for A in mats]
    remaining = [
        c for c in constraints if all(fm.dot(c) == 0 for fm in flat_mats)
    ]

    rounds = 0
    while remaining:
        a = conditional_expectation_vector(remaining)
        B = FMat([a.slice(i * m, (i + 1) * m) for i in range(h)])
        mats.append(B)
        remaining = [c for c in remaining if a.dot(c) == 0]
        rounds += 1

    scheme = EncodingScheme(h, m, len(mats), tuple(mats), "derandomized")
    return scheme, DerandomizationStats(n_constraints, rounds)


# -- file format ----------------------------------------------------------
#
#     scheme <h> <m> <ell> <provenance>
#     then ell blocks of h digit lines (rows of A_1, A_2, ...)


def write_scheme(scheme: EncodingScheme, fp: IO[str]) -> None:
    fp.write(f"scheme {scheme.h} {scheme.m} {scheme.ell} {scheme.provenance}\n")
    for A in scheme.mats:
        for row in A.rows:
            fp.write(row.to_text() + "\n")


def read_scheme(fp: IO[str]) -> EncodingScheme:
    lines = [ln.strip() for ln in fp if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("scheme "):
        raise ValueError("missing scheme header")
    tok = lines[0].split(maxsplit=4)
    if len(tok) < 4:
        raise ValueError(f"expected 'scheme H M ELL PROVENANCE' header, got {lines[0]!r}")
    h, m, ell = int(tok[1]), int(tok[2]), int(tok[3])
    provenance = tok[4] if len(tok) > 4 else ""
    body = lines[1:]
    if len(body) != ell * h:
        raise ValueError(f"expected {ell * h} row lines, found {len(body)}")
    mats = []
    for b in range(ell):
        rows = [FVector.from_text(body[b * h + i]) for i in range(h)]
        if any(r.dim != m for r in rows):
            raise ValueError("row width disagrees with header")
        mats.append(FMat(rows))
    return EncodingScheme(h, m, ell, tuple(mats), provenance)
