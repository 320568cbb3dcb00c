"""Encoding schemes: tuples of GF(4) matrices and their quality conditions.

A scheme is a tuple (A_1, ..., A_ell) of h x m matrices.  It induces two
encoders over a vector v in F^m:

    g(v)      = (A_1 v, ..., A_ell v)          in F^(ell*h)
    f(a, v)   = (a^T A_1 v, ..., a^T A_ell v)  in F^ell,   a in F^h

so coordinate i of f(a, v) contracts block i of g(v) against a.

Against a finite test set V (with sum target t adjoined) a scheme is
good when three conditions hold:

  (injective)   g(v) != 0 for every nonzero v in F^m;
  (separating)  for nonzero a, f(a, .) is injective on V;
  (self-corr)   f(a, v + w) != f(a', u + w) for all w in V, distinct
                v, u in V \\ {w}, and nonzero a, a'.

One numpy kernel, `f_values`, gives the f-values of any matrix stack to
the CSP's table, the decoder's table and, as F[a, w, x] = f(a, x + w) for
a != 0, w, x in V (`f_table`), to the two f-value conditions and the
derandomizer.  `encode_g` is g for one vector.  `check_scheme` finds the
first collision of each f-value condition by one stable sort over rows
of F (`first_repeat`).  `derandomize_scheme` tabulates each matrix once:
it lists the constraints its selectors violate by one stable sort of
each row w of their F, keeps them by index into that F, and each new
matrix's own F filters them.  Both sort the self-correction keys of
`_self_keys`, row w of F[a, w, x] with the x = w entries made unique.

Random schemes satisfy all three with constant probability once
ell >= 2 log2 |V| + 2h; `derandomize_scheme` constructs one
deterministically with coordinate selectors plus greedy rows chosen by
conditional expectations.

For a single random matrix A and fixed (b, v) != scalar-aligned (c, u),
the events b^T A v = c^T A u hit exactly a 1/4 fraction of matrices:
b^T A v equals the dot product of A flattened with outer(b, v)
flattened, so the difference of the two forms is a nonzero linear
functional of A's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import check_budget
from .field import FMat, FVector, INV, MUL, rank_and_kernel
from .rng import SplitMix64
from .textio import int_fields, misfit, text_lines

_MUL_NP = np.array(MUL, dtype=np.uint8)
_INV_NP = np.array([0, *INV[1:]], dtype=np.uint8)

# Where `value_dtype` switches: up to MAX_ELL coordinates, 2 * 31 = 62 bits
# keep every f-value and every XOR of two in a non-negative int64.
MAX_ELL = 31


def value_dtype(ell: int):
    """The one dtype of packed values in F^ell: int64 up to MAX_ELL
    coordinates, Python ints (object) above."""
    return np.int64 if ell <= MAX_ELL else object


def as_digits(vectors: Sequence[FVector], dim: int) -> np.ndarray:
    """The vectors as an (n, dim) uint8 array of digit rows."""
    size = (dim + 3) // 4  # bytes per vector, four digits each
    raw = np.frombuffer(b"".join(v.bits.to_bytes(size, "little") for v in vectors), np.uint8)
    return ((raw[:, None] >> np.uint8([0, 2, 4, 6])) & 3).reshape(len(vectors), 4 * size)[:, :dim]


def matrix_stack(mats: Sequence[FMat]) -> np.ndarray:
    """The matrices as an (ell, h, m) uint8 digit stack."""
    h, m = mats[0].h, mats[0].m
    return as_digits([row for A in mats for row in A.rows], m).reshape(len(mats), h, m)


def f_values(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The f-value kernel: T[a, x, i] = a^T mats[i] vectors[x] as digits, for
    an (ell, h, m) matrix stack, (n, m) vectors and every a in F^h (row a
    is the packed a, so row 0 is a = 0)."""
    g = np.bitwise_xor.reduce(_MUL_NP[mats[:, :, None, :], vectors], axis=-1)  # (A_i x)_j
    T = np.zeros((1, len(vectors), len(mats)), dtype=np.uint8)
    for j in range(mats.shape[1]):  # prepend digit j of a as the most significant
        T = (_MUL_NP[:, None, g[:, j].T] ^ T).reshape(4 * len(T), len(vectors), len(mats))
    return T


def f_codes(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """`f_values` with each f-value packed into one integer, coordinate i at
    bits 2i, in the `value_dtype` of its width."""
    T = f_values(mats, vectors)
    return (T.astype(value_dtype(T.shape[-1])) << (2 * np.arange(T.shape[-1]))).sum(axis=-1)


def f_table(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """F[a, w, x] = f(a, x) + f(a, w) = f(a, x + w) as packed integers
    (`f_codes`), row a for the nonzero packed a + 1, w and x over `vectors`."""
    P = f_codes(mats, vectors)[1:]
    return P[:, None] ^ P[:, :, None]


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


def first_repeat(keys: np.ndarray, tags: np.ndarray) -> tuple[int, int, int] | None:
    """The first row of a 2-d key array in which, scanning left to right, a
    key is met again under another tag (column c has tag tags[c]), as (row,
    earlier column, later column), or None; a repeat under the same tag
    replaces the earlier column.

    One stable argsort sorts every row: equal keys then stand in column
    order, so an entry's sorted predecessor with the same key is that key's
    latest earlier occurrence, and the hit is the smallest later column
    whose predecessor carries another tag.
    """
    rows, width = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    k, t = np.take(keys, order + width * np.arange(rows)[:, None]), tags[order]
    hit = (k[:, 1:] == k[:, :-1]) & (t[:, 1:] != t[:, :-1])
    first = np.flatnonzero(hit)[:1]
    if not len(first):
        return None
    r = int(first[0]) // (width - 1)
    j = np.where(hit[r], order[r, 1:], width).argmin()  # sorted position before the hit
    return r, int(order[r, j]), int(order[r, j + 1])


def _test_vectors(test_set: Sequence[FVector], m: int) -> list[FVector]:
    """The test set as a list: nonempty, of m-vectors, none repeated."""
    V = list(test_set)
    if not V:
        raise ValueError("test set must be nonempty")
    if any(v.dim != m for v in V):
        raise ValueError("test vector dimension differs from m")
    if len(set(V)) != len(V):
        raise ValueError("test set has duplicates")
    return V


def _self_keys(F: np.ndarray) -> np.ndarray:
    """Row w of F[a, w, x], x major and a minor: the keys whose equal
    pairs break self-correction, with the q entries of x = w replaced by
    keys met nowhere else, since the condition asks v, u != w."""
    q, n = F.shape[:2]
    keys = F.transpose(1, 2, 0).copy()  # [w, x, a]
    keys[np.arange(n), np.arange(n)] = -1 - np.arange(q)
    return keys.reshape(n, n * q)


# f-table entries check_scheme may evaluate
CHECK_SCHEME_BUDGET = 10_000_000


def check_scheme(scheme: EncodingScheme, test_set: Sequence[FVector]) -> SchemeReport:
    """Decide the three conditions for the scheme against a test set.

    Injectivity of g on all of F^m is decided exactly by the rank of the
    stacked ell*h x m matrix (a kernel vector is the witness), not by
    enumerating F^m.  The other two read the entries of F[a, w, x] =
    f(a, x + w) (`f_table`, 4^h * |V|^2 of them, guarded by
    CHECK_SCHEME_BUDGET) and find each condition's first collision by one
    stable sort over all its rows (`first_repeat`): separation sorts row a
    of F[a, V[0], v] = f(a, v) + f(a, V[0]), tagged by v; self-correction
    row w of F[a, w, x], x major and a minor, tagged by x, with the q
    entries of x = w replaced by keys no other entry has.

    The report carries at most one witness: the first failure in the
    order injective, separating, self-correcting.
    """
    V = _test_vectors(test_set, scheme.m)
    cost = (4**scheme.h) * len(V) ** 2
    check_budget(cost, CHECK_SCHEME_BUDGET, "condition checks need about {} evaluations")

    rank, kernel = rank_and_kernel(FMat([row for A in scheme.mats for row in A.rows]))
    cond_inj = rank == scheme.m
    witness = None if cond_inj else ConditionWitness("injective", (), (kernel,))

    n = len(V)
    F = f_table(matrix_stack(scheme.mats), as_digits(V, scheme.m))
    q = len(F)
    hit = first_repeat(F[:, 0], np.arange(n))
    cond_sep = hit is None
    if hit:
        a, v, u = hit
        alpha = FVector(scheme.h, a + 1)
        witness = witness or ConditionWitness("separating", (alpha,), (V[v], V[u]))
    hit = first_repeat(_self_keys(F), np.repeat(np.arange(n), q))
    cond_self = hit is None
    if hit:
        w, (v, a), (u, ap) = hit[0], divmod(hit[1], q), divmod(hit[2], q)
        witness = witness or ConditionWitness(
            "self-correcting",
            (FVector(scheme.h, a + 1), FVector(scheme.h, ap + 1)),
            (V[v], V[u], V[w]),
        )

    return SchemeReport(cond_inj, cond_sep, cond_self, witness)


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


def conditional_expectation_vector(constraints: np.ndarray) -> FVector:
    """Greedy vector a with few zero dot products against the constraints.

    Input: N nonzero vectors over F^D, as an (N, D) uint8 array of digit
    rows.  The uniform-random expectation of #{i : <a, C_i> = 0} is N/4;
    fixing coordinates left to right and minimizing the conditional
    expectation at each step (ties: smallest digit, ordered
    0 < 1 < w < w+1) yields a with zero count at most floor(N/4).

    At step j only constraints whose last nonzero coordinate is j can
    become decided-zero, and each is zeroed by exactly one digit choice,
    so the argmin reduces to a frequency count over those rows.
    """
    C = np.ascontiguousarray(constraints, dtype=np.uint8)
    if C.ndim != 2:
        raise ValueError("constraint array must be 2-dimensional")
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


@dataclass(frozen=True)
class DerandomizationStats:
    n_constraints: int
    rounds: int


def _violated(mats: np.ndarray, X: np.ndarray, V: list[FVector]) -> tuple[np.ndarray, ...]:
    """The `derandomize_scheme` constraints the stack violates: each as the
    pair of flat indices into F = `f_table` whose entries it asks to differ,
    and as its rank-one row.

    A constraint (a, w, v, a', u) is the row outer(a, v+w) + outer(a', u+w),
    violated when F[a, w, v] = f(a, v+w) equals F[a', w, u].  Separating
    ones, f(a, v+u) = 0 for a pair v < u, are (a, v, u, a, v): the row
    outer(a, u+v), against F[a, v, v] = 0.  Self-correcting ones come from
    one stable argsort of each row w of the self-correction keys
    (`_self_keys`): equal keys then stand together in index order, so for
    d = 1, 2, ... the equal keys d apart in sorted order list each equal
    pair once, the smaller x first, and past the first d with none, no two
    keys are equal further apart.  Pairs of one x are not constraints.
    """
    h, m = mats.shape[1:]
    F = f_table(mats, X)
    q, n = F.shape[:2]
    i = np.arange(n)
    a, v, u = np.nonzero((F == 0) & (i[:, None] < i))
    found = [(a, v, u, a, v)]
    keys = _self_keys(F)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    for d in range(1, n * q):
        w, j = np.nonzero(keys[:, d:] == keys[:, :-d])
        if not len(w):
            break
        (v, a), (u, ap) = divmod(order[w, j], q), divmod(order[w, j + d], q)
        found.append(np.stack([a, w, v, ap, u])[:, v < u])
    a, w, v, ap, u = np.concatenate(found, axis=1)

    def outer(a, d):  # the rank-one matrices alpha d^T, alpha the packed a + 1, flattened row-major
        alpha = (a[:, None] + 1 >> 2 * np.arange(h)) & 3
        return _MUL_NP[alpha[:, :, None], d[:, None, :]].reshape(len(a), h * m)

    rows = outer(a, X[v] ^ X[w]) ^ outer(ap, X[u] ^ X[w])
    zero = np.flatnonzero(~rows.any(axis=1))  # only self-correcting rows can be zero
    if len(zero):
        # outer(a, v+w) == outer(a', u+w): no scheme can tell these apart
        wt, vt, ut = (V[j].to_text() for j in min(zip(w[zero], v[zero], u[zero])))
        raise ValueError(
            f"self-correction unachievable: {ut}+{wt} is a scalar multiple of {vt}+{wt}"
        )
    left, right = (np.ravel_multi_index(e, F.shape) for e in ((a, w, v), (ap, w, u)))
    return np.stack([left, right]), rows


# derandomize_scheme's closed-form constraint count, which bounds the
# violated constraints it lists and their rows, and its selector f-table
# entries, which bound the keys its per-w sort orders
DERANDOMIZE_BUDGET = 10_000_000


def derandomize_scheme(
    test_set: Sequence[FVector], h: int, m: int
) -> tuple[EncodingScheme, DerandomizationStats]:
    """Deterministic scheme passing all three conditions for the test set.

    Starts from ceil(m/h) coordinate selectors (injectivity is then
    structural) and encodes the remaining requirements as rank-one
    constraint matrices, flattened row-major to F^(h*m):

      separating       outer(a, v + u)             a != 0, v != u in V
      self-correcting  outer(a, v+w) + outer(a', u+w)   w in V, v != u

    A scheme matrix B satisfies a constraint D when <B flattened, D> != 0,
    and a stack violates D exactly when each of its matrices does.  So the
    selectors' table F[a, w, x] = f(a, x + w) lists the violated
    constraints once (`_violated`, one sort per w), each kept as the two
    entries of F it asks to differ.
    Each round appends one conditional-expectations matrix, which leaves at
    most a quarter of them violated (at most ceil(log4(N+1)) rounds),
    tabulates that matrix alone and keeps the constraints it violates too.
    """
    V = _test_vectors(test_set, m)
    if h < 1:
        raise ValueError("h must be positive")

    q = 4**h - 1
    n = len(V)
    est = q * n * (n - 1) + (q * (n - 1)) ** 2 * n // 2
    check_budget(est, DERANDOMIZE_BUDGET, "would enumerate about {} constraints")
    check_budget(4**h * n * n, DERANDOMIZE_BUDGET, "selector f-table would have {} entries")
    n_constraints = q * n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 2 * q * q

    X = as_digits(V, m)
    mats = derandomize_projections(m, h)
    pairs, rows = _violated(matrix_stack(mats), X, V)
    rounds = 0
    while len(rows):
        a = conditional_expectation_vector(rows)
        mats.append(FMat([a.slice(i * m, (i + 1) * m) for i in range(h)]))
        rounds += 1
        F = f_table(matrix_stack(mats[-1:]), X).ravel()
        keep = F[pairs[0]] == F[pairs[1]]  # the constraints the new matrix violates too
        pairs, rows = pairs[:, keep], rows[keep]

    scheme = EncodingScheme(h, m, len(mats), tuple(mats), "derandomized")
    return scheme, DerandomizationStats(n_constraints, rounds)


# -- file format ----------------------------------------------------------
#
#     scheme <h> <m> <ell> <provenance>
#     then ell blocks of h digit lines (rows of A_1, A_2, ...)
_SCHEME_HEADER = "scheme H M ELL PROVENANCE"


def write_scheme(scheme: EncodingScheme, fp: IO[str]) -> None:
    fp.write(f"scheme {scheme.h} {scheme.m} {scheme.ell} {scheme.provenance}\n")
    text = np.full((scheme.ell * scheme.h, scheme.m + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = matrix_stack(scheme.mats).reshape(-1, scheme.m) + ord("0")  # "0123"[d]
    fp.write(text.tobytes().decode("ascii"))


def read_scheme(fp: IO[str]) -> EncodingScheme:
    lines = text_lines(fp)
    tok = next(lines, [])
    if tok[:1] != ["scheme"] or len(tok) < 5:
        raise misfit(_SCHEME_HEADER, tok)
    h, m, ell = int_fields(tok[1:4], lambda: misfit(_SCHEME_HEADER, tok))
    # a row line is one digit string, which from_text checks
    rows = [FVector.from_text(" ".join(row)) for row in lines]
    if len(rows) != ell * h:
        raise ValueError(f"expected {ell * h} row lines, found {len(rows)}")
    mats = tuple(FMat(rows[b * h : (b + 1) * h]) for b in range(ell))
    return EncodingScheme(h, m, ell, mats, " ".join(tok[4:]))
