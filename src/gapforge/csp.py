"""The induced linear CSP over tuple-indexed variables.

Variables are x_t for tuples t = (a_1, ..., a_k) with each a_i in F^h;
values live in F^ell.  A tuple is packed into an integer with slot i at
digit positions [i*h, (i+1)*h), so tuple addition is integer XOR.  The
constraint families, never materialized as lists:

  (C1)  x_{s+t} = x_s + x_t            for ordered pairs (s, t)
  (C2)-i  x_{t + a@i} - x_t in { f(a, v) : v in V_i }   per slot i
  (C3)  x_{t + (a,...,a)} - x_t = f(a, t_target)

where a@i places a in slot i, V_i is the i-th vector set, and f is the
scheme encoder.  The honest assignment of a selection (v_1, ..., v_k) is
x_t = f(a_1, v_1) + ... + f(a_k, v_k); when the selection sums to the
target it satisfies every constraint.

`CSPInstance` owns the one int64 constraint table that `evaluate` and
the gap graph's pair rule read; packing values into int64 caps ell at
MAX_ELL = 31, and building a CSP above it raises ValueError.

Fractions of satisfied constraints are exact `fractions.Fraction`
values; denominators are the literal family sizes (|F|^{2kh} for C1,
|F|^{(k+1)h} for C2-i and C3, alpha = 0 included).  The exhaustive C1
count only visits pairs that touch the tuples where the assignment is
not GF(2)-linear, so it is linear in the tuple count on honest
assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .cliquered import SelectionCertificate, VectorSumInstance, verify_selection
from .encoding import (
    MAX_ELL,
    EncodingScheme,
    as_digits,
    derandomize_projections,
    f_codes,
    matrix_stack,
)
from .errors import BudgetExceededError
from .field import FVector


# Values in F^ell are packed into int64 by `encoding.f_codes`; -1 marks padding and "no check".


class CSPInstance:
    """Bundled vector-sum instance + encoding scheme with the constraint table.

    The C2/C3 right-hand sides are tabulated once, as int64 (`encoding.f_codes`):

      allowed       -1-padded sorted rows of allowed C2 value differences
                    f(alpha, v), v in V_i; row i * num_alphas + alpha
      target_codes  f(alpha, target) per alpha, the C3 right-hand sides
      c2_row        per variable difference d: the allowed row when d has
                    one nonzero slot, else -1
      c3_code       per variable difference d: f(alpha, target) when every
                    slot of d equals alpha != 0, else -1
      checked       the differences with a C2 or C3 check

    c2_ok is the one C2 membership kernel every consumer uses.
    """

    def __init__(
        self,
        inst: VectorSumInstance,
        scheme: EncodingScheme,
        k: int,
        h: int,
        ell: int,
    ):
        if scheme.m != inst.dim:
            raise ValueError(f"scheme is over F^{scheme.m}, instance over F^{inst.dim}")
        if k != inst.num_sets:
            raise ValueError(f"k = {k} but instance has {inst.num_sets} sets")
        if h != scheme.h or ell != scheme.ell:
            raise ValueError("h/ell disagree with the scheme")
        if ell > MAX_ELL:
            raise ValueError(
                f"ell = {ell} is over the value-width limit MAX_ELL = {MAX_ELL} "
                "(values are packed into int64)"
            )
        self.inst = inst
        self.scheme = scheme
        self.k = k
        self.h = h
        self.ell = ell
        self.num_vars = 4 ** (k * h)
        self.num_alphas = num_alphas = 4**h
        self.mats = matrix_stack(scheme.mats)
        vectors = [v for s in inst.sets for v in s] + [inst.target]
        codes = f_codes(self.mats, as_digits(vectors, inst.dim))  # one call; target last
        ends = np.cumsum([len(s) for s in inst.sets])
        rows = [np.unique(row) for per_set in np.split(codes, ends, axis=1)[:-1] for row in per_set]
        self.allowed = np.full((len(rows), max(1, *map(len, rows))), -1, dtype=np.int64)
        for j, row in enumerate(rows):
            self.allowed[j, : len(row)] = row
        self.target_codes = codes[:, -1]
        d = np.arange(self.num_vars)
        slots = np.stack([self.slot(d, i) for i in range(k)])
        nonzero = (slots != 0).sum(axis=0)
        single = (slots != 0).argmax(axis=0) * num_alphas + slots.max(axis=0)
        self.c2_row = np.where(nonzero == 1, single, -1)
        diagonal = (nonzero == k) & (slots == slots[0]).all(axis=0)
        self.c3_code = np.where(diagonal, self.target_codes[slots[0]], -1)
        self.checked = np.flatnonzero((self.c2_row >= 0) | (self.c3_code >= 0))

    def c2_ok(self, row, diff):
        """Elementwise over broadcast arrays: is diff in allowed row `row`?
        A row < 0 (no C2 check) allows every difference."""
        ok = np.zeros(np.broadcast_shapes(np.shape(row), np.shape(diff)), dtype=bool)
        ok |= row < 0
        for column in self.allowed.T:
            ok |= column[row] == diff
        return ok

    # -- packed-tuple helpers (on ints or int arrays) --------------------

    def slot(self, packed_tuple, i: int):
        """Packed slot i (0-based) of a packed tuple."""
        return (packed_tuple >> (2 * self.h * i)) & (self.num_alphas - 1)

    def place(self, a_packed, i: int):
        """Packed tuple with a in slot i and zeros elsewhere."""
        return a_packed << (2 * self.h * i)

    def diagonal(self, a_packed):
        """Packed tuple (a, a, ..., a): a times the tuple with 1 in every
        slot, since a < 4^h never carries into the next slot."""
        return a_packed * ((self.num_vars - 1) // (self.num_alphas - 1))

    def allowed_diffs(self, i: int, a_packed: int) -> frozenset[int]:
        """Packed values f(a, v) for v in V_i (the C2-i right-hand sides)."""
        row = self.allowed[i * self.num_alphas + a_packed]
        return frozenset(row[row >= 0].tolist())

    def target_code(self, a_packed: int) -> int:
        """Packed f(a, target) (the C3 right-hand side)."""
        return int(self.target_codes[a_packed])


def build_csp(
    inst: VectorSumInstance, scheme: EncodingScheme, k: int, h: int, ell: int
) -> CSPInstance:
    return CSPInstance(inst, scheme, k, h, ell)


class Assignment:
    """Total map from packed tuples to packed values in F^ell."""

    __slots__ = ("k", "h", "ell", "values")

    def __init__(self, k: int, h: int, ell: int, values: Sequence[int]):
        self.k = k
        self.h = h
        self.ell = ell
        values = tuple(values)
        if len(values) != 4 ** (k * h):
            raise ValueError(f"need one value per tuple ({4 ** (k * h)})")
        top = 4**ell
        if any(not 0 <= v < top for v in values):
            raise ValueError("packed value out of range for ell")
        self.values = values

    @classmethod
    def zero(cls, k: int, h: int, ell: int) -> "Assignment":
        return cls(k, h, ell, [0] * 4 ** (k * h))

    def value(self, packed_tuple: int) -> FVector:
        return FVector(self.ell, self.values[packed_tuple])

    def replace(self, packed_tuple: int, value: FVector) -> "Assignment":
        if value.dim != self.ell:
            raise ValueError("value dimension mismatch")
        vals = list(self.values)
        vals[packed_tuple] = value.bits
        return Assignment(self.k, self.h, self.ell, vals)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Assignment)
            and (self.k, self.h, self.ell) == (other.k, other.h, other.ell)
            and self.values == other.values
        )


def honest_assignment(csp: CSPInstance, sel: SelectionCertificate) -> Assignment:
    """x_t = f(a_1, v_1) + ... + f(a_k, v_k) for the selected vectors."""
    if len(sel.indices) != csp.k:
        raise ValueError("selection length differs from k")
    t = np.arange(csp.num_vars)
    values = np.zeros(csp.num_vars, dtype=np.int64)
    for i, idx in enumerate(sel.indices):
        s = csp.inst.sets[i]
        if not 0 <= idx < len(s):
            raise ValueError(f"selection index {idx} out of range for set {i}")
        values ^= f_codes(csp.mats, as_digits([s[idx]], csp.inst.dim))[csp.slot(t, i), 0]
    return Assignment(csp.k, csp.h, csp.ell, values.tolist())


@dataclass(frozen=True)
class SatReport:
    """Satisfied fractions per constraint family, exact when exhaustive.

    The per-alpha maps are populated only in exhaustive mode and skip
    alpha = 0 (whose constraints relate a tuple to itself).
    """

    c1_fraction: Fraction
    c2_fraction_per_i: tuple[Fraction, ...]
    c3_fraction: Fraction
    exact: bool
    samples: int | None = None
    seed: int | None = None
    c2_fraction_per_i_alpha: dict = dc_field(default_factory=dict, repr=False)
    c3_fraction_per_alpha: dict = dc_field(default_factory=dict, repr=False)

    @property
    def all_satisfied(self) -> bool:
        return (
            self.c1_fraction == 1
            and all(f == 1 for f in self.c2_fraction_per_i)
            and self.c3_fraction == 1
        )


def _check_assignment(csp: CSPInstance, a: Assignment) -> None:
    if (a.k, a.h, a.ell) != (csp.k, csp.h, csp.ell):
        raise ValueError("assignment shape differs from CSP")


_STRIP = 1 << 14  # elements per numpy batch of the C1 count


def _nonlinear_part(vals: np.ndarray) -> np.ndarray:
    """vals ^ L, where L is the GF(2)-linear map that agrees with vals on
    the basis tuples 2^j.  L cancels in x_s ^ x_t ^ x_{s^t}, so the result
    fails C1 on exactly the pairs that vals fails; it is 0 on every basis
    tuple, and x_0 at tuple 0."""
    lin = np.zeros_like(vals)
    b = 1
    while b < len(vals):
        lin[b : 2 * b] = lin[:b] ^ vals[b]
        b *= 2
    return vals ^ lin


def _c1_violations(vals: np.ndarray) -> int:
    """Ordered pairs (s, t) with x_s ^ x_t ^ x_{s^t} != 0, in at most
    2 |S| n steps, S the support of the nonlinear part e.

    Rows s in S are counted over every t.  For s outside S a violation
    needs t in S or s^t in S; t -> s^t swaps the two cases and keeps the
    outcome, so the row counts 2 #{t in S violated} - #{t in S with
    s^t in S violated}."""
    e = _nonlinear_part(vals)
    support = np.flatnonzero(e)
    if not len(support):
        return 0
    n = len(e)
    idx = np.arange(n)
    violations = 0
    step = max(1, _STRIP // n)
    for start in range(0, len(support), step):
        s = support[start : start + step, None]
        violations += np.count_nonzero((e[s] ^ e) != e[s ^ idx])
    rest = np.flatnonzero(e == 0)
    e_support = e[support]
    step = max(1, _STRIP // len(support))
    for start in range(0, len(rest), step):
        other = e[rest[start : start + step, None] ^ support]
        violated = other != e_support
        violations += 2 * np.count_nonzero(violated) - np.count_nonzero(violated & (other != 0))
    return int(violations)


def evaluate(
    csp: CSPInstance,
    a: Assignment,
    mode: str = "exhaustive",
    count: int = 10_000,
    seed: int = 0,
    budget: int = 50_000_000,
) -> SatReport:
    """Fractions of satisfied constraints per family.

    exhaustive: exact Fractions over the literal family counts.  C1 is
    counted in at most 2 |S| n steps, n = |F|^{kh} and S the tuples where
    the assignment differs from its linear part L, the GF(2)-linear map
    that agrees with it on the basis tuples 2^j (S holds tuple 0 when
    x_0 != 0 and never a basis tuple); an honest assignment has S empty
    and costs O(n).  The budget still guards the literal n^2 C1 family
    size.  sampled: uniform constraint indices per family, drawn from one
    seeded generator in the order C1 (s, then t), then (t, alpha) for
    each slot i, then (t, alpha) for C3; Fractions over the sample count,
    per-alpha maps left empty.
    Either way the C2/C3 checks run once per family over (t, alpha)
    index arrays.
    """
    _check_assignment(csp, a)
    n, num_alphas = csp.num_vars, csp.num_alphas
    vals = np.array(a.values, dtype=np.int64)
    exact = mode == "exhaustive"
    if exact:
        if n * n > budget:
            raise BudgetExceededError(
                f"C1 family has {n * n} constraints", needed=n * n, budget=budget
            )
        idx = np.arange(n)
        c1 = Fraction(n * n - _c1_violations(vals), n * n)
        # every (t, alpha) once: t down the rows, alpha across the columns
        draws = [(idx[:, None], np.arange(num_alphas))] * (csp.k + 1)
    elif mode == "sampled":
        if count < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        s_idx = rng.integers(0, n, count)
        t_idx = rng.integers(0, n, count)
        c1_hits = int(np.count_nonzero((vals[s_idx] ^ vals[t_idx] ^ vals[s_idx ^ t_idx]) == 0))
        c1 = Fraction(c1_hits, count)
        draws = [
            (rng.integers(0, n, count), rng.integers(0, num_alphas, count))
            for _ in range(csp.k + 1)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # satisfied constraints per alpha, for C2-1 .. C2-k and then C3
    per_family = []
    for i, (t, alpha) in enumerate(draws):
        is_c3 = i == csp.k
        diff = vals[t ^ (csp.diagonal(alpha) if is_c3 else csp.place(alpha, i))]
        diff ^= vals[t]
        ok = diff == csp.target_codes[alpha] if is_c3 else csp.c2_ok(i * num_alphas + alpha, diff)
        hit_alphas = np.broadcast_to(alpha, ok.shape)[ok]
        per_family.append(np.bincount(hit_alphas, minlength=num_alphas).tolist())
    *c2_hits, c3_hits = per_family
    total = diff.size
    c2_per_i = tuple(Fraction(sum(hits), total) for hits in c2_hits)
    c3 = Fraction(sum(c3_hits), total)
    if not exact:
        return SatReport(c1, c2_per_i, c3, False, samples=count, seed=seed)
    # alpha = 0 relates a tuple to itself, so the maps skip it
    c2_map = {
        (i, ap): Fraction(hits[ap], n)
        for i, hits in enumerate(c2_hits)
        for ap in range(1, num_alphas)
    }
    c3_map = {ap: Fraction(c3_hits[ap], n) for ap in range(1, num_alphas)}
    return SatReport(
        c1, c2_per_i, c3, True,
        c2_fraction_per_i_alpha=c2_map, c3_fraction_per_alpha=c3_map,
    )


@dataclass(frozen=True)
class DecodeResult:
    components: tuple[FVector, ...]  # c_1..c_k, each of dimension h*ell
    agreement: Fraction
    exact: bool


def linearity_decode(
    csp: CSPInstance,
    a: Assignment,
    mode: str = "exact",
    samples: int = 4096,
    seed: int = 0,
    budget: int = 1 << 26,
) -> DecodeResult:
    """Nearest member of the family { t -> sum_i block_linear(a_i, c_i) }.

    Exact mode scores every candidate (c_1, ..., c_k) in (F^{h*ell})^k
    against every tuple; sampled mode scores against a seeded tuple
    sample.  Ties go to the lexicographically smallest (c_1, ..., c_k)
    under digit order.
    """
    _check_assignment(csp, a)
    k, h, ell = csp.k, csp.h, csp.ell
    cdim = h * ell
    n_cands_per_slot = 4**cdim
    n_cands = n_cands_per_slot**k
    n_tuples = csp.num_vars

    if mode == "exact":
        col_idx = np.arange(n_tuples)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        col_idx = rng.integers(0, n_tuples, min(samples, n_tuples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if n_cands * len(col_idx) > budget:
        raise BudgetExceededError(
            f"decode table would have {n_cands * len(col_idx)} entries",
            needed=n_cands * len(col_idx),
            budget=budget,
        )

    # per-slot lookup: lut[c, a] = packed block_linear(a, c), the f-values
    # of the block selectors, c over every vector of F^{h*ell}
    cands = (np.arange(n_cands_per_slot)[:, None] >> 2 * np.arange(cdim)) & 3
    lut = f_codes(matrix_stack(derandomize_projections(cdim, h)), cands).T

    predicted = np.zeros((1, len(col_idx)), dtype=np.int64)
    for i in range(k):
        contrib = lut[:, csp.slot(col_idx, i)]  # (n_cands_per_slot, n_cols)
        predicted = (predicted[:, None, :] ^ contrib[None, :, :]).reshape(
            -1, len(col_idx)
        )
    # candidate row index encodes (c_1, ..., c_k) with c_1 as the major digit
    vals = np.array(a.values, dtype=np.int64)[col_idx]
    agreements = (predicted == vals).sum(axis=1)
    best = int(agreements.max())
    tied = np.flatnonzero(agreements == best)

    def unpack(row: int) -> tuple[FVector, ...]:
        comps = []
        for i in range(k - 1, -1, -1):
            comps.append(FVector(cdim, (row // (n_cands_per_slot**i)) % n_cands_per_slot))
        return tuple(comps)

    winner = min((unpack(int(r)) for r in tied), key=lambda cs: [c.digits() for c in cs])
    return DecodeResult(winner, Fraction(best, len(col_idx)), mode == "exact")


def iter_tuples_lex(k: int, h: int) -> Iterable[int]:
    """Packed tuples ordered by their digit strings (coordinate 0 first)."""
    kh = k * h
    for digits in itertools.product(range(4), repeat=kh):
        packed = 0
        for pos, d in enumerate(digits):
            packed |= d << (2 * pos)
        yield packed


def write_assignment(csp: CSPInstance, a: Assignment, fp: IO[str]) -> None:
    """One line per tuple: `<tuple digits> <value digits>`, lexicographic."""
    _check_assignment(csp, a)
    kh = csp.k * csp.h
    for t in iter_tuples_lex(csp.k, csp.h):
        fp.write(f"{FVector(kh, t).to_text()} {a.value(t).to_text()}\n")


def read_assignment(fp: IO[str], k: int, h: int, ell: int) -> Assignment:
    values = [None] * 4 ** (k * h)
    for line in fp:
        tok = line.split()
        if not tok or tok[0] == "#":
            continue
        if len(tok) != 2:
            raise ValueError(f"malformed assignment line {line!r}")
        t = FVector.from_text(tok[0])
        v = FVector.from_text(tok[1])
        if t.dim != k * h or v.dim != ell:
            raise ValueError("tuple or value width disagrees with parameters")
        if values[t.bits] is not None:
            raise ValueError(f"tuple {tok[0]} listed twice")
        values[t.bits] = v.bits
    if any(v is None for v in values):
        raise ValueError("assignment file does not cover every tuple")
    return Assignment(k, h, ell, values)
