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

`CSPInstance` computes f(alpha, v) once for every instance vector and
keeps that table: the constraint table that `evaluate` and the gap
graph's pair rule read is built from it, and an honest value is read off
its columns, one per slot.  Both are in the dtype `encoding.value_dtype`
picks for ell (int64, or Python ints for wide values).  An `Assignment`
holds one read-only value array in that same dtype, which every consumer
reads as it is.  `linearity_decode` scores its candidates in
lexicographic digit order, so that order is its tie-break.

Fractions of satisfied constraints are exact `fractions.Fraction`
values; denominators are the literal family sizes (|F|^{2kh} for C1,
|F|^{(k+1)h} for C2-i and C3, alpha = 0 included).  The exhaustive
counts read an assignment as L ^ e: L its GF(2)-linear part and e its
nonlinear part, with support S.  An honest assignment is linear
(f(a, v) is linear in a), so S is empty.  The C1 count only visits
pairs that touch S, and each C2/C3 family checks L's 4^h differences
once plus the (t, alpha) pairs with t or t + offset in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .cliquered import SelectionCertificate, VectorSumInstance
from .encoding import EncodingScheme, as_digits, f_codes, matrix_stack, value_dtype
from .errors import check_budget
from .field import FVector
from .textio import text_lines

# largest tuple count 4^(kh) a CSP may tabulate
TUPLE_BUDGET = 1 << 14
# work one exhaustive evaluate may do: C2/C3 checks plus C1 count steps
EVALUATE_BUDGET = 50_000_000
# candidates-by-tuples table entries linearity_decode may score
DECODE_BUDGET = 1 << 26


def num_tuples(k: int, h: int) -> int:
    """The tuple count 4^(kh) within TUPLE_BUDGET.  The budget message names
    it as a power: at k = 14 and the default h it has about 697,000 digits."""
    n = 4 ** (k * h)
    check_budget(n, TUPLE_BUDGET, f"4^{k * h} tuple variables")
    return n


class CSPInstance:
    """Bundled vector-sum instance + encoding scheme with the constraint table.

    f is tabulated once, as packed integers in the dtype
    `encoding.value_dtype` picks for ell; the other tables read it:

      codes         f(alpha, v), alpha down the rows and the instance
                    vectors across, set by set with the target last
      starts        each set's first column, then the target's: vector
                    idx of set i is column starts[i] + idx
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
        self.inst = inst
        self.scheme = scheme
        self.k = k
        self.h = h
        self.ell = ell
        self.num_vars = num_tuples(k, h)
        self.num_alphas = num_alphas = 4**h
        vectors = [v for s in inst.sets for v in s] + [inst.target]
        self.codes = codes = f_codes(matrix_stack(scheme.mats), as_digits(vectors, inst.dim))
        self.starts = starts = np.cumsum([0, *map(len, inst.sets)])
        per_set = np.split(codes, starts[1:], axis=1)[:-1]  # the target's column dropped
        rows = [np.unique(row) for columns in per_set for row in columns]
        self.allowed = np.full((len(rows), max(1, *map(len, rows))), -1, dtype=codes.dtype)
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

    def family_sizes(self) -> tuple[int, int, int]:
        """Constraint counts of C1, C2 (all k slots) and C3, alpha = 0
        included: n^2, k n 4^h and n 4^h, n the tuple count."""
        n = self.num_vars
        return n * n, self.k * n * self.num_alphas, n * self.num_alphas

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


def build_csp(
    inst: VectorSumInstance, scheme: EncodingScheme, k: int, h: int, ell: int
) -> CSPInstance:
    return CSPInstance(inst, scheme, k, h, ell)


class Assignment:
    """Total map from packed tuples to packed values in F^ell.

    values is a read-only 1-d copy of the caller's values in
    `encoding.value_dtype(ell)`, the dtype of the CSP's constraint table."""

    __slots__ = ("k", "h", "ell", "values")

    def __init__(self, k: int, h: int, ell: int, values: Sequence[int] | np.ndarray):
        self.k = k
        self.h = h
        self.ell = ell
        try:
            values = np.array(values, dtype=value_dtype(ell))
        except OverflowError:  # an int past int64
            raise ValueError("packed value out of range for ell") from None
        if values.shape != (4 ** (k * h),):
            raise ValueError(f"need one value per tuple ({4 ** (k * h)})")
        if not ((values >= 0) & (values < 4**ell)).all():
            raise ValueError("packed value out of range for ell")
        values.flags.writeable = False
        self.values = values

    def value(self, packed_tuple: int) -> FVector:
        return FVector(self.ell, int(self.values[packed_tuple]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Assignment)
            and (self.k, self.h, self.ell) == (other.k, other.h, other.ell)
            and np.array_equal(self.values, other.values)
        )


def honest_assignment(csp: CSPInstance, sel: SelectionCertificate) -> Assignment:
    """x_t = f(a_1, v_1) + ... + f(a_k, v_k) for the selected vectors, read
    off the instance table: codes[slot(t, i), starts[i] + idx_i]."""
    if len(sel.indices) != csp.k:
        raise ValueError("selection length differs from k")
    t = np.arange(csp.num_vars)
    values = np.zeros(csp.num_vars, dtype=csp.codes.dtype)
    for i, idx in enumerate(sel.indices):
        # an index past its set would read a neighbouring set's column
        if not 0 <= idx < len(csp.inst.sets[i]):
            raise ValueError(f"selection index {idx} out of range for set {i}")
        values ^= csp.codes[csp.slot(t, i), csp.starts[i] + idx]
    return Assignment(csp.k, csp.h, csp.ell, values)


@dataclass(frozen=True)
class SatReport:
    """Satisfied fractions per constraint family, exact when exhaustive."""

    c1_fraction: Fraction
    c2_fraction_per_i: tuple[Fraction, ...]
    c3_fraction: Fraction
    exact: bool
    samples: int | None = None
    seed: int | None = None

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


def nonlinear_part(vals: np.ndarray) -> np.ndarray:
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


def _c1_violations(e: np.ndarray, support: np.ndarray) -> int:
    """Ordered pairs (s, t) with x_s ^ x_t ^ x_{s^t} != 0, in at most
    2 |S| n steps, from the nonlinear part e and its support S.

    Rows s in S are counted over every t.  For s outside S a violation
    needs t in S or s^t in S; t -> s^t swaps the two cases and keeps the
    outcome, so the row counts 2 #{t in S violated} - #{t in S with
    s^t in S violated}."""
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
) -> SatReport:
    """Fractions of satisfied constraints per family.

    exhaustive: exact Fractions over the literal family counts.  C1 is
    counted in at most 2 |S| n steps, n = |F|^{kh} and S the tuples where
    the assignment differs from its linear part L, the GF(2)-linear map
    that agrees with it on the basis tuples 2^j (S holds tuple 0 when
    x_0 != 0 and never a basis tuple); an honest assignment has S empty
    and costs O(n).  A C2/C3 family with offsets p(alpha) sees the value
    difference L[p] at every (t, alpha) but those with t or t ^ p in S,
    so it costs O((1 + 2 |S|) |F|^h): one check of L[p] per alpha and
    two per pair (s in S, alpha).  EVALUATE_BUDGET guards the work with
    the literal (k+1) n |F|^h C2/C3 family sizes plus the 2 |S| n C1
    steps.  That sum still bounds the work, within a factor 3 when S is
    large, and keeps every refusal as it was.  sampled: uniform
    constraint indices per family, drawn from one seeded generator in
    the order C1 (s, then t), then (t, alpha) for each slot i, then
    (t, alpha) for C3; Fractions over the sample count.  Both modes
    share each family's offset and check.
    """
    _check_assignment(csp, a)
    n, num_alphas = csp.num_vars, csp.num_alphas
    vals = a.values
    exact = mode == "exhaustive"
    if exact:
        c1_size, c2_size, c3_size = csp.family_sizes()
        e = nonlinear_part(vals)
        support = np.flatnonzero(e)
        checks, steps = c2_size + c3_size, 2 * len(support) * n
        msg = f"exhaustive evaluate needs {checks} C2/C3 checks and {steps} C1 steps"
        check_budget(checks + steps, EVALUATE_BUDGET, msg)
        c1 = Fraction(c1_size - _c1_violations(e, support), c1_size)
        # S down the rows, every alpha across the columns
        draws = [(support[:, None], np.arange(num_alphas))] * (csp.k + 1)
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

    # satisfied constraints of C2-1 .. C2-k and then C3
    hits = []
    for i, (t, alpha) in enumerate(draws):
        is_c3 = i == csp.k

        def ok(diff):
            if is_c3:
                return diff == csp.target_codes[alpha]
            return csp.c2_ok(i * num_alphas + alpha, diff)

        p = csp.diagonal(alpha) if is_c3 else csp.place(alpha, i)
        if not exact:
            hits.append(Fraction(int(np.count_nonzero(ok(vals[t ^ p] ^ vals[t]))), count))
            continue
        # the difference at (t, alpha) is L[p] ^ e[t] ^ e[t ^ p], which is
        # L[p] unless t or t ^ p is in S; here t runs over S
        lin = vals[p] ^ e[p]
        other = e[t ^ p]
        outside = other == 0
        per_alpha = (n - len(t) - outside.sum(axis=0)) * ok(lin)
        if len(t):
            per_alpha += ok(lin ^ e[t] ^ other).sum(axis=0)
            per_alpha += (ok(lin ^ e[t]) & outside).sum(axis=0)
        hits.append(Fraction(int(per_alpha.sum()), n * num_alphas))
    *c2_per_i, c3 = hits
    if not exact:
        return SatReport(c1, tuple(c2_per_i), c3, False, samples=count, seed=seed)
    return SatReport(c1, tuple(c2_per_i), c3, True)


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
) -> DecodeResult:
    """Nearest member of the family { t -> sum_i a_i . c_i }, where a . c
    in F^ell contracts each h-digit block j of c against a:
    (a . c)_j = sum_i a[i] c[j*h + i].

    Exact mode scores every candidate (c_1, ..., c_k) in (F^{h*ell})^k
    against every tuple; sampled mode scores against a seeded tuple
    sample.  Candidates are scored in lexicographic digit order, c_1
    first and coordinate 0 most significant, and the first with the
    best score wins, so ties go to the lexicographically smallest.
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
        if samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        col_idx = rng.integers(0, n_tuples, min(samples, n_tuples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    entries = n_cands * len(col_idx)
    check_budget(entries, DECODE_BUDGET, "decode table would have {} entries")

    # per-slot lookup: lut[c, a] = packed a . c, the f-values of the block
    # selectors (row j*h + i of the identity picks digit i of block j), c
    # over every vector of F^{h*ell} with coordinate 0 the major digit
    cands = (np.arange(n_cands_per_slot)[:, None] >> 2 * np.arange(cdim - 1, -1, -1)) & 3
    lut = f_codes(np.eye(cdim, dtype=np.uint8).reshape(ell, h, cdim), cands).T

    predicted = np.zeros((1, len(col_idx)), dtype=lut.dtype)
    for i in range(k):
        contrib = lut[:, csp.slot(col_idx, i)]  # (n_cands_per_slot, n_cols)
        predicted = (predicted[:, None, :] ^ contrib[None, :, :]).reshape(
            -1, len(col_idx)
        )
    # rows run over (c_1, ..., c_k) in digit order, c_1 the major digit
    agreements = (predicted == a.values[col_idx]).sum(axis=1)
    row = int(agreements.argmax())
    winner = np.unravel_index(row, (n_cands_per_slot,) * k)
    components = tuple(FVector.from_digits(cands[c].tolist()) for c in winner)
    return DecodeResult(components, Fraction(int(agreements[row]), len(col_idx)), mode == "exact")


def write_assignment(csp: CSPInstance, a: Assignment, fp: IO[str]) -> None:
    """One line per tuple: `<tuple digits> <value digits>`, ordered by the
    tuple digits (their fixed width makes that the order of the lines)."""
    _check_assignment(csp, a)
    kh = csp.k * csp.h
    fp.writelines(
        sorted(f"{FVector(kh, t).to_text()} {a.value(t).to_text()}\n" for t in range(csp.num_vars))
    )


def read_assignment(fp: IO[str], k: int, h: int, ell: int) -> Assignment:
    values = [None] * num_tuples(k, h)
    for tok in text_lines(fp):
        if len(tok) != 2:
            raise ValueError(f"malformed assignment line {' '.join(tok)!r}")
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
