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

Fractions of satisfied constraints are exact `fractions.Fraction`
values; denominators are the literal family sizes (|F|^{2kh} for C1,
|F|^{(k+1)h} for C2-i and C3, alpha = 0 included).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .cliquered import SelectionCertificate, VectorSumInstance, verify_selection
from .encoding import EncodingScheme, encode_f
from .errors import BudgetExceededError
from .field import FVector, block_linear


class CSPInstance:
    """Bundled vector-sum instance + encoding scheme with lookup tables."""

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
        self.num_vars = 4 ** (k * h)
        self.num_alphas = 4**h
        # packed f(a, v) values per (slot, packed a): the C2 allowed sets
        self._allowed: list[list[frozenset[int]]] = []
        for i in range(k):
            per_alpha = []
            for a_packed in range(self.num_alphas):
                a = FVector(h, a_packed)
                per_alpha.append(
                    frozenset(encode_f(scheme, a, v).bits for v in inst.sets[i])
                )
            self._allowed.append(per_alpha)
        self._target_code = [
            encode_f(scheme, FVector(h, a_packed), inst.target).bits
            for a_packed in range(self.num_alphas)
        ]

    # -- packed-tuple helpers -------------------------------------------

    def slot(self, packed_tuple: int, i: int) -> int:
        """Packed slot i (0-based) of a packed tuple."""
        return (packed_tuple >> (2 * self.h * i)) & (self.num_alphas - 1)

    def place(self, a_packed: int, i: int) -> int:
        """Packed tuple with a in slot i and zeros elsewhere."""
        return a_packed << (2 * self.h * i)

    def diagonal(self, a_packed: int) -> int:
        """Packed tuple (a, a, ..., a)."""
        bits = 0
        for i in range(self.k):
            bits |= a_packed << (2 * self.h * i)
        return bits

    def allowed_diffs(self, i: int, a_packed: int) -> frozenset[int]:
        """Packed values f(a, v) for v in V_i (the C2-i right-hand sides)."""
        return self._allowed[i][a_packed]

    def target_code(self, a_packed: int) -> int:
        """Packed f(a, target) (the C3 right-hand side)."""
        return self._target_code[a_packed]

    # -- constraint enumerators (procedural, tiny-scale only) ------------

    def c1_indices(self) -> Iterable[tuple[int, int]]:
        return itertools.product(range(self.num_vars), repeat=2)

    def c2_indices(self, i: int) -> Iterable[tuple[int, int]]:
        if not 0 <= i < self.k:
            raise ValueError("slot index out of range")
        return itertools.product(range(self.num_vars), range(self.num_alphas))

    def c3_indices(self) -> Iterable[tuple[int, int]]:
        return itertools.product(range(self.num_vars), range(self.num_alphas))


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
    chosen = []
    for i, idx in enumerate(sel.indices):
        s = csp.inst.sets[i]
        if not 0 <= idx < len(s):
            raise ValueError(f"selection index {idx} out of range for set {i}")
        chosen.append(s[idx])
    tables = []
    for v in chosen:
        tables.append(
            [encode_f(csp.scheme, FVector(csp.h, a), v).bits for a in range(csp.num_alphas)]
        )
    values = []
    for t in range(csp.num_vars):
        acc = 0
        for i in range(csp.k):
            acc ^= tables[i][csp.slot(t, i)]
        values.append(acc)
    return Assignment(csp.k, csp.h, csp.ell, values)


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


def evaluate(
    csp: CSPInstance,
    a: Assignment,
    mode: str = "exhaustive",
    count: int = 10_000,
    seed: int = 0,
    budget: int = 50_000_000,
) -> SatReport:
    """Fractions of satisfied constraints per family.

    exhaustive: exact Fractions over the literal family counts; cost is
    |F|^{2kh} for C1 (budget-guarded).  sampled: uniform constraint
    indices per family, Fractions over the sample count, per-alpha maps
    left empty.
    """
    _check_assignment(csp, a)
    n = csp.num_vars
    vals = np.array(a.values, dtype=np.uint64)
    allowed_sorted = [
        [np.array(sorted(s), dtype=np.uint64) for s in per_i]
        for per_i in csp._allowed
    ]

    if mode == "exhaustive":
        if n * n > budget:
            raise BudgetExceededError(
                f"C1 family has {n * n} constraints", needed=n * n, budget=budget
            )
        idx = np.arange(n)
        c1_hits = 0
        for s in range(n):
            c1_hits += int(np.count_nonzero((vals[s] ^ vals ^ vals[s ^ idx]) == 0))
        c1 = Fraction(c1_hits, n * n)

        c2_map: dict[tuple[int, int], Fraction] = {}
        c2_per_i = []
        for i in range(csp.k):
            total_hits = 0
            for a_packed in range(csp.num_alphas):
                shifted = idx ^ csp.place(a_packed, i)
                diffs = vals[shifted] ^ vals
                hits = int(np.count_nonzero(np.isin(diffs, allowed_sorted[i][a_packed])))
                total_hits += hits
                if a_packed != 0:
                    c2_map[(i, a_packed)] = Fraction(hits, n)
            c2_per_i.append(Fraction(total_hits, n * csp.num_alphas))

        c3_map: dict[int, Fraction] = {}
        c3_hits = 0
        for a_packed in range(csp.num_alphas):
            shifted = idx ^ csp.diagonal(a_packed)
            diffs = vals[shifted] ^ vals
            hits = int(np.count_nonzero(diffs == np.uint64(csp.target_code(a_packed))))
            c3_hits += hits
            if a_packed != 0:
                c3_map[a_packed] = Fraction(hits, n)
        c3 = Fraction(c3_hits, n * csp.num_alphas)
        return SatReport(
            c1, tuple(c2_per_i), c3, True,
            c2_fraction_per_i_alpha=c2_map, c3_fraction_per_alpha=c3_map,
        )

    if mode == "sampled":
        if count < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        s_idx = rng.integers(0, n, count)
        t_idx = rng.integers(0, n, count)
        c1_hits = int(np.count_nonzero((vals[s_idx] ^ vals[t_idx] ^ vals[s_idx ^ t_idx]) == 0))
        c1 = Fraction(c1_hits, count)

        c2_per_i = []
        for i in range(csp.k):
            t_s = rng.integers(0, n, count)
            a_s = rng.integers(0, csp.num_alphas, count)
            hits = 0
            for t, ap in zip(t_s.tolist(), a_s.tolist()):
                diff = a.values[t ^ csp.place(ap, i)] ^ a.values[t]
                hits += diff in csp._allowed[i][ap]
            c2_per_i.append(Fraction(hits, count))

        t_s = rng.integers(0, n, count)
        a_s = rng.integers(0, csp.num_alphas, count)
        c3_hits = 0
        for t, ap in zip(t_s.tolist(), a_s.tolist()):
            diff = a.values[t ^ csp.diagonal(ap)] ^ a.values[t]
            c3_hits += diff == csp.target_code(ap)
        c3 = Fraction(c3_hits, count)
        return SatReport(c1, tuple(c2_per_i), c3, False, samples=count, seed=seed)

    raise ValueError(f"unknown mode {mode!r}")


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

    # per-slot lookup: lut[c, a] = packed block_linear(a, c)
    lut = np.empty((n_cands_per_slot, csp.num_alphas), dtype=np.uint64)
    for c in range(n_cands_per_slot):
        cv = FVector(cdim, c)
        for ap in range(csp.num_alphas):
            lut[c, ap] = block_linear(FVector(h, ap), cv).bits

    predicted = np.zeros((1, len(col_idx)), dtype=np.uint64)
    for i in range(k):
        slots = np.array([csp.slot(int(t), i) for t in col_idx])
        contrib = lut[:, slots]  # (n_cands_per_slot, n_cols)
        predicted = (predicted[:, None, :] ^ contrib[None, :, :]).reshape(
            -1, len(col_idx)
        )
    # candidate row index encodes (c_1, ..., c_k) with c_1 as the major digit
    vals = np.array(a.values, dtype=np.uint64)[col_idx]
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
        values[t.bits] = v.bits
    if any(v is None for v in values):
        raise ValueError("assignment file does not cover every tuple")
    return Assignment(k, h, ell, values)
