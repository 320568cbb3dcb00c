"""Scalar reference forms and oracles the tests compare gapforge against.

No CLI path, pipeline stage or benchmark op runs these; each is the
plain spelling of something the package computes another way, or a
brute-force answer to a question the package reduces.  One function per
name, with the package code it checks:

field
  add, mul            GF(4) addition (XOR) and the generated table
                      `field.MUL`; the field-axiom tests read the table
                      through them.
  dist                normalized Hamming distance of two `FVector`s as an
                      exact Fraction, on the two-bit-plane layout that
                      `FVector.dot` and `scalar_mul` mask with `_lo_mask`.
  concat              `FVector` concatenation on packed ints; the input
                      `FVector.slice` is checked on.
  block_linear        blockwise contraction of a vector by a; checks
                      `csp.linearity_decode`'s per-slot table and the
                      f = block_linear(a, g) identity of `encoding`.
  from_entries, entry an `FMat` from digit rows, for hand-built schemes,
                      and one entry of it, which checks `field.outer`.

encoding
  encode_f            f(a, v) = (a^T A_1 v, ..., a^T A_ell v), the scalar
                      form of the `f_values` / `f_codes` kernel.
  all_pass            all three flags of a `check_scheme` report.
  first_repeat        the first key met again under another tag, one item
                      at a time with a dict; `encoding.first_repeat` finds
                      it for every row of a key array by one stable sort.
  zero_dot_count      #{c : <a, c> = 0}; checks the floor(N/4) bound of
                      `conditional_expectation_vector`.
  violated_constraints
                      the constraints a selector stack violates, found in
                      the dense [a, w, v, a', u] equality tensor of its
                      f-table; `encoding._violated` lists the same set by
                      one sort per w.
  collision_frequency, collision_frequency_exhaustive
                      sampled and exact agreement rates of two bilinear
                      forms b^T A v, c^T A u over random A, read off
                      `f_values`; the 1/4 collision law the scheme
                      conditions rest on.

cliquered
  has_edge, brute_force_multicolor_clique
                      the other side of `reduce_clique`: a multicolor
                      clique exists exactly when the vector-sum instance
                      is solvable.
  selection_to_clique, clique_to_selection
                      the certificate maps between the two sides.
  first_selection     the lexicographically first satisfying selection,
                      by walking every selection in `itertools.product`
                      order; `brute_force_vector_sum` meets in the middle
                      and must return the same one.
  validate_no_scalar_multiples
                      pairwise independence of a `VectorSumInstance`'s
                      vector union.

explicit
  adjacent            one bit of `ExplicitGraph.adj`; the gap-graph export,
                      the strong power and CLI clique witnesses are read
                      through it.
  from_bool_matrix, to_bool_matrix
                      dense boolean forms of the bitset rows; the dense
                      Kronecker reference of `amplify.export_power` and
                      the boolean-matrix local search are built on them.
  read_dimacs, write_dimacs
                      DIMACS one line and one edge at a time: every line
                      through `textio.text_lines`, every edge through
                      `ExplicitGraph.add_edge`; the bulk `read_dimacs`
                      must give the same graph or the same error, and
                      `write_dimacs` the same bytes.

amplify
  index_of, tuple_of, power_adjacent
                      big-endian tuple indexing and the strong-product
                      rule, against which `export_power`'s rows are read.

csp
  allowed_diffs, target_code
                      one C2 / C3 right-hand side of `CSPInstance`'s
                      table, for the constraint-by-constraint references.
  reference_decode    `linearity_decode` by brute force: candidates in
                      lexicographic digit order, values from
                      `block_linear`, the first maximum wins.
  zero_assignment, replace_value
                      the all-zero `Assignment` and one with a single
                      tuple's value overwritten, for hand-built corrupted
                      assignments.

gapgraph
  vertex_by_index     the vertex at one canonical index, by scalar divmod:
                      the reference for canonical order, which
                      `GapGraph._vertices` decodes in bulk.
  planted_family      `GapGraph.planted_clique`'s family built for any
                      selection, satisfying or not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from gapforge.cliquered import (
    BRUTE_FORCE_BUDGET,
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
)
from gapforge.csp import Assignment, CSPInstance, honest_assignment
from gapforge.encoding import EncodingScheme, SchemeReport, as_digits, f_table, f_values
from gapforge.errors import check_budget
from gapforge.explicit import ExplicitGraph
from gapforge.field import MUL, FMat, FVector, _lo_mask
from gapforge.gapgraph import GapGraph, Vertex
from gapforge.textio import text_lines

# -- field -------------------------------------------------------------------


def add(a: int, b: int) -> int:
    """Sum of two field elements (characteristic 2, so XOR)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    return MUL[a][b]


def dist(v: FVector, u: FVector) -> Fraction:
    """Normalized Hamming distance as an exact fraction."""
    if v.dim != u.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {u.dim}")
    if v.dim == 0:
        raise ValueError("distance undefined for dimension 0")
    z = v.bits ^ u.bits
    return Fraction(((z | (z >> 1)) & _lo_mask(v.dim)).bit_count(), v.dim)


def concat(v: FVector, u: FVector) -> FVector:
    return FVector(v.dim + u.dim, v.bits | (u.bits << (2 * v.dim)))


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
    blockmask = (1 << (2 * d)) - 1
    for j in range(n):
        block = FVector(d, (v.bits >> (2 * d * j)) & blockmask)
        out |= a.dot(block) << (2 * j)
    return FVector(n, out)


def from_entries(entries: Sequence[Sequence[int]]) -> FMat:
    return FMat([FVector.from_digits(row) for row in entries])


def entry(A: FMat, i: int, j: int) -> int:
    return A.rows[i][j]


# -- encoding ----------------------------------------------------------------


def encode_f(scheme: EncodingScheme, a: FVector, v: FVector) -> FVector:
    """(a^T A_1 v, ..., a^T A_ell v), dimension ell."""
    if a.dim != scheme.h:
        raise ValueError(f"contraction vector dimension {a.dim} != h = {scheme.h}")
    bits = 0
    for i, A in enumerate(scheme.mats):
        bits |= a.dot(A.matvec(v)) << (2 * i)
    return FVector(scheme.ell, bits)


def all_pass(report: SchemeReport) -> bool:
    return report.cond_injective and report.cond_separating and report.cond_self_correcting


def first_repeat(items):
    """The (earlier, later) payloads of the first key met again under
    another tag, or None; a repeat under the same tag replaces the payload."""
    seen = {}
    for key, tag, payload in items:
        prev = seen.get(key)
        if prev is not None and prev[0] != tag:
            return prev[1], payload
        seen[key] = (tag, payload)
    return None


def zero_dot_count(a: FVector, constraints: Sequence[FVector]) -> int:
    return sum(1 for c in constraints if a.dot(c) == 0)


def violated_constraints(
    mats: np.ndarray, X: np.ndarray, V: list[FVector]
) -> tuple[np.ndarray, np.ndarray]:
    """`encoding._violated` by the dense tensor: every (a, w, v, a', u) with
    F[a, w, v] = F[a', w, u] is read off the q^2 n^3 equality tensor of
    F = `f_table`, compared on `np.unique` ids so that a stack past
    MAX_ELL compares no objects.  Same pairs of flat indices into F, same
    rows and same error, in tensor order."""
    h, m = mats.shape[1:]
    F = f_table(mats, X)
    # F[a, v, v] = 0 is the smallest value, so id 0 is the value 0
    F = np.unique(F, return_inverse=True)[1].reshape(F.shape)
    i = np.arange(len(X))
    # separating: f(a, v+u) = 0 for v < u, as (a, v, u, a, v) against F[a, v, v] = 0
    a, v, u = np.nonzero((F == 0) & (i[:, None] < i))
    found = [(a, v, u, a, v)]
    if len(X) > 2:  # self-correcting: a pair v < u, both != w
        pairs = (i[:, None] < i) & (i[:, None, None] != i[:, None]) & (i[:, None, None] != i)
        equal = F[:, :, :, None, None] == F.transpose(1, 0, 2)[None, :, None]  # [a, w, v, a', u]
        found.append(np.nonzero(equal & pairs[:, :, None, :]))
    a, w, v, ap, u = np.concatenate(found, axis=1)
    mul = np.array(MUL, dtype=np.uint8)

    def outer(a, d):  # alpha d^T, alpha the packed a + 1, flattened row-major
        alpha = (a[:, None] + 1 >> 2 * np.arange(h)) & 3
        return mul[alpha[:, :, None], d[:, None, :]].reshape(len(a), h * m)

    rows = outer(a, X[v] ^ X[w]) ^ outer(ap, X[u] ^ X[w])
    zero = np.flatnonzero(~rows.any(axis=1))
    if len(zero):
        wt, vt, ut = (V[j].to_text() for j in min(zip(w[zero], v[zero], u[zero])))
        raise ValueError(
            f"self-correction unachievable: {ut}+{wt} is a scalar multiple of {vt}+{wt}"
        )
    left, right = (np.ravel_multi_index(e, F.shape) for e in ((a, w, v), (ap, w, u)))
    return np.stack([left, right]), rows


def _validate_collision_args(b: FVector, c: FVector, v: FVector, u: FVector) -> None:
    if b.is_zero() or c.is_zero():
        raise ValueError("b and c must be nonzero")
    for s in (1, 2, 3):
        if v == u.scalar_mul(s):
            raise ValueError("v must not be a scalar multiple of u")


def _agreements(mats: np.ndarray, b: FVector, c: FVector, v: FVector, u: FVector) -> int:
    """#{i : b^T mats[i] v == c^T mats[i] u} over an (N, h, m) stack."""
    if b.dim != c.dim or v.dim != u.dim:
        raise ValueError("shape mismatch between the two bilinear forms")
    T = f_values(mats, as_digits([v, u], v.dim))
    return int(np.count_nonzero(T[b.bits, 0] == T[c.bits, 1]))


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
    Sampling uses numpy's seeded generator; the samples form one matrix
    stack whose forms come from `f_values`.
    """
    if require_valid:
        _validate_collision_args(b, c, v, u)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 4, size=(samples, b.dim, v.dim), dtype=np.uint8)
    return Fraction(_agreements(A, b, c, v, u), samples)


# matrices collision_frequency_exhaustive may enumerate
COLLISION_MATRIX_BUDGET = 1 << 22


def collision_frequency_exhaustive(b: FVector, c: FVector, v: FVector, u: FVector) -> Fraction:
    """Exact agreement frequency over every matrix A in F^(h x m)."""
    h, m = b.dim, v.dim
    total = 4 ** (h * m)
    check_budget(total, COLLISION_MATRIX_BUDGET, f"would enumerate {total} matrices")
    entries = itertools.chain.from_iterable(itertools.product(range(4), repeat=h * m))
    A = np.fromiter(entries, dtype=np.uint8, count=total * h * m).reshape(total, h, m)
    return Fraction(_agreements(A, b, c, v, u), total)


# -- cliquered ---------------------------------------------------------------


def has_edge(g: MulticolorGraph, u, v) -> bool:
    return frozenset((u, v)) in g.edges


def brute_force_multicolor_clique(g: MulticolorGraph) -> list | None:
    """Exhaustive search for a multicolor clique; None if there is none.

    Raises BudgetExceededError when the class-size product exceeds
    BRUTE_FORCE_BUDGET.
    """
    classes = [g.color_class(i) for i in range(1, g.k + 1)]
    total = 1
    for c in classes:
        total *= len(c)
        check_budget(total, BRUTE_FORCE_BUDGET, f"class-size product of at least {total}")
    for combo in itertools.product(*classes):
        if all(has_edge(g, u, v) for u, v in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def selection_to_clique(g: MulticolorGraph, sel: SelectionCertificate) -> list:
    """Vertices named by the first k entries of a selection for reduce_clique(g)."""
    if g.k == 1:
        return [g.color_class(1)[0]]
    return [g.color_class(i + 1)[sel.indices[i]] for i in range(g.k)]


def clique_to_selection(g: MulticolorGraph, clique: Sequence) -> SelectionCertificate:
    """Selection for reduce_clique(g) that picks the given multicolor clique.

    Expects one vertex per color class; raises if a needed cross edge is
    missing (the input was not a clique).
    """
    by_color = {}
    for v in clique:
        by_color[g.colors[v]] = v
    if sorted(by_color) != list(range(1, g.k + 1)):
        raise ValueError("clique must contain exactly one vertex of every color")
    if g.k == 1:
        return SelectionCertificate((0,))
    indices = [g.color_class(i).index(by_color[i]) for i in range(1, g.k + 1)]
    for j in range(2, g.k + 1):
        for i in range(1, j):
            pair = (by_color[i], by_color[j])
            cross = g.cross_edges(i, j)
            if pair not in cross:
                raise ValueError(f"missing edge between colors {i} and {j}")
            indices.append(cross.index(pair))
    return SelectionCertificate(tuple(indices))


def first_selection(inst: VectorSumInstance) -> SelectionCertificate | None:
    """Exhaustive search over one-per-set selections; None if unsolvable."""
    if inst.empty_sets():
        return None
    total = 1
    for s in inst.sets:
        total *= len(s)
        check_budget(total, BRUTE_FORCE_BUDGET, "selection space of at least {} selections")
    packed = [[v.bits for v in s] for s in inst.sets]
    tbits = inst.target.bits
    for combo in itertools.product(*(range(len(s)) for s in inst.sets)):
        acc = 0
        for s, idx in zip(packed, combo):
            acc ^= s[idx]
        if acc == tbits:
            return SelectionCertificate(combo)
    return None


def validate_no_scalar_multiples(inst: VectorSumInstance) -> None:
    for a, b in itertools.combinations(inst.union(), 2):
        for c in (1, 2, 3):
            if a.scalar_mul(c) == b:
                raise ValueError(
                    f"{b.to_text()} = {c} * {a.to_text()} violates pairwise independence"
                )


# -- explicit ----------------------------------------------------------------


def adjacent(g: ExplicitGraph, u: int, v: int) -> bool:
    return bool((g.adj[u] >> v) & 1)


def from_bool_matrix(mat: np.ndarray) -> ExplicitGraph:
    """Adjacency from a boolean matrix; kept edges need both directions."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    g = ExplicitGraph(n)
    if n == 0:
        return g
    m = np.asarray(mat, dtype=bool)
    m = m & m.T
    np.fill_diagonal(m, False)
    packed = np.packbits(m, axis=1, bitorder="little")
    for u in range(n):
        g.adj[u] = int.from_bytes(packed[u].tobytes(), "little")
    return g


def to_bool_matrix(g: ExplicitGraph) -> np.ndarray:
    if g.n == 0:
        return np.zeros((0, 0), dtype=bool)
    nbytes = (g.n + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in g.adj)
    m = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(g.n, nbytes),
        axis=1,
        bitorder="little",
    )
    return m[:, : g.n].astype(bool)


def write_dimacs(g: ExplicitGraph, fp: IO[str]) -> None:
    fp.write(f"p edge {g.n} {g.num_edges()}\n")
    for u, v in g.edges():
        fp.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(fp: IO[str]) -> ExplicitGraph:
    lines = text_lines(fp, ("p edge N M", "e U V"), skip="c")
    _, _, n, declared = next(lines)
    g = ExplicitGraph(int(n))
    declared = int(declared)
    for tok in lines:
        g.add_edge(int(tok[1]) - 1, int(tok[2]) - 1)
    if g.num_edges() != declared:
        raise ValueError("edge count disagrees with header")
    return g


# -- amplify -----------------------------------------------------------------


def index_of(p, tup) -> int:
    """Big-endian index of a tuple of the power p (first coordinate slowest)."""
    if len(tup) != p.t:
        raise ValueError(f"need a {p.t}-tuple")
    idx = 0
    for c in tup:
        if not 0 <= c < p.base.n:
            raise ValueError("coordinate out of range")
        idx = idx * p.base.n + c
    return idx


def tuple_of(p, idx: int) -> tuple[int, ...]:
    if not 0 <= idx < p.base.n**p.t:
        raise ValueError("index out of range")
    out = []
    for _ in range(p.t):
        idx, c = divmod(idx, p.base.n)
        out.append(c)
    return tuple(reversed(out))


def power_adjacent(p, u, w) -> bool:
    """Strong-product rule: distinct tuples, every coordinate pair equal or adjacent."""
    u, w = tuple(u), tuple(w)
    if len(u) != p.t or len(w) != p.t:
        raise ValueError(f"need {p.t}-tuples")
    if u == w:
        return False
    return all(a == b or adjacent(p.base, a, b) for a, b in zip(u, w))


# -- csp ---------------------------------------------------------------------


def allowed_diffs(csp: CSPInstance, i: int, a_packed: int) -> frozenset[int]:
    """Packed values f(a, v) for v in V_i (the C2-i right-hand sides)."""
    row = csp.allowed[i * csp.num_alphas + a_packed]
    return frozenset(row[row >= 0].tolist())


def target_code(csp: CSPInstance, a_packed: int) -> int:
    """Packed f(a, target) (the C3 right-hand side)."""
    return int(csp.target_codes[a_packed])


def reference_decode(
    csp: CSPInstance, a: Assignment, mode: str = "exact", samples: int = 4096, seed: int = 0
) -> tuple[tuple[FVector, ...], Fraction, int]:
    """Every (c_1, ..., c_k) in lexicographic digit order, scored by how
    many of the decoded tuples t have a.value(t) = sum_i block_linear(a_i, c_i);
    the first maximum, its agreement, and how many candidates tie with it."""
    n = csp.num_vars
    if mode == "exact":
        cols = list(range(n))
    else:
        cols = np.random.default_rng(seed).integers(0, n, min(samples, n)).tolist()
    cands = [FVector.from_digits(d) for d in itertools.product(range(4), repeat=csp.h * csp.ell)]
    alphas = [FVector(csp.h, x) for x in range(csp.num_alphas)]
    contrib = {(x, c): block_linear(x, c) for x in alphas for c in cands}
    best, winner, tied = -1, None, 0
    for comps in itertools.product(cands, repeat=csp.k):
        score = 0
        for t in cols:
            value = FVector.zeros(csp.ell)
            for i, c in enumerate(comps):
                value = value + contrib[alphas[csp.slot(t, i)], c]
            score += value == a.value(t)
        if score > best:
            best, winner, tied = score, comps, 0
        tied += score == best
    return winner, Fraction(best, len(cols)), tied


def zero_assignment(k: int, h: int, ell: int) -> Assignment:
    return Assignment(k, h, ell, [0] * 4 ** (k * h))


def replace_value(a: Assignment, packed_tuple: int, value: FVector) -> Assignment:
    if value.dim != a.ell:
        raise ValueError("value dimension mismatch")
    vals = a.values.tolist()
    vals[packed_tuple] = value.bits
    return Assignment(a.k, a.h, a.ell, vals)


# -- gapgraph ----------------------------------------------------------------


def vertex_by_index(g: GapGraph, idx: int) -> Vertex:
    """Canonical enumeration: B groups (p major, then q, then (y, z)
    with y major), then A groups (p major, then copy index, then val)."""
    if not 0 <= idx < g.num_vertices:
        raise ValueError("vertex index out of range")
    if idx < g.num_b_vertices:
        group, local = divmod(idx, g.b_group_size)
        p, q = divmod(group, g.num_tuples)
        y, z = divmod(local, g.num_values)
        return ("B", p, q, y, z)
    idx -= g.num_b_vertices
    group, val = divmod(idx, g.a_group_size)
    p, i = divmod(group, g.r)
    return ("A", p, i + 1, val)


def planted_family(g: GapGraph, sel: SelectionCertificate) -> list[Vertex]:
    """One vertex per group matching the honest assignment of sel, in
    `planted_clique`'s order, whether or not sel satisfies the instance."""
    hv = honest_assignment(g.csp, sel).values.tolist()
    out: list[Vertex] = []
    for p in range(g.num_tuples):
        for q in range(g.num_tuples):
            out.append(("B", p, q, hv[p], hv[q]))
    for p in range(g.num_tuples):
        for i in range(1, g.r + 1):
            out.append(("A", p, i, hv[p]))
    return out
