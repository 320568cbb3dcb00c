"""FGLSS-style gap graph over the tuple CSP.

Vertex universe (never materialized unless exported):

  B vertices  ("B", p, q, y, z)  one group per ordered tuple pair (p, q),
              holding the additivity-satisfying triples: the values of
              x_{p+q}, x_p, x_q are (y+z, y, z), so y, z range freely
              over F^ell and the first value is forced.
  A vertices  ("A", p, i, val)   r copy groups per tuple p, one vertex
              per value val in F^ell.

Each vertex is a partial assignment.  One rule decides everything: a
set of assignments is *sound* when its union is consistent and violates
no constraint it fully covers.  Two distinct vertices are adjacent
exactly when their union is sound, and a set of two or more vertices
is a clique exactly when the union of all its members is sound.  Both
statements agree because, for this constraint system, soundness is a
conjunction over pairs of assignments (var_a = val_a, var_b = val_b):

  * the same variable holds the same value;
  * the zero tuple holds 0;
  * distinct variables pass the binary constraints of their packed
    difference d = var_a XOR var_b: a single nonzero slot i with value
    alpha demands the value difference lie in {f(alpha, v) : v in V_i};
    all slots equal and nonzero demand it equal f(alpha, target).

Additivity triples never straddle two vertices: a B vertex's variable
set {p+q, p, q} is XOR-closed, so a triple with two variables on one
side already lives entirely on that side, and the remaining degenerate
triples collapse to the zero-tuple rule.

`GapGraph` reads the binary checks per difference from the CSP's
constraint table (values keep its dtype) and writes the pair rule once,
as one vectorized kernel, `_pairs_ok`.  Adjacency, clique checks and the
planted family check apply it to assignment pairs.  Apart from the
zero-tuple terms, the rule reads only the variable and value
differences.  So each assignment packs into one code, var << 2 ell |
val, two codes XOR to their differences, and `_code_table` tabulates
the rule once over all T*V codes (T tuples, V values), on first use.
The table exists while T*V is within EXPORT_VERTEX_BUDGET, which every
exportable graph meets.  Both row builders read it: the explicit export
and the rows of the implicit clique search, whose rows fall back to
`_pairs_ok` past that budget.  Both take their vertex arrays from
canonical indices by index arithmetic, and their vertex tuples from
those arrays through `_vertices`, the one index-to-tuple decoder.  A
vertex that is not sound on its own (internally inconsistent, or
failing a check between its own variables) is adjacent to nothing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .cliquered import SelectionCertificate, verify_selection
from .csp import CSPInstance, honest_assignment
from .errors import check_budget
from .explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph, bit_indices, mask_bits
from .field import FVector
from .textio import int_fields, text_lines

Vertex = tuple
# largest family planted_clique builds
PLANTED_BUDGET = 200_000


@dataclass(frozen=True)
class CliqueCheck:
    ok: bool
    violating_pair: tuple[Vertex, Vertex] | None


class GapSizes:
    """Group and vertex counts of the gap graph over k slots of F^h,
    values in F^ell and r copy groups per tuple, as exact ints."""

    def __init__(self, k: int, h: int, ell: int, r: int):
        self.r = r
        self.num_tuples = 4 ** (k * h)
        self.num_values = 4**ell
        self.num_b_groups = self.num_tuples**2
        self.num_a_groups = self.num_tuples * r
        self.b_group_size = self.num_values**2
        self.a_group_size = self.num_values
        self.num_b_vertices = self.num_b_groups * self.b_group_size
        self.num_a_vertices = self.num_a_groups * self.a_group_size
        self.num_vertices = self.num_b_vertices + self.num_a_vertices

    def planted_size(self) -> int:
        return self.num_b_groups + self.num_a_groups


class GapGraph(GapSizes):
    def __init__(self, csp: CSPInstance, r: int):
        if r < 1:
            raise ValueError("replication must be positive")
        super().__init__(csp.k, csp.h, csp.ell, r)
        self.csp = csp

    # -- vertex handling ----------------------------------------------------

    def validate_vertex(self, v: Vertex) -> Vertex:
        """v as a tuple, once it names a vertex of this graph: ("B", p, q,
        y, z) or ("A", p, copy, val), each packed tuple and value in range."""
        if v[0] == "B" and len(v) == 5:
            tuples, values = v[1:3], v[3:]
        elif v[0] == "A" and len(v) == 4:
            tuples, values = v[1:2], v[3:]
        else:
            raise ValueError(f"malformed vertex {v!r}")
        for p in tuples:
            if not 0 <= p < self.num_tuples:
                raise ValueError(f"packed tuple {p} out of range")
        if v[0] == "A" and not 1 <= v[2] <= self.r:
            raise ValueError(f"copy index {v[2]} outside 1..{self.r}")
        for x in values:
            if not 0 <= x < self.num_values:
                raise ValueError(f"packed value {x} out of range")
        return tuple(v)

    def assignments(self, v: Vertex) -> list[tuple[int, int]]:
        """(variable, value) pairs contributed by a vertex, possibly with
        repeated variables in degenerate groups."""
        if v[0] == "B":
            _, p, q, y, z = v
            return [(p ^ q, y ^ z), (p, y), (q, z)]
        _, p, _i, val = v
        return [(p, val)]

    # -- the pair rule ----------------------------------------------------

    def _pairs_ok(self, var_a, val_a, var_b, val_b) -> np.ndarray:
        """Elementwise over broadcast arrays: may var_a hold val_a while
        var_b holds val_b?

        The same variable must hold the same value, two distinct
        variables must pass the checks of their difference, and the zero
        tuple may only hold 0.  Every adjacency and clique decision in
        this module is a conjunction of this rule over assignment pairs.
        """
        csp = self.csp
        d = var_a ^ var_b
        diff = val_a ^ val_b
        code = csp.c3_code[d]
        ok = ((d != 0) | (diff == 0)) & ((code < 0) | (diff == code))
        ok &= csp.c2_ok(csp.c2_row[d], diff)
        return ok & ((var_a != 0) | (val_a == 0)) & ((var_b != 0) | (val_b == 0))

    def _vertex_arrays(self, vertices: Sequence[Vertex]) -> tuple[np.ndarray, np.ndarray]:
        """(len, 3) int64 variable and table-dtype value arrays, one row per
        vertex; an A vertex repeats its single assignment, which changes no check."""
        rows = [self.assignments(v) * (1 if v[0] == "B" else 3) for v in vertices]
        arr = np.array(rows, dtype=self.csp.allowed.dtype).reshape(len(rows), 3, 2)
        return arr[..., 0].astype(np.int64, copy=False), arr[..., 1]

    def _index_arrays(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_vertex_arrays of the vertices at canonical indices idx, by int64
        index arithmetic, exact while the vertex count is at most 2^63."""
        b = (idx < self.num_b_vertices)[:, None]
        group, local = np.divmod(idx, self.b_group_size)
        p, q = np.divmod(group, self.num_tuples)
        y, z = np.divmod(local, self.num_values)
        group, a_val = np.divmod(idx - self.num_b_vertices, self.a_group_size)
        a_var = group // self.r
        var = np.where(b, np.stack([p ^ q, p, q], axis=1), a_var[:, None])
        val = np.where(b, np.stack([y ^ z, y, z], axis=1), a_val[:, None])
        return var, val

    def _vertices(self, idx: np.ndarray, var: np.ndarray, val: np.ndarray) -> list[Vertex]:
        """The vertex tuples at ascending canonical indices idx, read off
        their _index_arrays var and val: B groups (p major, then q, then
        (y, z) with y major), then A groups (p major, then copy index, then
        val).  Entries are Python ints."""
        nb = int(np.searchsorted(idx, self.num_b_vertices))
        copies = (idx[nb:] - self.num_b_vertices) // self.a_group_size % self.r + 1
        out: list[Vertex] = list(
            zip(repeat("B"), *var[:nb, 1:].T.tolist(), *val[:nb, 1:].T.tolist())
        )
        out += zip(repeat("A"), var[nb:, 0].tolist(), copies.tolist(), val[nb:, 0].tolist())
        return out

    @cached_property
    def _code_table(self) -> np.ndarray | None:
        """The pair rule without its zero-tuple terms over every code var
        << 2 ell | val, so two assignments pass exactly when the XOR of
        their codes indexes True; None while T*V is past
        EXPORT_VERTEX_BUDGET."""
        if self.num_tuples * self.num_values > EXPORT_VERTEX_BUDGET:
            return None
        every = np.arange(self.num_tuples * self.num_values)
        return self._pairs_ok(every >> 2 * self.csp.ell, every & (self.num_values - 1), 0, 0)

    def _sound(self, var: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Per row of _vertex_arrays: is the vertex's own union sound?"""
        ok = self._pairs_ok(var[:, :, None], val[:, :, None], var[:, None, :], val[:, None, :])
        return ok.all(axis=(1, 2))

    def _rows(self, var: np.ndarray, val: np.ndarray) -> Callable[[int, int], int]:
        """Row lookup over the vertices of _vertex_arrays rows: row(i,
        within) is the bitset of the positions in within adjacent to
        position i, computed when asked and only over those positions
        (within = -1 asks for all of them).  Both vertices must be sound
        and pass the pair rule on all 3x3 assignment pairs; bit i is clear.

        With a code table, the pairs are one lookup of i's three codes XOR
        the candidates' codes; the zero-tuple terms it leaves out hold for
        every sound vertex.  Past the table's budget they go through
        _pairs_ok."""
        sound = self._sound(var, val)
        full = (1 << len(sound)) - 1
        table = self._code_table
        codes = None if table is None else (var << 2 * self.csp.ell) | val

        def row(i: int, within: int) -> int:
            if not sound[i]:
                return 0
            at = bit_indices(within & full)
            mask = np.zeros(len(sound), dtype=bool)
            if table is None:
                ok = self._pairs_ok(var[i, :, None, None], val[i, :, None, None], var[at], val[at])
                mask[at] = ok.all(axis=(0, 2)) & sound[at]
            else:
                mask[at] = sound[at]
                # flat position // 9 is the candidate's place in at
                mask[at[np.flatnonzero(~table[codes[at].reshape(-1, 1) ^ codes[i]]) // 9]] = False
            mask[i] = False
            return mask_bits(mask)

        return row

    def self_ok(self, v: Vertex) -> bool:
        return bool(self._sound(*self._vertex_arrays([v]))[0])

    def adjacent(self, u: Vertex, w: Vertex) -> bool:
        if u == w:
            return False
        var, val = (a.ravel() for a in self._vertex_arrays([u, w]))
        return bool(self._pairs_ok(var[:, None], val[:, None], var, val).all())

    def _first_bad_pair(
        self, value: np.ndarray, assigned: np.ndarray
    ) -> tuple[int, int] | None:
        """Smallest (a, b) with a < b, both assigned, whose values fail
        the checks of a ^ b; swept once per checked difference."""
        a = np.flatnonzero(assigned)
        first = None
        for d in self.csp.checked:
            b = a ^ d
            keep = (a < b) & assigned[b]
            aa, bb = a[keep], b[keep]
            bad = np.flatnonzero(~self._pairs_ok(aa, value[aa], bb, value[bb]))
            if bad.size:
                pair = (int(aa[bad[0]]), int(bb[bad[0]]))
                first = pair if first is None else min(first, pair)
        return first

    # -- cliques -----------------------------------------------------------

    def planted_clique(self, sel: SelectionCertificate) -> list[Vertex]:
        """One vertex per group matching the honest assignment of sel.

        Size is num_b_groups + num_a_groups; with a satisfying selection
        is_clique accepts it (with r = |F|^{kh} that is twice the number
        of B groups).  The size is checked against PLANTED_BUDGET first.
        """
        n = self.planted_size()
        check_budget(n, PLANTED_BUDGET, "planted clique has {} vertices")
        if not verify_selection(self.csp.inst, sel):
            raise ValueError("selection does not satisfy the instance")
        hv = honest_assignment(self.csp, sel).values.tolist()  # Python ints in the tuples
        out: list[Vertex] = []
        for p in range(self.num_tuples):
            for q in range(self.num_tuples):
                out.append(("B", p, q, hv[p], hv[q]))
        for p in range(self.num_tuples):
            for i in range(1, self.r + 1):
                out.append(("A", p, i, hv[p]))
        return out

    def planted_clique_ok(self, sel: SelectionCertificate) -> bool:
        """Clique property of the whole planted family, without
        materializing it.

        Planted vertices all read off the honest assignment, whose union
        assigns every variable, so the family is a clique exactly when
        that assignment passes the pair rule everywhere.  Agrees with
        is_clique(planted_clique(sel)) but stays feasible when the family
        has millions of members."""
        if not verify_selection(self.csp.inst, sel):
            return False
        hv = honest_assignment(self.csp, sel).values
        return self._first_bad_pair(hv, np.ones(len(hv), dtype=bool)) is None

    def is_clique(self, vertices: Iterable[Vertex]) -> CliqueCheck:
        """All-pairs adjacency, decided without quadratic pair scans.

        Equivalent to checking adjacent(u, w) for every pair: per-vertex
        soundness, a single consistency pass over the union assignment,
        and binary checks over distinct assigned variable pairs.  The
        reported violating pair is the first in this scan order (vertices
        and variables scanned in sorted order)."""
        vs = sorted(set(vertices))
        for v in vs:
            self.validate_vertex(v)
        if len(vs) <= 1:
            return CliqueCheck(True, None)
        var, val = self._vertex_arrays(vs)
        sound = self._sound(var, val)
        if not sound.all():
            i = int(np.argmin(sound))
            return CliqueCheck(False, (vs[i], vs[1 if i == 0 else 0]))
        var, val = var.ravel(), val.ravel()
        # the first vertex to assign a variable owns it and sets its value
        assigned_vars, first = np.unique(var, return_index=True)
        owner = np.full(self.num_tuples, -1)
        owner[assigned_vars] = first // 3
        value = np.zeros(self.num_tuples, dtype=val.dtype)
        value[assigned_vars] = val[first]
        conflict = np.flatnonzero(~self._pairs_ok(var, val, var, value[var]))
        if conflict.size:
            i = conflict[0]
            return CliqueCheck(False, (vs[owner[var[i]]], vs[i // 3]))
        bad = self._first_bad_pair(value, owner >= 0)
        if bad is None:
            return CliqueCheck(True, None)
        return CliqueCheck(False, (vs[owner[bad[0]]], vs[owner[bad[1]]]))

    # -- explicit export ------------------------------------------------------

    def export_explicit(
        self, budget: int = EXPORT_VERTEX_BUDGET
    ) -> tuple[ExplicitGraph, list[Vertex]]:
        """Materialize vertices (canonical order) and the full adjacency.

        The vertex arrays come from the canonical indices, and the vertex
        tuples from those arrays.  Each distinct code c of a sound vertex
        gets a mask from _code_table, the bitset of sound vertices whose
        three codes all pass the table against c.  A sound vertex's row
        is the AND of its three codes' masks, without itself;
        self-unsound vertices are isolated.  The table exists for every
        export of at most EXPORT_VERTEX_BUDGET^2 vertices, since the
        vertex count is at least (T*V)^2.
        """
        n = self.num_vertices
        check_budget(n, budget, "graph has {} vertices")
        idx = np.arange(n)
        var, val = self._index_arrays(idx)
        vertices = self._vertices(idx, var, val)
        live = np.flatnonzero(self._sound(var, val))
        codes = (var[live] << 2 * self.csp.ell) | val[live]
        distinct, which = np.unique(codes, return_inverse=True)
        masks = np.zeros((len(distinct), n), dtype=bool)
        masks[:, live] = self._code_table[distinct[:, None, None] ^ codes].all(axis=2)
        bits = [mask_bits(m) for m in masks]
        graph = ExplicitGraph(n)
        for v, (a, b, c) in zip(live.tolist(), which.reshape(codes.shape).tolist()):
            graph.adj[v] = bits[a] & bits[b] & bits[c] & ~(1 << v)
        return graph, vertices


def build_gap_graph(csp: CSPInstance, r: int) -> GapGraph:
    return GapGraph(csp, r)


class _DigitText(dict):
    """Per-call memo: packed int -> `FVector.to_text` at one width, so each
    distinct value is formatted (and range-checked) once."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, bits: int) -> str:
        text = self[bits] = FVector(self.dim, bits).to_text()
        return text


def _descriptors(vertices: Iterable[Vertex], g: GapGraph) -> Iterable[str]:
    """The text of each vertex, the one vertex format of `graph.map` and
    `planted.clq`:

      B <p><q> <y><z>          ("B", p, q, y, z)
      A <p> <copy> <value>     ("A", p, copy, value)

    Each <...> is the digit string of a packed tuple (kh digits) or value
    (ell digits), coordinate 0 first; `read_sidecar` parses it back."""
    tup = _DigitText(g.csp.k * g.csp.h)
    val = _DigitText(g.csp.ell)
    for v in vertices:
        if v[0] == "B":
            _, p, q, y, z = v
            yield f"B {tup[p]}{tup[q]} {val[y]}{val[z]}"
        else:
            _, p, i, x = v
            yield f"A {tup[p]} {i} {val[x]}"


def write_sidecar(vertices: Sequence[Vertex], g: GapGraph, fp: IO[str]) -> None:
    """Map integer DIMACS ids (1-based) to vertex descriptors."""
    fp.writelines(f"{idx} {d}\n" for idx, d in enumerate(_descriptors(vertices, g), start=1))


def read_sidecar(fp: IO[str], g: GapGraph) -> list[Vertex]:
    """Inverse of `write_sidecar`; the ids must be 1..N, each listed once."""
    kh = g.csp.k * g.csp.h
    ell = g.csp.ell
    out: dict[int, Vertex] = {}

    def malformed() -> ValueError:
        return ValueError(f"malformed sidecar line {' '.join(tok)!r}")

    for tok in text_lines(fp):
        if len(tok) < 2 or len(tok) != {"B": 4, "A": 5}.get(tok[1]):
            raise malformed()
        (idx,) = int_fields(tok[:1], malformed)
        if idx in out:
            raise ValueError(f"sidecar id {idx} listed twice")
        # a B line packs (p, q) and (y, z) into one digit string each, low half first
        halves = 2 if tok[1] == "B" else 1
        tup, val = FVector.from_text(tok[2]), FVector.from_text(tok[-1])
        if tup.dim != halves * kh or val.dim != halves * ell:
            raise ValueError("sidecar widths disagree with graph parameters")
        if halves == 2:
            p, q = tup.bits & (4**kh - 1), tup.bits >> (2 * kh)
            v = ("B", p, q, val.bits & (4**ell - 1), val.bits >> (2 * ell))
        else:
            v = ("A", tup.bits, *int_fields(tok[3:4], malformed), val.bits)
        out[idx] = g.validate_vertex(v)
    ids = range(1, len(out) + 1)
    if out.keys() != set(ids):
        raise ValueError(f"sidecar ids are not 1..{len(out)}")
    return [out[i] for i in ids]


def write_clique_set(vertices: Iterable[Vertex], g: GapGraph, fp: IO[str]) -> None:
    """Vertex descriptor lines (same shape as the sidecar, without ids)."""
    fp.writelines(f"{d}\n" for d in _descriptors(sorted(set(vertices)), g))
