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

`GapGraph` reads the binary checks per difference from the CSP's int64
constraint table and applies the pair rule in one vectorized kernel;
adjacency, clique checks, the planted family check, the explicit export
and the implicit clique search are all conjunctions of that kernel over
assignment pairs.  A vertex that is not sound on its own (internally
inconsistent, or failing a check between its own variables) is adjacent
to nothing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .cliquered import SelectionCertificate, verify_selection
from .csp import CSPInstance, honest_assignment
from .errors import BudgetExceededError
from .explicit import ExplicitGraph
from .field import FVector

Vertex = tuple

# assignment pairs per pair-rule call in export_explicit; bounds the
# size of its temporaries
_STRIP_PAIRS = 1 << 18


@dataclass(frozen=True)
class CliqueCheck:
    ok: bool
    violating_pair: tuple[Vertex, Vertex] | None


class GapGraph:
    def __init__(self, csp: CSPInstance, r: int):
        if r < 1:
            raise ValueError("replication must be positive")
        self.csp = csp
        self.r = r
        self.num_tuples = csp.num_vars
        self.num_values = 4**csp.ell
        self.num_b_groups = self.num_tuples**2
        self.num_a_groups = self.num_tuples * r
        self.b_group_size = self.num_values**2
        self.a_group_size = self.num_values
        self.num_b_vertices = self.num_b_groups * self.b_group_size
        self.num_a_vertices = self.num_a_groups * self.a_group_size
        self.num_vertices = self.num_b_vertices + self.num_a_vertices

    # -- counting ---------------------------------------------------------

    def planted_size(self) -> int:
        return self.num_b_groups + self.num_a_groups

    # -- vertex handling ----------------------------------------------------

    def b_vertex(self, p: int, q: int, y: int, z: int) -> Vertex:
        self._check_tuple(p)
        self._check_tuple(q)
        self._check_value(y)
        self._check_value(z)
        return ("B", p, q, y, z)

    def a_vertex(self, p: int, i: int, val: int) -> Vertex:
        self._check_tuple(p)
        if not 1 <= i <= self.r:
            raise ValueError(f"copy index {i} outside 1..{self.r}")
        self._check_value(val)
        return ("A", p, i, val)

    def _check_tuple(self, p: int) -> None:
        if not 0 <= p < self.num_tuples:
            raise ValueError(f"packed tuple {p} out of range")

    def _check_value(self, v: int) -> None:
        if not 0 <= v < self.num_values:
            raise ValueError(f"packed value {v} out of range")

    def validate_vertex(self, v: Vertex) -> Vertex:
        if v[0] == "B" and len(v) == 5:
            return self.b_vertex(*v[1:])
        if v[0] == "A" and len(v) == 4:
            return self.a_vertex(*v[1:])
        raise ValueError(f"malformed vertex {v!r}")

    def assignments(self, v: Vertex) -> list[tuple[int, int]]:
        """(variable, value) pairs contributed by a vertex, possibly with
        repeated variables in degenerate groups."""
        if v[0] == "B":
            _, p, q, y, z = v
            return [(p ^ q, y ^ z), (p, y), (q, z)]
        _, p, _i, val = v
        return [(p, val)]

    def vertex_by_index(self, idx: int) -> Vertex:
        """Canonical enumeration: B groups (p major, then q, then (y, z)
        with y major), then A groups (p major, then copy index, then val)."""
        if not 0 <= idx < self.num_vertices:
            raise ValueError("vertex index out of range")
        if idx < self.num_b_vertices:
            group, local = divmod(idx, self.b_group_size)
            p, q = divmod(group, self.num_tuples)
            y, z = divmod(local, self.num_values)
            return ("B", p, q, y, z)
        idx -= self.num_b_vertices
        group, val = divmod(idx, self.a_group_size)
        p, i = divmod(group, self.r)
        return ("A", p, i + 1, val)

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
        """(len, 3) variable and value arrays, one row per vertex; an A
        vertex repeats its single assignment, which changes no check."""
        rows = [self.assignments(v) * (1 if v[0] == "B" else 3) for v in vertices]
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 3, 2)
        return arr[..., 0], arr[..., 1]

    def _sound(self, var: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Per row of _vertex_arrays: is the vertex's own union sound?"""
        ok = self._pairs_ok(var[:, :, None], val[:, :, None], var[:, None, :], val[:, None, :])
        return ok.all(axis=(1, 2))

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

    def planted_clique(
        self, sel: SelectionCertificate, allow_unsatisfying: bool = False
    ) -> list[Vertex]:
        """One vertex per group matching the honest assignment of sel.

        Size is num_b_groups + num_a_groups; with a satisfying selection
        is_clique accepts it (with r = |F|^{kh} that is twice the number
        of B groups).
        """
        if not allow_unsatisfying and not verify_selection(self.csp.inst, sel):
            raise ValueError("selection does not satisfy the instance")
        hv = honest_assignment(self.csp, sel).values
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
        hv = np.array(honest_assignment(self.csp, sel).values, dtype=np.int64)
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
        value = np.zeros(self.num_tuples, dtype=np.int64)
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

    def export_explicit(self, budget: int = 20_000) -> tuple[ExplicitGraph, list[Vertex]]:
        """Materialize vertices (canonical order) and the full adjacency.

        Self-unsound vertices are isolated.  The rest are checked against
        each other in strips of rows, each a single pair-rule call over
        all 3 x 3 assignment pairs, and packed into adjacency bitsets.
        """
        n = self.num_vertices
        if n > budget:
            raise BudgetExceededError(
                f"graph has {n} vertices", needed=n, budget=budget
            )
        vertices: list[Vertex] = [self.vertex_by_index(i) for i in range(n)]
        var, val = self._vertex_arrays(vertices)
        live = np.flatnonzero(self._sound(var, val))
        cols = (var[live][None, None, :, :], val[live][None, None, :, :])
        graph = ExplicitGraph(n)
        nbytes = (n + 7) // 8
        step = max(1, _STRIP_PAIRS // (9 * max(1, len(live))))
        for start in range(0, len(live), step):
            rows = live[start : start + step]
            block = self._pairs_ok(
                var[rows][:, :, None, None], val[rows][:, :, None, None], *cols
            ).all(axis=(1, 3))
            block[np.arange(len(rows)), np.arange(start, start + len(rows))] = False
            strip = np.zeros((len(rows), n), dtype=bool)
            strip[:, live] = block
            packed = np.packbits(strip, axis=1, bitorder="little")
            for local, v in enumerate(rows.tolist()):
                graph.adj[v] = int.from_bytes(packed[local].tobytes()[:nbytes], "little")
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
    for line in fp:
        tok = line.split()
        if not tok or tok[0] == "#":
            continue
        if len(tok) < 2 or len(tok) != {"B": 4, "A": 5}.get(tok[1]):
            raise ValueError(f"malformed sidecar line {line!r}")
        idx = int(tok[0])
        if idx in out:
            raise ValueError(f"sidecar id {idx} listed twice")
        if tok[1] == "B":
            packed = FVector.from_text(tok[2])
            vals = FVector.from_text(tok[3])
            if packed.dim != 2 * kh or vals.dim != 2 * ell:
                raise ValueError("sidecar widths disagree with graph parameters")
            p = packed.bits & (4**kh - 1)
            q = packed.bits >> (2 * kh)
            y = vals.bits & (4**ell - 1)
            z = vals.bits >> (2 * ell)
            out[idx] = g.b_vertex(p, q, y, z)
        else:
            p = FVector.from_text(tok[2])
            i = int(tok[3])
            val = FVector.from_text(tok[4])
            if p.dim != kh or val.dim != ell:
                raise ValueError("sidecar widths disagree with graph parameters")
            out[idx] = g.a_vertex(p.bits, i, val.bits)
    ids = range(1, len(out) + 1)
    if out.keys() != set(ids):
        raise ValueError(f"sidecar ids are not 1..{len(out)}")
    return [out[i] for i in ids]


def write_clique_set(vertices: Iterable[Vertex], g: GapGraph, fp: IO[str]) -> None:
    """Vertex descriptor lines (same shape as the sidecar, without ids)."""
    fp.writelines(f"{d}\n" for d in _descriptors(sorted(set(vertices)), g))
