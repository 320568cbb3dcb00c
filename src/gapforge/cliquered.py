"""Reduction from multicolor clique to a vector-sum selection problem.

A k-multicolor graph has its vertex set split into k color classes; a
multicolor clique picks one vertex per class, pairwise adjacent.  The
reduction emits one set of 0/1 gadget vectors per class (vertex gadgets)
and one per unordered class pair (edge gadgets), over GF(4)^m with

    m = k + k(k-1)/2 + k^2 * ceil(log2(|V| + 1)),

and a target t that is 1 on the first k + k(k-1)/2 coordinates and 0 on
the rest.  Picking one vector per set sums to t exactly when the picked
edge gadgets are the edges of a clique on the picked vertices: the delta
and pair-slot sections force one pick per class/pair, and the trailing
section holds k^2 blocks of vertex codes arranged so each edge gadget
cancels the codes written by its two endpoint gadgets.

Vertex codes sigma(v) are the binary expansions of 1..|V| (never zero),
assigned in sorted vertex order, least significant bit first.  Class
pairs {i, j} with i < j are numbered colexicographically:
pair_index({i,j}) = (j-1)(j-2)/2 + i, so {1,2} -> 1, {1,3} -> 2,
{2,3} -> 3, {1,4} -> 4, ...
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Hashable, Iterable, Sequence

from .errors import BudgetExceededError
from .field import FVector

Vertex = Hashable


def pair_index(i: int, j: int) -> int:
    """Colexicographic number (1-based) of the class pair {i, j}, i < j."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return (j - 1) * (j - 2) // 2 + i


class MulticolorGraph:
    """Undirected graph with vertices partitioned into k color classes."""

    def __init__(self, k: int, colors: dict, edges: Iterable[tuple]):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.colors = dict(colors)
        for v, c in self.colors.items():
            if not 1 <= c <= k:
                raise ValueError(f"vertex {v!r} has color {c} outside 1..{k}")
        self.edges: set[frozenset] = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self loops not allowed")
            if u not in self.colors or v not in self.colors:
                raise ValueError("edge endpoint missing a color")
            self.edges.add(frozenset((u, v)))

    def vertices(self) -> list:
        return sorted(self.colors)

    def color_class(self, i: int) -> list:
        return sorted(v for v, c in self.colors.items() if c == i)

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self.edges

    def cross_edges(self, i: int, j: int) -> list[tuple]:
        """Edges with one endpoint of color i and one of color j (i < j),
        returned as (color-i vertex, color-j vertex) pairs, sorted."""
        out = []
        for e in self.edges:
            u, v = tuple(e)
            cu, cv = self.colors[u], self.colors[v]
            if {cu, cv} == {i, j}:
                out.append((u, v) if cu == i else (v, u))
        return sorted(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MulticolorGraph)
            and self.k == other.k
            and self.colors == other.colors
            and self.edges == other.edges
        )


@dataclass(frozen=True)
class SelectionCertificate:
    """One chosen vector index per set (0-based, in set order)."""

    indices: tuple[int, ...]


class VectorSumInstance:
    """Sets of 0/1 vectors in GF(4)^m with a sum target.

    A solution picks one vector from each set so the GF(4) sum equals the
    target.  Sets may be empty (the instance is then trivially
    unsolvable); `empty_sets()` lists them.  Distinct vectors in the set
    union are never scalar multiples of one another; for 0/1 vectors this
    follows from distinctness (c*v has a coordinate outside {0,1} for
    c in {w, w+1} and nonzero v), and `validate_no_scalar_multiples`
    checks it directly.
    """

    def __init__(self, sets: Sequence[Sequence[FVector]], target: FVector):
        self.sets = [list(s) for s in sets]
        if not self.sets:
            raise ValueError("need at least one set")
        self.target = target
        m = target.dim
        for si, s in enumerate(self.sets):
            for v in s:
                if v.dim != m:
                    raise ValueError(f"set {si}: vector dimension {v.dim} != {m}")
                if not v.is_zero_one():
                    raise ValueError(f"set {si}: vector {v.to_text()} has entries outside {{0,1}}")
            if len(set(s)) != len(s):
                raise ValueError(f"set {si}: duplicate vectors")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.target.dim

    def union(self) -> list[FVector]:
        seen: dict[FVector, None] = {}
        for s in self.sets:
            for v in s:
                seen.setdefault(v)
        return list(seen)

    def empty_sets(self) -> list[int]:
        return [i for i, s in enumerate(self.sets) if not s]

    def validate_no_scalar_multiples(self) -> None:
        union = self.union()
        for a, b in itertools.combinations(union, 2):
            for c in (1, 2, 3):
                if a.scalar_mul(c) == b:
                    raise ValueError(
                        f"{b.to_text()} = {c} * {a.to_text()} violates pairwise independence"
                    )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorSumInstance)
            and self.sets == other.sets
            and self.target == other.target
        )


def verify_selection(inst: VectorSumInstance, sel: SelectionCertificate) -> bool:
    """Does the selected family sum to the target?"""
    if len(sel.indices) != inst.num_sets:
        raise ValueError("selection length differs from number of sets")
    acc = 0
    for s, idx in zip(inst.sets, sel.indices):
        if not 0 <= idx < len(s):
            raise ValueError(f"index {idx} out of range for set of size {len(s)}")
        acc ^= s[idx].bits
    return acc == inst.target.bits


def _sigma_codes(vertices: Sequence[Vertex], nbits: int) -> dict[Vertex, int]:
    # vertex -> packed 0/1 code of its 1-based rank, LSB first; never zero
    codes = {}
    for rank, v in enumerate(sorted(vertices), start=1):
        bits = 0
        for b in range(nbits):
            if (rank >> b) & 1:
                bits |= 1 << (2 * b)
        codes[v] = bits
    return codes


def reduce_clique(g: MulticolorGraph) -> VectorSumInstance:
    """Build the vector-sum instance whose solutions are the multicolor
    cliques of g.

    Output layout (coordinates 0-based):
      [0, k)                        one delta slot per color class
      [k, k + k(k-1)/2)             one slot per class pair, colex order
      [k + k(k-1)/2, m)             k*k blocks of L = ceil(log2(|V|+1))
                                    coordinates; block (i, j) starts at
                                    k + k(k-1)/2 + ((i-1)k + (j-1)) * L

    Vertex gadget for v of color i: 1 in delta slot i, sigma(v) in every
    block (i, j) with j != i.  Edge gadget for {v, u} with colors i < j:
    1 in pair slot {i,j}, sigma(v) in block (i, j), sigma(u) in block
    (j, i).  Sets are ordered: vertex sets for classes 1..k, then edge
    sets for pairs in colex order.  Classes or pairs without vertices or
    edges produce empty sets (instance unsolvable, flagged, not an error).

    At k = 1 there are no grid blocks to hold sigma codes, so all vertex
    gadgets coincide; the set collapses to that single vector, which is
    faithful (any vertex is a 1-clique).
    """
    k = g.k
    verts = g.vertices()
    n = len(verts) + 1
    L = max(1, (n - 1).bit_length())  # ceil(log2(n)) for n >= 2
    npairs = k * (k - 1) // 2
    m = k + npairs + k * k * L
    sigma = _sigma_codes(verts, L)
    grid_base = k + npairs

    def block_offset(i: int, j: int) -> int:
        return grid_base + ((i - 1) * k + (j - 1)) * L

    sets: list[list[FVector]] = []
    for i in range(1, k + 1):
        s = []
        for v in g.color_class(i):
            bits = 1 << (2 * (i - 1))
            for j in range(1, k + 1):
                if j != i:
                    bits |= sigma[v] << (2 * block_offset(i, j))
            vec = FVector(m, bits)
            if k > 1 or vec not in s:
                s.append(vec)
        sets.append(s)
    for j in range(1, k + 1):
        for i in range(1, j):
            s = []
            for v, u in g.cross_edges(i, j):  # v has color i, u color j
                bits = 1 << (2 * (k + pair_index(i, j) - 1))
                bits |= sigma[v] << (2 * block_offset(i, j))
                bits |= sigma[u] << (2 * block_offset(j, i))
                s.append(FVector(m, bits))
            sets.append(s)

    target_bits = 0
    for pos in range(k + npairs):
        target_bits |= 1 << (2 * pos)
    return VectorSumInstance(sets, FVector(m, target_bits))


def selection_to_clique(g: MulticolorGraph, sel: SelectionCertificate) -> list:
    """Vertices named by the first k entries of a selection for reduce_clique(g)."""
    if g.k == 1:
        return [g.color_class(1)[0]]
    return [g.color_class(i + 1)[sel.indices[i]] for i in range(g.k)]


def clique_to_selection(g: MulticolorGraph, clique: Sequence[Vertex]) -> SelectionCertificate:
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


def brute_force_multicolor_clique(
    g: MulticolorGraph, budget: int = 10_000_000
) -> list | None:
    """Exhaustive search for a multicolor clique; None if there is none.

    Raises BudgetExceededError when the class-size product exceeds budget.
    """
    classes = [g.color_class(i) for i in range(1, g.k + 1)]
    total = 1
    for c in classes:
        total *= len(c)
        if total > budget:
            raise BudgetExceededError(
                f"class-size product exceeds budget {budget}",
                needed=total,
                budget=budget,
            )
    for combo in itertools.product(*classes):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def brute_force_vector_sum(
    inst: VectorSumInstance, budget: int = 10_000_000
) -> SelectionCertificate | None:
    """Exhaustive search over one-per-set selections; None if unsolvable."""
    if inst.empty_sets():
        return None
    total = 1
    for s in inst.sets:
        total *= len(s)
        if total > budget:
            raise BudgetExceededError(
                f"selection-space size exceeds budget {budget}",
                needed=total,
                budget=budget,
            )
    packed = [[v.bits for v in s] for s in inst.sets]
    tbits = inst.target.bits
    for combo in itertools.product(*(range(len(s)) for s in inst.sets)):
        acc = 0
        for s, idx in zip(packed, combo):
            acc ^= s[idx]
        if acc == tbits:
            return SelectionCertificate(combo)
    return None


# -- file formats --------------------------------------------------------
#
# Multicolor graph (vertices are positive integers 1..n):
#     p mcol <n> <#edges> <k>
#     c <vertex> <color>          one line per vertex
#     e <u> <v>                   one line per edge
#
# Vector-sum instance:
#     vsi <numSets> <m>
#     t <digits>
#     s <setIndex> <digits>       setIndex 1-based; empty sets have no lines


def write_mcol(g: MulticolorGraph, fp: IO[str]) -> None:
    verts = g.vertices()
    fp.write(f"p mcol {len(verts)} {len(g.edges)} {g.k}\n")
    for v in verts:
        fp.write(f"c {v} {g.colors[v]}\n")
    for e in sorted(tuple(sorted(e)) for e in g.edges):
        fp.write(f"e {e[0]} {e[1]}\n")


def read_mcol(fp: IO[str]) -> MulticolorGraph:
    header = None
    colors: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line in fp:
        tok = line.split()
        if not tok or tok[0] == "#":
            continue
        if len(tok) != {"p": 5, "c": 3, "e": 3}.get(tok[0], len(tok)):
            raise ValueError(f"wrong number of fields in line {line!r}")
        if tok[0] == "p":
            if tok[1] != "mcol":
                raise ValueError(f"expected 'p mcol' header, got {line!r}")
            header = (int(tok[2]), int(tok[3]), int(tok[4]))
        elif tok[0] == "c":
            colors[int(tok[1])] = int(tok[2])
        elif tok[0] == "e":
            edges.append((int(tok[1]), int(tok[2])))
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if header is None:
        raise ValueError("missing 'p mcol' header")
    n, ne, k = header
    if len(colors) != n or len(edges) != ne:
        raise ValueError("header counts disagree with body")
    return MulticolorGraph(k, colors, edges)


def write_vsi(inst: VectorSumInstance, fp: IO[str]) -> None:
    fp.write(f"vsi {inst.num_sets} {inst.dim}\n")
    fp.write(f"t {inst.target.to_text()}\n")
    for si, s in enumerate(inst.sets, start=1):
        for v in s:
            fp.write(f"s {si} {v.to_text()}\n")


def read_vsi(fp: IO[str]) -> VectorSumInstance:
    header = None
    target = None
    rows: list[tuple[int, FVector]] = []
    for line in fp:
        tok = line.split()
        if not tok or tok[0] == "#":
            continue
        if len(tok) != {"vsi": 3, "t": 2, "s": 3}.get(tok[0], len(tok)):
            raise ValueError(f"wrong number of fields in line {line!r}")
        if tok[0] == "vsi":
            header = (int(tok[1]), int(tok[2]))
        elif tok[0] == "t":
            target = FVector.from_text(tok[1])
        elif tok[0] == "s":
            rows.append((int(tok[1]), FVector.from_text(tok[2])))
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if header is None or target is None:
        raise ValueError("missing vsi header or target")
    num_sets, m = header
    if target.dim != m:
        raise ValueError("target dimension disagrees with header")
    sets: list[list[FVector]] = [[] for _ in range(num_sets)]
    for si, v in rows:
        if not 1 <= si <= num_sets:
            raise ValueError(f"set index {si} out of range")
        sets[si - 1].append(v)
    return VectorSumInstance(sets, target)
