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
from typing import IO, Iterator

from .errors import check_budget
from .field import FVector
from .textio import int_fields, misfit, text_lines

# largest gadget dimension m reduce_clique builds vectors over
GADGET_BUDGET = 1_000_000
# most digits reduce_clique's vectors, the target included, hold in all
GADGET_DIGITS_BUDGET = 100_000_000


def pair_index(i: int, j: int) -> int:
    """Colexicographic number (1-based) of the class pair {i, j}, i < j."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return (j - 1) * (j - 2) // 2 + i


@dataclass(repr=False)
class MulticolorGraph:
    """Undirected graph with vertices partitioned into k color classes."""

    k: int
    colors: dict  # copied
    edges: set[frozenset]  # from any iterable of vertex pairs

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        self.colors = dict(self.colors)
        for v, c in self.colors.items():
            if not 1 <= c <= self.k:
                raise ValueError(f"vertex {v!r} has color {c} outside 1..{self.k}")
        pairs, self.edges = self.edges, set()
        for u, v in pairs:
            if u == v:
                raise ValueError("self loops not allowed")
            if u not in self.colors or v not in self.colors:
                raise ValueError("edge endpoint missing a color")
            self.edges.add(frozenset((u, v)))

    def vertices(self) -> list:
        return sorted(self.colors)

    def color_class(self, i: int) -> list:
        return sorted(v for v, c in self.colors.items() if c == i)

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


@dataclass(frozen=True)
class SelectionCertificate:
    """One chosen vector index per set (0-based, in set order)."""

    indices: tuple[int, ...]


@dataclass(repr=False)
class VectorSumInstance:
    """Sets of 0/1 vectors in GF(4)^m with a sum target.

    A solution picks one vector from each set so the GF(4) sum equals the
    target.  Sets may be empty (the instance is then trivially
    unsolvable); `empty_sets()` lists them.  Distinct vectors in the set
    union are never scalar multiples of one another: for 0/1 vectors this
    follows from distinctness, since c*v has a coordinate outside {0,1}
    for c in {w, w+1} and nonzero v.
    """

    sets: list[list[FVector]]  # from any sequence of sequences
    target: FVector

    def __post_init__(self):
        self.sets = [list(s) for s in self.sets]
        if not self.sets:
            raise ValueError("need at least one set")
        m = self.target.dim
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


def gadget_dims(k: int, num_vertices: int, num_edges: int) -> tuple[int, int]:
    """(L, m) for a k-class graph on num_vertices vertices and num_edges
    edges: the sigma code width L = max(1, bit_length(num_vertices)) and
    the gadget dimension m = k + k(k-1)/2 + k^2 * L, which is checked
    against GADGET_BUDGET.  The digits of the at most num_vertices +
    num_edges gadgets and the target, m each, are checked against
    GADGET_DIGITS_BUDGET."""
    L = max(1, num_vertices.bit_length())
    m = k + k * (k - 1) // 2 + k * k * L
    check_budget(m, GADGET_BUDGET, "gadget dimension {}")
    digits = (num_vertices + num_edges + 1) * m
    check_budget(digits, GADGET_DIGITS_BUDGET, "gadget vectors would hold {} digits")
    return L, m


def _zero_one(bits: int) -> int:
    # packed GF(4) vector whose digit b is bit b of bits (0 or 1)
    return int(f"{bits:b}", 4)


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
    faithful (any vertex is a 1-clique).  m and the vectors' digits are
    checked against their budgets first (`gadget_dims`).
    """
    k = g.k
    verts = g.vertices()
    L, m = gadget_dims(k, len(verts), len(g.edges))
    npairs = k * (k - 1) // 2
    # sigma(v): v's 1-based rank in sorted order, LSB first; never zero
    sigma = {v: _zero_one(rank) for rank, v in enumerate(verts, start=1)}
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

    return VectorSumInstance(sets, FVector(m, _zero_one((1 << (k + npairs)) - 1)))


# largest selection space (product of the set sizes) brute_force_vector_sum
# accepts; it bounds the space, not the fewer selections the search visits
BRUTE_FORCE_BUDGET = 10_000_000


def brute_force_vector_sum(inst: VectorSumInstance) -> SelectionCertificate | None:
    """The lexicographically first selection that sums to the target, or
    None if there is none; the selection space is checked against
    BRUTE_FORCE_BUDGET first.

    Meet in the middle (Horowitz and Sahni, JACM 1974): sets j.. form the
    suffix, with j the least index whose suffix has at most sqrt(space)
    selections, so the table of suffix sums holds at most that many
    entries, each sum's first suffix in lexicographic order.  The prefix
    selections are then scanned in order, and the first whose sum is in
    the table, with its first completion, is the first solution, since
    lexicographic order is prefix-major.  At most |prefix| + |suffix|
    selections are visited.
    """
    if inst.empty_sets():
        return None
    total = 1
    for s in inst.sets:
        total *= len(s)
        check_budget(total, BRUTE_FORCE_BUDGET, "selection space of at least {} selections")
    packed = [[v.bits for v in s] for s in inst.sets]
    j, tail = 0, total
    while tail * tail > total:
        tail //= len(packed[j])
        j += 1
    # target ^ suffix sum -> first suffix: a prefix with that sum completes it
    table: dict[int, tuple[int, ...]] = {}
    for combo, acc in _selection_sums(packed[j:], inst.target.bits):
        table.setdefault(acc, combo)
    for combo, acc in _selection_sums(packed[:j], 0):
        rest = table.get(acc)
        if rest is not None:
            return SelectionCertificate(combo + rest)
    return None


def _selection_sums(packed: list[list[int]], start: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # (indices, start ^ their vectors' sum) for every selection from the
    # packed sets, in itertools.product order
    for combo in itertools.product(*(range(len(s)) for s in packed)):
        acc = start
        for s, idx in zip(packed, combo):
            acc ^= s[idx]
        yield combo, acc


# -- file formats --------------------------------------------------------
#
# Each format's header comes first and appears once; body lines follow in
# any order.  mcol: vertices 1..n, one `c` line per vertex and one `e` line
# per edge, M counting distinct edges; vsi: one `s` line per vector, SET
# 1-based (empty sets have no lines).
_MCOL_LINES = ("p mcol N M K", "c VERTEX COLOR", "e U V")
_VSI_LINES = ("vsi SETS M", "t DIGITS", "s SET DIGITS")


def write_mcol(g: MulticolorGraph, fp: IO[str]) -> None:
    verts = g.vertices()
    fp.write(f"p mcol {len(verts)} {len(g.edges)} {g.k}\n")
    for v in verts:
        fp.write(f"c {v} {g.colors[v]}\n")
    for e in sorted(tuple(sorted(e)) for e in g.edges):
        fp.write(f"e {e[0]} {e[1]}\n")


def read_mcol(fp: IO[str]) -> MulticolorGraph:
    lines = text_lines(fp, _MCOL_LINES)
    head = next(lines)
    n, num_edges, k = int_fields(head[2:], lambda: misfit(_MCOL_LINES[0], head))
    colors: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for tok in lines:
        if tok[0] == "e":
            edges.append(tuple(int_fields(tok[1:], lambda: misfit(_MCOL_LINES[2], tok))))
        else:
            v, c = int_fields(tok[1:], lambda: misfit(_MCOL_LINES[1], tok))
            if v in colors:
                raise ValueError(f"vertex {v} colored twice")
            colors[v] = c
    g = MulticolorGraph(k, colors, edges)
    if len(colors) != n or len(g.edges) != num_edges:
        raise ValueError("header counts disagree with body")
    return g


def write_vsi(inst: VectorSumInstance, fp: IO[str]) -> None:
    fp.write(f"vsi {inst.num_sets} {inst.dim}\n")
    fp.write(f"t {inst.target.to_text()}\n")
    for si, s in enumerate(inst.sets, start=1):
        for v in s:
            fp.write(f"s {si} {v.to_text()}\n")


def read_vsi(fp: IO[str]) -> VectorSumInstance:
    lines = text_lines(fp, _VSI_LINES)
    head = next(lines)
    num_sets, m = int_fields(head[1:], lambda: misfit(_VSI_LINES[0], head))
    # before any set is built; reduce_clique writes k' <= m <= GADGET_BUDGET sets
    check_budget(num_sets, GADGET_BUDGET, "{} vector sets")
    sets: list[list[FVector]] = [[] for _ in range(num_sets)]
    target = None
    for tok in lines:
        if tok[0] == "s":
            (si,) = int_fields(tok[1:2], lambda: misfit(_VSI_LINES[2], tok))
            if not 1 <= si <= num_sets:
                raise ValueError(f"set index {si} out of range")
            sets[si - 1].append(FVector.from_text(tok[2]))
        elif target is not None:
            raise ValueError("second 't' line")
        else:
            target = FVector.from_text(tok[1])
    if target is None:
        raise ValueError("missing 't DIGITS' line")
    if target.dim != m:
        raise ValueError("target dimension disagrees with header")
    return VectorSumInstance(sets, target)
