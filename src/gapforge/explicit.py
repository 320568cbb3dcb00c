"""Materialized undirected graphs with bitset adjacency rows.

Row u is a Python int whose bit v is set when {u, v} is an edge.  That
keeps neighborhood intersections (the inner loop of clique search) at
one big-int AND per step and makes graphs of a few thousand vertices
cheap to handle.  Rows convert to and from vertex indices only through
this module's codec, `bit_indices` and `mask_bits`, which go through a
row's bytes.  DIMACS import/export is 1-indexed.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np

from .textio import text_lines

# largest graph any stage materializes (gap-graph export, strong power)
EXPORT_VERTEX_BUDGET = 20_000
# bit_indices of an empty row (most exported rows), shared: np.empty costs more than a walk
_NO_BITS = np.empty(0, dtype=np.intp)
_DIMACS_LINES = ("p edge N M", "e U V")


class ExplicitGraph:
    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.adj: list[int] = [0] * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ExplicitGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        u, v = int(u), int(v)  # a numpy integer would wrap the row past bit 63
        if u == v:
            raise ValueError("self loops not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, row in enumerate(self.adj):
            for v in bit_indices(row >> (u + 1)).tolist():
                yield (u, u + 1 + v)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Pairwise adjacency of a vertex set (repeats ignored); ValueError outside 0..n-1."""
        vs = set(vertices)
        if not all(0 <= v < self.n for v in vs):
            raise ValueError("vertex out of range")
        mask = sum(1 << v for v in vs)
        return all((self.adj[v] | (1 << v)) & mask == mask for v in vs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitGraph)
            and self.n == other.n
            and self.adj == other.adj
        )


def bit_indices(bits: int) -> np.ndarray:
    """Positions of the set bits of a nonnegative int, ascending (intp)."""
    if not bits:
        return _NO_BITS
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little").view(bool).nonzero()[0]


def mask_bits(mask: np.ndarray) -> int:
    """The int whose bit v is set when mask[v] is, from a 1-d bool array."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def write_dimacs(g: ExplicitGraph, fp: IO[str]) -> None:
    fp.write(f"p edge {g.n} {g.num_edges()}\n")
    for u, v in g.edges():
        fp.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(fp: IO[str]) -> ExplicitGraph:
    lines = text_lines(fp, _DIMACS_LINES, skip="c")
    _, _, n, declared = next(lines)
    g = ExplicitGraph(int(n))
    n, adj, declared = g.n, g.adj, int(declared)
    for tok in lines:
        u, v = int(tok[1]) - 1, int(tok[2]) - 1
        # ORed here, not through add_edge, whose int() conversions would slow
        # this loop; add_edge still names what is wrong with a bad edge
        if u == v or not (0 <= u < n and 0 <= v < n):
            g.add_edge(u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if g.num_edges() != declared:
        raise ValueError("edge count disagrees with header")
    return g
