"""Materialized undirected graphs with bitset adjacency rows.

Row u is a Python int whose bit v is set when {u, v} is an edge.  That
keeps neighborhood intersections (the inner loop of clique search) at
one big-int AND per step and makes graphs of a few thousand vertices
cheap to handle.  Rows convert to and from vertex indices only through
this module's codec, `bit_indices` and `mask_bits` (`_or_bits` in
bulk), which go through a row's bytes.  DIMACS import/export is
1-indexed; both work a chunk or a row at a time, not an edge.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .textio import int_blocks, int_fields, misfit

# largest graph any stage materializes (gap-graph export, strong power)
EXPORT_VERTEX_BUDGET = 20_000
# bit_indices of an empty row (most exported rows), shared: np.empty costs more than a walk
_NO_BITS = np.empty(0, dtype=np.intp)
_DIMACS_LINES = ("p edge N M", "e U V")


@dataclass(repr=False)
class ExplicitGraph:
    n: int
    adj: list[int] = field(init=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.n > sys.maxsize:  # past the index range `[0] * n` raises OverflowError
            raise MemoryError
        self.adj = [0] * self.n

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


def bit_indices(bits: int) -> np.ndarray:
    """Positions of the set bits of a nonnegative int, ascending (intp)."""
    if not bits:
        return _NO_BITS
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little").view(bool).nonzero()[0]


def mask_bits(mask: np.ndarray) -> int:
    """The int whose bit v is set when mask[v] is, from a 1-d bool array."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _or_bits(rows: list[int], at: np.ndarray, bits: np.ndarray) -> None:
    """rows[at[i]] |= 1 << bits[i] for every i: mask_bits in bulk, one
    packed span of bytes, from its lowest to its highest bit, per
    distinct row."""
    order = np.argsort(at)
    at, bits = at[order], bits[order]
    new = np.concatenate(([True], at[1:] != at[:-1]))
    first = np.flatnonzero(new)
    lo = np.minimum.reduceat(bits, first) // 8  # each row's lowest byte
    size = np.maximum.reduceat(bits, first) // 8 + 1 - lo
    end = np.cumsum(size)
    start = end - size
    flat = np.zeros(int(end[-1]) * 8, dtype=bool)
    flat[(start - lo)[np.cumsum(new) - 1] * 8 + bits] = True
    raw = np.packbits(flat, bitorder="little").tobytes()
    for r, a, z, shift in zip(at[first].tolist(), start.tolist(), end.tolist(), (lo * 8).tolist()):
        rows[r] |= int.from_bytes(raw[a:z], "little") << shift


def write_dimacs(g: ExplicitGraph, fp: IO[str]) -> None:
    fp.write(f"p edge {g.n} {g.num_edges()}\n")
    names = [str(v) for v in range(1, g.n + 1)]
    for u, row in enumerate(g.adj):
        above = bit_indices(row >> (u + 1))
        if len(above):
            head = f"e {names[u]} "
            others = map(names.__getitem__, (above + (u + 1)).tolist())
            fp.write(head + f"\n{head}".join(others) + "\n")


def read_dimacs(fp: IO[str]) -> ExplicitGraph:
    blocks = int_blocks(fp, _DIMACS_LINES, skip="c")
    head = next(blocks)
    n, declared = int_fields(head[2:], lambda: misfit(_DIMACS_LINES[0], head))
    g = ExplicitGraph(n)
    for uv in blocks:
        if isinstance(uv, list):  # one line of a chunk read line by line
            g.add_edge(uv[0] - 1, uv[1] - 1)
            continue
        u, v = uv.T - 1
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= g.n)
        if bad.any():
            i = int(bad.argmax())
            g.add_edge(int(u[i]), int(v[i]))  # names what is wrong with the first
        _or_bits(g.adj, np.concatenate((u, v)), np.concatenate((v, u)))
    if g.num_edges() != declared:
        raise ValueError("edge count disagrees with header")
    return g
