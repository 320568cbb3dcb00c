"""Materialized undirected graphs with bitset adjacency rows.

Row u is a Python int whose bit v is set when {u, v} is an edge.  That
keeps neighborhood intersections (the inner loop of clique search) at
one big-int AND per step and makes graphs of a few thousand vertices
cheap to handle.  DIMACS import/export is 1-indexed.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np


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

    @classmethod
    def from_bool_matrix(cls, mat: np.ndarray) -> "ExplicitGraph":
        """Adjacency from a boolean matrix; kept edges need both directions."""
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError("matrix must be square")
        g = cls(n)
        if n == 0:
            return g
        m = np.asarray(mat, dtype=bool)
        m = m & m.T
        np.fill_diagonal(m, False)
        packed = np.packbits(m, axis=1, bitorder="little")
        for u in range(n):
            g.adj[u] = int.from_bytes(packed[u].tobytes(), "little")
        return g

    def to_bool_matrix(self) -> np.ndarray:
        if self.n == 0:
            return np.zeros((0, 0), dtype=bool)
        nbytes = (self.n + 7) // 8
        raw = b"".join(r.to_bytes(nbytes, "little") for r in self.adj)
        m = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(self.n, nbytes),
            axis=1,
            bitorder="little",
        )
        return m[:, : self.n].astype(bool)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self loops not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n):
            r = self.adj[u] >> (u + 1)
            v = u + 1
            while r:
                shift = (r & -r).bit_length() - 1
                v += shift
                yield (u, v)
                r >>= shift + 1
                v += 1

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        mask = 0
        for v in vs:
            mask |= 1 << v
        return all((self.adj[v] | (1 << v)) & mask == mask for v in vs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitGraph)
            and self.n == other.n
            and self.adj == other.adj
        )


def _bits_iter(bits: int):
    v = 0
    while bits:
        shift = (bits & -bits).bit_length() - 1
        v += shift
        yield v
        bits >>= shift + 1
        v += 1


def write_dimacs(g: ExplicitGraph, fp: IO[str]) -> None:
    fp.write(f"p edge {g.n} {g.num_edges()}\n")
    for u, v in g.edges():
        fp.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(fp: IO[str]) -> ExplicitGraph:
    g = None
    declared = None
    for line in fp:
        tok = line.split()
        if not tok or tok[0] in ("c", "#"):
            continue
        if tok[0] == "p":
            if len(tok) != 4 or tok[1] != "edge":
                raise ValueError(f"expected 'p edge N M' header, got {line!r}")
            g = ExplicitGraph(int(tok[2]))
            declared = int(tok[3])
        elif tok[0] == "e":
            if len(tok) != 3:
                raise ValueError(f"expected 'e U V' edge line, got {line!r}")
            if g is None:
                raise ValueError("edge line before header")
            g.add_edge(int(tok[1]) - 1, int(tok[2]) - 1)
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if g is None:
        raise ValueError("missing 'p edge' header")
    if declared is not None and g.num_edges() != declared:
        raise ValueError("edge count disagrees with header")
    return g
