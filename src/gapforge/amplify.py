"""Gap amplification by strong graph powers.

In the strong product, distinct tuples are adjacent when every
coordinate pair is equal or adjacent in the base.  Cliques multiply
exactly: tuples built from base cliques are cliques, and projecting a
product clique to any coordinate yields a base clique, so
omega(g^t) = omega(g)^t.  A completeness/soundness pair (C, S) on the
base therefore becomes (C^t, S^t), shrinking the ratio to (S/C)^t.

export_power writes ExplicitGraph's bitset rows directly.  The closed
neighbourhood of a tuple (the tuple included) is the product of its
coordinates' closed neighbourhoods N[a].  Spread coordinate i as
S_i(a) = sum of 2^(j * n^(t-1-i)) over j in N[a]; the closed row of
(a_1, ..., a_t) is then the integer product S_0(a_1) * ... * S_{t-1}(a_t).
The product has no carries: each term of its expansion is
2^(j_1 n^(t-1) + ... + j_t), the big-endian index of one closed
neighbour, and no two terms share it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph, bit_indices


@dataclass(frozen=True)
class ProductGraph:
    """Implicit t-fold strong power; vertices are t-tuples over the base.

    Tuple indices are big-endian: the first coordinate varies slowest,
    the row order of export_power."""

    base: ExplicitGraph
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("power must be positive")


def strong_power(g: ExplicitGraph, t: int) -> ProductGraph:
    return ProductGraph(g, t)


def export_power(p: ProductGraph, budget: int = EXPORT_VERTEX_BUDGET) -> ExplicitGraph:
    """Materialize the power as an explicit graph of at most `budget` vertices.

    Rows are built coordinate by coordinate: each prefix row is
    multiplied by the spread closed rows of the next coordinate, so the
    first coordinate varies slowest.  Each finished row is a closed
    neighbourhood; its own bit is cleared in place.
    """
    n, t = p.base.n, p.t
    # n >= 2 and t > budget.bit_length() give n^t >= 2^t > budget without n^t
    total = None if n >= 2 and t > budget.bit_length() else n**t
    if total is None or total > budget:
        raise BudgetExceededError(
            f"power has {n}^{t} vertices, over budget {budget}", needed=total, budget=budget
        )
    if n < 2:  # a base of at most one vertex is its own power
        t = 1
    closed = [row | 1 << a for a, row in enumerate(p.base.adj)]
    rows = [1]
    for i in range(t):
        stride = n ** (t - 1 - i)
        spreads = [sum(1 << j * stride for j in bit_indices(row).tolist()) for row in closed]
        rows = [r * s for r in rows for s in spreads]
    for u in range(total):
        rows[u] ^= 1 << u
    g = ExplicitGraph(total)
    g.adj = rows
    return g
