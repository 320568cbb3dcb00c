from __future__ import annotations

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from gapforge.amplify import ProductGraph, export_power, strong_power
from gapforge.cliquered import VectorSumInstance, brute_force_vector_sum
from gapforge.csp import build_csp
from gapforge.encoding import EncodingScheme
from gapforge.errors import BudgetExceededError
from gapforge.explicit import ExplicitGraph
from gapforge.field import FVector
from gapforge.gapgraph import build_gap_graph
from gapforge.verify import max_clique_exact
from reference import (
    adjacent,
    from_bool_matrix,
    from_entries,
    index_of,
    power_adjacent,
    to_bool_matrix,
    tuple_of,
)


def random_graph(rng, n: int, p: float) -> ExplicitGraph:
    m = np.triu(rng.random((n, n)) < p, 1)
    return from_bool_matrix(m | m.T)


def complete_graph(n: int) -> ExplicitGraph:
    return from_bool_matrix(~np.eye(n, dtype=bool))


def cycle_graph(n: int) -> ExplicitGraph:
    g = ExplicitGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def test_power_one_is_identity():
    g = cycle_graph(5)
    assert export_power(strong_power(g, 1)) == g


def test_k2_squared():
    p = strong_power(complete_graph(2), 2)
    assert p.base.n**p.t == 4
    assert max_clique_exact(export_power(p)).lower_bound == 4


def test_c5_squared():
    p = strong_power(cycle_graph(5), 2)
    g = export_power(p)
    assert g.n == 25
    assert max_clique_exact(g).lower_bound == 4


def test_k3_squared():
    g = export_power(strong_power(complete_graph(3), 2))
    assert g.n == 9
    assert max_clique_exact(g).lower_bound == 9


def test_power_requires_positive_t():
    with pytest.raises(ValueError):
        strong_power(cycle_graph(4), 0)


def test_index_tuple_roundtrip():
    p = strong_power(cycle_graph(4), 3)
    for idx in range(p.base.n**p.t):
        assert index_of(p, tuple_of(p, idx)) == idx


def test_adjacency_definition():
    p = strong_power(cycle_graph(4), 2)
    assert power_adjacent(p, (0, 0), (0, 1))  # equal, adjacent
    assert power_adjacent(p, (0, 1), (1, 2))  # adjacent, adjacent
    assert not power_adjacent(p, (0, 0), (0, 0))
    assert not power_adjacent(p, (0, 0), (0, 2))  # 0 and 2 nonadjacent in C4


def test_export_matches_predicate():
    rng = np.random.default_rng(31)
    base = random_graph(rng, 5, 0.5)
    p = strong_power(base, 2)
    g = export_power(p)
    count = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            ok = power_adjacent(p, tuple_of(p, i), tuple_of(p, j))
            assert ok == adjacent(g, i, j)
            count += ok
    assert count == g.num_edges()


def test_omega_multiplicative_on_random_corpus():
    rng = np.random.default_rng(32)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        base = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        w = max_clique_exact(base).lower_bound
        for t in (2, 3):
            g = export_power(strong_power(base, t))
            rep = max_clique_exact(g, vertex_budget=400)
            assert rep.exact
            assert rep.lower_bound == w**t


def test_budget():
    with pytest.raises(BudgetExceededError):
        export_power(strong_power(complete_graph(20), 4), budget=100_000)


def dense_export_power(p: ProductGraph) -> ExplicitGraph:
    """Dense reference: the Kronecker power of the closed adjacency
    matrix (edges plus loops), with the diagonal stripped."""
    closed = to_bool_matrix(p.base).astype(np.uint8)
    np.fill_diagonal(closed, 1)
    mat = closed
    for _ in range(p.t - 1):
        mat = np.kron(mat, closed)
    out = mat.astype(bool)
    np.fill_diagonal(out, False)
    return from_bool_matrix(out)


def test_export_matches_dense_kronecker_reference():
    rng = np.random.default_rng(34)
    cases = 0
    for n in (0, 1, 2, 5, 12, 30):
        for t in (1, 2, 3, 4):
            if n**t > 20_000:
                continue
            for density in (0.0, 0.3, 1.0):
                p = strong_power(random_graph(rng, n, density), t)
                assert export_power(p) == dense_export_power(p), (n, t, density)
                cases += 1
    assert cases == 63


def test_budget_boundary():
    p = strong_power(cycle_graph(5), 3)
    assert export_power(p, budget=125).n == 125
    with pytest.raises(BudgetExceededError, match=r"5\^3 vertices, over budget 124"):
        export_power(p, budget=124)


def test_square_peak_memory_stays_near_result_size():
    """No n^2 x n^2 intermediate: tracing the square of a 100-vertex base
    peaks under three times the size of its own bitset rows."""
    rng = np.random.default_rng(35)
    pairs = list(itertools.combinations(range(100), 2))
    pick = rng.choice(len(pairs), size=1485, replace=False)
    base = ExplicitGraph.from_edges(100, [pairs[int(i)] for i in pick])
    p = strong_power(base, 2)
    tracemalloc.start()
    try:
        g = export_power(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10_000
    assert peak < 3 * sum(sys.getsizeof(row) for row in g.adj)


def tiny_gap(target_text: str):
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (from_entries([(1, 2)]),), "explicit")
    return build_gap_graph(build_csp(inst, scheme, 1, 1, 1), 1)


def induced(g: ExplicitGraph, keep: list[int]) -> ExplicitGraph:
    m = to_bool_matrix(g)
    return from_bool_matrix(m[np.ix_(keep, keep)])


def test_gap_composition_on_gap_graph_exports():
    """Powering a completeness/soundness pair tightens the ratio to its
    t-th power; checked on induced pieces of real gap graph exports."""
    yes = tiny_gap("10")
    sel = brute_force_vector_sum(yes.csp.inst)
    g_yes, verts = yes.export_explicit()
    planted_ids = sorted(
        verts.index(v) for v in yes.planted_clique(sel)
    )
    comp_base = induced(g_yes, planted_ids)
    assert max_clique_exact(comp_base).lower_bound == 20

    no = tiny_gap("01")
    g_no, _ = no.export_explicit()
    rng = np.random.default_rng(33)
    keep = sorted(int(i) for i in rng.choice(g_no.n, size=20, replace=False))
    sound_base = induced(g_no, keep)
    s = max_clique_exact(sound_base).lower_bound
    assert s < 20

    comp_sq = max_clique_exact(export_power(strong_power(comp_base, 2))).lower_bound
    sound_sq = max_clique_exact(export_power(strong_power(sound_base, 2))).lower_bound
    assert comp_sq == 400 and sound_sq == s * s
    from fractions import Fraction

    assert Fraction(sound_sq, comp_sq) == Fraction(s, 20) ** 2
