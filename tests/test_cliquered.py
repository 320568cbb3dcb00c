"""Reduction tests: the vector-sum instance is solvable exactly when the
multicolor graph has a clique, in both directions, with certificates."""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.cliquered import (
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
    brute_force_multicolor_clique,
    brute_force_vector_sum,
    clique_to_selection,
    pair_index,
    read_mcol,
    read_vsi,
    reduce_clique,
    selection_to_clique,
    verify_selection,
    write_mcol,
    write_vsi,
)
from gapforge.errors import BudgetExceededError
from gapforge.field import FVector


def triangle() -> MulticolorGraph:
    return MulticolorGraph(
        3, {1: 1, 2: 2, 3: 3}, [(1, 2), (1, 3), (2, 3)]
    )


def equivalence_holds(g: MulticolorGraph) -> bool:
    inst = reduce_clique(g)
    clique = brute_force_multicolor_clique(g)
    sel = brute_force_vector_sum(inst)
    if (clique is None) != (sel is None):
        return False
    if clique is not None:
        # forward: the clique's own selection must verify
        fwd = clique_to_selection(g, clique)
        if not verify_selection(inst, fwd):
            return False
    if sel is not None:
        # backward: the selected vertices must form a multicolor clique
        verts = selection_to_clique(g, sel)
        for u, v in itertools.combinations(verts, 2):
            if not g.has_edge(u, v):
                return False
    return True


def test_pair_index_colex():
    expected = {(1, 2): 1, (1, 3): 2, (2, 3): 3, (1, 4): 4, (2, 4): 5, (3, 4): 6}
    for (i, j), idx in expected.items():
        assert pair_index(i, j) == idx


def test_triangle_reduction_shape():
    g = triangle()
    inst = reduce_clique(g)
    # 3 vertex sets + 3 pair sets, all singletons
    assert inst.num_sets == 6
    assert all(len(s) == 1 for s in inst.sets)
    # m = k + k(k-1)/2 + k^2 * ceil(log2(4)) = 3 + 3 + 9*2
    assert inst.dim == 3 + 3 + 9 * 2
    sel = brute_force_vector_sum(inst)
    assert sel == SelectionCertificate((0,) * 6)
    assert verify_selection(inst, sel)


def test_m_formula_example():
    # k=2 on 4 vertices: m = 2 + 1 + 4 * ceil(log2(5)) = 15
    g = MulticolorGraph(2, {1: 1, 2: 1, 3: 2, 4: 2}, [(1, 3)])
    assert reduce_clique(g).dim == 15


def test_gadget_vectors_are_zero_one_and_independent():
    g = MulticolorGraph(2, {1: 1, 2: 1, 3: 2, 4: 2}, [(1, 3), (2, 4), (1, 4)])
    inst = reduce_clique(g)
    for s in inst.sets:
        for v in s:
            assert v.is_zero_one()
    inst.validate_no_scalar_multiples()


def test_missing_edge_breaks_solvability():
    g = MulticolorGraph(3, {1: 1, 2: 2, 3: 3}, [(1, 2), (1, 3)])
    inst = reduce_clique(g)
    # pair set {2,3} is empty: flagged, unsolvable
    assert inst.empty_sets() == [5]
    assert brute_force_vector_sum(inst) is None
    assert brute_force_multicolor_clique(g) is None


def test_wrong_selection_fails_verification():
    g = MulticolorGraph(
        2, {1: 1, 2: 1, 3: 2, 4: 2}, [(1, 3), (2, 4)]
    )
    inst = reduce_clique(g)
    # vertex picks (1, 4) but edge pick (1,3): sums cannot match
    bad = SelectionCertificate((0, 1, 0))
    assert not verify_selection(inst, bad)
    good = clique_to_selection(g, [1, 3])
    assert verify_selection(inst, good)


def all_two_color_graphs(sizes: tuple[int, int]):
    """Every 2-colored graph with the given class sizes, up to edge choice."""
    a, b = sizes
    verts_a = list(range(1, a + 1))
    verts_b = list(range(a + 1, a + b + 1))
    colors = {v: 1 for v in verts_a} | {v: 2 for v in verts_b}
    cross = [(u, v) for u in verts_a for v in verts_b]
    for mask in range(1 << len(cross)):
        edges = [e for i, e in enumerate(cross) if (mask >> i) & 1]
        yield MulticolorGraph(2, colors, edges)


def test_equivalence_exhaustive_small_k2():
    # all class splits of up to 4 vertices, all cross-edge subsets
    for a, b in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        for g in all_two_color_graphs((a, b)):
            assert equivalence_holds(g)


def random_multicolor(rng, k: int, n: int, p: float) -> MulticolorGraph:
    colors = {}
    for v in range(1, n + 1):
        colors[v] = (v - 1) % k + 1 if v <= k else int(rng.integers(1, k + 1))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if colors[u] != colors[v] and rng.random() < p:
                edges.append((u, v))
    return MulticolorGraph(k, colors, edges)


def test_equivalence_random_k3():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        g = random_multicolor(rng, 3, n, float(rng.uniform(0.2, 0.9)))
        assert equivalence_holds(g)


def test_budget_guard():
    g = random_multicolor(np.random.default_rng(5), 2, 8, 0.9)
    with pytest.raises(BudgetExceededError):
        brute_force_vector_sum(reduce_clique(g), budget=2)


def test_instance_validation():
    with pytest.raises(ValueError):
        VectorSumInstance([[FVector.from_text("02")]], FVector.from_text("11"))
    with pytest.raises(ValueError):
        VectorSumInstance([[FVector.from_text("01")]], FVector.from_text("111"))
    with pytest.raises(ValueError):
        VectorSumInstance(
            [[FVector.from_text("01"), FVector.from_text("01")]],
            FVector.from_text("11"),
        )


def test_mcol_roundtrip():
    g = random_multicolor(np.random.default_rng(7), 3, 7, 0.5)
    buf = io.StringIO()
    write_mcol(g, buf)
    buf.seek(0)
    assert read_mcol(buf) == g


def test_vsi_roundtrip():
    g = random_multicolor(np.random.default_rng(8), 2, 5, 0.6)
    inst = reduce_clique(g)
    buf = io.StringIO()
    write_vsi(inst, buf)
    buf.seek(0)
    assert read_vsi(buf) == inst


def test_vsi_rejects_bad_header():
    with pytest.raises(ValueError):
        read_vsi(io.StringIO("t 11\n"))
    with pytest.raises(ValueError):
        read_vsi(io.StringIO("vsi 1 2\nt 111\n"))


# lines built from the format's keywords and small numbers reach every
# branch of a parser far more often than uniform text would
def _text_from(tokens):
    line = st.one_of(
        st.lists(st.sampled_from(tokens), max_size=6).map(" ".join), st.text(max_size=12)
    )
    return st.lists(line, max_size=8).map("\n".join)


@settings(deadline=None, max_examples=300)
@given(_text_from(["p", "mcol", "c", "e", "#", "x", "-1", "0", "1", "2", "3"]))
def test_mcol_text_parses_or_raises_value_error(text):
    try:
        g = read_mcol(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(g, MulticolorGraph)


@settings(deadline=None, max_examples=300)
@given(_text_from(["vsi", "t", "s", "#", "x", "-1", "0", "1", "2", "10", "01", "11", "2w"]))
def test_vsi_text_parses_or_raises_value_error(text):
    try:
        inst = read_vsi(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(inst, VectorSumInstance)
