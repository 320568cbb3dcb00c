"""Reduction tests: the vector-sum instance is solvable exactly when the
multicolor graph has a clique, in both directions, with certificates."""

from __future__ import annotations

import io
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.cliquered import (
    BRUTE_FORCE_BUDGET,
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
    _zero_one,
    brute_force_vector_sum,
    pair_index,
    read_mcol,
    read_vsi,
    reduce_clique,
    verify_selection,
    write_mcol,
    write_vsi,
)
from gapforge.errors import BudgetExceededError
from gapforge.explicit import ExplicitGraph
from gapforge.field import FVector
from gapforge.pipeline import plain_to_multicolor
from reference import (
    brute_force_multicolor_clique,
    clique_to_selection,
    first_selection,
    has_edge,
    selection_to_clique,
    validate_no_scalar_multiples,
)


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
            if not has_edge(g, u, v):
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
    validate_no_scalar_multiples(inst)


def test_gadget_digit_layout():
    # each sigma block holds the vertex's 1-based rank in sorted order, in
    # binary, least significant digit first; the target is 1 on exactly the
    # k + k(k-1)/2 selector coordinates
    g = MulticolorGraph(2, {1: 1, 2: 1, 3: 2, 4: 2}, [(1, 3), (2, 4)])
    inst = reduce_clique(g)
    k, L = 2, 3  # ranks 1..4 take ceil(log2(5)) = 3 digits
    m = k + 1 + k * k * L
    assert inst.dim == m
    assert inst.target.digits() == (1,) * (k + 1) + (0,) * (m - k - 1)

    def gadget(selector: int, *blocks) -> tuple[int, ...]:
        digits = [0] * m
        digits[selector] = 1
        for (i, j), v in blocks:
            start = k + 1 + ((i - 1) * k + (j - 1)) * L
            digits[start:start + L] = [(v >> b) & 1 for b in range(L)]
        return tuple(digits)

    assert [v.digits() for v in inst.sets[0]] == [gadget(0, ((1, 2), v)) for v in (1, 2)]
    assert [v.digits() for v in inst.sets[1]] == [gadget(1, ((2, 1), v)) for v in (3, 4)]
    edges = [gadget(2, ((1, 2), v), ((2, 1), u)) for v, u in ((1, 3), (2, 4))]
    assert [v.digits() for v in inst.sets[2]] == edges


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


def test_budget_guard(monkeypatch):
    g = random_multicolor(np.random.default_rng(5), 2, 8, 0.9)
    monkeypatch.setattr("gapforge.cliquered.BRUTE_FORCE_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        brute_force_vector_sum(reduce_clique(g))
    m = reduce_clique(g).dim
    monkeypatch.setattr("gapforge.cliquered.GADGET_BUDGET", m - 1)
    with pytest.raises(BudgetExceededError, match=f"gadget dimension {m} over budget"):
        reduce_clique(g)


def _vec01(m: int, bits: int) -> FVector:
    return FVector(m, _zero_one(bits))


def _drawn_instance(rng, sizes, m: int, pool: int) -> VectorSumInstance:
    """Sets of the given sizes, each of distinct vectors drawn from the
    first pool 0/1 vectors of F^m, so many selections share a sum; the
    target is the sum of a drawn selection or, half the time, any vector."""
    sets = [[_vec01(m, int(b)) for b in rng.choice(pool, size=n, replace=False)] for n in sizes]
    if rng.random() < 0.5:
        target = 0
        for s in sets:
            target ^= s[int(rng.integers(len(s)))].bits
        return VectorSumInstance(sets, FVector(m, target))
    return VectorSumInstance(sets, _vec01(m, int(rng.integers(1 << m))))


def yes_bundle_k3_instances() -> list[VectorSumInstance]:
    """The instances of the benchmark's four k=3 planted `yes-bundle` rungs
    at seed 0: the same graph draws, in the same order, as
    `perfbench/workloads.yes_bundle_ops`."""
    from test_tooling import load_perfbench

    wl = load_perfbench("workloads")
    p = wl.SIZES["full"]
    rng = wl.family_rng(0, "yes")
    for _ in range(p["yes_probe_graphs"] + p["yes_bundle_graphs"]):
        wl.random_graph(rng, 5, 5)
    for _ in range(p["yes_k2_graphs"]):
        wl.random_graph(rng, 4, 4)
    graphs = [wl.random_graph(rng, 4, 4, want_triangle=True) for _ in range(p["yes_k3_graphs"])]
    return [reduce_clique(plain_to_multicolor(g, 3)) for g in graphs]


def test_search_returns_the_first_selection_of_the_lexicographic_walk():
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(300):
        sizes = [int(n) for n in rng.integers(1, 7, size=int(rng.integers(1, 8)))]
        cases.append(_drawn_instance(rng, sizes, 4, 8))
    for sizes in ([1, 1, 50], [50, 1, 1], [2, 300]):
        cases += [_drawn_instance(rng, sizes, 9, 512) for _ in range(6)]
    one_set = [_vec01(3, b) for b in (5, 1, 7, 2)]
    cases += [VectorSumInstance([one_set], _vec01(3, b)) for b in (7, 2, 0)]
    k3 = yes_bundle_k3_instances()
    assert [[len(s) for s in inst.sets] for inst in k3] == [[4, 4, 4, 8, 8, 8]] * 4
    p3 = reduce_clique(plain_to_multicolor(ExplicitGraph.from_edges(3, [(0, 1), (1, 2)]), 3))
    assert [len(s) for s in p3.sets] == [3, 3, 3, 4, 4, 4]
    cases += k3 + [p3]
    sels = [first_selection(inst) for inst in cases]
    for inst, sel in zip(cases, sels):
        assert brute_force_vector_sum(inst) == sel
    # the drawn instances meet both outcomes; the rungs are solvable, P3 is not
    assert None in sels[:-5] and any(sel is not None for sel in sels[:-5])
    assert None not in sels[-5:-1] and sels[-1] is None


def _budget_edge_sets(own_coordinates: bool) -> list[list[FVector]]:
    # seven sets of ten distinct 0/1 vectors in F^29, all zero on coordinate
    # 0: 10^7 selections; with own_coordinates, set i writes its index into
    # coordinates 4i+1..4i+4
    return [[_vec01(29, c << (4 * i * own_coordinates + 1)) for c in range(10)] for i in range(7)]


def test_budget_sized_space_without_solution_ends_in_under_a_second():
    sets = _budget_edge_sets(own_coordinates=False)
    assert len(sets[0]) ** len(sets) == BRUTE_FORCE_BUDGET
    inst = VectorSumInstance(sets, _vec01(29, 1))
    start = time.perf_counter()
    assert brute_force_vector_sum(inst) is None
    assert time.perf_counter() - start < 1.0


def test_budget_sized_space_with_one_solution_ends_in_under_a_second():
    # each sum names its selection, so the one solution of nines(n) is
    # (9, ..., 9), the last selection in lexicographic order
    sets = _budget_edge_sets(own_coordinates=True)

    def nines(n: int) -> VectorSumInstance:
        return VectorSumInstance(sets[:n], _vec01(29, sum(9 << (4 * i + 1) for i in range(n))))

    inst = nines(7)
    start = time.perf_counter()
    assert brute_force_vector_sum(inst) == SelectionCertificate((9,) * 7)
    assert time.perf_counter() - start < 1.0
    # the reference walk agrees where it is quick to run
    assert first_selection(nines(3)) == brute_force_vector_sum(nines(3)) == SelectionCertificate((9,) * 3)


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


@pytest.mark.parametrize(
    "text",
    [
        "p mcol 2 0 2\nc 1 1\nc 2 2\np mcol 2 0 2\n",
        "p mcol 2 0 2\nc 1 1\nc 1 2\nc 2 1\n",
    ],
    ids=["second-p", "second-c"],
)
def test_mcol_line_given_twice_raises_value_error(text):
    # the later line used to overwrite the earlier one
    with pytest.raises(ValueError, match="twice|second"):
        read_mcol(io.StringIO(text))


@pytest.mark.parametrize(
    "text",
    ["vsi 1 2\nt 10\nvsi 1 2\ns 1 10\n", "vsi 1 2\nt 10\nt 01\ns 1 01\n"],
    ids=["second-vsi", "second-t"],
)
def test_vsi_line_given_twice_raises_value_error(text):
    with pytest.raises(ValueError, match="second"):
        read_vsi(io.StringIO(text))


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_mcol, "c 1 1\np mcol 2 0 2\nc 2 2\n"),
        (read_vsi, "t 10\nvsi 1 2\ns 1 10\n"),
    ],
    ids=["mcol", "vsi"],
)
def test_body_line_before_the_header_raises_value_error(reader, text):
    # the header used to be accepted anywhere in the file
    with pytest.raises(ValueError, match="expected '(p mcol N M K|vsi SETS M)' line"):
        reader(io.StringIO(text))


def test_mcol_edge_count_is_the_number_of_distinct_edges():
    # `e 2 1` repeats the edge `e 1 2`; it used to read as one edge that
    # writes back as `p mcol 2 1 2`
    with pytest.raises(ValueError, match="header counts"):
        read_mcol(io.StringIO("p mcol 2 2 2\nc 1 1\nc 2 2\ne 1 2\ne 2 1\n"))


def test_vsi_set_count_is_checked_against_the_gadget_budget(monkeypatch):
    monkeypatch.setattr("gapforge.cliquered.GADGET_BUDGET", 2)
    text = "vsi 2 2\nt 11\ns 1 10\ns 2 01\n"
    assert read_vsi(io.StringIO(text)).num_sets == 2
    with pytest.raises(BudgetExceededError, match="3 vector sets over budget 2"):
        read_vsi(io.StringIO(text.replace("vsi 2", "vsi 3")))


def test_mcol_and_vsi_skip_every_hash_comment():
    g = read_mcol(io.StringIO("#x\np mcol 2 1 2\n  # note\nc 1 1\nc 2 2\n#e 1 1\ne 1 2\n"))
    assert g == MulticolorGraph(2, {1: 1, 2: 2}, [(1, 2)])
    inst = read_vsi(io.StringIO("#x\nvsi 1 2\n  # note\nt 10\n#t 01\ns 1 10\n"))
    assert inst == VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))


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
    buf = io.StringIO()
    write_mcol(g, buf)
    assert read_mcol(io.StringIO(buf.getvalue())) == g


@settings(deadline=None, max_examples=300)
@given(_text_from(["vsi", "t", "s", "#", "x", "-1", "0", "1", "2", "10", "01", "11", "2w"]))
def test_vsi_text_parses_or_raises_value_error(text):
    try:
        inst = read_vsi(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(inst, VectorSumInstance)
    buf = io.StringIO()
    write_vsi(inst, buf)
    assert read_vsi(io.StringIO(buf.getvalue())) == inst


def _shuffled_body(text: str, data) -> str:
    header, *body = text.splitlines(keepends=True)
    return header + "".join(data.draw(st.permutations(body)))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 7), st.integers(0, 2**32 - 1), st.data())
def test_mcol_body_lines_read_in_any_order(k, extra, seed, data):
    g = random_multicolor(np.random.default_rng(seed), k, k + extra, 0.5)
    buf = io.StringIO()
    write_mcol(g, buf)
    assert read_mcol(io.StringIO(_shuffled_body(buf.getvalue(), data))) == g


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
def test_vsi_body_lines_read_in_any_order(k, extra, seed, data):
    inst = reduce_clique(random_multicolor(np.random.default_rng(seed), k, k + extra, 0.5))
    buf = io.StringIO()
    write_vsi(inst, buf)
    back = read_vsi(io.StringIO(_shuffled_body(buf.getvalue(), data)))
    # a set's vectors come back in file order, so compare each set as a set
    assert back.target == inst.target
    assert [set(s) for s in back.sets] == [set(s) for s in inst.sets]
