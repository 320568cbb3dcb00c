"""Gap graph tests.

The load-bearing oracle is `naive_adjacent`: it materializes every
(C1)/(C2)/(C3) constraint at tiny parameters and applies the textbook
rule (consistent on shared variables, no fully-covered constraint
violated).  The production predicate and the grouped explicit export
are both compared against it pairwise over the whole 272-vertex
universe."""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.cliquered import (
    SelectionCertificate,
    VectorSumInstance,
    brute_force_vector_sum,
)
from gapforge.csp import build_csp, honest_assignment
from gapforge.encoding import EncodingScheme, encode_f, sample_scheme
from gapforge.errors import BudgetExceededError
from gapforge.field import FMat, FVector
from gapforge.gapgraph import (
    GapGraph,
    build_gap_graph,
    read_sidecar,
    write_clique_set,
    write_sidecar,
)


def tiny_gap(target_text: str = "10", row=(1, 2), r: int = 1) -> GapGraph:
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (FMat.from_entries([row]),), "explicit")
    return build_gap_graph(build_csp(inst, scheme, 1, 1, 1), r)


def k2_gap(r: int = 1, seed: int = 9, ell: int = 1) -> GapGraph:
    inst = VectorSumInstance(
        [
            [FVector.from_text("100"), FVector.from_text("010")],
            [FVector.from_text("001"), FVector.from_text("110")],
        ],
        FVector.from_text("101"),
    )
    scheme = sample_scheme(seed, h=1, m=3, ell=ell)
    return build_gap_graph(build_csp(inst, scheme, 2, 1, ell), r)


def materialized_constraints(csp):
    """All constraints as (frozen variable set, checker) pairs."""
    n = csp.num_vars
    cons = []
    for s in range(n):
        for t in range(n):
            trip = {s ^ t, s, t}

            def c1_check(val, s=s, t=t):
                return val[s ^ t] == val[s] ^ val[t]

            cons.append((frozenset(trip), c1_check))
    for i in range(csp.k):
        for t in range(n):
            for ap in range(csp.num_alphas):
                shifted = t ^ csp.place(ap, i)

                def c2_check(val, t=t, shifted=shifted, i=i, ap=ap):
                    return val[shifted] ^ val[t] in csp.allowed_diffs(i, ap)

                cons.append((frozenset({t, shifted}), c2_check))
    for t in range(n):
        for ap in range(csp.num_alphas):
            shifted = t ^ csp.diagonal(ap)

            def c3_check(val, t=t, shifted=shifted, ap=ap):
                return val[shifted] ^ val[t] == csp.target_code(ap)

            cons.append((frozenset({t, shifted}), c3_check))
    return cons


def naive_adjacent(g: GapGraph, cons, u, w) -> bool:
    if u == w:
        return False
    union: dict[int, int] = {}
    for v in (u, w):
        for var, val in g.assignments(v):
            if union.setdefault(var, val) != val:
                return False
    for var_set, check in cons:
        if var_set <= union.keys():
            # evaluate with a total lookup defaulting outside the union;
            # var_set <= assigned vars guarantees only those are read
            if not check(union):
                return False
    return True


def test_counts_at_smallest_parameters():
    g = tiny_gap()
    assert g.num_b_groups == 16 and g.b_group_size == 16
    assert g.num_b_vertices == 256
    assert g.num_a_vertices == 16
    assert g.num_vertices == 272
    assert g.planted_size() == 20


def test_vertex_index_roundtrip():
    g = k2_gap(r=2)
    seen = set()
    for idx in range(g.num_vertices):
        v = g.vertex_by_index(idx)
        g.validate_vertex(v)
        seen.add(v)
    assert len(seen) == g.num_vertices


def test_group_independence():
    g = tiny_gap()
    # two distinct vertices of one B group disagree on p or q
    u = g.b_vertex(1, 2, 0, 3)
    w = g.b_vertex(1, 2, 1, 3)
    assert not g.adjacent(u, w)
    # distinct A vertices in one group: same variable, different values
    a1 = g.a_vertex(2, 1, 0)
    a2 = g.a_vertex(2, 1, 1)
    assert not g.adjacent(a1, a2)


def test_adjacency_symmetric_irreflexive():
    g = tiny_gap()
    rng = np.random.default_rng(3)
    verts = [g.vertex_by_index(int(i)) for i in rng.integers(0, g.num_vertices, 60)]
    for u in verts:
        assert not g.adjacent(u, u)
        for w in verts:
            assert g.adjacent(u, w) == g.adjacent(w, u)


def test_adjacent_matches_naive_everywhere_at_tiny_scale():
    g = tiny_gap()
    cons = materialized_constraints(g.csp)
    verts = [g.vertex_by_index(i) for i in range(g.num_vertices)]
    mismatches = 0
    for u, w in itertools.combinations(verts, 2):
        if g.adjacent(u, w) != naive_adjacent(g, cons, u, w):
            mismatches += 1
    assert mismatches == 0

    # at k = 2, C2 (one nonzero slot) and C3 (the diagonal) check
    # different differences.  A seeded sample of pairs: uniform ones,
    # and ones among self-sound vertices, where those checks decide
    g = k2_gap()
    cons = materialized_constraints(g.csp)
    verts = [g.vertex_by_index(i) for i in range(g.num_vertices)]
    sound = [v for v in verts if g.self_ok(v)]
    rng = np.random.default_rng(5)
    pairs = [(verts[i], verts[j]) for i, j in rng.integers(0, len(verts), (1000, 2))]
    pairs += [(sound[i], sound[j]) for i, j in rng.integers(0, len(sound), (3000, 2))]
    outcomes = set()
    for u, w in pairs:
        want = naive_adjacent(g, cons, u, w)
        assert g.adjacent(u, w) == want, (u, w)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_planted_clique_size_and_structure():
    g = tiny_gap(target_text="10")
    sel = brute_force_vector_sum(g.csp.inst)
    planted = g.planted_clique(sel)
    assert len(planted) == 20
    check = g.is_clique(planted)
    assert check.ok and check.violating_pair is None
    # pairwise verification through the raw predicate
    for u, w in itertools.combinations(planted, 2):
        assert g.adjacent(u, w)


def test_planted_clique_with_full_replication():
    g = tiny_gap(target_text="10", r=4)
    sel = brute_force_vector_sum(g.csp.inst)
    planted = g.planted_clique(sel)
    assert len(planted) == 2 * g.num_b_groups == 32
    assert g.is_clique(planted).ok


def test_planted_ok_agrees_with_materialized_check():
    yes = tiny_gap("10")
    sel = brute_force_vector_sum(yes.csp.inst)
    assert yes.planted_clique_ok(sel)
    assert yes.is_clique(yes.planted_clique(sel)).ok

    no = tiny_gap("01")
    bad = SelectionCertificate((0,))
    assert not no.planted_clique_ok(bad)
    assert not no.is_clique(no.planted_clique(bad, allow_unsatisfying=True)).ok

    g2 = k2_gap()
    sel2 = brute_force_vector_sum(g2.csp.inst)
    assert g2.planted_clique_ok(sel2) == g2.is_clique(g2.planted_clique(sel2)).ok


def test_planted_requires_satisfying_selection():
    g = tiny_gap(target_text="01")  # no-instance: the one selection misses
    bad = SelectionCertificate((0,))
    with pytest.raises(ValueError):
        g.planted_clique(bad)
    flagged = g.planted_clique(bad, allow_unsatisfying=True)
    assert len(flagged) == 20
    assert not g.is_clique(flagged).ok


def test_is_clique_flags_intra_group_addition():
    g = tiny_gap()
    sel = brute_force_vector_sum(g.csp.inst)
    planted = g.planted_clique(sel)
    # add a second vertex from the first B group with a different (y, z)
    b = planted[0]
    intruder = ("B", b[1], b[2], b[3] ^ 1, b[4])
    check = g.is_clique(planted + [intruder])
    assert not check.ok
    u, w = check.violating_pair
    assert not g.adjacent(u, w)


def test_is_clique_singleton_and_empty():
    g = tiny_gap()
    assert g.is_clique([]).ok
    assert g.is_clique([g.b_vertex(0, 0, 0, 0)]).ok


def test_is_clique_agrees_with_pairwise_on_random_sets():
    g = tiny_gap()
    rng = np.random.default_rng(8)
    for _ in range(300):
        size = int(rng.integers(2, 7))
        verts = [g.vertex_by_index(int(i)) for i in rng.integers(0, g.num_vertices, size)]
        verts = sorted(set(verts))
        expected = all(
            g.adjacent(u, w) for u, w in itertools.combinations(verts, 2)
        )
        got = g.is_clique(verts)
        assert got.ok == expected
        if not got.ok:
            u, w = got.violating_pair
            assert not g.adjacent(u, w) and u in verts and w in verts


def test_self_invalid_vertices_are_isolated():
    g = tiny_gap()
    # B vertex on the degenerate group (p, p): variables {0, p, p}; pick
    # y != z so the duplicated variable p conflicts
    v = g.b_vertex(1, 1, 0, 1)
    assert not g.self_ok(v)
    for idx in range(0, g.num_vertices, 17):
        assert not g.adjacent(v, g.vertex_by_index(idx))


def test_export_matches_predicate():
    g = tiny_gap()
    graph, verts = g.export_explicit()
    assert graph.n == 272 and len(verts) == 272
    assert verts == [g.vertex_by_index(i) for i in range(272)]
    disagreements = 0
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.adjacent(i, j) != g.adjacent(verts[i], verts[j]):
                disagreements += 1
    assert disagreements == 0


def test_export_edge_count_recount():
    g = k2_gap()
    graph, verts = g.export_explicit()
    assert graph.n == g.num_vertices == 4160 + 0 * len(verts)
    # recount on a deterministic sample of pairs
    rng = np.random.default_rng(11)
    for _ in range(4000):
        i, j = int(rng.integers(0, graph.n)), int(rng.integers(0, graph.n))
        if i == j:
            continue
        assert graph.adjacent(i, j) == g.adjacent(verts[i], verts[j])


def test_export_budget():
    g = k2_gap(r=256)
    assert g.num_vertices == 4096 + 16 * 256 * 4
    with pytest.raises(BudgetExceededError):
        g.export_explicit(budget=20_000)


def test_planted_on_k2_instance():
    g = k2_gap()
    sel = brute_force_vector_sum(g.csp.inst)
    assert sel is not None
    planted = g.planted_clique(sel)
    assert len(planted) == g.num_b_groups + g.num_a_groups == 256 + 16
    assert g.is_clique(planted).ok


def test_sidecar_roundtrip():
    g = tiny_gap()
    _, verts = g.export_explicit()
    buf = io.StringIO()
    write_sidecar(verts, g, buf)
    buf.seek(0)
    assert read_sidecar(buf, g) == verts


def reference_descriptor(v, g: GapGraph) -> str:
    """The vertex text as the per-vertex FVector writers produced it: a B
    vertex packs (p, q) and (y, z) into one vector each, low half first."""
    kh, ell = g.csp.k * g.csp.h, g.csp.ell
    if v[0] == "B":
        _, p, q, y, z = v
        tup = FVector(2 * kh, p | (q << (2 * kh))).to_text()
        val = FVector(2 * ell, y | (z << (2 * ell))).to_text()
        return f"B {tup} {val}"
    _, p, i, x = v
    return f"A {FVector(kh, p).to_text()} {i} {FVector(ell, x).to_text()}"


@pytest.mark.parametrize("family", ["planted", "sample"])
def test_vertex_text_matches_per_vertex_reference(family):
    # kh = 2 and ell = 2: every descriptor half has two digits, so a
    # swapped half or a reversed digit order changes the bytes
    g = k2_gap(r=2, ell=2)
    if family == "planted":
        verts = g.planted_clique(brute_force_vector_sum(g.csp.inst))
    else:
        rng = np.random.default_rng(5)
        verts = [g.vertex_by_index(int(i)) for i in rng.integers(0, g.num_vertices, 2000)]
    sidecar, clique_set = io.StringIO(), io.StringIO()
    write_sidecar(verts, g, sidecar)
    write_clique_set(verts, g, clique_set)
    assert sidecar.getvalue() == "".join(
        f"{idx} {reference_descriptor(v, g)}\n" for idx, v in enumerate(verts, start=1)
    )
    assert clique_set.getvalue() == "".join(
        f"{reference_descriptor(v, g)}\n" for v in sorted(set(verts))
    )
    sidecar.seek(0)
    assert read_sidecar(sidecar, g) == verts


@pytest.mark.parametrize(
    "v", [("B", 16, 0, 0, 0), ("B", 0, 0, 0, 16), ("A", 0, 1, 16), ("A", -1, 1, 0)]
)
def test_vertex_text_rejects_out_of_range_values(v):
    g = k2_gap(ell=2)
    with pytest.raises(ValueError):
        write_sidecar([v], g, io.StringIO())


# lines built from sidecar tokens (widths of `tiny_gap`: kh = ell = 1, one
# copy) reach every branch of the parser far more often than uniform text
_sidecar_token = st.sampled_from(
    ["A", "B", "#", "x", "-1", "0", "1", "2", "3", "00", "01", "13", "2w"]
)
_sidecar_line = st.one_of(
    st.lists(_sidecar_token, max_size=6).map(" ".join), st.text(max_size=12)
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_sidecar_line, max_size=8))
def test_sidecar_text_parses_or_raises_value_error(lines):
    g = tiny_gap()
    try:
        verts = read_sidecar(io.StringIO("\n".join(lines)), g)
    except ValueError:
        return
    assert all(g.validate_vertex(v) == v for v in verts)


@pytest.mark.parametrize(
    "text", ["1\n", "1 B\n", "1 A 0 1\n", "2 B 00 00\n", "1 B 00 00\n1 B 01 00\n"],
    ids=["id-only", "short-B", "short-A", "id-gap", "id-twice"],
)
def test_malformed_sidecar_raises_value_error(text):
    with pytest.raises(ValueError):
        read_sidecar(io.StringIO(text), tiny_gap())


def test_clique_set_file_is_deterministic():
    g = tiny_gap()
    sel = brute_force_vector_sum(g.csp.inst)
    planted = g.planted_clique(sel)
    b1, b2 = io.StringIO(), io.StringIO()
    write_clique_set(planted, g, b1)
    write_clique_set(list(reversed(planted)), g, b2)
    assert b1.getvalue() == b2.getvalue()
