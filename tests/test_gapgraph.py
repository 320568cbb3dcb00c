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
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.cliquered import (
    SelectionCertificate,
    VectorSumInstance,
    brute_force_vector_sum,
    verify_selection,
)
from gapforge.csp import build_csp, honest_assignment
from gapforge.encoding import EncodingScheme, sample_scheme
from gapforge.errors import BudgetExceededError
from gapforge.explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph, mask_bits
from gapforge.field import FVector
from gapforge.gapgraph import (
    PLANTED_BUDGET,
    GapGraph,
    GapSizes,
    build_gap_graph,
    read_sidecar,
    write_clique_set,
    write_sidecar,
)
from gapforge.pipeline import PipelineConfig, run_pipeline
from reference import (
    adjacent,
    allowed_diffs,
    from_entries,
    planted_family,
    target_code,
    vertex_by_index,
)
from test_acceptance import _separated_no_instance, solvable_instance, vec01, vec01_set
from test_csp import derandomized_csp, reference_corpus
from test_verify import k3_no_gap, over_budget_gap


def tiny_gap(target_text: str = "10", row=(1, 2), r: int = 1) -> GapGraph:
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (from_entries([row]),), "explicit")
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
                    return val[shifted] ^ val[t] in allowed_diffs(csp, i, ap)

                cons.append((frozenset({t, shifted}), c2_check))
    for t in range(n):
        for ap in range(csp.num_alphas):
            shifted = t ^ csp.diagonal(ap)

            def c3_check(val, t=t, shifted=shifted, ap=ap):
                return val[shifted] ^ val[t] == target_code(csp, ap)

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
        v = vertex_by_index(g, idx)
        assert g.validate_vertex(list(v)) == v
        seen.add(v)
    assert len(seen) == g.num_vertices


@pytest.mark.parametrize(
    "v, message",
    [
        (("B", 5, 6, 7, 8), "packed tuple 5 out of range"),
        (("B", 0, 6, 7, 8), "packed tuple 6 out of range"),
        (("B", 0, 0, 7, 8), "packed value 7 out of range"),
        (("B", 0, 0, 0, 8), "packed value 8 out of range"),
        (("A", 5, 2, 7), "packed tuple 5 out of range"),
        (("A", 0, 2, 7), "copy index 2 outside 1..1"),
        (("A", 0, 1, 7), "packed value 7 out of range"),
        (("A", 0, 1), "malformed vertex ('A', 0, 1)"),
        (("C", 0, 0, 0), "malformed vertex ('C', 0, 0, 0)"),
    ],
)
def test_validate_vertex_names_the_first_bad_field(v, message):
    # 4 tuples, 4 values, one copy group: fields are checked left to
    # right, the copy index between an A vertex's tuple and value
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_gap().validate_vertex(v)


def test_group_independence():
    g = tiny_gap()
    # two distinct vertices of one B group disagree on p or q
    u = g.validate_vertex(("B", 1, 2, 0, 3))
    w = g.validate_vertex(("B", 1, 2, 1, 3))
    assert not g.adjacent(u, w)
    # distinct A vertices in one group: same variable, different values
    a1 = g.validate_vertex(("A", 2, 1, 0))
    a2 = g.validate_vertex(("A", 2, 1, 1))
    assert not g.adjacent(a1, a2)


def test_adjacency_symmetric_irreflexive():
    g = tiny_gap()
    rng = np.random.default_rng(3)
    verts = [vertex_by_index(g, int(i)) for i in rng.integers(0, g.num_vertices, 60)]
    for u in verts:
        assert not g.adjacent(u, u)
        for w in verts:
            assert g.adjacent(u, w) == g.adjacent(w, u)


def test_adjacent_matches_naive_everywhere_at_tiny_scale():
    g = tiny_gap()
    cons = materialized_constraints(g.csp)
    verts = [vertex_by_index(g, i) for i in range(g.num_vertices)]
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
    verts = [vertex_by_index(g, i) for i in range(g.num_vertices)]
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

    # at ell = 40 the values are wider than int64: planted vertices, and
    # copies with one value XORed with a random nonzero value
    g = k2_gap(ell=40)
    cons = materialized_constraints(g.csp)
    planted = g.planted_clique(brute_force_vector_sum(g.csp.inst))
    rng = np.random.default_rng(6)
    perturbed = []
    for i in rng.integers(0, len(planted), 200):
        v = list(planted[i])
        v[-1 - int(rng.integers(0, 2 if v[0] == "B" else 1))] ^= int(rng.integers(1, 1 << 62)) << 18
        perturbed.append(tuple(v))
    pairs = [(planted[i], planted[j]) for i, j in rng.integers(0, len(planted), (300, 2))]
    pairs += [(planted[i], perturbed[j]) for i, j in rng.integers(0, 200, (300, 2))]
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
    assert planted_family(yes, sel) == yes.planted_clique(sel)

    no = tiny_gap("01")
    bad = SelectionCertificate((0,))
    assert not no.planted_clique_ok(bad)
    assert not no.is_clique(planted_family(no, bad)).ok

    g2 = k2_gap()
    sel2 = brute_force_vector_sum(g2.csp.inst)
    assert g2.planted_clique_ok(sel2) == g2.is_clique(g2.planted_clique(sel2)).ok

    # ell = 40: values wider than int64
    wide = k2_gap(ell=40)
    sel = brute_force_vector_sum(wide.csp.inst)
    assert wide.planted_clique_ok(sel)
    assert wide.is_clique(wide.planted_clique(sel)).ok
    assert planted_family(wide, sel) == wide.planted_clique(sel)
    unsat = SelectionCertificate((1, 1))  # 010 + 110 misses the target 101
    assert not wide.planted_clique_ok(unsat)
    assert not wide.is_clique(planted_family(wide, unsat)).ok


def test_planted_ok_matches_the_pair_sweep():
    # every selection of the seeded corpus, satisfying or not, with its
    # ell = MAX_ELL and ell = 40 (object dtype) graphs, and of the
    # derandomized k = 2, h = 2 graph on K3
    csps = [csp for csp, _ in reference_corpus()] + [derandomized_csp(3, 2, 2)]
    outcomes = set()
    for csp in csps:
        g = build_gap_graph(csp, 1)
        for sel in itertools.product(*(range(len(s)) for s in csp.inst.sets)):
            sel = SelectionCertificate(sel)
            hv = honest_assignment(csp, sel).values
            want = (
                verify_selection(csp.inst, sel)
                and g._first_bad_pair(hv, np.ones(len(hv), dtype=bool)) is None
            )
            assert g.planted_clique_ok(sel) == want, (csp.k, csp.h, csp.ell, sel)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_planted_ok_checks_one_pair_per_difference(monkeypatch):
    # the honest assignment is linear, so the pair (a, a ^ d) passes
    # exactly when (0, d) does: one _pairs_ok call over the checked
    # differences, and no sweep
    g = build_gap_graph(derandomized_csp(3, 2, 2), 1)
    sel = brute_force_vector_sum(g.csp.inst)
    sizes, sweeps = [], []
    pairs_ok, first_bad_pair = GapGraph._pairs_ok, GapGraph._first_bad_pair

    def counted(self, *args):
        sizes.append(np.broadcast(*args).size)
        return pairs_ok(self, *args)

    def swept(self, *args):
        sweeps.append(None)
        return first_bad_pair(self, *args)

    monkeypatch.setattr(GapGraph, "_pairs_ok", counted)
    monkeypatch.setattr(GapGraph, "_first_bad_pair", swept)
    assert g.planted_clique_ok(sel)
    assert sizes == [len(g.csp.checked)] and len(g.csp.checked) == 60
    assert sweeps == []


def test_planted_requires_satisfying_selection():
    g = tiny_gap(target_text="01")  # no-instance: the one selection misses
    bad = SelectionCertificate((0,))
    with pytest.raises(ValueError):
        g.planted_clique(bad)
    flagged = planted_family(g, bad)
    assert len(flagged) == 20
    assert not g.is_clique(flagged).ok


def test_planted_clique_stops_above_its_budget():
    # 4 tuples: 16 B groups and 4r A groups
    r = (PLANTED_BUDGET - 16) // 4
    sel = SelectionCertificate((0,))
    assert len(tiny_gap(r=r).planted_clique(sel)) == PLANTED_BUDGET
    over = tiny_gap(r=r + 1)
    n = over.planted_size()
    with pytest.raises(BudgetExceededError, match=f"planted clique has {n} vertices"):
        over.planted_clique(sel)


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
    assert g.is_clique([g.validate_vertex(("B", 0, 0, 0, 0))]).ok


def test_is_clique_agrees_with_pairwise_on_random_sets():
    g = tiny_gap()
    rng = np.random.default_rng(8)
    for _ in range(300):
        size = int(rng.integers(2, 7))
        verts = [vertex_by_index(g, int(i)) for i in rng.integers(0, g.num_vertices, size)]
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
    v = g.validate_vertex(("B", 1, 1, 0, 1))
    assert not g.self_ok(v)
    for idx in range(0, g.num_vertices, 17):
        assert not g.adjacent(v, vertex_by_index(g, idx))


def test_export_matches_predicate():
    g = tiny_gap()
    graph, verts = g.export_explicit()
    assert graph.n == 272 and len(verts) == 272
    assert verts == [vertex_by_index(g, i) for i in range(272)]
    disagreements = 0
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if adjacent(graph, i, j) != g.adjacent(verts[i], verts[j]):
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
        assert adjacent(graph, i, j) == g.adjacent(verts[i], verts[j])


def assert_rows_within(row, n, seed):
    # row(i, within) is row(i, -1) restricted to within, on seeded masks
    rng = np.random.default_rng(seed)
    for i in range(n):
        for within in (0, mask_bits(rng.random(n) < 0.5), mask_bits(rng.random(n) < 0.1)):
            assert row(i, within) == row(i, -1) & within


def index_samples():
    """(graph, canonical indices): every vertex of three exportable graphs,
    then seeded indices of two larger ones with the first, the last B and
    the first A vertex and the last vertex among them."""
    for g in (tiny_gap(), k2_gap(), k2_gap(r=3)):
        yield g, np.arange(g.num_vertices)
    rng = np.random.default_rng(31)
    for g in (over_budget_gap(), k3_no_gap()):
        ends = [0, g.num_b_vertices - 1, g.num_b_vertices, g.num_vertices - 1]
        yield g, np.concatenate((ends, rng.integers(0, g.num_vertices, 600)))


def test_index_arrays_match_vertex_arrays():
    for g, idx in index_samples():
        verts = [vertex_by_index(g, i) for i in idx.tolist()]
        var, val = g._index_arrays(idx)
        want_var, want_val = g._vertex_arrays(verts)
        assert var.dtype == want_var.dtype and val.dtype == want_val.dtype
        assert np.array_equal(var, want_var) and np.array_equal(val, want_val)


def test_vertices_match_the_canonical_order_reference():
    # seeded ascending index sets with the first, the last B, the first A
    # and the last vertex in them, and their B and A parts alone; r = 3
    # gives A vertices copy indices past 1
    rng = np.random.default_rng(37)
    for g in (tiny_gap(), k2_gap(), k2_gap(r=3), over_budget_gap()):
        nb, n = g.num_b_vertices, g.num_vertices
        for size in (0, 40, 400):
            idx = np.unique(np.concatenate(([0, nb - 1, nb, n - 1], rng.integers(0, n, size))))
            for part in (idx, idx[idx < nb], idx[idx >= nb]):
                got = g._vertices(part, *g._index_arrays(part))
                assert got == [vertex_by_index(g, i) for i in part.tolist()]
                assert all(type(x) is int for v in got for x in v[1:])


def test_code_table_rows_match_pairs_ok_rows():
    # the same arrays through the table and through the _pairs_ok rows the
    # graphs past the table's budget use
    for g, idx in index_samples():
        assert g._code_table is not None
        fallback = build_gap_graph(g.csp, g.r)
        fallback._code_table = None
        pick = idx[:300]
        row = g._rows(*g._index_arrays(pick))
        want = fallback._rows(*fallback._index_arrays(pick))
        rows = [row(i, -1) for i in range(len(pick))]
        assert rows == [want(i, -1) for i in range(len(pick))]
        assert any(rows)


def test_rows_on_demand_match_export_and_adjacent():
    # whole tiny graph, then a seeded k=2 subset with planted vertices in
    # it: row i restricted to the listed vertices is the exported row
    g = tiny_gap()
    graph, verts = g.export_explicit()
    row = g._rows(*g._vertex_arrays(verts))
    assert [row(i, -1) for i in range(graph.n)] == graph.adj
    assert_rows_within(row, graph.n, 13)
    g = k2_gap()
    graph, verts = g.export_explicit()
    index = {v: i for i, v in enumerate(verts)}
    planted = g.planted_clique(brute_force_vector_sum(g.csp.inst))
    pick = np.random.default_rng(12).choice(graph.n, 200, replace=False).tolist()
    pick += [index[v] for v in planted[::40] if index[v] not in pick]
    row = g._rows(*g._vertex_arrays([verts[i] for i in pick]))
    for a, i in enumerate(pick):
        assert row(a, -1) == sum(1 << b for b, j in enumerate(pick) if adjacent(graph, i, j))
    assert_rows_within(row, len(pick), 14)
    # values wider than int64: planted vertices with one value perturbed
    g = k2_gap(ell=40)
    planted = g.planted_clique(brute_force_vector_sum(g.csp.inst))[::20]
    wide = [v[:-1] + (v[-1] ^ 1 << 70,) for v in planted[::2]]
    vs = planted + wide
    row = g._rows(*g._vertex_arrays(vs))
    bits = [[row(a, -1) >> b & 1 for b in range(len(vs))] for a in range(len(vs))]
    assert bits == [[int(g.adjacent(u, w)) for w in vs] for u in vs]
    assert any(map(any, bits)) and not all(map(all, bits))
    assert_rows_within(row, len(vs), 15)


def test_export_budget():
    g = k2_gap(r=256)
    assert g.num_vertices == 4096 + 16 * 256 * 4
    with pytest.raises(BudgetExceededError):
        g.export_explicit(budget=20_000)


def test_export_budget_message_past_4300_digits():
    # h=1, ell=3600: about 4^7202 vertices, a count str() refuses to write
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    g = build_gap_graph(build_csp(inst, sample_scheme(0, h=1, m=2, ell=3600), 1, 1, 3600), 1)
    with pytest.raises(BudgetExceededError, match=f"graph has {Decimal(g.num_vertices)} vertices"):
        g.export_explicit()


def strip_export(g: GapGraph):
    """The export as it was before the code table: the pair rule on all
    3 x 3 assignment pairs of every pair of live vertices, in strips of
    at most 2^18 pairs, packed into bitset rows."""
    n = g.num_vertices
    vertices = [vertex_by_index(g, i) for i in range(n)]
    var, val = g._vertex_arrays(vertices)
    live = np.flatnonzero(g._sound(var, val))
    cols = (var[live][None, None, :, :], val[live][None, None, :, :])
    graph = ExplicitGraph(n)
    nbytes = (n + 7) // 8
    step = max(1, (1 << 18) // (9 * max(1, len(live))))
    for start in range(0, len(live), step):
        rows = live[start : start + step]
        block = g._pairs_ok(
            var[rows][:, :, None, None], val[rows][:, :, None, None], *cols
        ).all(axis=(1, 3))
        block[np.arange(len(rows)), np.arange(start, start + len(rows))] = False
        strip = np.zeros((len(rows), n), dtype=bool)
        strip[:, live] = block
        packed = np.packbits(strip, axis=1, bitorder="little")
        for local, v in enumerate(rows.tolist()):
            graph.adj[v] = int.from_bytes(packed[local].tobytes()[:nbytes], "little")
    return graph, vertices


def criterion_8_gaps():
    """The fourteen NO graphs of acceptance criterion 8: twelve with 272
    vertices and two with 4160."""
    rng = np.random.default_rng(37)
    no = [_separated_no_instance(rng, 1, 3, 1000 * idx) for idx in range(12)]
    no += [_separated_no_instance(rng, 2, 3, 50_000 * (idx + 1)) for idx in range(2)]
    return [build_gap_graph(csp, 1) for csp in no]


def grid_gaps():
    """Seeded YES and NO gap graphs over r in {1, 2, 4}, ell in {1, 2, 3}
    and kh in {1, 2, 3} (every split of kh into k sets of h slots),
    where the graph is within the export budget."""
    rng = np.random.default_rng(2024)
    for r, ell, kh in itertools.product((1, 2, 4), (1, 2, 3), (1, 2, 3)):
        for k in (d for d in range(1, kh + 1) if kh % d == 0):
            h = kh // k
            if GapSizes(k, h, ell, r).num_vertices > EXPORT_VERTEX_BUDGET:
                continue
            if rng.integers(2):
                inst, _ = solvable_instance(rng, k, 3)
            else:
                inst = VectorSumInstance([vec01_set(rng, 3, 2) for _ in range(k)], vec01(rng, 3))
            scheme = sample_scheme(int(rng.integers(1 << 30)), h, 3, ell)
            yield (r, ell, k, h), build_gap_graph(build_csp(inst, scheme, k, h, ell), r)


def yes_bundle_gap() -> GapGraph:
    """The k = 1, h = 2 YES graph of the yes-bundle benchmark's shape."""
    c5 = ExplicitGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    cfg = PipelineConfig(k=1, h=2, ell=1, replication=1, seed=10, probe_mode="skip")
    return run_pipeline(c5, cfg).gap


def test_export_equals_strip_export_reference():
    no = criterion_8_gaps()
    assert [g.num_vertices for g in no] == [272] * 12 + [4160] * 2
    cases = [(f"criterion-8-{i}", g) for i, g in enumerate(no)]
    cases.append(("yes-bundle", yes_bundle_gap()))
    grid = list(grid_gaps())
    assert {cfg[1:] for cfg, _ in grid} == {(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)}
    cases += grid
    for name, g in cases:
        graph, verts = g.export_explicit()
        want_graph, want_verts = strip_export(g)
        assert verts == want_verts, name
        assert graph == want_graph, name
        assert graph.num_edges() > 0, name


def test_planted_on_k2_instance():
    g = k2_gap()
    sel = brute_force_vector_sum(g.csp.inst)
    assert sel is not None
    planted = g.planted_clique(sel)
    assert len(planted) == g.num_b_groups + g.num_a_groups == 256 + 16
    assert g.is_clique(planted).ok


@pytest.mark.parametrize("make", [tiny_gap, k2_gap], ids=["tiny", "k2"])
def test_is_clique_of_a_sound_pair_agrees_with_adjacent(make):
    # a non-adjacent sound pair fails is_clique either in the union
    # consistency pass (one variable, two values) or in the checked
    # differences of _first_bad_pair; both must name the pair itself
    g = make()
    rng = np.random.default_rng(4)
    picks = rng.integers(0, g.num_vertices, 1500).tolist()
    sound = [v for v in (vertex_by_index(g, i) for i in picks) if g.self_ok(v)]
    seen = set()
    for i, j in rng.integers(0, len(sound), (150, 2)).tolist():
        u, w = sound[i], sound[j]
        if u == w:
            continue
        check = g.is_clique([u, w])
        assert check.ok == g.adjacent(u, w), (u, w)
        if check.ok:
            assert check.violating_pair is None
            seen.add("adjacent")
            continue
        assert set(check.violating_pair) == {u, w}
        values = dict(g.assignments(u))
        clash = any(values.get(var, val) != val for var, val in g.assignments(w))
        seen.add("clash" if clash else "checked pair")
    assert seen == {"adjacent", "clash", "checked pair"}


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
        verts = [vertex_by_index(g, int(i)) for i in rng.integers(0, g.num_vertices, 2000)]
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
    buf = io.StringIO()
    write_sidecar(verts, g, buf)
    assert read_sidecar(io.StringIO(buf.getvalue()), g) == verts


def test_sidecar_skips_every_hash_comment():
    text = "#x\n1 A 0 1 0\n  # note\n2 B 00 00\n"
    assert read_sidecar(io.StringIO(text), tiny_gap()) == [("A", 0, 1, 0), ("B", 0, 0, 0, 0)]


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
