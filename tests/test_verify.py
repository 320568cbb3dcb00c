"""Clique oracle tests.

`oracle_omega` is the independent reference: a subset DP over all
2^n vertex sets (a set is a clique iff dropping its lowest vertex
leaves a clique fully adjacent to it), feasible up to n = 14."""

from __future__ import annotations

import numpy as np
import pytest

from gapforge.cliquered import VectorSumInstance, brute_force_vector_sum
from gapforge.csp import build_csp
from gapforge.encoding import EncodingScheme, sample_scheme
from gapforge.field import FMat, FVector
from gapforge import verify
from gapforge.gapgraph import build_gap_graph
from gapforge.verify import (
    CliqueReport,
    clique_local_search,
    max_clique_exact,
    soundness_probe,
)
from gapforge.explicit import ExplicitGraph


def oracle_omega(g: ExplicitGraph) -> int:
    n = g.n
    ok = bytearray(1 << n)
    ok[0] = 1
    best = 0
    for s in range(1, 1 << n):
        b = s & -s
        v = b.bit_length() - 1
        t = s ^ b
        if ok[t] and (t & ~g.adj[v]) == 0:
            ok[s] = 1
            best = max(best, s.bit_count())
    return best


def random_graph(rng, n: int, p: float) -> ExplicitGraph:
    m = np.triu(rng.random((n, n)) < p, 1)
    return ExplicitGraph.from_bool_matrix(m | m.T)


def complete_graph(n: int) -> ExplicitGraph:
    return ExplicitGraph.from_bool_matrix(~np.eye(n, dtype=bool))


def cycle_graph(n: int) -> ExplicitGraph:
    g = ExplicitGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def tiny_gap(target_text: str):
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (FMat.from_entries([(1, 2)]),), "explicit")
    return build_gap_graph(build_csp(inst, scheme, 1, 1, 1), 1)


def test_complete_and_cycle():
    rep = max_clique_exact(complete_graph(5))
    assert rep.lower_bound == rep.upper_bound == 5 and rep.exact
    assert rep.witness == (0, 1, 2, 3, 4)
    rep = max_clique_exact(cycle_graph(5))
    assert rep.lower_bound == 2 and rep.exact


def test_trivial_sizes():
    assert max_clique_exact(ExplicitGraph(0)).lower_bound == 0
    rep = max_clique_exact(ExplicitGraph(4))  # no edges
    assert rep.lower_bound == 1 and rep.exact


def test_exact_matches_oracle_on_12_vertex_graphs():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_graph(rng, 12, float(rng.uniform(0.1, 0.9)))
        rep = max_clique_exact(g)
        assert rep.exact
        assert rep.lower_bound == oracle_omega(g)
        assert g.is_clique(list(rep.witness))


def test_exact_matches_oracle_on_mixed_corpus():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(4, 15))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.95)))
        assert max_clique_exact(g).lower_bound == oracle_omega(g)


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = 13
        g = random_graph(rng, n, 0.3)
        prev = max_clique_exact(g).lower_bound
        for _ in range(3):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                g.add_edge(u, v)
            cur = max_clique_exact(g).lower_bound
            assert cur >= prev
            prev = cur


def test_vertex_budget_degrades_to_bounds():
    rng = np.random.default_rng(24)
    g = random_graph(rng, 40, 0.5)
    rep = max_clique_exact(g, vertex_budget=10)
    assert not rep.exact
    assert 1 <= rep.lower_bound <= rep.upper_bound
    assert g.is_clique(list(rep.witness))
    full = max_clique_exact(g)
    assert rep.lower_bound <= full.lower_bound <= rep.upper_bound


def test_node_budget_degrades_to_bounds():
    rng = np.random.default_rng(25)
    g = random_graph(rng, 60, 0.8)
    rep = max_clique_exact(g, node_budget=15)
    assert not rep.exact
    assert rep.lower_bound <= rep.upper_bound
    assert g.is_clique(list(rep.witness))


def test_local_search_finds_k8():
    rep = clique_local_search(complete_graph(8), restarts=1, seed=123)
    assert rep.lower_bound == 8 and not rep.exact


def test_local_search_deterministic():
    rng = np.random.default_rng(26)
    g = random_graph(rng, 50, 0.6)
    a = clique_local_search(g, restarts=20, seed=7)
    b = clique_local_search(g, restarts=20, seed=7)
    assert a == b
    assert isinstance(a, CliqueReport) and a.restarts == 20


def test_local_search_witness_valid_and_near_exact_on_small():
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = random_graph(rng, 30, 0.7)
        rep = clique_local_search(g, restarts=40, seed=3)
        assert g.is_clique(list(rep.witness))
        assert rep.lower_bound <= max_clique_exact(g).lower_bound


def test_warm_start_reaches_planted():
    g = tiny_gap("10")
    sel = brute_force_vector_sum(g.csp.inst)
    planted = g.planted_clique(sel)
    rep = clique_local_search(g, restarts=0, seed=1, initial_clique=planted)
    assert rep.lower_bound == g.planted_size() == 20
    assert g.is_clique(list(rep.witness)).ok


def test_warm_start_must_be_clique():
    g = tiny_gap("10")
    bad = [g.b_vertex(1, 2, 0, 0), g.b_vertex(1, 2, 1, 1)]
    with pytest.raises(ValueError):
        clique_local_search(g, restarts=0, seed=1, initial_clique=bad)


def test_implicit_search_path():
    g = tiny_gap("10")
    # force the implicit path by disallowing export
    a = clique_local_search(g, restarts=30, seed=2, export_budget=100, sample_size=80)
    b = clique_local_search(g, restarts=30, seed=2, export_budget=100, sample_size=80)
    assert a == b
    assert g.is_clique(list(a.witness)).ok
    assert a.upper_bound is None


def k2_gap():
    inst = VectorSumInstance(
        [
            [FVector.from_text("100"), FVector.from_text("010")],
            [FVector.from_text("001"), FVector.from_text("110")],
        ],
        FVector.from_text("101"),
    )
    return build_gap_graph(build_csp(inst, sample_scheme(9, h=1, m=3, ell=1), 2, 1, 1), 1)


def reference_implicit_search(g, restarts, seed, warm, sample_size):
    """The implicit search spelled out with the scalar predicate."""
    best = list(warm)
    nodes = 0
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        idxs = np.unique(rng.integers(0, g.num_vertices, size=sample_size))
        rng.shuffle(idxs)
        clique = list(warm)
        for idx in idxs:
            v = g.vertex_by_index(int(idx))
            if all(g.adjacent(v, u) for u in clique):
                clique.append(v)
                nodes += 1
        if len(clique) > len(best):
            best = clique
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


def test_implicit_search_matches_scalar_reference():
    for g, sample_size in ((tiny_gap("10"), 120), (k2_gap(), 400)):
        planted = g.planted_clique(brute_force_vector_sum(g.csp.inst))
        # unsound through a check between its own variables, not through
        # the zero tuple
        unsound = next(
            v for v in map(g.vertex_by_index, range(g.num_vertices))
            if 0 not in dict(g.assignments(v)) and not g.self_ok(v)
        )
        warms = (None, planted[:1], planted[::7], [unsound])
        for seed in range(3):
            for warm in warms:
                got = clique_local_search(
                    g, restarts=6, seed=seed, initial_clique=warm,
                    sample_size=sample_size, export_budget=100,
                )
                want = reference_implicit_search(g, 6, seed, warm or [], sample_size)
                assert got == want


def test_probe_yes_instance_reached():
    g = tiny_gap("10")
    probe = soundness_probe(g, mode="exact")
    assert probe.verdict == "reached"
    assert probe.planted_size == 20
    assert g.is_clique(list(probe.witness)).ok


def test_probe_no_instance_below():
    g = tiny_gap("01")
    probe = soundness_probe(g, mode="exact")
    assert probe.verdict == "below"
    assert probe.clique.exact
    assert probe.clique.lower_bound < 20


def test_probe_search_mode_never_false_reached():
    g = tiny_gap("01")
    probe = soundness_probe(g, mode="search", restarts=200, seed=4)
    assert probe.verdict in ("below", "inconclusive")
    g_yes = tiny_gap("10")
    probe = soundness_probe(g_yes, mode="search", restarts=300, seed=4)
    if probe.verdict == "reached":
        assert g_yes.is_clique(list(probe.witness)).ok


def test_probe_rejects_unknown_mode():
    with pytest.raises(ValueError):
        soundness_probe(tiny_gap("10"), mode="guess")


# -- bitset oracles against the boolean-matrix code they replaced -----------


def reference_greedy_by_priority(adjbool, prio):
    n = adjbool.shape[0]
    cand = np.ones(n, dtype=bool)
    clique = []
    while True:
        masked = np.where(cand, prio, n)
        v = int(masked.argmin())
        if masked[v] == n:
            return clique
        clique.append(v)
        cand &= adjbool[v]
        cand[v] = False


def reference_two_improve(adjbool, clique, rounds=8, scan_cap=128):
    clique = list(clique)
    for _ in range(rounds):
        if len(clique) < 1:
            return clique
        members = np.array(clique)
        cnt = adjbool[members].sum(axis=0)
        cnt[members] = -1
        near = np.where(cnt == len(clique) - 1)[0]
        if len(near) < 2:
            return clique
        missing = np.argmin(adjbool[np.ix_(near, members)], axis=1)
        improved = False
        for slot in np.unique(missing):
            group = near[missing == slot][:scan_cap]
            if len(group) < 2:
                continue
            pairs = np.argwhere(np.triu(adjbool[np.ix_(group, group)], 1))
            if len(pairs):
                a, b = group[pairs[0][0]], group[pairs[0][1]]
                clique.remove(int(members[slot]))
                clique.extend([int(a), int(b)])
                improved = True
                break
        if not improved:
            return clique
    return clique


def reference_extend_maximal(adjbool, clique):
    cand = np.ones(adjbool.shape[0], dtype=bool)
    for v in clique:
        cand &= adjbool[v]
    for v in clique:
        cand[v] = False
    out = list(clique)
    while cand.any():
        v = int(np.argmax(cand))
        out.append(v)
        cand &= adjbool[v]
        cand[v] = False
    return out


def reference_local_search(g, restarts, seed, initial_clique=None):
    """Explicit-graph local search on an n x n boolean matrix."""
    adjbool = g.to_bool_matrix()
    best, nodes = [], 0
    if initial_clique is not None:
        best = reference_extend_maximal(adjbool, list(initial_clique))
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        clique = reference_greedy_by_priority(adjbool, rng.permutation(g.n)) if g.n else []
        clique = reference_two_improve(adjbool, clique)
        nodes += len(clique)
        if len(clique) > len(best):
            best = clique
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


def reference_degeneracy_order(adj, n):
    """Smallest-last order by a quadratic scan for min (degree, index)."""
    remaining = set(range(n))
    deg = [adj[v].bit_count() for v in range(n)]
    order = []
    for _ in range(n):
        v = min(remaining, key=lambda u: (deg[u], u))
        order.append(v)
        remaining.discard(v)
        for u in remaining:
            if (adj[v] >> u) & 1:
                deg[u] -= 1
    return order


def reference_bounds_report(g, order):
    """max_clique_exact's report for a graph over its vertex budget, from
    the given degeneracy order."""
    seeds = []
    for along in (order[::-1], range(g.n)):
        clique = []
        for v in along:
            if all(g.adjacent(v, u) for u in clique):
                clique.append(v)
        seeds.append(clique)
    seed = max(seeds, key=len)
    colors, left = 0, list(range(g.n))
    while left:
        colors += 1
        color_class, rest = 0, []
        for v in left:
            if g.adj[v] & color_class:
                rest.append(v)
            else:
                color_class |= 1 << v
        left = rest
    return CliqueReport(len(seed), tuple(sorted(seed)), colors, False, 0, 0)


def corpus(seed, count):
    """Seeded graphs with n in 1..60 and edge density in 0.05..0.95."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 61))
        yield rng, random_graph(rng, n, float(rng.uniform(0.05, 0.95)))


def exported_gap_graphs():
    for g in (tiny_gap("10"), k2_gap()):
        graph, verts = g.export_explicit()
        index_of = {v: i for i, v in enumerate(verts)}
        planted = g.planted_clique(brute_force_vector_sum(g.csp.inst))
        yield graph, [index_of[v] for v in planted]


def two_improve_limit_graphs():
    """Graphs on which 2-improvement's round limit and scan cap decide.

    chain: e_i ~ e_j (i < j) iff i >= ceil(j / 2), plus an isolated last
    vertex.  From that vertex every round swaps the oldest member for the
    next pair, so improvement runs until the round limit.  edge: one edge
    {127, 128} among 140 vertices; the outsiders of an isolated vertex
    hold it within their first 128 exactly when that vertex is below 127."""
    chain = ExplicitGraph.from_edges(
        25, [(i, j) for j in range(1, 24) for i in range(j) if i + 1 >= (j + 2) // 2]
    )
    return chain, ExplicitGraph.from_edges(140, [(127, 128)])


def test_local_search_matches_boolean_matrix_reference():
    for rng, g in corpus(28, 120):
        warm = reference_greedy_by_priority(g.to_bool_matrix(), rng.permutation(g.n))
        seed = int(rng.integers(100))
        for init in (None, [], warm[: int(rng.integers(1, len(warm) + 1))]):
            got = clique_local_search(g, restarts=4, seed=seed, initial_clique=init)
            assert got == reference_local_search(g, 4, seed, init)
    for graph, planted in exported_gap_graphs():
        for init in (None, planted[:1], planted[::3]):
            got = clique_local_search(graph, restarts=30, seed=5, initial_clique=init)
            assert got == reference_local_search(graph, 30, 5, init)
    for graph in two_improve_limit_graphs():
        got = clique_local_search(graph, restarts=100, seed=6)
        assert got == reference_local_search(graph, 100, 6)


def test_degeneracy_order_matches_quadratic_reference():
    graphs = [g for _, g in corpus(29, 120)] + [graph for graph, _ in exported_gap_graphs()]
    for g in graphs:
        order = reference_degeneracy_order(g.adj, g.n)
        assert verify._degeneracy_order(g.adj, g.n) == order
        assert max_clique_exact(g, vertex_budget=0) == reference_bounds_report(g, order)
