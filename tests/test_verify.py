"""Clique oracle tests.

`oracle_omega` is the independent reference: a subset DP over all
2^n vertex sets (a set is a clique iff dropping its lowest vertex
leaves a clique fully adjacent to it), feasible up to n = 14."""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest

from gapforge.cliquered import VectorSumInstance, reduce_clique
from gapforge.csp import build_csp
from gapforge.encoding import EncodingScheme, sample_scheme
from gapforge.errors import BudgetExceededError
from gapforge.field import FVector
from gapforge import verify
from gapforge.gapgraph import GapGraph, build_gap_graph
from gapforge.pipeline import plain_to_multicolor
from gapforge.verify import (
    CliqueReport,
    clique_local_search,
    max_clique_exact,
    soundness_probe,
)
from gapforge.explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph
from reference import adjacent, from_bool_matrix, from_entries, to_bool_matrix, vertex_by_index
from test_acceptance import _separated_no_instance


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
    return from_bool_matrix(m | m.T)


def complete_graph(n: int) -> ExplicitGraph:
    return from_bool_matrix(~np.eye(n, dtype=bool))


def cycle_graph(n: int) -> ExplicitGraph:
    g = ExplicitGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def tiny_gap(target_text: str):
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (from_entries([(1, 2)]),), "explicit")
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


def test_node_budget_counts_root_nodes():
    # a root vertex is a search node too, and the node that trips the
    # budget is not counted, so no report explores more nodes than its
    # budget, and a cut search still reports a valid witness within its
    # bounds and is never exact.  Every node past the n roots is one that
    # expand counts, so sweeping the budget up to the full search's count
    # trips it inside expand as well as in the root loop
    graphs = [complete_graph(3), ExplicitGraph.from_edges(3, [(0, 1)])]
    graphs += [g for _, g in corpus(32, 40)]
    expanded = 0
    for g in graphs:
        full = max_clique_exact(g)
        expanded += full.nodes_explored - g.n
        for budget in range(full.nodes_explored + 1):
            rep = max_clique_exact(g, node_budget=budget)
            assert rep.nodes_explored <= budget
            assert g.is_clique(list(rep.witness))
            assert rep.lower_bound == len(rep.witness) <= rep.upper_bound
            assert rep.exact == (budget == full.nodes_explored)
    assert expanded > 0


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


def test_implicit_search_path():
    g = tiny_gap("10")
    a = verify._implicit_search(g, 30, 2, None, 80)
    b = verify._implicit_search(g, 30, 2, None, 80)
    assert a == b
    assert g.is_clique(list(a.witness)).ok
    assert a.upper_bound is None


def over_budget_gap():
    """Two one-vector sets, h=1, ell=2, r=1: 16^2 * 4^4 + 16 * 4^2 vertices,
    over the export budget, so a search-mode probe searches implicitly."""
    inst = VectorSumInstance(
        [[FVector.from_text("10")], [FVector.from_text("01")]], FVector.from_text("10")
    )
    return build_gap_graph(build_csp(inst, sample_scheme(5, h=1, m=2, ell=2), 2, 1, 2), 1)


def k3_no_gap() -> GapGraph:
    """The gap graph of the k = 3 pipeline on the path P3, which has no
    triangle: 4096 tuples and 268,451,840 vertices, too many to export."""
    inst = reduce_clique(plain_to_multicolor(ExplicitGraph.from_edges(3, [(0, 1), (1, 2)]), 3))
    scheme = sample_scheme(0, h=1, m=inst.dim, ell=1)
    return build_gap_graph(build_csp(inst, scheme, inst.num_sets, 1, 1), 1)


def test_implicit_search_runs_the_pair_rule_once_per_restart(monkeypatch):
    # rows read the graph's code table, so _pairs_ok runs once for each
    # restart's soundness pass and once to build the table, not per row.
    # Here each restart takes a sound first vertex and reads about a
    # hundred rows
    calls = []
    pairs_ok = GapGraph._pairs_ok

    def counted(self, *args):
        calls.append(None)
        return pairs_ok(self, *args)

    monkeypatch.setattr(GapGraph, "_pairs_ok", counted)
    rep = verify._implicit_search(k3_no_gap(), 6, 0, None, 512)
    assert rep.nodes_explored > 100 * 6
    assert len(calls) <= 6 + 1


def test_negative_restarts_raise_on_the_implicit_path():
    # the explicit path refuses them in clique_local_search; a report of
    # -3 restarts would claim a search that never ran
    g = over_budget_gap()
    assert g.num_vertices == 65_792 > EXPORT_VERTEX_BUDGET
    for probe in (
        lambda: verify._implicit_search(g, -3, 0, None, 8),
        lambda: soundness_probe(g, mode="search", restarts=-3, seed=0),
        lambda: soundness_probe(tiny_gap("10"), mode="search", restarts=-3, seed=0),
    ):
        with pytest.raises(ValueError, match="restarts must be nonnegative"):
            probe()


def test_restarts_past_their_budget_raise_before_the_first():
    # both search paths check the count before any restart runs
    restarts = verify.RESTART_BUDGET + 1
    g = over_budget_gap()
    for probe in (
        lambda: verify._implicit_search(g, restarts, 0, None, 8),
        lambda: soundness_probe(g, mode="search", restarts=restarts, seed=0),
        lambda: soundness_probe(tiny_gap("10"), mode="search", restarts=restarts, seed=0),
        lambda: clique_local_search(ExplicitGraph(3), restarts=restarts),
    ):
        with pytest.raises(BudgetExceededError, match=f"{restarts} restarts over budget"):
            probe()


def test_implicit_search_above_2_63_vertices_raises_value_error():
    # three one-vector sets, h=1, ell=13: 64^2 B groups of 4^26 vertices each
    sets = [[FVector.from_text(t)] for t in ("10", "01", "11")]
    inst = VectorSumInstance(sets, FVector.from_text("00"))
    g = build_gap_graph(build_csp(inst, sample_scheme(5, h=1, m=2, ell=13), 3, 1, 13), 1)
    assert g.num_vertices > 2**63
    for probe in (
        lambda: verify._implicit_search(g, 1, 0, None, 8),
        lambda: soundness_probe(g, mode="search", restarts=1, seed=0),
    ):
        with pytest.raises(ValueError, match=rf"{g.num_vertices} vertices.*2\^63"):
            probe()
    # with no restart nothing is drawn, so nothing is refused
    assert verify._implicit_search(g, 0, 0, None, 8).restarts == 0


def huge_gap(ell: int):
    """One-set YES instance through an h=1 scheme: about 4^(2 ell) vertices."""
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    return build_gap_graph(build_csp(inst, sample_scheme(0, h=1, m=2, ell=ell), 1, 1, ell), 1)


def test_implicit_search_limit_message_past_4300_digits():
    # str() refuses ints past 4300 digits; the message must name the count
    g = huge_gap(3600)
    assert len(str(Decimal(g.num_vertices))) > 4300
    for probe in (
        lambda: verify._implicit_search(g, 1, 0, None, 8),
        lambda: soundness_probe(g, mode="search", restarts=1, seed=0),
    ):
        with pytest.raises(ValueError, match=rf"gap graph has {Decimal(g.num_vertices)} vertices"):
            probe()


def k2_gap():
    inst = VectorSumInstance(
        [
            [FVector.from_text("100"), FVector.from_text("010")],
            [FVector.from_text("001"), FVector.from_text("110")],
        ],
        FVector.from_text("101"),
    )
    return build_gap_graph(build_csp(inst, sample_scheme(9, h=1, m=3, ell=1), 2, 1, 1), 1)


def reference_implicit_search(g, restarts, seed, sample_size):
    """The implicit search spelled out with the scalar predicate."""
    best = []
    nodes = 0
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        idxs = np.unique(rng.integers(0, g.num_vertices, size=sample_size))
        rng.shuffle(idxs)
        clique = []
        for idx in idxs:
            v = vertex_by_index(g, int(idx))
            if all(g.adjacent(v, u) for u in clique):
                clique.append(v)
                nodes += 1
        if len(clique) > len(best):
            best = clique
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


def test_implicit_search_matches_scalar_reference():
    for g, sample_size in ((tiny_gap("10"), 120), (k2_gap(), 400)):
        # an empty sample leaves each restart nothing
        for size in (sample_size, 0):
            for seed in range(3):
                got = verify._implicit_search(g, 6, seed, None, size)
                assert got == reference_implicit_search(g, 6, seed, size)


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


def test_probe_reuses_callers_export():
    for target in ("10", "01"):
        g = tiny_gap(target)
        for mode in ("exact", "search"):
            want = soundness_probe(g, mode, restarts=50, seed=3)
            got = soundness_probe(g, mode, restarts=50, seed=3, exported=g.export_explicit())
            assert got == want


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


def reference_local_search(g, restarts, seed):
    """Explicit-graph local search on an n x n boolean matrix."""
    adjbool = to_bool_matrix(g)
    best, nodes = [], 0
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
            if all(adjacent(g, v, u) for u in clique):
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
        yield g.export_explicit()[0]


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
        seed = int(rng.integers(100))
        got = clique_local_search(g, restarts=4, seed=seed)
        assert got == reference_local_search(g, 4, seed)
    for graph in exported_gap_graphs():
        got = clique_local_search(graph, restarts=30, seed=5)
        assert got == reference_local_search(graph, 30, 5)
    for graph in two_improve_limit_graphs():
        got = clique_local_search(graph, restarts=100, seed=6)
        assert got == reference_local_search(graph, 100, 6)


def test_local_search_matches_reference_on_criterion_8_export():
    # a separated NO instance at k=2, h=ell=r=1, the shape criterion 8 searches
    csp = _separated_no_instance(np.random.default_rng(37), 2, 3, 50_000)
    graph = build_gap_graph(csp, 1).export_explicit()[0]
    assert graph.n == 4160
    # an isolated first pick leaves every other vertex in its 2-improvement
    # group, far past the scan cap
    assert sum(not row for row in graph.adj) > verify.TWO_IMPROVE_SCAN_CAP
    for seed in (0, 1, 2):
        assert clique_local_search(graph, 20, seed) == reference_local_search(graph, 20, seed)
    # at 200 restarts many start at an isolated vertex and reach the same
    # 2-improvement states, which the search remembers within its call
    assert clique_local_search(graph, 200, 0) == reference_local_search(graph, 200, 0)


def test_greedy_by_priority_matches_reference():
    graphs = [g for _, g in corpus(30, 120)] + list(exported_gap_graphs())
    rng = np.random.default_rng(31)
    for g in graphs:
        adjbool = to_bool_matrix(g)

        def row(v, within, adj=g.adj):
            return adj[v] & within

        for _ in range(3):
            prio = rng.permutation(g.n)
            got = verify._greedy_by_priority(row, prio.tolist())
            assert got == reference_greedy_by_priority(adjbool, prio)
        # without a priority the greedy takes the least index
        got = verify._greedy_by_priority(row)
        assert got == reference_greedy_by_priority(adjbool, np.arange(g.n))


def test_degeneracy_order_matches_quadratic_reference():
    graphs = [g for _, g in corpus(29, 120)] + list(exported_gap_graphs())
    # vertices that reach degree 0 partway through the order: a path, a
    # star, a perfect matching, and a triangle among isolated vertices
    graphs += [
        ExplicitGraph.from_edges(9, [(i, i + 1) for i in range(8)]),
        ExplicitGraph.from_edges(8, [(3, i) for i in range(8) if i != 3]),
        ExplicitGraph.from_edges(10, [(i, 9 - i) for i in range(5)]),
        ExplicitGraph.from_edges(7, [(2, 4), (4, 5), (2, 5)]),
    ]
    for g in graphs:
        order = reference_degeneracy_order(g.adj, g.n)
        assert verify._degeneracy_order(g.adj, g.n) == order
        assert max_clique_exact(g, vertex_budget=0) == reference_bounds_report(g, order)
