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
