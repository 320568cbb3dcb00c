from __future__ import annotations

import os

import numpy as np
import pytest

from gapforge.cliquered import MulticolorGraph
from gapforge.errors import StageError
from gapforge.explicit import ExplicitGraph
from gapforge.gapgraph import GapGraph
from gapforge.pipeline import (
    PipelineConfig,
    plain_to_multicolor,
    run_pipeline,
)
from gapforge.verify import max_clique_exact
from reference import all_pass, brute_force_multicolor_clique, from_bool_matrix


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


# -- color layering ---------------------------------------------------------


def test_layering_k3_on_triangle():
    mcg = plain_to_multicolor(complete_graph(3), 3)
    assert mcg.k == 3
    assert all(len(mcg.color_class(i)) == 3 for i in (1, 2, 3))
    clique = brute_force_multicolor_clique(mcg)
    assert clique is not None
    # the witness reads back as k distinct pairwise adjacent vertices
    originals = {v // 3 for v in clique}
    assert len(originals) == 3


def test_layering_c4_k3_has_no_clique():
    assert brute_force_multicolor_clique(plain_to_multicolor(cycle_graph(4), 3)) is None


def test_layering_k1():
    mcg = plain_to_multicolor(cycle_graph(4), 1)
    assert brute_force_multicolor_clique(mcg) is not None


def test_layering_equivalence_on_random_corpus():
    rng = np.random.default_rng(41)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        omega = max_clique_exact(g).lower_bound
        for k in (2, 3):
            found = brute_force_multicolor_clique(plain_to_multicolor(g, k))
            assert (found is not None) == (omega >= k)


def test_layering_never_uses_same_vertex_twice():
    # a star has omega 2; picking the hub in two classes must be illegal
    star = ExplicitGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_force_multicolor_clique(plain_to_multicolor(star, 3)) is None


# -- end-to-end runs --------------------------------------------------------


def desk_cfg(**kw) -> PipelineConfig:
    base = dict(k=1, h=1, ell=1, replication=1, seed=11)
    base.update(kw)
    return PipelineConfig(**base)


def test_k1_yes_run(tmp_path):
    b = run_pipeline(complete_graph(2), desk_cfg(), out_dir=str(tmp_path))
    assert b.k_prime == 1
    assert b.selection is not None
    assert b.completeness.all_satisfied
    assert b.planted_ok
    assert b.explicit_graph is not None and b.explicit_graph.n == 272
    assert b.probe.verdict == "reached"
    assert "satisfiable=yes" in b.report_text
    assert "soundness_verdict=reached" in b.report_text
    expected = {
        "instance.vsi", "scheme.txt", "csp.meta",
        "graph.dimacs", "graph.map", "planted.clq", "report.txt",
    }
    assert set(b.files) == expected
    assert set(os.listdir(tmp_path)) == expected


def test_k1_no_run_exact_below():
    b = run_pipeline(ExplicitGraph(0), desk_cfg())
    assert b.selection is None
    assert b.scheme_report is None  # nothing to test the scheme against
    assert b.probe.verdict == "below"
    assert b.probe.clique.exact
    assert "gap_certified=yes" in b.report_text


def test_k2_multicolor_input_planted_but_implicit_graph():
    mcg = MulticolorGraph(2, {0: 1, 1: 2}, [(0, 1)])
    cfg = desk_cfg(k=2)
    b = run_pipeline(mcg, cfg)
    assert b.k_prime == 3  # k + k(k-1)/2 vector sets
    assert b.gap.num_vertices == 64 * 64 * 16 + 64 * 4
    assert b.explicit_graph is None
    assert b.planted_ok
    assert b.probe is None
    assert "soundness_verdict=reached" in b.report_text
    assert "soundness_witness=planted" in b.report_text


def test_verified_planted_family_decides_a_yes_verdict():
    # a search probe that stops short of the planted size proves nothing
    # on a YES input: the planted family the run verified reaches it, and
    # the probe's bounds stay in the report beside that verdict
    cfg = desk_cfg(k=2, seed=0, probe_mode="search", probe_restarts=3)
    b = run_pipeline(complete_graph(3), cfg)
    assert b.planted_ok
    assert b.probe.verdict != "reached"
    report = dict(line.split("=", 1) for line in b.report_text.splitlines())
    assert report["planted_clique_ok"] == "1"
    assert report["soundness_verdict"] == "reached"
    assert report["soundness_witness"] == "planted"
    assert report["max_clique_lower"] == str(b.probe.clique.lower_bound)
    assert report["soundness_threshold"] == str((1 - cfg.epsilon) * b.gap.planted_size())
    assert "gap_certified" not in report


def test_k2_no_instance_search_probe():
    mcg = MulticolorGraph(2, {0: 1, 1: 2}, [])  # no cross edge
    cfg = desk_cfg(k=2, probe_restarts=8)
    b = run_pipeline(mcg, cfg)
    assert b.selection is None
    assert b.probe is not None and b.probe.verdict == "below"
    assert b.probe.clique.lower_bound < b.gap.planted_size()
    assert "satisfiable=no" in b.report_text


def test_plain_k_mismatch_rejected():
    mcg = MulticolorGraph(2, {0: 1, 1: 2}, [(0, 1)])
    with pytest.raises(ValueError):
        run_pipeline(mcg, desk_cfg(k=3))


def test_dry_run_reports_infeasible_sizes():
    b = run_pipeline(complete_graph(3), PipelineConfig(k=3, dry_run=True))
    assert b.scheme is None and b.csp is None and b.gap is None
    assert f"num_tuples={4**216}" in b.report_text
    assert "h=36" in b.report_text
    assert f"replication={4**216}" in b.report_text
    assert "dry_run=1" in b.report_text
    planted = 4**432 + 4**216 * 4**216
    assert f"planted_size={planted}" in b.report_text


def test_default_parameter_formulas():
    # ell = 2*ceil(log2 n) + 2h at an exact power of two
    b = run_pipeline(complete_graph(2), PipelineConfig(k=2, dry_run=True))
    # K2 layered at k=2: 4 gadget vectors + 2 edge vectors
    assert "n_vectors=6" in b.report_text
    assert b.k_prime == 3
    h = 9
    ell = 2 * 3 + 2 * h  # ceil(log2 6) = 3
    assert f"ell={ell}" in b.report_text


def test_stage_errors_carry_stage_names(monkeypatch):
    with monkeypatch.context() as m, pytest.raises(StageError) as e:
        m.setattr("gapforge.csp.TUPLE_BUDGET", 2)
        run_pipeline(complete_graph(2), desk_cfg())
    assert e.value.stage == "csp"
    with monkeypatch.context() as m, pytest.raises(StageError) as e:
        m.setattr("gapforge.cliquered.GADGET_BUDGET", 1)
        run_pipeline(complete_graph(2), desk_cfg())
    assert e.value.stage == "reduce"
    with pytest.raises(StageError) as e:
        run_pipeline(
            MulticolorGraph(2, {0: 1, 1: 2}, [(0, 1)]),
            desk_cfg(k=2, probe_mode="exact"),
        )
    assert e.value.stage == "probe"


def test_default_k4_run_stops_at_the_tuple_count_before_sampling():
    # k' = 10, h = 100: 4^1000 tuples, refused before any scheme is drawn
    with pytest.raises(StageError, match="tuple variables over budget") as e:
        run_pipeline(complete_graph(3), PipelineConfig(k=4))
    assert e.value.stage == "csp"


def test_derandomize_without_gadget_vectors_is_refused_by_the_derandomizer():
    with pytest.raises(ValueError, match="test set must be nonempty"):
        run_pipeline(ExplicitGraph(0), desk_cfg(derandomize=True, ell=None))


def test_completeness_guard_refuses_the_c2_c3_tables():
    # k=1, h=7: 4^7 tuples and 4^7 alphas, so the C2/C3 tables need
    # 2 * 4^14 checks, over the evaluate budget
    with pytest.raises(StageError) as e:
        run_pipeline(complete_graph(2), desk_cfg(h=7))
    assert e.value.stage == "completeness"


def test_config_validation():
    from fractions import Fraction

    with pytest.raises(ValueError):
        PipelineConfig(k=0)
    with pytest.raises(ValueError):
        PipelineConfig(k=1, epsilon=Fraction(3, 2))
    with pytest.raises(ValueError):
        PipelineConfig(k=1, probe_mode="maybe")


def test_bundles_byte_identical_across_runs(tmp_path):
    cfg = desk_cfg(seed=99)
    g = complete_graph(2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    b1 = run_pipeline(g, cfg, out_dir=str(d1))
    b2 = run_pipeline(g, cfg, out_dir=str(d2))
    assert b1.report_text == b2.report_text
    assert sorted(os.listdir(d1)) == sorted(os.listdir(d2))
    for name in os.listdir(d1):
        with open(d1 / name, "rb") as f1, open(d2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_seed_changes_scheme():
    a = run_pipeline(complete_graph(2), desk_cfg(seed=1))
    b = run_pipeline(complete_graph(2), desk_cfg(seed=2))
    assert a.scheme.mats != b.scheme.mats


def test_derandomized_run():
    cfg = desk_cfg(derandomize=True, ell=None)
    b = run_pipeline(complete_graph(2), cfg)
    assert b.scheme.provenance == "derandomized"
    assert all_pass(b.scheme_report)
    assert b.completeness.all_satisfied


def test_derandomize_rejects_ell():
    # the derandomizer picks ell itself; a requested ell would be ignored
    with pytest.raises(ValueError, match="ell"):
        PipelineConfig(k=2, h=1, replication=1, derandomize=True, ell=2)


def test_run_exports_gap_graph_once(monkeypatch):
    calls = []
    export = GapGraph.export_explicit

    def counted(self, *args, **kwargs):
        calls.append(self.num_vertices)
        return export(self, *args, **kwargs)

    monkeypatch.setattr(GapGraph, "export_explicit", counted)
    # YES and NO inputs (no vertex at all), exact probe and search probe
    for g, mode in ((complete_graph(2), "auto"), (ExplicitGraph(0), "auto"),
                    (ExplicitGraph(0), "search")):
        calls.clear()
        b = run_pipeline(g, desk_cfg(probe_mode=mode))
        assert b.probe is not None and b.explicit_graph is not None
        assert calls == [272]


def test_derandomized_k2_planted_check_on_k4():
    # the derandomizer picks ell = 19 here; checking the planted family
    # must not allocate anything indexed by all 4^ell values
    cfg = PipelineConfig(k=2, h=1, replication=1, derandomize=True)
    b = run_pipeline(complete_graph(4), cfg)
    assert b.csp.ell == 19
    assert b.planted_ok
    assert "planted_clique_ok=1" in b.report_text


def test_ell_over_int64_width_completes():
    # values wider than int64 are packed into Python ints, so ell has no cap
    bundle = run_pipeline(complete_graph(2), PipelineConfig(k=1, h=1, ell=40, replication=1))
    assert "ell=40\n" in bundle.report_text
    assert "planted_clique_ok=1\n" in bundle.report_text
    # the derandomizer picks ell = 42 for k = 3 on K4
    cfg = PipelineConfig(k=3, h=1, replication=1, derandomize=True)
    bundle = run_pipeline(complete_graph(4), cfg)
    assert bundle.csp.ell == 42
    for line in ("ell=42", "completeness_all_satisfied=1", "planted_clique_ok=1",
                 "soundness_verdict=reached"):
        assert line + "\n" in bundle.report_text


def test_ell_at_width_limit_completes():
    bundle = run_pipeline(complete_graph(2), PipelineConfig(k=1, h=1, ell=31, replication=1))
    assert "ell=31\n" in bundle.report_text
    assert "planted_clique_ok=1\n" in bundle.report_text
