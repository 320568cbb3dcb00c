from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from gapforge.cliquered import MulticolorGraph, brute_force_multicolor_clique
from gapforge.errors import StageError
from gapforge.explicit import ExplicitGraph
from gapforge.pipeline import (
    PipelineConfig,
    default_k_prime,
    plain_to_multicolor,
    run_pipeline,
)
from gapforge.verify import max_clique_exact


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
    assert b.k_prime == default_k_prime(2) == 3
    assert b.gap.num_vertices == 64 * 64 * 16 + 64 * 4
    assert b.explicit_graph is None
    assert b.planted_ok
    assert b.probe is None
    assert "soundness_verdict=reached" in b.report_text
    assert "soundness_witness=planted" in b.report_text


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


def test_stage_errors_carry_stage_names():
    with pytest.raises(StageError) as e:
        run_pipeline(complete_graph(2), desk_cfg(csp_var_budget=2))
    assert e.value.stage == "csp"
    with pytest.raises(StageError) as e:
        run_pipeline(complete_graph(2), desk_cfg(gadget_budget=1))
    assert e.value.stage == "reduce"
    with pytest.raises(StageError) as e:
        run_pipeline(
            MulticolorGraph(2, {0: 1, 1: 2}, [(0, 1)]),
            desk_cfg(k=2, probe_mode="exact"),
        )
    assert e.value.stage == "probe"


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
    assert b.scheme_report.all_pass
    assert b.completeness.all_satisfied


def test_derandomized_k2_planted_check_on_k4():
    # the derandomizer picks ell = 19 here; checking the planted family
    # must not allocate anything indexed by all 4^ell values
    cfg = PipelineConfig(k=2, h=1, replication=1, derandomize=True)
    b = run_pipeline(complete_graph(4), cfg)
    assert b.csp.ell == 19
    assert b.planted_ok
    assert "planted_clique_ok=1" in b.report_text


def test_ell_over_width_limit_raises_value_error():
    with pytest.raises(ValueError, match="MAX_ELL = 31"):
        run_pipeline(complete_graph(2), PipelineConfig(k=1, h=1, ell=40, replication=1))


def test_ell_at_width_limit_completes():
    bundle = run_pipeline(complete_graph(2), PipelineConfig(k=1, h=1, ell=31, replication=1))
    assert "ell=31\n" in bundle.report_text
    assert "planted_clique_ok=1\n" in bundle.report_text
