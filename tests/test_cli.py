"""End-to-end runs of the command line interface on tiny inputs."""

import os
import resource
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import gapforge
from gapforge.cli import main
from gapforge.cliquered import (
    GADGET_BUDGET, GADGET_DIGITS_BUDGET, VectorSumInstance, read_vsi, reduce_clique,
    write_mcol, write_vsi,
)
from gapforge.csp import TUPLE_BUDGET, build_csp, honest_assignment, write_assignment
from gapforge.encoding import read_scheme
from gapforge.explicit import ExplicitGraph, read_dimacs, write_dimacs
from gapforge.field import FVector
from gapforge.gapgraph import GapSizes
from gapforge.pipeline import PipelineConfig, plain_to_multicolor
from reference import adjacent


def kv(captured: str) -> dict:
    out = {}
    for line in captured.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


@pytest.fixture
def yes_instance(tmp_path):
    """Solvable one-set instance from the single-color edge reduction."""
    inst = reduce_clique(plain_to_multicolor(ExplicitGraph.from_edges(2, [(0, 1)]), 1))
    path = tmp_path / "yes.vsi"
    with open(path, "w") as fp:
        write_vsi(inst, fp)
    return path


@pytest.fixture
def scheme_file(tmp_path, yes_instance, capsys):
    path = tmp_path / "s.txt"
    rc = main(
        ["scheme", "--sample", "--h", "1", "--ell", "1", "--seed", "11",
         "--instance", str(yes_instance), "--out", str(path)]
    )
    assert rc == 0
    capsys.readouterr()
    return path


def test_scheme_sample_writes_parseable_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    rc = main(["scheme", "--sample", "--h", "2", "--m", "3", "--ell", "5",
               "--seed", "7", "--out", str(path)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["provenance"] == "seeded-random(seed=7)"
    with open(path) as fp:
        scheme = read_scheme(fp)
    assert (scheme.h, scheme.m, scheme.ell) == (2, 3, 5)


def test_scheme_sample_stdout_is_the_scheme(capsys):
    rc = main(["scheme", "--sample", "--h", "1", "--m", "2", "--ell", "3", "--seed", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("scheme 1 2 3 ")
    assert len(text.splitlines()) == 1 + 3


def test_scheme_sample_requires_ell(capsys):
    rc = main(["scheme", "--sample", "--h", "1", "--m", "2"])
    assert rc == 1
    assert "ell" in capsys.readouterr().err


def test_scheme_check_reports_conditions(tmp_path, yes_instance, capsys):
    rc = main(["scheme", "--sample", "--h", "1", "--ell", "8", "--seed", "2",
               "--instance", str(yes_instance), "--out", str(tmp_path / "s.txt")])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    for key in ("cond_injective", "cond_separating", "cond_self_correcting"):
        assert report[key] in {"0", "1"}


def test_scheme_derandomize_passes_all_conditions(tmp_path, yes_instance, capsys):
    path = tmp_path / "sd.txt"
    rc = main(["scheme", "--derandomize", "--h", "1",
               "--instance", str(yes_instance), "--out", str(path)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["provenance"] == "derandomized"
    assert report["cond_injective"] == "1"
    assert report["cond_separating"] == "1"
    assert report["cond_self_correcting"] == "1"
    with open(path) as fp:
        assert read_scheme(fp).provenance == "derandomized"


def _honest_file(tmp_path, instance_path, scheme_path):
    from gapforge.cliquered import brute_force_vector_sum

    with open(instance_path) as fp:
        inst = read_vsi(fp)
    with open(scheme_path) as fp:
        scheme = read_scheme(fp)
    csp = build_csp(inst, scheme, inst.num_sets, scheme.h, scheme.ell)
    sel = brute_force_vector_sum(inst)
    path = tmp_path / "honest.txt"
    with open(path, "w") as fp:
        write_assignment(csp, honest_assignment(csp, sel), fp)
    return path


def test_csp_build_counts(tmp_path, yes_instance, scheme_file, capsys):
    rc = main(["csp", "--build", "--instance", str(yes_instance),
               "--scheme", str(scheme_file)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["num_vars"] == "4"
    assert report["c1_constraints"] == "16"
    assert report["c2_constraints"] == "16"
    assert report["c3_constraints"] == "16"
    # k = 2 reduces to three sets; h = 1: |F|^{3h} tuples, |F|^h alphas per tuple
    inst = reduce_clique(plain_to_multicolor(ExplicitGraph.from_edges(2, [(0, 1)]), 2))
    assert inst.num_sets == 3
    three_set = tmp_path / "three.vsi"
    with open(three_set, "w") as fp:
        write_vsi(inst, fp)
    scheme = tmp_path / "three.txt"
    assert main(["scheme", "--sample", "--h", "1", "--ell", "1", "--m", str(inst.dim),
                 "--out", str(scheme)]) == 0
    capsys.readouterr()
    assert main(["csp", "--build", "--instance", str(three_set), "--scheme", str(scheme)]) == 0
    report = kv(capsys.readouterr().out)
    assert report["num_vars"] == str(4**3)
    assert report["c1_constraints"] == str(4**6)
    assert report["c2_constraints"] == str(3 * 4**3 * 4)
    assert report["c3_constraints"] == str(4**3 * 4)


def test_csp_evaluate_honest_assignment(tmp_path, yes_instance, scheme_file, capsys):
    honest = _honest_file(tmp_path, yes_instance, scheme_file)
    rc = main(["csp", "--evaluate", str(honest), "--instance", str(yes_instance),
               "--scheme", str(scheme_file)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["mode"] == "exhaustive"
    assert report["all_satisfied"] == "1"
    assert "samples" not in report


@pytest.fixture
def seven_sets(tmp_path, capsys):
    """Instance and scheme files of the solvable 7-set, h=1, ell=2 instance:
    16,384 tuples, planted size 4^14 + 4^7 at one copy group."""
    units = [FVector.from_text("0" * i + "1" + "0" * (6 - i)) for i in range(7)]
    instance = tmp_path / "seven.vsi"
    with open(instance, "w") as fp:
        write_vsi(VectorSumInstance([[u] for u in units], FVector.from_text("1" * 7)), fp)
    scheme = tmp_path / "seven.txt"
    assert main(["scheme", "--sample", "--h", "1", "--ell", "2", "--seed", "4",
                 "--instance", str(instance), "--out", str(scheme)]) == 0
    capsys.readouterr()
    return instance, scheme


def test_csp_evaluate_seven_sets_is_within_budget(tmp_path, seven_sets, capsys):
    # 16,384 tuples: the literal C1 family (4^14) is far over the evaluate
    # budget, but the honest assignment is linear, so C1 costs one pass
    instance, scheme = seven_sets
    honest = _honest_file(tmp_path, instance, scheme)
    rc = main(["csp", "--evaluate", str(honest), "--instance", str(instance),
               "--scheme", str(scheme)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["mode"] == "exhaustive"
    assert report["all_satisfied"] == "1"


def test_csp_evaluate_sampled_reports_sampling(tmp_path, yes_instance, scheme_file, capsys):
    honest = _honest_file(tmp_path, yes_instance, scheme_file)
    rc = main(["csp", "--evaluate", str(honest), "--instance", str(yes_instance),
               "--scheme", str(scheme_file), "--mode", "sampled",
               "--count", "64", "--seed", "3"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["samples"] == "64"
    assert report["seed"] == "3"


def test_csp_evaluate_tuple_listed_twice_exits_one(tmp_path, yes_instance, scheme_file, capsys):
    path = tmp_path / "twice.txt"
    path.write_text("0 0\n1 0\n2 0\n3 0\n1 3\n")
    rc = main(["csp", "--evaluate", str(path), "--instance", str(yes_instance),
               "--scheme", str(scheme_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_csp_decode_honest_assignment(tmp_path, yes_instance, scheme_file, capsys):
    honest = _honest_file(tmp_path, yes_instance, scheme_file)
    rc = main(["csp", "--decode", str(honest), "--instance", str(yes_instance),
               "--scheme", str(scheme_file)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["agreement"] == "1"
    assert report["exact"] == "1"
    assert "component_1" in report


def test_graph_export_and_plant(tmp_path, yes_instance, scheme_file, capsys):
    dimacs = tmp_path / "g.dimacs"
    planted = tmp_path / "planted.clq"
    rc = main(["graph", "--instance", str(yes_instance), "--scheme", str(scheme_file),
               "--replication", "4", "--export", str(dimacs), "--plant", str(planted)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["vertices_total"] == "320"
    assert report["satisfiable"] == "yes"
    assert report["map"] == str(dimacs) + ".map"
    with open(dimacs) as fp:
        g = read_dimacs(fp)
    assert g.n == 320
    with open(planted) as fp:
        lines = [ln.split() for ln in fp if ln.strip()]
    assert len(lines) == int(report["planted_size"]) == 32
    assert all(tok[0] in {"A", "B"} for tok in lines)
    with open(str(dimacs) + ".map") as fp:
        assert sum(1 for _ in fp) == 320


def test_graph_export_past_4300_digit_vertex_count_exits_one(tmp_path, yes_instance, capsys):
    # h=1, ell=3600: the gap graph has about 4^7202 vertices, a count str()
    # refuses to write, so the budget line must write it another way
    scheme = tmp_path / "s3600.txt"
    assert main(["scheme", "--sample", "--h", "1", "--ell", "3600", "--seed", "0",
                 "--instance", str(yes_instance), "--out", str(scheme)]) == 0
    capsys.readouterr()
    rc = main(["graph", "--instance", str(yes_instance), "--scheme", str(scheme),
               "--replication", "1", "--export", str(tmp_path / "g.dimacs")])
    assert rc == 1
    captured = capsys.readouterr()
    vertices = kv(captured.out)["vertices_total"]
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"graph has {vertices} vertices" in lines[0]
    assert not (tmp_path / "g.dimacs").exists()


def test_graph_plant_unsatisfiable(tmp_path, capsys):
    inst = reduce_clique(plain_to_multicolor(ExplicitGraph(2), 2))
    instance = tmp_path / "no.vsi"
    with open(instance, "w") as fp:
        write_vsi(inst, fp)
    scheme = tmp_path / "s.txt"
    assert main(["scheme", "--sample", "--h", "1", "--ell", "1", "--seed", "0",
                 "--instance", str(instance), "--out", str(scheme)]) == 0
    capsys.readouterr()
    planted = tmp_path / "planted.clq"
    rc = main(["graph", "--instance", str(instance), "--scheme", str(scheme),
               "--replication", "1", "--plant", str(planted)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["satisfiable"] == "no"
    assert not planted.exists()


def test_graph_plant_over_planted_budget_exits_one(tmp_path, seven_sets):
    # the planted clique has 4^14 + 4^7 vertices, far over the pipeline's
    # planted budget; building it would hold 268M vertex tuples, so it
    # runs in a child under the address-space limit
    instance, scheme = seven_sets
    planted = tmp_path / "pl.clq"
    argv = ["graph", "--instance", str(instance), "--scheme", str(scheme),
            "--replication", "1", "--plant", str(planted)]
    proc = _run_cli_under_memory_limit(argv)
    assert proc.returncode == 1
    assert kv(proc.stdout)["planted_size"] == str(4**14 + 4**7)
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert str(4**14 + 4**7) in proc.stderr
    assert f"budget {PipelineConfig.planted_budget}" in proc.stderr
    assert not planted.exists()


@pytest.mark.parametrize(
    "argv", [["csp", "--build"], ["graph", "--replication", "1"]], ids=["csp", "graph"]
)
def test_seven_sets_over_tuple_budget_exit_one(tmp_path, seven_sets, capsys, argv):
    # an h=2 scheme gives 4^14 tuples; the CSP refuses them before it asks
    # numpy for any table, so the child ends with the budget line
    instance, _ = seven_sets
    scheme = tmp_path / "seven_h2.txt"
    assert main(["scheme", "--sample", "--h", "2", "--ell", "1", "--m", "7",
                 "--out", str(scheme)]) == 0
    capsys.readouterr()
    proc = _run_cli_under_memory_limit(
        argv + ["--instance", str(instance), "--scheme", str(scheme)]
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: 4^14 tuple variables over budget {TUPLE_BUDGET}\n"


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.dimacs"
    g = ExplicitGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with open(path, "w") as fp:
        write_dimacs(g, fp)
    return path


def test_clique_exact_is_one_indexed(c5_file, capsys):
    rc = main(["clique", "--exact", str(c5_file)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["exact"] == "1"
    assert report["lower_bound"] == report["upper_bound"] == "2"
    u, v = sorted(int(t) for t in report["witness"].split(","))
    assert 1 <= u < v <= 5


def test_clique_search_witness_is_a_clique(c5_file, capsys):
    rc = main(["clique", "--search", "--restarts", "20", "--seed", "4", str(c5_file)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["exact"] == "0"
    assert report["upper_bound"] == "unknown"
    with open(c5_file) as fp:
        g = read_dimacs(fp)
    members = [int(t) - 1 for t in report["witness"].split(",")]
    assert len(members) == int(report["lower_bound"]) == 2
    assert all(adjacent(g, u, v) for u in members for v in members if u != v)


def test_amplify_writes_strong_square(tmp_path, c5_file, capsys):
    out = tmp_path / "c5sq.dimacs"
    rc = main(["amplify", "--power", "2", "--input", str(c5_file), "--out", str(out)])
    assert rc == 0
    with open(out) as fp:
        g = read_dimacs(fp)
    assert g.n == 25
    assert g.num_edges() == 100


def test_amplify_defaults_to_stdout(c5_file, capsys):
    rc = main(["amplify", "--power", "1", "--input", str(c5_file)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("p edge 5 5")


@pytest.mark.parametrize("power", [100_000, 30_000_000])
def test_amplify_huge_power_is_over_budget_at_once(tmp_path, capsys, power):
    """3^power has far more digits than a decimal string may hold; the budget
    verdict must not need n**t at all."""
    path = tmp_path / "p3.dimacs"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(3, [(0, 1), (1, 2)]), fp)
    start = time.perf_counter()
    rc = main(["amplify", "--power", str(power), "--input", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"3^{power}" in lines[0] and "budget 20000" in lines[0]
    assert elapsed < 1.0


def test_pipeline_dry_run_prints_sizes_only(tmp_path, capsys):
    path = tmp_path / "k3.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "2", "--dry-run"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["dry_run"] == "1"
    assert report["k_prime"] == "3"
    assert int(report["num_tuples"]) == 4 ** (3 * 9)
    assert list(tmp_path.iterdir()) == [path]


def test_pipeline_dry_run_at_k5_prints_exact_sizes(tmp_path, capsys):
    # k' = 15, h = 225: vertices_b = 4^7678 has 4,623 decimal digits,
    # past the 4,300 that str() writes for an int
    path = tmp_path / "k3.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "5", "--dry-run"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["k_prime"] == "15" and report["h"] == "225"
    sizes = GapSizes(15, 225, int(report["ell"]), 4 ** (15 * 225))
    assert Decimal(report["vertices_b"]) == sizes.num_b_vertices == 4**7678
    assert Decimal(report["vertices_total"]) == sizes.num_vertices


def test_pipeline_full_run_writes_bundle(tmp_path, capsys):
    path = tmp_path / "k3.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), fp)
    out = tmp_path / "bundle"
    rc = main(["pipeline", "--input", str(path), "--k", "1", "--h", "1",
               "--ell", "1", "--replication", "1", "--seed", "11", "--out", str(out)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["satisfiable"] == "yes"
    assert report["soundness_verdict"] == "reached"
    names = sorted(p.name for p in out.iterdir())
    assert names == ["csp.meta", "graph.dimacs", "graph.map", "instance.vsi",
                     "planted.clq", "report.txt", "scheme.txt"]


def test_pipeline_accepts_mcol_input(tmp_path, capsys):
    mcg = plain_to_multicolor(ExplicitGraph.from_edges(2, [(0, 1)]), 2)
    path = tmp_path / "g.mcol"
    with open(path, "w") as fp:
        write_mcol(mcg, fp)
    rc = main(["pipeline", "--input", str(path), "--k", "2", "--h", "1",
               "--ell", "1", "--replication", "1", "--probe-mode", "skip"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["k_prime"] == "3"
    assert report["planted_clique_ok"] == "1"


def test_pipeline_reads_mcol_with_a_leading_comment(tmp_path, capsys):
    # read_mcol skips `#` lines, so the format is named by the `p` line
    mcg = plain_to_multicolor(ExplicitGraph.from_edges(2, [(0, 1)]), 2)
    path = tmp_path / "g.mcol"
    with open(path, "w") as fp:
        fp.write("# two colors\n")
        write_mcol(mcg, fp)
    rc = main(["pipeline", "--input", str(path), "--k", "2", "--dry-run"])
    assert rc == 0
    assert kv(capsys.readouterr().out)["k_prime"] == "3"


def test_pipeline_derandomize_with_ell_exits_one(tmp_path, capsys):
    path = tmp_path / "k3.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "2", "--h", "1",
               "--replication", "1", "--derandomize", "--ell", "2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_missing_file_exits_one(capsys):
    rc = main(["clique", "--exact", "/nonexistent/input.dimacs"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", ["p edge 2 1\ne 1\n", "p edge\n"])
def test_short_dimacs_line_exits_one(tmp_path, capsys, text):
    path = tmp_path / "short.dimacs"
    path.write_text(text)
    rc = main(["clique", "--exact", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_pipeline_ell_over_int64_width_completes(tmp_path, capsys):
    path = tmp_path / "k2.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(2, [(0, 1)]), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "1", "--h", "1",
               "--ell", "40", "--replication", "1"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["ell"] == "40"
    assert report["planted_clique_ok"] == "1"


def test_pipeline_search_above_2_63_vertices_exits_one(tmp_path, capsys):
    # k=2 on 3 isolated vertices is a NO instance, so the probe searches
    # the gap graph implicitly; at ell=13 it has more than 2^63 vertices
    path = tmp_path / "three.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph(3), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "2", "--h", "1",
               "--ell", "13", "--replication", "1"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "vertices" in err[0] and "2^63" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--k", "1", "--dry-run", "--h", "0"],
        ["pipeline", "--k", "1", "--dry-run", "--h", "-1"],
        ["pipeline", "--k", "1", "--dry-run", "--ell", "0"],
        ["pipeline", "--k", "1", "--dry-run", "--ell", "-3"],
        ["pipeline", "--k", "1", "--dry-run", "--replication", "0"],
        ["pipeline", "--k", "1", "--h", "1", "--ell", "1", "--replication", "1",
         "--probe-mode", "search", "--probe-restarts", "-5"],
        ["clique", "--search", "--restarts", "-5"],
    ],
    ids=["h-0", "h-neg", "ell-0", "ell-neg", "replication-0", "probe-restarts-neg",
         "clique-restarts-neg"],
)
def test_out_of_range_parameter_exits_one(tmp_path, capsys, argv):
    path = tmp_path / "k2.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(2, [(0, 1)]), fp)
    args = ["--input", str(path)] if argv[0] == "pipeline" else [str(path)]
    rc = main(argv[:1] + args + argv[1:])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("epsilon", ["1/0", "-1/0", "abc"])
def test_unparseable_epsilon_is_a_usage_error(tmp_path, capsys, epsilon):
    # a zero denominator is refused like any other text Fraction cannot
    # read; the = form lets a value start with a minus sign
    path = tmp_path / "k2.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(2, [(0, 1)]), fp)
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", str(path), "--k", "1", f"--epsilon={epsilon}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --epsilon: invalid Fraction value: {epsilon!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["clique", "--search", "--restarts"],
        ["pipeline", "--k", "1", "--h", "1", "--ell", "1", "--replication", "1",
         "--probe-mode", "search", "--probe-restarts"],
    ],
    ids=["restarts", "probe-restarts"],
)
def test_restarts_past_their_budget_exit_one_at_once(tmp_path, argv):
    # a child process, so a search that ignores the count times out
    # instead of hanging the suite
    path = tmp_path / "e3.col"
    path.write_text("p edge 3 0\n")
    argv = argv + ["99999999999999999999"]
    argv[1:1] = ["--input", str(path)] if argv[0] == "pipeline" else [str(path)]
    proc = _run_cli(argv, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "99999999999999999999 restarts over budget" in proc.stderr


def test_large_k_tuple_budget_line_is_short(tmp_path):
    # K2 at k = 14 asks for 4^(k*h) tuples with about 700,000 decimal
    # digits; the budget line names the count as a power, so the child
    # ends at once with one short line
    path = tmp_path / "k2.dimacs"
    path.write_text("p edge 2 1\ne 1 2\n")
    proc = _run_cli(["pipeline", "--input", str(path), "--k", "14"], timeout=5)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert len(proc.stderr.encode()) < 200
    assert proc.stderr.endswith(f"tuple variables over budget {TUPLE_BUDGET}\n")


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--input", "p mcol 2\n"),
        ("--input", "p mcol 1 0 1\nc 1\n"),
        ("--input", "p mcol 2 1 1\nc 1 1\nc 2 1\ne 1\n"),
        ("--instance", "vsi 1\n"),
        ("--instance", "vsi 1 2\nt\n"),
        ("--instance", "vsi 1 2\nt 10\ns 1\n"),
        ("--scheme", "scheme 1\n"),
    ],
    ids=["p-mcol", "c", "e", "vsi", "t", "s", "scheme"],
)
def test_short_input_line_exits_one(tmp_path, capsys, yes_instance, scheme_file, flag, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    if flag == "--input":
        argv = ["pipeline", "--input", str(path), "--k", "1"]
    else:
        files = {"--instance": str(yes_instance), "--scheme": str(scheme_file), flag: str(path)}
        argv = ["csp", "--build", "--instance", files["--instance"], "--scheme", files["--scheme"]]
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _limit_address_space():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def _run_cli(argv, **kwargs):
    """`gapforge argv` in a child process."""
    env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "gapforge.cli", *argv], capture_output=True, text=True,
        env=env, **kwargs,
    )


def _run_cli_under_memory_limit(argv):
    """`gapforge argv` in a child process with a 1.5 GB address space."""
    return _run_cli(argv, preexec_fn=_limit_address_space, timeout=300)


@pytest.mark.parametrize(
    "argv, text, err",
    [
        (["clique", "--exact"], "p edge 3000000000 0\n", "error: out of memory\n"),
        (
            ["csp", "--build", "--instance"], "vsi 3000000000 2\nt 00\n",
            f"error: 3000000000 vector sets over budget {GADGET_BUDGET}\n",
        ),
        (["clique", "--exact"], "p edge 99999999999999999999 0\n", "error: out of memory\n"),
    ],
    ids=["dimacs", "vsi", "dimacs-past-index-range"],
)
def test_out_of_memory_exits_one(tmp_path, scheme_file, argv, text, err):
    # the first two headers declare three billion rows.  Isolated vertices
    # make a valid graph, so the DIMACS parser allocates its rows and meets
    # a MemoryError under the 1.5 GB address-space limit; the vsi parser
    # checks its set count against the budget before it allocates, so
    # under the same limit it ends with the budget line.  A vertex count
    # past the index range cannot be allocated either.  Every way the CLI
    # ends with one error line
    path = tmp_path / "huge.txt"
    path.write_text(text)
    argv = argv + [str(path)] + (["--scheme", str(scheme_file)] if argv[0] == "csp" else [])
    proc = _run_cli_under_memory_limit(argv)
    assert proc.returncode == 1
    assert proc.stderr == err


@pytest.mark.parametrize(
    "mode, vsi, what",
    [
        ("--sample", "vsi 1 1\nt 1\ns 1 1\n", "condition checks need about {} evaluations"),
        (
            "--derandomize", "vsi 1 2\nt 11\ns 1 10\ns 1 01\n",
            "would enumerate about {} constraints",
        ),
    ],
    ids=["check", "derandomize"],
)
def test_scheme_counts_past_4300_digits_end_with_the_budget_line(tmp_path, capsys, mode, vsi, what):
    # at h = 8000 the check's 4^h * n^2 evaluations and the derandomizer's
    # q n (n-1) + q^2 (n-1)^2 n / 2 constraints, q = 4^h - 1, have over
    # 4,800 digits: more than str() writes, so the budget line must not use it
    path = tmp_path / "inst.vsi"
    path.write_text(vsi)
    h, n = 8000, vsi.count("\ns ")
    q = 4**h - 1
    count = 4**h * n * n if mode == "--sample" else q * n * (n - 1) + (q * (n - 1)) ** 2 * n // 2
    rc = main(["scheme", mode, "--h", str(h), "--ell", "1", "--instance", str(path)])
    assert rc == 1
    budget = 10_000_000
    assert capsys.readouterr().err == f"error: {what.format(Decimal(count))} over budget {budget}\n"


NINES = "9" * 5000
# how an error line quotes NINES: its first 16 characters and its length
NINES_QUOTED = "9" * 16 + "...[5000 chars]"


@pytest.mark.parametrize(
    "argv, text, shape",
    [
        (["clique", "--exact", "{}"], f"p edge {NINES} 0", "p edge N M"),
        (["csp", "--build", "--instance", "{}", "--scheme", "S"], f"vsi {NINES} 2", "vsi SETS M"),
        (
            ["csp", "--build", "--instance", "I", "--scheme", "{}"], f"scheme {NINES} 1 1 x",
            "scheme H M ELL PROVENANCE",
        ),
        (["pipeline", "--input", "{}", "--k", "2", "--dry-run"], f"p mcol {NINES} 0 2", "p mcol N M K"),
    ],
    ids=["dimacs", "vsi", "scheme", "mcol"],
)
def test_int_field_past_the_int_digit_limit_is_a_malformed_line(
    tmp_path, capsys, yes_instance, scheme_file, argv, text, shape
):
    # int() refuses to read more than 4,300 digits; the readers refuse such
    # a header field first, with the format's own line error, so every int
    # they read stays printable, and the error quotes the field cut short
    path = tmp_path / "long.txt"
    path.write_text(text + "\n")
    files = {"{}": str(path), "I": str(yes_instance), "S": str(scheme_file)}
    rc = main([files.get(a, a) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: expected '{shape}' line, got '{text.replace(NINES, NINES_QUOTED)}'\n"
    assert len(err) < 128


@pytest.mark.parametrize(
    "text, err",
    [
        (
            "p edge 2 1\ne " + " ".join(["1"] * 100_000) + "\n",
            "expected 'e U V' line, got '" + " ".join(["e"] + ["1"] * 19) + " ...[100001 tokens]'",
        ),
        (f"p edge 2 1\nx{NINES} 1 2\n", "unrecognized line 'x" + "9" * 15 + "...[5001 chars] 1 2'"),
    ],
    ids=["many-fields", "long-tag"],
)
def test_refused_lines_are_quoted_short(tmp_path, capsys, text, err):
    # a line the reader refuses is quoted by at most 20 tokens of at most
    # 16 characters each, each cut one marked with its length
    path = tmp_path / "long.dimacs"
    path.write_text(text)
    assert main(["clique", "--exact", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_gadget_dimension_is_refused_before_the_layers_are_built(tmp_path):
    # K3 at k = 1500 layers into 4500 vertices, so the gadget dimension is
    # 1500 + 1500*1499/2 + 1500^2 * 13 = 30,375,750, known before any of
    # the 1500 layers and their 6.7M edges is built
    path = tmp_path / "k3.dimacs"
    path.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    start = time.perf_counter()
    proc = _run_cli_under_memory_limit(
        ["pipeline", "--input", str(path), "--k", "1500", "--dry-run"]
    )
    elapsed = time.perf_counter() - start
    assert proc.stderr == (
        f"error: stage 'reduce' failed: gadget dimension 30375750 over budget {GADGET_BUDGET}\n"
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert elapsed < 5


def test_gadget_digits_are_refused_before_the_layers_are_built(tmp_path):
    # K3 at k = 250 has gadget dimension 656,375, within GADGET_BUDGET, but
    # its 750 vertex and 186,750 edge gadgets plus the target would hold
    # about 1.2e11 digits (31 GB); the count is known before any layer
    path = tmp_path / "k3.dimacs"
    path.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    k = 250
    m = k + k * (k - 1) // 2 + k * k * 10
    digits = (3 * k + 3 * k * (k - 1) + 1) * m
    start = time.perf_counter()
    proc = _run_cli(
        ["pipeline", "--input", str(path), "--k", str(k)],
        preexec_fn=_limit_address_space, timeout=5,
    )
    elapsed = time.perf_counter() - start
    assert m <= GADGET_BUDGET
    assert proc.stderr == (
        f"error: stage 'reduce' failed: gadget vectors would hold {digits} digits"
        f" over budget {GADGET_DIGITS_BUDGET}\n"
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert elapsed < 5


@pytest.mark.parametrize("h", [8, 10])
def test_derandomize_one_vector_builds_no_unbudgeted_table(tmp_path, h):
    # one test vector gives no constraint, so the scheme is the coordinate
    # selectors; a table over pairs of nonzero alphas would need (4^h - 1)^2
    # entries and run out of the child's 1.5 GB address space
    path = tmp_path / "one.vsi"
    path.write_text("vsi 1 1\nt 1\ns 1 1\n")
    proc = _run_cli_under_memory_limit(
        ["scheme", "--derandomize", "--h", str(h), "--instance", str(path)]
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["constraints=0", "rounds=0", f"scheme {h} 1 1 derandomized"]
    assert lines[3:4 + h] == ["1"] + ["0"] * (h - 1) + ["cond_injective=1"]


@pytest.mark.parametrize("text", ["p edge 0 0\n", "p edge 1 0\n"], ids=["empty", "one-vertex"])
def test_amplify_power_of_at_most_one_vertex_is_the_base(tmp_path, text):
    # the strong power of a graph on 0 or 1 vertices is that graph, at any power
    path = tmp_path / "tiny.dimacs"
    path.write_text(text)
    proc = _run_cli(["amplify", "--power", str(10**30), "--input", str(path)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text

