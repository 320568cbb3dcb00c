"""End-to-end runs of the command line interface on tiny inputs."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gapforge
from gapforge.cli import main
from gapforge.cliquered import read_vsi, reduce_clique, write_mcol, write_vsi
from gapforge.csp import build_csp, honest_assignment, write_assignment
from gapforge.encoding import read_scheme
from gapforge.explicit import ExplicitGraph, read_dimacs, write_dimacs
from gapforge.pipeline import plain_to_multicolor


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
    assert all(g.adjacent(u, v) for u in members for v in members if u != v)


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


def test_pipeline_ell_over_width_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "k2.col"
    with open(path, "w") as fp:
        write_dimacs(ExplicitGraph.from_edges(2, [(0, 1)]), fp)
    rc = main(["pipeline", "--input", str(path), "--k", "1", "--h", "1",
               "--ell", "40", "--replication", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv, text",
    [
        (["clique", "--exact"], "p edge 3000000000 0\n"),
        (["csp", "--build", "--instance"], "vsi 3000000000 2\nt 00\n"),
    ],
    ids=["dimacs", "vsi"],
)
def test_out_of_memory_exits_one(tmp_path, scheme_file, argv, text):
    # both headers declare three billion rows, which the parsers allocate
    # before reading the body; under a 1.5 GB address-space limit that is
    # a MemoryError, and the CLI must still end with one error line
    path = tmp_path / "huge.txt"
    path.write_text(text)
    argv = argv + [str(path)] + (["--scheme", str(scheme_file)] if argv[0] == "csp" else [])
    env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_address_space, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: out of memory\n"
