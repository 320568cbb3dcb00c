"""Command line entry points.

Subcommands mirror the library stages: scheme, csp, graph, clique,
amplify, pipeline.  Reports are key=value lines on stdout; artifact
payloads (schemes, DIMACS graphs, clique sets) go to files named by
flags, or to stdout when no file is requested and nothing else would
mix with them.  Errors exit with status 1 and a single line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .amplify import export_power, strong_power
from .cliquered import brute_force_vector_sum, read_mcol, read_vsi
from .csp import build_csp, evaluate, linearity_decode, read_assignment
from .encoding import check_scheme, derandomize_scheme, read_scheme, sample_scheme, write_scheme
from .errors import BudgetExceededError, StageError
from .explicit import read_dimacs, write_dimacs
from .gapgraph import build_gap_graph, write_clique_set, write_sidecar
from .pipeline import PipelineConfig, run_pipeline
from .verify import EXACT_VERTEX_BUDGET, clique_local_search, max_clique_exact


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceededError, StageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is usually empty
        print("error: out of memory", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gapforge")
    sub = p.add_subparsers(required=True)

    s = sub.add_parser("scheme", help="sample or derandomize an encoding scheme")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sample", action="store_true")
    mode.add_argument("--derandomize", action="store_true")
    s.add_argument("--h", type=int, required=True)
    s.add_argument("--m", type=int, help="vector dimension (or from --instance)")
    s.add_argument("--ell", type=int, help="number of matrices (sample mode)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instance", help="vector-sum instance file for checking")
    s.add_argument("--out", help="scheme file to write")
    s.set_defaults(func=_cmd_scheme)

    c = sub.add_parser("csp", help="inspect, evaluate, or decode the tuple CSP")
    act = c.add_mutually_exclusive_group(required=True)
    act.add_argument("--build", action="store_true")
    act.add_argument("--evaluate", metavar="ASSIGNMENT")
    act.add_argument("--decode", metavar="ASSIGNMENT")
    c.add_argument("--instance", required=True)
    c.add_argument("--scheme", required=True)
    c.add_argument("--mode", default=None, help="exhaustive|sampled (evaluate), exact|sampled (decode)")
    c.add_argument("--count", type=int, default=10_000)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_csp)

    g = sub.add_parser("graph", help="build and export the gap graph")
    g.add_argument("--instance", required=True)
    g.add_argument("--scheme", required=True)
    g.add_argument("--replication", type=int, required=True)
    g.add_argument("--export", metavar="DIMACS", help="write the explicit graph")
    g.add_argument("--map", metavar="FILE", help="sidecar map (default DIMACS path + .map)")
    g.add_argument("--plant", metavar="FILE", help="write the planted clique set")
    g.add_argument("--budget", type=int, default=20_000)
    g.set_defaults(func=_cmd_graph)

    q = sub.add_parser("clique", help="clique search on a DIMACS graph")
    qmode = q.add_mutually_exclusive_group(required=True)
    qmode.add_argument("--exact", action="store_true")
    qmode.add_argument("--search", action="store_true")
    q.add_argument("--restarts", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--vertex-budget", type=int, default=EXACT_VERTEX_BUDGET)
    q.add_argument("--node-budget", type=int, default=20_000_000)
    q.add_argument("input", metavar="DIMACS")
    q.set_defaults(func=_cmd_clique)

    a = sub.add_parser("amplify", help="strong graph power")
    a.add_argument("--power", type=int, required=True)
    a.add_argument("--input", required=True, metavar="DIMACS")
    a.add_argument("--out", metavar="DIMACS", help="default stdout")
    a.add_argument("--budget", type=int, default=20_000)
    a.set_defaults(func=_cmd_amplify)

    r = sub.add_parser("pipeline", help="full reduction pipeline")
    r.add_argument("--input", required=True, help="plain DIMACS or mcol graph file")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--h", type=int)
    r.add_argument("--ell", type=int)
    r.add_argument("--replication", type=int)
    r.add_argument("--epsilon", type=Fraction, default=Fraction(1, 20))
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--derandomize", action="store_true")
    r.add_argument("--dry-run", action="store_true")
    r.add_argument("--probe-mode", default="auto", choices=["auto", "exact", "search", "skip"])
    r.add_argument("--probe-restarts", type=int, default=200)
    r.add_argument("--out", metavar="DIR")
    r.set_defaults(func=_cmd_pipeline)
    return p


def _print_kv(*pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value}")


def _load_instance(path: str):
    with open(path) as fp:
        return read_vsi(fp)


def _load_scheme(path: str):
    with open(path) as fp:
        return read_scheme(fp)


def _cmd_scheme(args) -> int:
    inst = _load_instance(args.instance) if args.instance else None
    m = args.m if args.m is not None else (inst.dim if inst else None)
    if m is None:
        raise ValueError("need --m or --instance")
    if args.sample:
        if args.ell is None:
            raise ValueError("sampling needs --ell")
        scheme = sample_scheme(args.seed, args.h, m, args.ell)
    else:
        if inst is None:
            raise ValueError("derandomizing needs --instance for the test set")
        scheme, stats = derandomize_scheme(inst.union(), args.h, m)
        _print_kv(("constraints", stats.n_constraints), ("rounds", stats.rounds))
    if args.out:
        with open(args.out, "w") as fp:
            write_scheme(scheme, fp)
        _print_kv(
            ("h", scheme.h), ("m", scheme.m), ("ell", scheme.ell),
            ("provenance", scheme.provenance), ("written", args.out),
        )
    else:
        write_scheme(scheme, sys.stdout)
    if inst is not None and inst.union():
        rep = check_scheme(scheme, inst.union())
        _print_kv(
            ("cond_injective", int(rep.cond_injective)),
            ("cond_separating", int(rep.cond_separating)),
            ("cond_self_correcting", int(rep.cond_self_correcting)),
        )
    return 0


def _make_csp(args):
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    return build_csp(inst, scheme, inst.num_sets, scheme.h, scheme.ell)


def _cmd_csp(args) -> int:
    csp = _make_csp(args)
    n = csp.num_vars
    if args.build:
        _print_kv(
            ("k", csp.k), ("h", csp.h), ("ell", csp.ell),
            ("num_vars", n),
            ("c1_constraints", n * n),
            ("c2_constraints", csp.k * n * csp.num_alphas),
            ("c3_constraints", n * csp.num_alphas),
        )
        return 0
    path = args.evaluate or args.decode
    with open(path) as fp:
        a = read_assignment(fp, csp.k, csp.h, csp.ell)
    if args.evaluate:
        mode = args.mode or "exhaustive"
        rep = evaluate(csp, a, mode=mode, count=args.count, seed=args.seed)
        pairs = [("mode", mode), ("c1", rep.c1_fraction)]
        pairs += [(f"c2_{i + 1}", f) for i, f in enumerate(rep.c2_fraction_per_i)]
        pairs += [("c3", rep.c3_fraction), ("all_satisfied", int(rep.all_satisfied))]
        if rep.samples is not None:
            pairs += [("samples", rep.samples), ("seed", rep.seed)]
        _print_kv(*pairs)
        return 0
    mode = args.mode or "exact"
    res = linearity_decode(csp, a, mode=mode, samples=args.count, seed=args.seed)
    pairs = [("mode", mode), ("agreement", res.agreement), ("exact", int(res.exact))]
    pairs += [
        (f"component_{i + 1}", c.to_text()) for i, c in enumerate(res.components)
    ]
    _print_kv(*pairs)
    return 0


def _cmd_graph(args) -> int:
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    csp = build_csp(inst, scheme, inst.num_sets, scheme.h, scheme.ell)
    gap = build_gap_graph(csp, args.replication)
    _print_kv(
        ("vertices_b", gap.num_b_vertices),
        ("vertices_a", gap.num_a_vertices),
        ("vertices_total", gap.num_vertices),
        ("planted_size", gap.planted_size()),
    )
    if args.export:
        graph, verts = gap.export_explicit(budget=args.budget)
        with open(args.export, "w") as fp:
            write_dimacs(graph, fp)
        map_path = args.map or args.export + ".map"
        with open(map_path, "w") as fp:
            write_sidecar(verts, gap, fp)
        _print_kv(("written", args.export), ("map", map_path))
    if args.plant:
        sel = brute_force_vector_sum(inst)
        if sel is None:
            _print_kv(("satisfiable", "no"))
        else:
            _print_kv(("satisfiable", "yes"))
            with open(args.plant, "w") as fp:
                write_clique_set(gap.planted_clique(sel), gap, fp)
            _print_kv(("planted", args.plant))
    return 0


def _cmd_clique(args) -> int:
    with open(args.input) as fp:
        g = read_dimacs(fp)
    if args.exact:
        rep = max_clique_exact(g, args.vertex_budget, args.node_budget)
    else:
        rep = clique_local_search(g, restarts=args.restarts, seed=args.seed)
    _print_kv(
        ("exact", int(rep.exact)),
        ("lower_bound", rep.lower_bound),
        ("upper_bound", "unknown" if rep.upper_bound is None else rep.upper_bound),
        ("nodes", rep.nodes_explored),
        ("restarts", rep.restarts),
        ("witness", ",".join(str(v + 1) for v in rep.witness)),
    )
    return 0


def _cmd_amplify(args) -> int:
    with open(args.input) as fp:
        g = read_dimacs(fp)
    powered = export_power(strong_power(g, args.power), budget=args.budget)
    if args.out:
        with open(args.out, "w") as fp:
            write_dimacs(powered, fp)
    else:
        write_dimacs(powered, sys.stdout)
    return 0


def _cmd_pipeline(args) -> int:
    with open(args.input) as fp:
        head = fp.read()
    first = next(
        (line for line in head.splitlines() if line.strip() and not line.startswith("c ")),
        "",
    )
    from io import StringIO

    if first.startswith("p mcol"):
        graph = read_mcol(StringIO(head))
    else:
        graph = read_dimacs(StringIO(head))
    cfg = PipelineConfig(
        k=args.k,
        h=args.h,
        ell=args.ell,
        replication=args.replication,
        epsilon=args.epsilon,
        seed=args.seed,
        derandomize=args.derandomize,
        dry_run=args.dry_run,
        probe_mode=args.probe_mode,
        probe_restarts=args.probe_restarts,
    )
    bundle = run_pipeline(graph, cfg, out_dir=args.out)
    sys.stdout.write(bundle.report_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
