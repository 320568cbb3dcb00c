"""Seeded inputs, operations and output gates for the three workloads.

A workload is a fixed list of ops.  An op is one user-level call into
gapforge (a pipeline run, a clique probe or search, a scheme build, a
decode), the same call a `gapforge` CLI subcommand would make.  Each op
returns an Output: the bytes it produced (hashed against pinned digests
at the default seed) and its semantic checks, run by `gate` after the
timed pass.  The gate is never skipped; any failed check fails the op.

Every call into the package goes through a module attribute
(`gp.run_pipeline`, `verify.max_clique_exact`, ...) so that the tracing
wrappers installed on those attributes see the call.

Inputs are drawn from numpy generators keyed by (seed, family tag) and
have fixed vertex and edge counts, so the work in a pass does not depend
on the seed.  Why each workload exists, and what each per-layer number
is predicted to move, is written down in WORKLOADS.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from gapforge import amplify, cliquered, csp, encoding, explicit, gapgraph, verify
from gapforge import pipeline as gp
from gapforge.field import FVector

WORKLOADS = ("yes-bundle", "no-soundness", "derandomize")

# Per-workload input sizes.  "full" is what the benchmark measures;
# "tiny" keeps every op kind but runs in well under a second, and serves
# as the warm-up pass and the self-check.
SIZES = {
    "full": {
        "yes_probe_graphs": 10,
        "yes_bundle_graphs": 1,
        "yes_k2_graphs": 2,
        "yes_k3_graphs": 4,
        "yes_k2_ell_r": (2, 4),
        "amplify_base": (100, 1485),
        "no_probe_graphs": 6,
        "no_big_k": 2,
        "no_search_restarts": 500,
        "no_k3_probe_restarts": 5,
        "no_decode_ops": 4,
        "derand_big": True,
        "derand_small_graphs": 10,
        "derand_pipeline": (3, 2, 2),
    },
    "tiny": {
        "yes_probe_graphs": 1,
        "yes_bundle_graphs": 0,
        "yes_k2_graphs": 1,
        "yes_k3_graphs": 0,
        "yes_k2_ell_r": (1, 1),
        "amplify_base": (12, 30),
        "no_probe_graphs": 2,
        "no_big_k": 1,
        "no_search_restarts": 20,
        "no_k3_probe_restarts": 1,
        "no_decode_ops": 2,
        "derand_big": False,
        "derand_small_graphs": 2,
        "derand_pipeline": (2, 1, 1),
    },
}


class GateError(Exception):
    """An op's output failed one of its checks."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


@dataclass
class Output:
    """What an op produced: named byte payloads plus the semantic check."""

    payload: dict[str, bytes]
    check: Callable[["Output"], None]
    clique_ratio: float | None = None  # best clique found / planted size

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.payload):
            data = self.payload[name]
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[str], Output]  # argument: a fresh scratch directory


def gate(op: Op, out: Output, pinned: dict[str, str] | None) -> list[str]:
    """Errors for one op's output: digest mismatch (when pinned) plus
    every semantic check."""
    errors = []
    if pinned is not None:
        want = pinned.get(op.name)
        if want is None:
            errors.append("no pinned digest")
        elif want != out.digest():
            errors.append("sha256 differs from the pinned digest")
    try:
        out.check(out)
    except GateError as e:
        errors.append(str(e))
    return errors


# -- seeded inputs ------------------------------------------------------------


def family_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def random_graph(rng, n: int, m: int, want_triangle: bool | None = None):
    """Uniform graph with exactly n vertices and m edges; with
    want_triangle set, resampled until it has (or lacks) a triangle."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        pick = rng.choice(len(pairs), size=m, replace=False)
        edges = sorted(pairs[int(i)] for i in pick)
        if want_triangle is None or _has_triangle(n, edges) == want_triangle:
            return explicit.ExplicitGraph.from_edges(n, edges)


def relabeled(rng, n: int, edges):
    """A fixed shape under a seeded vertex labeling."""
    perm = rng.permutation(n)
    return explicit.ExplicitGraph.from_edges(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def _has_triangle(n: int, edges) -> bool:
    es = set(edges)
    return any(
        (a, b) in es and (a, c) in es and (b, c) in es
        for a, b, c in itertools.combinations(range(n), 3)
    )


def complete_graph(n: int):
    return explicit.ExplicitGraph.from_edges(n, itertools.combinations(range(n), 2))


def _vec01(rng, m: int) -> FVector:
    return FVector.from_digits(int(x) for x in rng.integers(0, 2, m))


def _vec01_set(rng, m: int, n: int) -> list[FVector]:
    out: list[FVector] = []
    while len(out) < n:
        v = _vec01(rng, m)
        if v not in out:
            out.append(v)
    return out


def _no_sets(rng, k: int, m: int):
    """k sets of two 0/1 vectors, their reachable sums, and the first
    0/1 target none of them reaches."""
    candidates = [
        FVector(m, bits)
        for bits in range(4**m)
        if all(d in (0, 1) for d in FVector(m, bits).digits())
    ]
    while True:
        sets = [_vec01_set(rng, m, 2) for _ in range(k)]
        sums = {sum(combo[1:], combo[0]) for combo in itertools.product(*sets)}
        target = next((t for t in candidates if t not in sums), None)
        if target is not None:
            return sets, sums, target


def separated_no_instance(rng, k: int, m: int, start_seed: int):
    """Rejection sampler for an unsolvable 0/1 vector-sum instance plus a
    one-row scheme (h = ell = 1) whose row separates every reachable sum
    from the target, so the gap graph has no planted-size clique.

    Returns (instance, scheme)."""
    while True:
        sets, sums, target = _no_sets(rng, k, m)
        for s in range(start_seed, start_seed + 500):
            scheme = encoding.sample_scheme(s, 1, m, 1)
            row = scheme.mats[0]
            if all(not row.matvec(x + target).is_zero() for x in sums):
                inst = cliquered.VectorSumInstance(sets, target)
                if cliquered.brute_force_vector_sum(inst) is not None:
                    raise RuntimeError("sampler produced a solvable instance")
                return inst, scheme


# -- reading outputs back -----------------------------------------------------


def read_files(dirpath: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fp:
            out[name] = fp.read()
    return out


def parse_kv(data: bytes) -> dict[str, str]:
    out = {}
    for line in data.decode("ascii", errors="replace").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def parse_clique_set(data: bytes, g) -> list:
    """Vertices of a planted.clq file (sidecar lines without ids)."""
    text = data.decode("ascii", errors="replace")
    lines = [f"{i} {line}" for i, line in enumerate(text.splitlines(), start=1) if line]
    try:
        return gapgraph.read_sidecar(io.StringIO("\n".join(lines) + "\n"), g)
    except (ValueError, IndexError, KeyError) as e:
        raise GateError(f"planted.clq does not parse: {e}") from None


def clique_report(rep) -> bytes:
    # same key=value lines as `gapforge clique`
    upper = "unknown" if rep.upper_bound is None else rep.upper_bound
    return (
        f"exact={int(rep.exact)}\nlower_bound={rep.lower_bound}\n"
        f"upper_bound={upper}\nnodes={rep.nodes_explored}\n"
        f"restarts={rep.restarts}\n"
        f"witness={','.join(str(v + 1) for v in rep.witness)}\n"
    ).encode()


# -- pipeline ops (yes-bundle, no-soundness, derandomize) --------------------


def pipeline_op(name: str, graph, cfg, label: str) -> Op:
    """run_pipeline into a bundle directory, as `gapforge pipeline --out`."""

    def run(workdir: str) -> Output:
        bundle = gp.run_pipeline(graph, cfg, out_dir=workdir)
        files = read_files(workdir)
        ratio = None
        if bundle.probe is not None:
            ratio = bundle.probe.clique.lower_bound / bundle.probe.planted_size
        return Output(files, lambda out: _check_bundle(out, bundle, label), ratio)

    return Op(name, run)


def _check_bundle(out: Output, bundle, label: str) -> None:
    report = out.payload.get("report.txt")
    require(report is not None, "bundle has no report.txt")
    kv = parse_kv(report)
    require(kv.get("satisfiable") == label, f"satisfiable={kv.get('satisfiable')}, input is {label}")
    gap = bundle.gap
    if label == "yes":
        require(kv.get("completeness_all_satisfied") == "1", "honest assignment violates a constraint")
        require(kv.get("planted_clique_ok") == "1", "planted family is not a clique")
        require(kv.get("soundness_verdict") == "reached", "planted size not reached")
        if gap.planted_size() <= bundle.config.planted_budget:
            clq = out.payload.get("planted.clq")
            require(clq is not None, "bundle has no planted.clq")
            planted = parse_clique_set(clq, gap)
            require(len(planted) == gap.planted_size(), "planted.clq has the wrong size")
            require(gap.is_clique(planted).ok, "planted.clq is not a clique")
    else:
        require("planted.clq" not in out.payload, "NO input produced planted.clq")
        require(kv.get("soundness_verdict") != "reached", "NO input reached the planted size")
    probe = bundle.probe
    if probe is not None:
        rep = probe.clique
        require(kv.get("max_clique_lower") == str(rep.lower_bound), "report disagrees with the probe")
        require(len(rep.witness) == rep.lower_bound, "witness size differs from lower bound")
        require(gap.is_clique(list(rep.witness)).ok, "probe witness is not a clique")
        if label == "no":
            require(rep.lower_bound < gap.planted_size(), "NO graph has a planted-size clique")
    if "graph.dimacs" in out.payload:
        g = explicit.read_dimacs(io.StringIO(out.payload["graph.dimacs"].decode()))
        require(g.n == gap.num_vertices, "exported graph has the wrong vertex count")


# -- yes-bundle ---------------------------------------------------------------


def amplify_op(name: str, base, base_clique: tuple[int, ...]) -> Op:
    """Square of a seeded base graph, as `gapforge amplify --power 2`."""

    def run(workdir: str) -> Output:
        powered = amplify.export_power(amplify.strong_power(base, 2))
        nbytes = (powered.n + 7) // 8
        rows = b"".join(r.to_bytes(nbytes, "little") for r in powered.adj)
        return Output({"adjacency": rows}, lambda out: _check_power(base, base_clique, powered))

    return Op(name, run)


def _check_power(base, base_clique, powered) -> None:
    require(powered.n == base.n**2, "power has the wrong vertex count")
    product = [a * base.n + b for a, b in itertools.product(base_clique, repeat=2)]
    require(powered.is_clique(product), "product of a base max clique is not a clique")
    require(len(product) == len(base_clique) ** 2, "product clique has the wrong size")


def yes_bundle_ops(seed: int, size: str) -> list[Op]:
    p = SIZES[size]
    rng = family_rng(seed, "yes")
    ops: list[Op] = []
    for i in range(p["yes_probe_graphs"]):
        g = random_graph(rng, 5, 5)
        cfg = gp.PipelineConfig(k=1, h=1, ell=1, replication=1, seed=seed * 100 + i)
        ops.append(pipeline_op(f"yes-k1-probe-{i}", g, cfg, "yes"))
    for i in range(p["yes_bundle_graphs"]):
        g = random_graph(rng, 5, 5)
        cfg = gp.PipelineConfig(k=1, h=2, ell=1, replication=1, seed=seed * 100 + 10 + i)
        ops.append(pipeline_op(f"yes-k1-bundle-{i}", g, cfg, "yes"))
    ell, r = p["yes_k2_ell_r"]
    for i in range(p["yes_k2_graphs"]):
        g = random_graph(rng, 4, 4)
        cfg = gp.PipelineConfig(k=2, h=1, ell=ell, replication=r, seed=seed * 100 + 20 + i)
        ops.append(pipeline_op(f"yes-k2-planted-{i}", g, cfg, "yes"))
    for i in range(p["yes_k3_graphs"]):
        g = random_graph(rng, 4, 4, want_triangle=True)
        cfg = gp.PipelineConfig(k=3, h=1, ell=1, replication=1, seed=seed * 100 + 30 + i)
        ops.append(pipeline_op(f"yes-k3-planted-{i}", g, cfg, "yes"))
    n, m = p["amplify_base"]
    base = random_graph(family_rng(seed, "amplify"), n, m)
    base_clique = verify.max_clique_exact(base).witness
    ops.append(amplify_op("yes-amplify-square", base, base_clique))
    return ops


# -- no-soundness -------------------------------------------------------------


def probe_op(name: str, gap) -> Op:
    """Exact soundness probe on a small NO gap graph."""

    def run(workdir: str) -> Output:
        probe = verify.soundness_probe(gap, mode="exact")
        rep = probe.clique
        text = f"verdict={probe.verdict}\n" + "".join(f"{v}\n" for v in rep.witness)

        def check(out: Output) -> None:
            require(probe.verdict == "below", f"verdict {probe.verdict} on a NO graph")
            require(rep.exact and rep.upper_bound < gap.planted_size(), "exact bound not below planted size")
            require(gap.is_clique(list(rep.witness)).ok, "probe witness is not a clique")
            require(len(rep.witness) == rep.lower_bound, "witness size differs from lower bound")

        return Output({"probe": text.encode()}, check, rep.lower_bound / probe.planted_size)

    return Op(name, run)


def export_op(name: str, gap, state: dict) -> Op:
    """Export plus DIMACS and sidecar files, as `gapforge graph --export`.
    Leaves the file path and vertex list in `state` for the clique ops
    that follow it in the pass."""

    def run(workdir: str) -> Output:
        state.clear()
        graph, verts = gap.export_explicit(budget=20_000)
        dimacs = os.path.join(workdir, "graph.dimacs")
        with open(dimacs, "w") as fp:
            explicit.write_dimacs(graph, fp)
        with open(dimacs + ".map", "w") as fp:
            gapgraph.write_sidecar(verts, gap, fp)
        state["dimacs"], state["verts"] = dimacs, verts

        def check(out: Output) -> None:
            require(graph.n == gap.num_vertices, "export has the wrong vertex count")
            with open(dimacs + ".map") as fp:
                require(gapgraph.read_sidecar(fp, gap) == verts, "sidecar does not round-trip")

        return Output(read_files(workdir), check)

    return Op(name, run)


def _load_exported(state: dict) -> tuple[str, list]:
    require("dimacs" in state, "no exported graph in this pass")
    return state["dimacs"], state["verts"]


def clique_op(name: str, gap, state: dict, mode: str, restarts: int, seed: int) -> Op:
    """read_dimacs then a clique oracle, as `gapforge clique --search|--exact`."""

    def run(workdir: str) -> Output:
        dimacs, verts = _load_exported(state)
        with open(dimacs) as fp:
            g = explicit.read_dimacs(fp)
        if mode == "exact":
            rep = verify.max_clique_exact(g)
        else:
            rep = verify.clique_local_search(g, restarts=restarts, seed=seed)

        def check(out: Output) -> None:
            require(len(rep.witness) == rep.lower_bound, "witness size differs from lower bound")
            require(g.is_clique(rep.witness), "witness is not a clique of the DIMACS graph")
            require(gap.is_clique([verts[v] for v in rep.witness]).ok, "witness is not a gap-graph clique")
            require(rep.lower_bound < gap.planted_size(), "NO graph has a planted-size clique")
            if rep.upper_bound is not None:
                require(rep.lower_bound <= rep.upper_bound, "lower bound above upper bound")

        return Output({"report": clique_report(rep)}, check, rep.lower_bound / gap.planted_size())

    return Op(name, run)


def decode_op(name: str, cspi, sel, corrupt: int, rng) -> Op:
    """linearity_decode and sampled evaluate on an honest assignment with
    `corrupt` tuple values overwritten, as `gapforge csp --decode/--evaluate`."""
    honest = csp.honest_assignment(cspi, sel)
    values = list(honest.values)
    points = rng.choice(np.arange(1, len(values)), size=corrupt, replace=False)
    for t in points:
        values[int(t)] ^= int(rng.integers(1, 4**cspi.ell))
    noisy = csp.Assignment(cspi.k, cspi.h, cspi.ell, values)
    want = tuple(
        encoding.encode_g(cspi.scheme, cspi.inst.sets[i][idx]) for i, idx in enumerate(sel.indices)
    )
    frac = Fraction(corrupt, len(values))

    def run(workdir: str) -> Output:
        res = csp.linearity_decode(cspi, noisy)
        rep = csp.evaluate(cspi, noisy, mode="sampled", count=10_000, seed=corrupt)
        text = (
            f"agreement={res.agreement}\n"
            + "".join(f"component={c.to_text()}\n" for c in res.components)
            + f"c1={rep.c1_fraction}\n"
            + "".join(f"c2={f}\n" for f in rep.c2_fraction_per_i)
            + f"c3={rep.c3_fraction}\n"
        )

        def check(out: Output) -> None:
            require(res.agreement >= 1 - frac, "decode agreement below the uncorrupted share")
            require(res.components == want, "decode did not recover the honest components")
            require(rep.samples == 10_000, "sampled evaluate used the wrong sample count")
            require(rep.c1_fraction >= 1 - 3 * frac - Fraction(1, 20), "C1 fraction too low")

        return Output({"decode": text.encode()}, check)

    return Op(name, run)


def no_soundness_ops(seed: int, size: str) -> list[Op]:
    p = SIZES[size]
    rng = family_rng(seed, "no")
    ops: list[Op] = []
    for i in range(p["no_probe_graphs"]):
        inst, scheme = separated_no_instance(rng, 1, 3, 1000 * i)
        gap = gapgraph.build_gap_graph(csp.build_csp(inst, scheme, 1, 1, 1), 1)
        ops.append(probe_op(f"no-probe272-{i}", gap))

    k = p["no_big_k"]
    inst, scheme = separated_no_instance(rng, k, 3, 50_000)
    big = gapgraph.build_gap_graph(csp.build_csp(inst, scheme, k, 1, 1), 1)
    state: dict = {}
    ops.append(export_op(f"no-export{big.num_vertices}", big, state))
    ops.append(clique_op(f"no-search{big.num_vertices}", big, state, "search", p["no_search_restarts"], seed))
    ops.append(clique_op(f"no-exact{big.num_vertices}", big, state, "exact", 0, seed))

    p3 = random_graph(family_rng(seed, "p3"), 3, 2, want_triangle=False)
    cfg = gp.PipelineConfig(
        k=3, h=1, ell=1, replication=1, seed=seed, probe_restarts=p["no_k3_probe_restarts"]
    )
    ops.append(pipeline_op("no-k3-pipeline", p3, cfg, "no"))

    drng = family_rng(seed, "decode")
    shapes = [(3, 1, 2), (2, 2, 1)]  # (k, h, ell)
    for i in range(p["no_decode_ops"]):
        k, h, ell = shapes[i % len(shapes)]
        sets, _, target = _no_sets(drng, k, 4)
        inst = cliquered.VectorSumInstance(sets, target)
        scheme = encoding.sample_scheme(seed * 10 + i, h, 4, ell)
        cspi = csp.build_csp(inst, scheme, k, h, ell)
        sel = cliquered.SelectionCertificate(tuple(int(x) for x in drng.integers(0, 2, k)))
        corrupt = cspi.num_vars // (8 if i % 3 else 16)
        ops.append(decode_op(f"no-decode-{i}", cspi, sel, corrupt, drng))
    return ops


# -- derandomize --------------------------------------------------------------


def scheme_op(name: str, graph, k: int, h: int) -> Op:
    """reduce -> derandomize -> check -> write, as `gapforge scheme --derandomize`."""

    def run(workdir: str) -> Output:
        inst = cliquered.reduce_clique(gp.plain_to_multicolor(graph, k))
        union = inst.union()
        scheme, stats = encoding.derandomize_scheme(union, h, inst.dim)
        rep = encoding.check_scheme(scheme, union)
        path = os.path.join(workdir, "scheme.txt")
        with open(path, "w") as fp:
            encoding.write_scheme(scheme, fp)
        files = read_files(workdir)
        files["stats"] = (
            f"constraints={stats.n_constraints}\nrounds={stats.rounds}\n"
            f"cond_injective={int(rep.cond_injective)}\n"
            f"cond_separating={int(rep.cond_separating)}\n"
            f"cond_self_correcting={int(rep.cond_self_correcting)}\n"
        ).encode()

        def check(out: Output) -> None:
            require(rep.cond_injective, "derandomized scheme is not injective")
            require(rep.cond_separating, "derandomized scheme is not separating")
            require(rep.cond_self_correcting, "derandomized scheme is not self-correcting")
            text = out.payload["scheme.txt"].decode()
            require(encoding.read_scheme(io.StringIO(text)) == scheme, "scheme.txt does not round-trip")

        return Output(files, check)

    return Op(name, run)


def derandomize_ops(seed: int, size: str) -> list[Op]:
    p = SIZES[size]
    ops: list[Op] = []
    if p["derand_big"]:
        ops.append(scheme_op("derand-scheme-k2h1-K5", complete_graph(5), 2, 1))
        ops.append(scheme_op("derand-scheme-k2h2-K3", complete_graph(3), 2, 2))
        ops.append(scheme_op("derand-scheme-k3h1-K3", complete_graph(3), 3, 1))
    rng = family_rng(seed, "derand")
    for i in range(p["derand_small_graphs"]):
        g = relabeled(rng, 4, [(0, 1), (1, 2), (2, 3)])  # the path P4
        ops.append(scheme_op(f"derand-scheme-small-{i}", g, 2, 1))
    n, k, h = p["derand_pipeline"]
    cfg = gp.PipelineConfig(k=k, h=h, replication=1, seed=seed, derandomize=True)
    ops.append(pipeline_op("derand-pipeline", complete_graph(n), cfg, "yes"))
    return ops


BUILDERS = {
    "yes-bundle": yes_bundle_ops,
    "no-soundness": no_soundness_ops,
    "derandomize": derandomize_ops,
}


# -- known defects --------------------------------------------------------------


@dataclass(frozen=True)
class KnownDefect:
    workload: str
    name: str
    expected: str  # exception type the defect raises today
    run: Callable[[], object] | None  # None: recorded only, never run

    def still_fails(self) -> tuple[bool, str]:
        try:
            self.run()
        except Exception as e:  # noqa: BLE001 - any raise means the input still fails
            return True, f"{type(e).__name__}: {e}"
        return False, "completed"


KNOWN_DEFECTS = (
    KnownDefect(
        "yes-bundle",
        "ell-40-overflow",
        "OverflowError",
        lambda: gp.run_pipeline(
            complete_graph(2), gp.PipelineConfig(k=1, h=1, ell=40, replication=1)
        ),
    ),
    KnownDefect(
        "no-soundness",
        "derandomized-k2-no-implicit-search",
        "ValueError",
        lambda: gp.run_pipeline(
            explicit.ExplicitGraph(3),
            gp.PipelineConfig(k=2, h=1, replication=1, seed=7, derandomize=True),
        ),
    ),
    # Never run: planted_clique_ok -> _allowed_bool asks for 4^19 booleans
    # (256 GiB) on the derandomized k=2 pipeline over K4 or K5.
    KnownDefect("derandomize", "derandomized-k2-K5-allowed-table", "MemoryError", None),
)
