"""End-to-end orchestration: plain graph or multicolor graph in, gap
graph artifacts out.

Stage order: color layering (plain inputs), clique-to-vector-sum
reduction, encoding scheme (seeded sample or derandomized), tuple CSP,
gap graph, then verification (completeness via the honest assignment
and planted family, soundness via exact solve or seeded search).  Every
stage draws randomness from the root seed through a documented tag, so
a bundle is a pure function of (input, config) and reruns are
byte-identical.

Default parameters follow the source construction: k' = k + k(k-1)/2,
h = k'^2, ell = 2*ceil(log2 n) + 2h, r = |F|^{k'h}.  Those defaults are
astronomically infeasible on purpose; dry_run lays out the multicolor
graph and builds the reduction, then reports the exact sizes instead of
building the scheme, CSP or gap graph, and desk-scale runs override h,
ell and r downward.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import ClassVar

from .cliquered import (
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
    brute_force_vector_sum,
    gadget_dims,
    reduce_clique,
    write_vsi,
)
from .csp import CSPInstance, SatReport, build_csp, evaluate, honest_assignment, num_tuples
from .encoding import (
    EncodingScheme,
    SchemeReport,
    check_scheme,
    derandomize_scheme,
    sample_scheme,
    write_scheme,
)
from .errors import BudgetExceededError, StageError, int_text
from .explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph, write_dimacs
from .gapgraph import (
    PLANTED_BUDGET, GapGraph, GapSizes, build_gap_graph, write_clique_set, write_sidecar,
)
from .rng import derive_seed
from .verify import EXACT_VERTEX_BUDGET, SoundnessProbe, soundness_probe

PROBE_MODES = ("auto", "exact", "search", "skip")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run; None means the source default.
    planted_budget is the benchmark's name for gapgraph.PLANTED_BUDGET."""

    k: int
    h: int | None = None
    ell: int | None = None
    replication: int | None = None
    epsilon: Fraction = Fraction(1, 20)
    seed: int = 0
    derandomize: bool = False
    dry_run: bool = False
    probe_mode: str = "auto"
    probe_restarts: int = 200
    planted_budget: ClassVar[int] = PLANTED_BUDGET

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if any(v is not None and v < 1 for v in (self.h, self.ell, self.replication)):
            raise ValueError("h, ell and replication must be positive")
        if self.probe_restarts < 0:
            raise ValueError("probe_restarts must be nonnegative")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.derandomize and self.ell is not None:
            raise ValueError("derandomize chooses ell itself; leave ell unset")
        if self.probe_mode not in PROBE_MODES:
            raise ValueError(f"unknown probe mode {self.probe_mode!r}")


@dataclass
class PipelineBundle:
    config: PipelineConfig
    k_prime: int
    scheme: EncodingScheme | None = None
    scheme_report: SchemeReport | None = None
    csp: CSPInstance | None = None
    gap: GapGraph | None = None
    selection: SelectionCertificate | None = None
    completeness: SatReport | None = None
    planted_ok: bool | None = None
    explicit_graph: ExplicitGraph | None = None
    probe: SoundnessProbe | None = None
    report_text: str = ""
    files: dict[str, str] = dc_field(default_factory=dict)


def plain_to_multicolor(g: ExplicitGraph, k: int) -> MulticolorGraph:
    """k color classes, each a full copy of the vertex set; classes are
    joined exactly along edges of g between distinct vertices, so a
    multicolor clique picks k distinct pairwise-adjacent vertices.

    Vertex u in class i gets the integer label u*k + (i-1).
    """
    colors = {u * k + (i - 1): i for u in range(g.n) for i in range(1, k + 1)}
    edges = []
    for u, v in g.edges():
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i != j:
                    edges.append((u * k + (i - 1), v * k + (j - 1)))
    return MulticolorGraph(k, colors, edges)


def _resolved(cfg: PipelineConfig, k_prime: int, n_vectors: int):
    h = cfg.h if cfg.h is not None else k_prime * k_prime
    ell = (
        cfg.ell
        if cfg.ell is not None
        else 2 * (max(n_vectors, 2) - 1).bit_length() + 2 * h
    )
    r = cfg.replication if cfg.replication is not None else 4 ** (k_prime * h)
    return h, ell, r


def _size_lines(k_prime: int, h: int, ell: int, r: int, m: int, n_vectors: int):
    sizes = GapSizes(k_prime, h, ell, r)
    return [
        ("k_prime", k_prime),
        ("m", m),
        ("n_vectors", n_vectors),
        ("h", h),
        ("ell", ell),
        ("replication", r),
        ("num_tuples", sizes.num_tuples),
        ("vertices_b", sizes.num_b_vertices),
        ("vertices_a", sizes.num_a_vertices),
        ("vertices_total", sizes.num_vertices),
        ("planted_size", sizes.planted_size()),
    ]


def run_pipeline(graph, cfg: PipelineConfig, out_dir: str | None = None) -> PipelineBundle:
    """Run every stage and return the bundle; write artifacts if out_dir.

    graph is a MulticolorGraph, or an ExplicitGraph layered into one
    with cfg.k classes.  Budget overruns surface as StageError carrying
    the stage name.
    """
    if not isinstance(graph, MulticolorGraph):
        # the gadget budgets need only k and the layers' n*k vertices and
        # k(k-1) copies of each edge: check them before the layers
        k = cfg.k
        _run_stage("reduce", lambda: gadget_dims(k, graph.n * k, graph.num_edges() * k * (k - 1)))
        graph = plain_to_multicolor(graph, k)
    if graph.k != cfg.k:
        raise ValueError("multicolor input must have cfg.k color classes")

    inst = _run_stage("reduce", lambda: reduce_clique(graph))
    k_prime, m = inst.num_sets, inst.dim
    n_vectors = sum(len(s) for s in inst.sets)
    h, ell, r = _resolved(cfg, k_prime, n_vectors)

    lines: list[tuple[str, object]] = [
        ("k", cfg.k),
        ("seed", cfg.seed),
        ("epsilon", cfg.epsilon),
        ("derandomize", int(cfg.derandomize)),
    ]

    if cfg.dry_run:
        lines += _size_lines(k_prime, h, ell, r, m, n_vectors)
        lines.append(("dry_run", 1))
        text = render_kv(lines)
        files = _write_files(out_dir, [("report.txt", _write_text, text)])
        return PipelineBundle(cfg, k_prime, report_text=text, files=files)

    # the tuple count needs only (k', h): check it before sampling a scheme
    _run_stage("csp", lambda: num_tuples(k_prime, h))
    scheme, scheme_report = _run_stage(
        "scheme", lambda: _make_scheme(inst, cfg, h, ell)
    )
    ell = scheme.ell
    lines += _size_lines(k_prime, h, ell, r, m, n_vectors)
    lines.append(("scheme", scheme.provenance))
    if scheme_report is not None:
        lines.append(("scheme_injective", int(scheme_report.cond_injective)))
        lines.append(("scheme_separating", int(scheme_report.cond_separating)))
        lines.append(("scheme_self_correcting", int(scheme_report.cond_self_correcting)))

    csp = build_csp(inst, scheme, k_prime, h, ell)
    gap = build_gap_graph(csp, r)

    sel = _run_stage("selection", lambda: brute_force_vector_sum(inst))
    lines.append(("satisfiable", "yes" if sel is not None else "no"))

    completeness = None
    planted_ok = None
    planted = None
    if sel is not None:
        completeness = _run_stage(
            "completeness",
            lambda: evaluate(csp, honest_assignment(csp, sel)),
        )
        planted_ok = gap.planted_clique_ok(sel)
        lines.append(("completeness_all_satisfied", int(completeness.all_satisfied)))
        lines.append(("planted_clique_ok", int(planted_ok)))
        if gap.planted_size() <= cfg.planted_budget:
            planted = gap.planted_clique(sel)

    exported = None
    if gap.num_vertices <= EXPORT_VERTEX_BUDGET:
        exported = _run_stage("export", gap.export_explicit)
    explicit_graph, vertices = exported or (None, None)
    lines.append(("graph_explicit", int(exported is not None)))

    probe = _run_stage("probe", lambda: _probe(gap, sel, cfg, exported))
    threshold = (1 - cfg.epsilon) * gap.planted_size()
    # the verified planted family reaches the planted size, whatever a
    # probe that stopped short of it found
    if planted_ok and (probe is None or probe.verdict != "reached"):
        lines.append(("soundness_verdict", "reached"))
        lines.append(("soundness_witness", "planted"))
    else:
        lines.append(("soundness_verdict", "skipped" if probe is None else probe.verdict))
    if probe is not None:
        lines.append(("max_clique_lower", probe.clique.lower_bound))
        if probe.clique.upper_bound is not None:
            lines.append(("max_clique_upper", probe.clique.upper_bound))
        lines.append(("soundness_threshold", threshold))
        if sel is None:
            below = (
                probe.clique.upper_bound is not None
                and probe.clique.upper_bound < threshold
            )
            lines.append(("gap_certified", "yes" if below else "no"))

    text = render_kv(lines)
    items = [
        ("instance.vsi", write_vsi, inst),
        ("scheme.txt", write_scheme, scheme),
        ("csp.meta", _write_text, _csp_meta(csp, r)),
    ]
    if explicit_graph is not None:
        items += [
            ("graph.dimacs", write_dimacs, explicit_graph),
            ("graph.map", write_sidecar, vertices, gap),
        ]
    if planted is not None:
        items.append(("planted.clq", write_clique_set, planted, gap))
    items.append(("report.txt", _write_text, text))
    files = _write_files(out_dir, items)

    return PipelineBundle(
        cfg, k_prime, scheme, scheme_report, csp, gap, sel,
        completeness, planted_ok, explicit_graph, probe, text, files,
    )


def _run_stage(name: str, thunk):
    try:
        return thunk()
    except BudgetExceededError as e:
        raise StageError(name, e) from e


def _make_scheme(inst: VectorSumInstance, cfg: PipelineConfig, h: int, ell: int):
    union = inst.union()
    if cfg.derandomize:
        scheme, _stats = derandomize_scheme(union, h, inst.dim)
    else:
        scheme = sample_scheme(derive_seed(cfg.seed, "scheme"), h, inst.dim, ell)
    # an all-empty instance leaves nothing to test the scheme against
    report = check_scheme(scheme, union) if union else None
    return scheme, report


def _probe(gap, sel, cfg: PipelineConfig, exported) -> SoundnessProbe | None:
    mode = cfg.probe_mode
    if mode == "skip":
        return None
    if mode == "auto":
        if exported is not None and gap.num_vertices <= EXACT_VERTEX_BUDGET:
            mode = "exact"
        elif sel is not None:
            # soundness side is settled by the planted family; searching
            # for it blindly would only waste restarts
            return None
        else:
            mode = "search"
    return soundness_probe(
        gap, mode, cfg.probe_restarts, derive_seed(cfg.seed, "probe"), exported
    )


def _csp_meta(csp: CSPInstance, r: int) -> str:
    c1, c2, c3 = csp.family_sizes()
    lines = [
        ("k", csp.k),
        ("h", csp.h),
        ("ell", csp.ell),
        ("num_vars", csp.num_vars),
        ("num_alphas", csp.num_alphas),
        ("c1_constraints", c1),
        ("c2_constraints", c2),
        ("c3_constraints", c3),
        ("replication", r),
        ("set_sizes", ",".join(str(len(s)) for s in csp.inst.sets)),
    ]
    return render_kv(lines)


def render_kv(lines) -> str:
    """key=value lines, each int written exactly by int_text."""
    return "".join(f"{key}={int_text(v) if type(v) is int else v}\n" for key, v in lines)


def _write_files(out_dir: str | None, items) -> dict[str, str]:
    """Write each (name, writer, *args) item to out_dir/name through
    writer(*args, fp), in order; name -> path, empty without out_dir."""
    if out_dir is None:
        return {}
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, writer, *args in items:
        files[name] = os.path.join(out_dir, name)
        with open(files[name], "w") as fp:
            writer(*args, fp)
    return files


def _write_text(text: str, fp) -> None:
    fp.write(text)
