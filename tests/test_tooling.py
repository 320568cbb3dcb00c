"""The benchmark tracer's patch targets exist in the package, and its
counters read what the package does.

`perfbench/spans.py` wraps gapforge functions by (module, attribute
path); a target deleted or renamed in src would make
`perfbench/run.py --trace 1` fail at install time.  Every target must
resolve the way `Tracer._patch` looks it up.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gapforge
from gapforge.cliquered import VectorSumInstance
from gapforge.csp import build_csp
from gapforge.encoding import sample_scheme
from gapforge.explicit import ExplicitGraph
from gapforge.field import FVector
from gapforge.gapgraph import build_gap_graph
from gapforge.pipeline import PipelineConfig, run_pipeline
from gapforge.verify import soundness_probe

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    spans = load_spans()
    targets = [(mod, path) for mod, path, *_ in spans.SPANS + spans.COUNTERS]
    assert targets
    for module, path in targets:
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
            assert attr in vars(owner), f"{module}.{path}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{path}"


def test_tracer_counts_one_export_per_run_and_implicit_samples():
    # install looks every target module up in sys.modules
    for info in pkgutil.iter_modules(gapforge.__path__):
        importlib.import_module(f"gapforge.{info.name}")
    # two one-vector sets, h=1, ell=2, r=1: 16^2 * 4^4 + 16 * 4^2 vertices
    inst = VectorSumInstance(
        [[FVector.from_text("10")], [FVector.from_text("01")]], FVector.from_text("10")
    )
    big = build_gap_graph(build_csp(inst, sample_scheme(5, h=1, m=2, ell=2), 2, 1, 2), 1)
    assert big.num_vertices == 65_792

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        with tracer.op(0, "k1-pipeline"):
            run_pipeline(
                ExplicitGraph.from_edges(2, [(0, 1)]),
                PipelineConfig(k=1, h=1, ell=1, replication=1),
            )
        with tracer.op(1, "implicit-probe"):
            soundness_probe(big, mode="search", restarts=1, seed=0)
    finally:
        tracer.uninstall()
    assert tracer.counts["gapgraph.export_vertices"] == 272
    assert tracer.counts["verify.implicit_restarts"] == 1
    assert tracer.counts["verify.implicit_samples"] == 512
