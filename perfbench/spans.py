"""Spans and counters recorded around gapforge's public functions.

The tracer patches module attributes and class methods in place, the way
callers bind them: `gapforge.pipeline` imported `derandomize_scheme` by
name, so the wrapper has to replace `gapforge.pipeline.derandomize_scheme`
as well as `gapforge.encoding.derandomize_scheme`.  `install` therefore
rebinds every attribute of every loaded gapforge module that holds the
original function.  `uninstall` restores the originals, so untraced
passes run the package untouched.

A span is [id, parent id, op id, name, start, end].  Spans are kept in
memory, recorded only while an op is open, and written as JSONL by
`write_jsonl` when the benchmark ends.  Per-layer self time is a span's
duration minus the part of it its child spans cover; the layer is the
part of the span name before the dot.  The root span of every op is
named "pipeline.op", so its self time is the orchestration and bundle
I/O the wrapped layers do not cover.

The fine-grained field and rng entry points get call counters only, no
spans, because they run millions of times per pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from gapforge import csp as csp_mod
from gapforge.explicit import ExplicitGraph

ROOT_SPAN = "pipeline.op"


def _derandomize(counts, args, kwargs, result) -> None:
    _scheme, stats = result
    counts["encoding.constraints"] += stats.n_constraints
    counts["encoding.rounds"] += stats.rounds


_DECODE_SIG = inspect.signature(csp_mod.linearity_decode)


def _decode(counts, args, kwargs, result) -> None:
    bound = _DECODE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    c, mode = bound.arguments["csp"], bound.arguments["mode"]
    cols = c.num_vars if mode == "exact" else min(bound.arguments["samples"], c.num_vars)
    counts["csp.decode_table_entries"] += 4 ** (c.h * c.ell * c.k) * cols


def _export(counts, args, kwargs, result) -> None:
    graph, _verts = result
    counts["gapgraph.export_vertices"] += graph.n
    counts["gapgraph.isolated"] += sum(1 for row in graph.adj if not row)


def _exact(counts, args, kwargs, result) -> None:
    counts["verify.exact_nodes"] += result.nodes_explored


def _local(counts, args, kwargs, result) -> None:
    # a gap-graph call recurses into the explicit-graph call; count once
    if isinstance(args[0], ExplicitGraph):
        counts["verify.local_restarts"] += result.restarts


def _implicit(counts, args, kwargs, result) -> None:
    _g, restarts, _seed, _init, sample_size = args
    counts["verify.implicit_restarts"] += restarts
    counts["verify.implicit_samples"] += restarts * sample_size
    counts["verify.implicit_accepted"] += result.nodes_explored


def _written(counts, args, kwargs, result) -> None:
    counts["explicit.bytes"] += args[1].tell()  # every writer opens a fresh file


def _read(counts, args, kwargs, result) -> None:
    fp = args[0]
    counts["explicit.bytes"] += (
        len(fp.getvalue()) if hasattr(fp, "getvalue") else os.fstat(fp.fileno()).st_size
    )


def _powered(counts, args, kwargs, result) -> None:
    counts["amplify.vertices"] += result.n


# (module, attribute path, span name, hook after a successful call)
SPANS = (
    ("gapforge.cliquered", "reduce_clique", "cliquered.reduce", None),
    ("gapforge.cliquered", "brute_force_vector_sum", "cliquered.brute_force", None),
    ("gapforge.encoding", "sample_scheme", "encoding.sample", None),
    ("gapforge.encoding", "check_scheme", "encoding.check", None),
    ("gapforge.encoding", "derandomize_scheme", "encoding.derandomize", _derandomize),
    ("gapforge.csp", "build_csp", "csp.build", None),
    ("gapforge.csp", "honest_assignment", "csp.honest", None),
    ("gapforge.csp", "evaluate", "csp.evaluate", None),
    ("gapforge.csp", "linearity_decode", "csp.decode", _decode),
    ("gapforge.gapgraph", "GapGraph.export_explicit", "gapgraph.export", _export),
    ("gapforge.gapgraph", "GapGraph.is_clique", "gapgraph.is_clique", None),
    ("gapforge.gapgraph", "GapGraph.planted_clique", "gapgraph.planted", None),
    ("gapforge.gapgraph", "GapGraph.planted_clique_ok", "gapgraph.planted_ok", None),
    ("gapforge.verify", "soundness_probe", "verify.probe", None),
    ("gapforge.verify", "max_clique_exact", "verify.exact", _exact),
    ("gapforge.verify", "clique_local_search", "verify.local", _local),
    ("gapforge.verify", "_implicit_search", "verify.implicit", _implicit),
    ("gapforge.explicit", "write_dimacs", "explicit.write", _written),
    ("gapforge.explicit", "read_dimacs", "explicit.read", _read),
    ("gapforge.amplify", "export_power", "amplify.export_power", _powered),
)

# (module, attribute path, counter name)
COUNTERS = (
    ("gapforge.field", "FVector.dot", "field.dot_calls"),
    ("gapforge.field", "FMat.matvec", "field.matvec_calls"),
    ("gapforge.field", "outer", "field.outer_calls"),
    ("gapforge.rng", "SplitMix64.next_u64", "rng.words"),
    ("gapforge.gapgraph", "GapGraph.adjacent", "gapgraph.adjacent_calls"),
    ("gapforge.gapgraph", "GapGraph.self_ok", "gapgraph.self_ok_calls"),
)

# layers whose spans are recorded; field and rng only count calls
SPAN_LAYERS = ("cliquered", "encoding", "csp", "gapgraph", "verify", "explicit", "amplify")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.op_names: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; wrapped calls record spans only inside it."""
        self.op_id = op_id
        self.op_names[op_id] = name
        sid = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(sid)
            self.op_id = None

    # -- patching -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, path: str, make) -> None:
        owner_name, _, attr = path.rpartition(".")
        mod = sys.modules[module]
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._undo.append((owner, attr, original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name == "gapforge" or name.startswith("gapforge."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._undo.append((loaded, key, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, path, name, hook in SPANS:
            self._patch(module, path, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for module, path, key in COUNTERS:
            self._patch(module, path, lambda fn, k=key: self._count_wrapper(k, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fp:
            for sid, parent, op_id, name, start, end in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                    "parent": parent,
                    "op": op_id,
                }
                if name == ROOT_SPAN:
                    rec["op_name"] = self.op_names[op_id]
                fp.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _op, name, start, end in spans:
        out[name] += (end - start) - covered[sid]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer numbers for one traced pass (its spans and counters)."""
    st = self_times(spans)
    c = counts
    m = {
        "gapgraph.export_s": st["gapgraph.export"],
        "gapgraph.export_vertices": c["gapgraph.export_vertices"],
        "gapgraph.isolated_frac": _ratio(c["gapgraph.isolated"], c["gapgraph.export_vertices"]),
        "gapgraph.adjacent_calls": c["gapgraph.adjacent_calls"],
        "gapgraph.self_ok_calls": c["gapgraph.self_ok_calls"],
        "verify.implicit_s": st["verify.implicit"],
        "verify.implicit_ms_per_restart": 1000
        * _ratio(st["verify.implicit"], c["verify.implicit_restarts"]),
        "verify.accepted_per_sample": _ratio(
            c["verify.implicit_accepted"], c["verify.implicit_samples"]
        ),
        "verify.local_s": st["verify.local"],
        "verify.local_ms_per_restart": 1000 * _ratio(st["verify.local"], c["verify.local_restarts"]),
        "verify.exact_s": st["verify.exact"],
        "verify.exact_nodes": c["verify.exact_nodes"],
        "encoding.derandomize_s": st["encoding.derandomize"],
        "encoding.constraints": c["encoding.constraints"],
        "encoding.rounds": c["encoding.rounds"],
        "encoding.constraints_per_s": _ratio(c["encoding.constraints"], st["encoding.derandomize"]),
        "encoding.sample_s": st["encoding.sample"],
        "encoding.check_s": st["encoding.check"],
        "field.dot_calls": c["field.dot_calls"],
        "field.outer_calls": c["field.outer_calls"],
        "field.matvec_calls": c["field.matvec_calls"],
        "rng.words": c["rng.words"],
        "csp.build_s": st["csp.build"],
        "csp.evaluate_s": st["csp.evaluate"],
        "csp.decode_s": st["csp.decode"],
        "csp.decode_table_entries": c["csp.decode_table_entries"],
        "explicit.write_s": st["explicit.write"],
        "explicit.read_s": st["explicit.read"],
        "explicit.bytes": c["explicit.bytes"],
        "amplify.export_power_s": st["amplify.export_power"],
        "amplify.vertices": c["amplify.vertices"],
        "cliquered.reduce_s": st["cliquered.reduce"],
        "cliquered.brute_force_s": st["cliquered.brute_force"],
        "pipeline.self_s": st[ROOT_SPAN],
    }
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in st.items() if k.split(".")[0] == layer)
    m["trace.op_s"] = sum(end - start for _s, _p, _o, name, start, end in spans if name == ROOT_SPAN)
    return m


def accounted(m: dict[str, float]) -> float:
    """Layer self times plus pipeline.self_s over traced op time."""
    total = m["pipeline.self_s"] + sum(m[f"{layer}.self_s"] for layer in SPAN_LAYERS)
    return _ratio(total, m["trace.op_s"])
