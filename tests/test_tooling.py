"""The benchmark tracer's patch targets exist in the package, its
counters read what the package does, and every workload passes its own
gates at the tiny size.

`perfbench/spans.py` wraps gapforge functions by (module, attribute
path); a target deleted or renamed in src would make
`perfbench/run.py --trace 1` fail at install time.  Every target must
resolve the way `Tracer._patch` looks it up.  `perfbench/workloads.py`
calls gapforge by name and reads its config and results, so a src
change that breaks one of those names fails here.  The other way round,
every def and module-level name in src needs a reader in src or in
perfbench code, so src holds what the CLI, the pipeline and the
benchmark run, and every module-level import in src and tests is read by
its module.  README's layout table has one row per src module.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from dataclasses import fields
from pathlib import Path

import gapforge
from gapforge.cli import _build_parser
from gapforge.explicit import ExplicitGraph
from gapforge.pipeline import PipelineConfig, run_pipeline
from gapforge.verify import soundness_probe
from test_verify import over_budget_gap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(gapforge.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Defs that no src code and no perfbench code calls, kept on purpose.
KEPT_UNCALLED = {
    "field.outer": "perfbench/spans.py counts its calls (field.outer_calls)",
    "gapgraph.GapGraph.adjacent": "perfbench/spans.py counts its calls (gapgraph.adjacent_calls)",
    "gapgraph.GapGraph.self_ok": "perfbench/spans.py counts its calls (gapgraph.self_ok_calls)",
    "cliquered.write_mcol": "writes the .mcol multicolor graph format the CLI reads",
    "csp.write_assignment": "writes the assignment file `gapforge csp --evaluate` reads",
}


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    spans = load_perfbench("spans")
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
    big = over_budget_gap()
    assert big.num_vertices == 65_792

    tracer = load_perfbench("spans").Tracer()
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


def test_tiny_workloads_pass_their_gates(tmp_path):
    wl = load_perfbench("workloads")
    for workload in wl.WORKLOADS:
        for i, op in enumerate(wl.BUILDERS[workload](0, "tiny")):
            out_dir = tmp_path / workload / str(i)
            out_dir.mkdir(parents=True)
            out = op.run(str(out_dir))
            assert wl.gate(op, out, None) == [], f"{workload} {op.name}"


def _names_used(node, skip=None) -> tuple[set[str], set[str]]:
    """Identifiers a syntax tree reads outside the subtree `skip`: names
    (imported names included), and attribute names."""
    names, attrs = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
        stack.extend(ast.iter_child_nodes(n))
    return names, attrs


def test_src_defs_have_a_caller():
    # scalar reference forms that only tests call live in tests/reference.py;
    # a function or class counts as called when any src code reads its name,
    # a method only when src code reads an attribute of its name
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    bench_names, bench_attrs = set(), set()
    for p in PERFBENCH.glob("*.py"):
        names, attrs = _names_used(ast.parse(p.read_text()))
        bench_names |= names
        bench_attrs |= attrs
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", mod, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{mod}.{node.name}.{m.name}", mod, m, True)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                ]
    known = {key for key, *_ in defs}
    whole = {m: _names_used(t) for m, t in trees.items()}
    assert set(KEPT_UNCALLED) <= known, set(KEPT_UNCALLED) - known
    uncalled = []
    for key, mod, node, method in defs:
        name = node.name
        dunder = name.startswith("__") and name.endswith("__")
        if dunder or key in KEPT_UNCALLED:
            continue
        reads = [whole[m] for m in trees if m != mod]
        reads += [_names_used(trees[mod], node), (bench_names, bench_attrs)]
        if not any(name in attrs or (not method and name in names) for names, attrs in reads):
            uncalled.append(key)
    assert not uncalled, f"defs with no caller in src or perfbench: {uncalled}"


def test_src_module_names_are_read():
    # a module-level name is read when its own module loads it, another
    # src module imports it or reads it as an attribute, or perfbench code
    # names it; a dunder such as __version__ is read by convention
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    named, imported = set(), set()  # bare names, and (module, name) pairs
    for p in PERFBENCH.glob("*.py"):
        named |= set().union(*_names_used(ast.parse(p.read_text())))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unread = []
    for mod, tree in trees.items():
        loaded = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                dunder = name.startswith("__") and name.endswith("__")
                if not (dunder or name in loaded | named or (mod, name) in imported):
                    unread.append(f"{mod}.{name}")
    assert not unread, f"module-level names no src or perfbench code reads: {unread}"


def test_stages_own_their_budgets():
    # each stage checks its own budget before it builds anything; the
    # pipeline and the CLI only decide what to run and what to write
    found = []
    for name in ("pipeline.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            checks = isinstance(node, ast.Call) and ast.unparse(node.func).endswith("check_budget")
            raises = isinstance(node, ast.Raise) and "BudgetExceededError" in ast.unparse(node)
            if checks or raises:
                found.append(f"{name}:{node.lineno}")
    assert not found, f"budget checks outside their stage: {found}"


def test_pipeline_flags_are_the_config_fields_without_defaults():
    # PipelineConfig states every knob's default once: the pipeline
    # subcommand has one flag per field and passes on only the flags set
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["pipeline"]._actions if a.dest != "help"]
    assert {a.dest for a in actions} == {f.name for f in fields(PipelineConfig)} | {"input", "out"}
    assert [a.dest for a in actions if a.default is not argparse.SUPPRESS] == []


def test_check_budget_writes_the_budget():
    # check_budget appends "over budget B" itself, so a message names only
    # what needs the budget and how much; a message held in a variable is
    # read from the assignments to that name in the same module
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assigned: dict[str, list[ast.AST]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("check_budget")):
                continue
            message = node.args[2] if len(node.args) > 2 else node.keywords[0].value
            texts = [message]
            if isinstance(message, ast.Name):
                texts = assigned.get(message.id, [])
            words = [
                c.value for t in texts for c in ast.walk(t)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            if any("budget" in w for w in words):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"check_budget messages that write the budget themselves: {found}"


def test_module_level_imports_are_read():
    # a module-level import binds one name; no code of the module reading
    # it means the import is dead
    unread = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if (alias.asname or alias.name.partition(".")[0]) not in read:
                        unread.append(f"{path.name}: {alias.name}")
    assert not unread, f"imports no code reads: {unread}"


def test_row_codec_lives_in_explicit():
    # bitset rows are converted to and from vertex indices only through
    # explicit.bit_indices and explicit.mask_bits
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "explicit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                ("packbits", "unpackbits")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bitset rows packed or unpacked outside explicit.py: {found}"


def test_csp_tabulates_f_values_twice():
    # csp.py computes f-values in two tables only: the instance table in
    # CSPInstance.__init__, which honest assignments read their columns
    # from, and the block selectors' table in linearity_decode
    tree = ast.parse((SRC / "csp.py").read_text())
    calls = []
    for owner in ast.walk(tree):
        if not isinstance(owner, ast.FunctionDef):
            continue
        for node in ast.walk(owner):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("f_codes"):
                calls.append(owner.name)
    assert sorted(calls) == ["__init__", "linearity_decode"], calls


def test_pair_rule_is_tabulated_once():
    # gapgraph.py runs the pair rule over an np.arange of codes in one
    # place, GapGraph._code_table, which both row builders read; an arange
    # counts when it is an argument or is assigned to a name an argument reads
    tree = ast.parse((SRC / "gapgraph.py").read_text())
    tabulating = []
    for owner in ast.walk(tree):
        if not isinstance(owner, ast.FunctionDef):
            continue
        ranges = {
            t.id
            for node in ast.walk(owner)
            if isinstance(node, ast.Assign) and "np.arange(" in ast.unparse(node.value)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(owner):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_pairs_ok"):
                read = {n.id for a in node.args for n in ast.walk(a) if isinstance(n, ast.Name)}
                if read & ranges or any("np.arange(" in ast.unparse(a) for a in node.args):
                    tabulating.append(owner.name)
    assert tabulating == ["_code_table"], tabulating


def test_assignment_values_stay_one_array():
    # an Assignment holds one read-only array in encoding.value_dtype's
    # dtype: no other src module reads MAX_ELL, and src code reads .values
    # as it is, never wrapped in np.array, np.asarray, list or tuple, and
    # turned into a list only where planted_clique builds its vertex tuples
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        planted = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "planted_clique"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            names = [node.id] if isinstance(node, ast.Name) else []
            names += [node.name] if isinstance(node, ast.alias) else []
            if "MAX_ELL" in names and path.name != "encoding.py":
                found.append(f"{path.name}:{node.lineno} reads MAX_ELL")
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            wraps = (
                func in ("np.array", "np.asarray", "list", "tuple")
                and node.args
                and ast.unparse(node.args[0]).endswith(".values")
            )
            converts = func.endswith((".values.tolist", ".values.astype"))
            if wraps or (converts and not (func.endswith(".tolist") and id(node) in planted)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"assignment values converted: {found}"


def test_text_lines_read_in_one_place():
    # every text format takes its lines from textio, so blank lines,
    # comments and field counts follow one rule: no other src module
    # loops over a file object or reads raw text from one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "textio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.For, ast.comprehension)) and ast.unparse(node.iter) == "fp":
                found.append(f"{path.name}:{node.iter.lineno} loops over fp")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read", "readline", "readlines")
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}()")
    assert not found, f"text read outside textio.py: {found}"


def test_value_types_state_their_fields_once():
    # a value type is a dataclass, which generates equality, hashing and
    # immutability from its one list of fields; two classes keep their own
    allowed = {
        # values is an ndarray, and == on an ndarray compares element by element
        "Assignment": {"__slots__", "__eq__"},
        # mutable generator state, not a value: slots alone keep it small
        "SplitMix64": {"__slots__"},
    }
    hand_written = {"__eq__", "__hash__", "__setattr__", "__slots__"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = {item.name}
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = {ast.unparse(t) for t in targets}
                else:
                    continue
                for name in sorted(names & hand_written - allowed.get(node.name, set())):
                    found.append(f"{path.name}:{item.lineno} {node.name}.{name}")
    assert not found, f"hand-written value-type dunders: {found}"


def test_only_errors_imports_decimal():
    # errors.int_text writes every int of a message or report exactly, past
    # the 4,300 digits str() writes, so no other src module needs decimal
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(name and name.partition(".")[0] == "decimal" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"decimal imported outside errors.py: {found}"


def test_readme_layout_names_every_module():
    # one row per module of the package, __init__ aside, and no other rows
    readme = (TESTS.parent / "README.md").read_text()
    table = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|", table, re.M)
    assert sorted(rows) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
