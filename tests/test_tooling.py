"""The benchmark tracer's patch targets exist in the package.

`perfbench/spans.py` wraps gapforge functions by (module, attribute
path); a target deleted or renamed in src would make
`perfbench/run.py --trace 1` fail at install time.  Every target must
resolve the way `Tracer._patch` looks it up.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
