#!/usr/bin/env python3
"""gapforge benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload yes-bundle --seed 1 --seconds 30 --trace 0

Run from anywhere inside a gapforge checkout; the package is imported
from the checkout's `src/`, nothing is installed.  A run:

  1. sets up: imports gapforge, draws the workload's inputs from --seed
     and runs a warm-up pass over the tiny-size inputs.  The same set-up
     is timed in five fresh interpreters and setup_s is the median;
  2. runs passes over the workload's fixed op list back to back for
     --seconds (at least three), gating every op's output after each
     pass (pinned sha256 digests at the default seed, semantic checks at
     every seed);
  3. runs the workload's known-defect inputs once, outside the timing;
  4. prints a summary, a details line, and as its last line one JSON
     object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
passes alternate untraced and traced; the traced passes give the
per-layer numbers (medians over traced passes), the untraced ones the
tracing overhead, and the spans are written as JSONL to
.perfbench/trace-<workload>-seed<seed>.jsonl.

Other modes:
  --self-check   tiny sizes, every workload, both trace modes; asserts
                 that every metric is printed with its unit, that a
                 corrupted report byte fails its op, and that the
                 benchmark refuses to run without the package source.
  --pin          re-derive the pinned digests (perfbench/pinned.json)
                 at the default seed, for a change that alters output
                 bytes on purpose.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PINNED = BENCH_DIR / "pinned.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # set-ups timed in fresh interpreters
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MIN_PASSES = 3  # untraced passes in a --trace 0 run, whatever --seconds says

END_TO_END = {"pass_rel": "ratio", "op_p50_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in every summary, reported in the JSON with the per-layer
# metrics.  Raw latencies swing with the host's speed (see reference_s)
# by more than any bound allows, and so does the tail in reference
# units, which sits on a handful of samples of one long op; fail_frac,
# known_defects and search_ratio read 0 on some workload, so a bound
# relative to their median means nothing.
OUTCOME = {
    "op_tail_rel": "ratio",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_frac": "ratio",
    "known_defects": "count",
    "search_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, by name."""
    units = {}
    for name in _spans().layer_metrics([], Counter()):
        if name.endswith("_ms_per_restart"):
            units[name] = "ms"
        elif name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac") or name.endswith("_per_sample"):
            units[name] = "ratio"
        elif name == "explicit.bytes":
            units[name] = "bytes"
        else:
            units[name] = "count"
    units["trace.overhead_frac"] = "ratio"
    units.update(OUTCOME)
    return units


def _load_package() -> None:
    if not (SRC / "gapforge" / "__init__.py").is_file():
        sys.exit(f"error: no gapforge package source under {SRC}")
    sys.path.insert(0, str(SRC))


def _workloads():
    import workloads

    return workloads


def _spans():
    import spans

    return spans


# -- statistics -----------------------------------------------------------------


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND op samples
    beyond it in a run of MIN_PASSES passes.

    The level is fixed per workload, not per run: ops differ in cost by
    orders of magnitude, so a level that moved with the pass count would
    jump between op kinds from one run to the next."""
    n = ops_per_pass * MIN_PASSES
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return pct
    return 50.0


def _quantile(xs: list[float], pct: float) -> float:
    # linear interpolation between closest ranks, as numpy's default
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- one workload -------------------------------------------------------------------


def setup(workload: str, seed: int, size: str):
    """Inputs for the run plus a warm-up pass over the tiny inputs."""
    wl = _workloads()
    ops = wl.BUILDERS[workload](seed, size)
    warm_dir = OUT_DIR / f"warm-{os.getpid()}"
    try:
        for i, op in enumerate(wl.BUILDERS[workload](seed, "tiny")):
            d = warm_dir / str(i)
            d.mkdir(parents=True)
            op.run(str(d))
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    return ops


def _setup_in_child(workload: str, seed: int, size: str) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--size", size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _pinned(seed: int, size: str, workload: str):
    if seed != DEFAULT_SEED or not PINNED.is_file():
        return None
    with open(PINNED) as fp:
        return json.load(fp).get(size, {}).get(workload)


@dataclass
class Measured:
    """What the timed passes of one run recorded."""

    untraced_pass: list[float] = field(default_factory=list)
    rel_pass: list[float] = field(default_factory=list)  # untraced, in reference units
    traced_pass: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # untraced ops only
    rel_latencies: list[float] = field(default_factory=list)  # the same, in reference units
    by_op: dict[str, list[float]] = field(default_factory=dict)
    layer_passes: list[dict] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)  # per pass
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    attempted: int = 0
    op_id: int = 0


def reference_s() -> float:
    """Wall time of a fixed mix of pure-Python integer work and small
    numpy calls, the two kinds of work gapforge does.  It is timed before
    and after every op of an untraced pass, so that pass_rel can divide
    out the host's speed: on a shared machine the same code runs at one
    of two speeds about 1.5x apart, switching every few seconds."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc ^= (i * 0x9E3779B1) >> 7
    a = np.arange(4096, dtype=np.int64)
    for _ in range(40):
        a = (a ^ (a >> 3)) & 0xFFFF
    return time.perf_counter() - t


def _run_pass(ops, pass_dir: Path, tracer, traced: bool, m: Measured) -> list:
    """One pass over the ops; returns [(op, output or None, error or None)].

    The pass time is the sum of its op latencies; an untraced pass also
    records that sum with every op divided by the reference time around it."""
    outputs = []
    for i in range(len(ops)):
        (pass_dir / str(i)).mkdir(parents=True)
    total = rel = 0.0
    ref = None if traced else reference_s()
    for i, op in enumerate(ops):
        t_op = time.perf_counter()
        try:
            if traced:
                with tracer.op(m.op_id, op.name):
                    out = op.run(str(pass_dir / str(i)))
            else:
                out = op.run(str(pass_dir / str(i)))
            err = None
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t_op
        m.op_id += 1
        total += dt
        if not traced:
            ref_after = reference_s()
            rel_dt = dt / ((ref + ref_after) / 2)
            ref = ref_after
            rel += rel_dt
            m.latencies.append(dt)
            m.rel_latencies.append(rel_dt)
            m.by_op.setdefault(op.name, []).append(dt)
        outputs.append((op, out, err))
    if traced:
        m.traced_pass.append(total)
    else:
        m.untraced_pass.append(total)
        m.rel_pass.append(rel)
    return outputs


def _gate_pass(outputs, pinned, corrupt, m: Measured) -> None:
    wl = _workloads()
    ratios = []
    for op, out, err in outputs:
        m.attempted += 1
        if err is None:
            if corrupt is not None:
                corrupt(op, out)
            errors = wl.gate(op, out, pinned)
            if out.clique_ratio is not None:
                ratios.append(out.clique_ratio)
        else:
            errors = [err]
        if errors:
            m.failures.append((op.name, errors))
    m.ratios.append(statistics.fmean(ratios) if ratios else 0.0)


def measure(ops, seconds, trace, pinned, corrupt=None) -> tuple[Measured, object]:
    """Passes back to back until `seconds` have elapsed and there are at
    least MIN_PASSES untraced passes, or one of each kind with tracing.
    With tracing, passes alternate untraced and traced."""
    sp = _spans()
    tracer = sp.Tracer()
    m = Measured()
    work = OUT_DIR / f"run-{os.getpid()}"
    try:
        t_begin = time.perf_counter()
        while True:
            traced = bool(trace) and len(m.untraced_pass) > len(m.traced_pass)
            pass_dir = work / f"pass{len(m.untraced_pass) + len(m.traced_pass)}"
            if traced:
                tracer.counts.clear()
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    outputs = _run_pass(ops, pass_dir, tracer, True, m)
                finally:
                    tracer.uninstall()
                layers = sp.layer_metrics(tracer.spans[first_span:], tracer.counts)
                share = sp.accounted(layers)
                if abs(share - 1) > 1e-6:
                    raise RuntimeError(f"layer self times cover {share:.9f} of op time")
                m.layer_passes.append(layers)
            else:
                outputs = _run_pass(ops, pass_dir, tracer, False, m)
            _gate_pass(outputs, pinned, corrupt, m)
            shutil.rmtree(pass_dir, ignore_errors=True)
            enough = m.traced_pass if trace else len(m.untraced_pass) >= MIN_PASSES
            if enough and time.perf_counter() - t_begin >= seconds:
                return m, tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)


def known_defects(workload: str) -> list[dict]:
    """Try the workload's runnable known-defect inputs once each."""
    out = []
    for d in _workloads().KNOWN_DEFECTS:
        if d.workload != workload:
            continue
        if d.run is None:
            out.append({"name": d.name, "ran": False, "expected": d.expected})
        else:
            fails, what = d.still_fails()
            out.append({"name": d.name, "ran": True, "fails": fails, "outcome": what})
    return out


def run_workload(workload, seed, seconds, trace, size="full", corrupt=None, log=print):
    """Measure one workload; returns (result, details), the last two
    lines of output (see module doc).

    corrupt(op, output) may alter an op's output before it is gated;
    the self-check uses it to prove the gate catches a changed byte."""
    ops = setup(workload, seed, size)
    setups = [_setup_in_child(workload, seed, size) for _ in range(SETUP_REPEATS)]
    pinned = _pinned(seed, size, workload)
    m, tracer = measure(ops, seconds, trace, pinned, corrupt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defects = known_defects(workload)

    tail_pct = tail_percentile(len(ops))
    tail_value = _quantile(sorted(m.latencies), tail_pct)
    e2e = {
        "pass_rel": statistics.median(m.rel_pass),
        "op_p50_rel": statistics.median(m.rel_latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    outcome = {
        "op_tail_rel": _quantile(sorted(m.rel_latencies), tail_pct),
        "pass_s": statistics.median(m.untraced_pass),
        "op_p50_s": statistics.median(m.latencies),
        "op_tail_s": tail_value,
        "fail_frac": len(m.failures) / m.attempted,
        "known_defects": sum(1 for d in defects if d.get("fails")),
        "search_ratio": statistics.median(m.ratios),
    }
    trace_path = None
    if trace:
        layers = {k: statistics.median(p[k] for p in m.layer_passes) for k in m.layer_passes[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(m.traced_pass) / statistics.median(m.untraced_pass) - 1
        )
        layers.update(outcome)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(str(trace_path))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    import numpy

    tail_beyond = sum(1 for x in m.latencies if x > tail_value)
    details = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(bool(trace)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "clients": 1,
        "ops_per_pass": len(ops),
        "untraced_passes": len(m.untraced_pass),
        "traced_passes": len(m.traced_pass),
        "pass_s_samples": m.untraced_pass,
        "pass_rel_samples": m.rel_pass,
        "op_samples": len(m.latencies),
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": tail_beyond,
        "setup_s_samples": setups,
        "op_median_s": {name: statistics.median(v) for name, v in m.by_op.items()},
        "pinned_digests": pinned is not None,
        "known_defect_probes": defects,
        "failures": m.failures[:10],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    units = dict(END_TO_END, **OUTCOME)
    for name, value in dict(e2e, **outcome).items():
        log(f"{name} = {value:.6g} {units[name]}")
    log(f"op samples = {len(m.latencies)}, tail = p{tail_pct:g} with {tail_beyond} beyond, "
        f"passes = {len(m.untraced_pass)} untraced + {len(m.traced_pass)} traced")
    log(json.dumps({"details": details}))
    failed = len(m.failures)
    result = {"correct": failed == 0, "attempted": m.attempted, "failed": failed, "metrics": metrics}
    return result, details


# -- pinning and self-check ---------------------------------------------------------


def pin() -> None:
    wl = _workloads()
    out: dict = {}
    work = OUT_DIR / f"pin-{os.getpid()}"
    try:
        for size in ("full", "tiny"):
            for workload in wl.WORKLOADS:
                digests = {}
                for i, op in enumerate(wl.BUILDERS[workload](DEFAULT_SEED, size)):
                    d = work / f"{size}-{workload}-{i}"
                    d.mkdir(parents=True)
                    result = op.run(str(d))
                    errors = wl.gate(op, result, None)
                    if errors:
                        sys.exit(f"error: {op.name} fails its checks: {errors}")
                    digests[op.name] = result.digest()
                out.setdefault(size, {})[workload] = digests
                print(f"pinned {size} {workload}: {len(digests)} ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PINNED, "w") as fp:
        json.dump(out, fp, indent=1, sort_keys=True)
        fp.write("\n")


def _corrupt_report(field_name=None):
    """Corrupter for the first op whose output holds report.txt: flips
    the first byte of the line `field_name=...` (or byte 0)."""
    hit = []

    def corrupt(op, out) -> None:
        data = out.payload.get("report.txt")
        if data is None or (hit and hit[0] != op.name):
            return
        hit[:1] = [op.name]
        pos = 0
        if field_name is not None:
            pos = data.index(f"{field_name}=".encode()) + len(field_name) + 1
        out.payload["report.txt"] = data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1 :]

    return corrupt, hit


def self_check() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e_units != END_TO_END:
        raise AssertionError(f"BENCHMARK.json end_to_end {e2e_units} != {END_TO_END}")
    if layer_units != per_layer_units():
        raise AssertionError("BENCHMARK.json per_layer disagrees with the traced metrics")
    wl = _workloads()
    quiet = lambda *a: None  # noqa: E731
    for workload in wl.WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            res, _ = run_workload(workload, DEFAULT_SEED, 0, trace, "tiny", log=quiet)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units:
                raise AssertionError(f"{workload} trace={trace}: metrics {sorted(got)}")
            if not res["correct"]:
                raise AssertionError(f"{workload} trace={trace}: {res['failed']} failed ops")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    raise AssertionError(f"{name} is not a number")
        print(f"self-check {workload}: metrics and units ok")
    # a changed byte fails its op through the pinned digest at the default
    # seed, and through the semantic check at any other seed
    for seed, field_name in ((DEFAULT_SEED, None), (DEFAULT_SEED + 1, "satisfiable")):
        for workload in wl.WORKLOADS:
            corrupt, hit = _corrupt_report(field_name)
            res, details = run_workload(workload, seed, 0, 0, "tiny", corrupt=corrupt, log=quiet)
            failed_ops = {name for name, _errors in details["failures"]}
            caught = res["failed"] == details["untraced_passes"] and failed_ops == set(hit)
            if not caught or res["correct"]:
                raise AssertionError(f"{workload} seed={seed}: corrupted report not caught")
        print(f"self-check seed {seed}: corrupted report byte fails its op")
    # without the package source the benchmark exits non-zero, printing no result
    bare = OUT_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload",
             wl.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the package source")
    print("self-check: refuses to run without src/gapforge")
    print("self-check ok")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("yes-bundle", "no-soundness", "derandomize"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--pin", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    _load_package()
    if args.self_check:
        self_check()
        return 0
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
