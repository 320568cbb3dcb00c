"""Acceptance gate: eleven criteria, one printed verdict line each.

Every test wraps its checks in the `criterion` context manager, which
prints "ACCEPTANCE <n> <name>: PASS|FAIL" straight to the terminal
(bypassing capture) so a plain pytest run shows the verdicts inline.
A failing assertion inside the block prints FAIL and then propagates.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from gapforge import field
from gapforge.amplify import export_power, strong_power
from gapforge.cliquered import (
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
    brute_force_vector_sum,
    reduce_clique,
    verify_selection,
)
from gapforge.csp import build_csp, evaluate, honest_assignment, linearity_decode
from gapforge.encoding import (
    check_scheme,
    conditional_expectation_vector,
    derandomize_scheme,
    sample_scheme,
)
from gapforge.explicit import ExplicitGraph
from gapforge.field import FVector
from gapforge.gapgraph import build_gap_graph
from gapforge.pipeline import PipelineConfig, run_pipeline
from gapforge.verify import max_clique_exact, soundness_probe
from reference import (
    add,
    all_pass,
    block_linear,
    brute_force_multicolor_clique,
    collision_frequency,
    collision_frequency_exhaustive,
    mul,
    replace_value,
    zero_dot_count,
)


@contextmanager
def criterion(capsys, num: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")


def vec01(rng, m: int) -> FVector:
    return FVector.from_digits(int(x) for x in rng.integers(0, 2, m))


def vec01_set(rng, m: int, n: int, avoid=()) -> list[FVector]:
    out: list[FVector] = []
    while len(out) < n:
        v = vec01(rng, m)
        if v not in out and v not in avoid:
            out.append(v)
    return out


def solvable_instance(rng, k: int, m: int, size: int = 2):
    """Random 0/1 instance with a planted selection summing to the target."""
    sets, picks = [], []
    for _ in range(k):
        sets.append(vec01_set(rng, m, size))
        picks.append(int(rng.integers(0, size)))
    target = sets[0][picks[0]]
    for i in range(1, k):
        target = target + sets[i][picks[i]]
    return VectorSumInstance(sets, target), SelectionCertificate(tuple(picks))


def ceil_log4(n: int) -> int:
    if n <= 1:
        return 0
    return ((n - 1).bit_length() + 1) // 2


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_field_and_block_linear(capsys):
    with criterion(capsys, 1, "field-and-block-linear"):
        start = time.perf_counter()
        els = range(4)
        for a in els:
            assert add(a, 0) == a
            assert mul(a, 1) == a
            assert mul(a, 0) == 0
            assert add(a, a) == 0
            if a != 0:
                assert mul(a, field.inv(a)) == 1
            for b in els:
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
                for c in els:
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(
                        mul(a, b), mul(a, c)
                    )
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            d = int(rng.integers(1, 5))
            blocks = int(rng.integers(1, 6))
            a = FVector.from_digits(int(x) for x in rng.integers(0, 4, d))
            b = FVector.from_digits(int(x) for x in rng.integers(0, 4, d))
            v = FVector.from_digits(int(x) for x in rng.integers(0, 4, d * blocks))
            u = FVector.from_digits(int(x) for x in rng.integers(0, 4, d * blocks))
            s = int(rng.integers(1, 4))
            assert block_linear(a, v + u) == block_linear(a, v) + block_linear(a, u)
            assert block_linear(a + b, v) == block_linear(a, v) + block_linear(b, v)
            assert block_linear(a, v.scalar_mul(s)) == block_linear(a, v).scalar_mul(s)
            assert block_linear(a.scalar_mul(s), v) == block_linear(a, v).scalar_mul(s)
        assert time.perf_counter() - start < 5.0


# -- 2 -----------------------------------------------------------------------


def _two_color_graphs():
    """Every 2-colored graph on at most 6 vertices, up to edges inside a
    color class (they enter neither the clique side nor the reduction)."""
    for a in range(7):
        for b in range(7 - a):
            colors = {v: 1 for v in range(a)} | {a + w: 2 for w in range(b)}
            pairs = [(u, a + w) for u in range(a) for w in range(b)]
            for mask in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                yield MulticolorGraph(2, colors, edges)


def _equivalent(g: MulticolorGraph) -> bool:
    has_clique = brute_force_multicolor_clique(g) is not None
    solvable = brute_force_vector_sum(reduce_clique(g)) is not None
    return has_clique == solvable


def test_criterion_2_reduction_equivalence(capsys):
    with criterion(capsys, 2, "reduction-equivalence"):
        start = time.perf_counter()
        count = 0
        for g in _two_color_graphs():
            assert _equivalent(g), (g.colors, sorted(map(tuple, g.edges)))
            count += 1
        assert count == sum(
            2 ** (a * b) for a in range(7) for b in range(7 - a)
        )
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(3, 10))
            colors = {v: int(c) for v, c in enumerate(rng.integers(1, 4, n))}
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.integers(0, 2)
            ]
            g = MulticolorGraph(3, colors, edges)
            assert _equivalent(g), f"trial {trial}"
        assert time.perf_counter() - start < 120.0


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_quarter_collision_probability(capsys):
    with criterion(capsys, 3, "quarter-collision-probability"):
        cases = 0
        for b_bits, c_bits in itertools.product(range(1, 4), repeat=2):
            for v_bits, u_bits in itertools.product(range(4), repeat=2):
                b, c = FVector(1, b_bits), FVector(1, c_bits)
                v, u = FVector(1, v_bits), FVector(1, u_bits)
                try:
                    collision_frequency(b, c, v, u, samples=1, seed=0)
                except ValueError:
                    continue
                assert collision_frequency_exhaustive(b, c, v, u) == Fraction(1, 4)
                cases += 1
        assert cases == 54
        rng = np.random.default_rng(5)
        tolerance = Fraction(13, 1000)
        done = 0
        while done < 5:
            b = FVector.from_digits(int(x) for x in rng.integers(0, 4, 2))
            c = FVector.from_digits(int(x) for x in rng.integers(0, 4, 2))
            v = FVector.from_digits(int(x) for x in rng.integers(0, 4, 3))
            u = FVector.from_digits(int(x) for x in rng.integers(0, 4, 3))
            try:
                freq = collision_frequency(b, c, v, u, samples=100_000, seed=100 + done)
            except ValueError:
                continue
            assert abs(freq - Fraction(1, 4)) <= tolerance
            done += 1


# -- 4 -----------------------------------------------------------------------


def test_criterion_4_random_scheme_success_rate(capsys):
    with criterion(capsys, 4, "random-scheme-success-rate"):
        for h in (1, 2):
            for n in (2, 4, 6, 8):
                m = max(3, math.ceil(math.log2(n + 1)))
                rng = np.random.default_rng(1000 * h + n)
                V = vec01_set(rng, m, n)
                ell = 2 * math.ceil(math.log2(n)) + 2 * h
                passes = sum(
                    all_pass(check_scheme(sample_scheme(seed, h, m, ell), V))
                    for seed in range(100)
                )
                assert passes >= 60, f"h={h} n={n}: {passes}/100"


# -- 5 -----------------------------------------------------------------------


def test_criterion_5_derandomization(capsys):
    with criterion(capsys, 5, "derandomization"):
        rng = np.random.default_rng(17)
        for trial in range(20):
            m = int(rng.integers(2, 5))
            h = int(rng.integers(1, 3))
            n = int(rng.integers(2, min(2**m, 5) + 1))
            V = vec01_set(rng, m, n)
            scheme, stats = derandomize_scheme(V, h, m)
            assert all_pass(check_scheme(scheme, V)), f"trial {trial}"
            assert stats.rounds <= ceil_log4(stats.n_constraints), (
                trial,
                stats,
            )

        mul_table = np.array(
            [[mul(x, y) for y in range(4)] for x in range(4)], dtype=np.uint8
        )
        rng = np.random.default_rng(23)
        for trial in range(1000):
            d = int(rng.integers(2, 11))
            n_rows = int(rng.integers(1, 10_001))
            C = rng.integers(0, 4, size=(n_rows, d), dtype=np.uint8)
            C = C[C.any(axis=1)]
            if C.shape[0] == 0:
                continue
            a = conditional_expectation_vector(C)
            a_digits = np.array(a.digits(), dtype=np.uint8)
            dots = np.bitwise_xor.reduce(mul_table[C, a_digits[None, :]], axis=1)
            zeros = int(np.count_nonzero(dots == 0))
            assert zeros <= C.shape[0] // 4, f"trial {trial}: {zeros} of {C.shape[0]}"
            if trial % 100 == 0 and C.shape[0] <= 300:
                cons = [FVector.from_digits(int(x) for x in row) for row in C]
                assert zero_dot_count(a, cons) == zeros


# -- 6 -----------------------------------------------------------------------


def _tiny_yes_cases(rng, count: int):
    for idx in range(count):
        k = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 3))
        m = int(rng.integers(3, 5))
        size = int(rng.integers(2, 4))
        inst, sel = solvable_instance(rng, k, m, size)
        scheme = sample_scheme(idx, 1, m, ell)
        yield build_csp(inst, scheme, k, 1, ell), sel


def test_criterion_6_csp_completeness(capsys):
    with criterion(capsys, 6, "csp-completeness"):
        rng = np.random.default_rng(29)
        for csp, sel in _tiny_yes_cases(rng, 20):
            assert verify_selection(csp.inst, sel)
            rep = evaluate(csp, honest_assignment(csp, sel))
            assert rep.c1_fraction == 1
            assert all(f == 1 for f in rep.c2_fraction_per_i)
            assert rep.c3_fraction == 1


# -- 7 -----------------------------------------------------------------------


def test_criterion_7_planted_clique_completeness(capsys):
    with criterion(capsys, 7, "planted-clique-completeness"):
        rng = np.random.default_rng(31)
        shapes = [(1, (1, 2, 4))] * 6 + [(2, (1, 16))] * 3
        for idx, (k, rs) in enumerate(shapes):
            inst, sel = solvable_instance(rng, k, 3, size=int(rng.integers(2, 4)))
            csp = build_csp(inst, sample_scheme(idx, 1, 3, 1), k, 1, 1)
            full = 4**k
            for r in rs:
                g = build_gap_graph(csp, r)
                planted = g.planted_clique(sel)
                assert len(planted) == full**2 + r * full == g.planted_size()
                if r == full:
                    assert len(planted) == 2 * full**2
                assert g.is_clique(planted).ok


# -- 8 -----------------------------------------------------------------------


def _separated_no_instance(rng, k: int, m: int, start_seed: int):
    """Unsolvable instance plus a scheme whose single row tells every
    reachable sum apart from the target; the gap graph then has no
    planted-size clique at all."""
    while True:
        sets = [vec01_set(rng, m, 2) for _ in range(k)]
        sums = {
            sum(combo[1:], combo[0])
            for combo in itertools.product(*sets)
        }
        candidates = [
            FVector(m, bits)
            for bits in range(4**m)
            if all(d in (0, 1) for d in FVector(m, bits).digits())
        ]
        target = next((t for t in candidates if t not in sums), None)
        if target is None:
            continue
        for seed in range(start_seed, start_seed + 500):
            scheme = sample_scheme(seed, 1, m, 1)
            row = scheme.mats[0]
            if all(not row.matvec(s + target).is_zero() for s in sums):
                inst = VectorSumInstance(sets, target)
                assert brute_force_vector_sum(inst) is None
                return build_csp(inst, scheme, k, 1, 1)


def test_criterion_8_soundness_probe(capsys):
    with criterion(capsys, 8, "soundness-probe"):
        rng = np.random.default_rng(37)
        for idx in range(12):
            csp = _separated_no_instance(rng, 1, 3, 1000 * idx)
            g = build_gap_graph(csp, 1)
            assert g.num_vertices == 272
            probe = soundness_probe(g, mode="exact")
            assert probe.verdict == "below", f"member {idx}: {probe.verdict}"
            assert probe.clique.exact
            assert probe.clique.upper_bound < g.planted_size()
        for idx in range(2):
            csp = _separated_no_instance(rng, 2, 3, 50_000 * (idx + 1))
            g = build_gap_graph(csp, 1)
            assert g.num_vertices == 4160
            probe = soundness_probe(g, mode="search", restarts=10_000, seed=idx)
            assert probe.verdict != "reached", f"member {idx} reached planted size"
            assert probe.clique.lower_bound < g.planted_size()


# -- 9 -----------------------------------------------------------------------


def _corruption_family(rng, n: int, ell: int, sizes_exhaustive, sampled: int, cap: int):
    """Corruption patterns [(tuple index, nonzero xor offset), ...]."""
    offsets = range(1, 4**ell)
    yield []
    if 1 in sizes_exhaustive:
        for t, e in itertools.product(range(n), offsets):
            yield [(t, e)]
    if 2 in sizes_exhaustive:
        for (t1, t2) in itertools.combinations(range(n), 2):
            for e1, e2 in itertools.product(offsets, repeat=2):
                yield [(t1, e1), (t2, e2)]
    for _ in range(sampled):
        size = int(rng.integers(2, cap + 1))
        points = rng.choice(n, size=size, replace=False)
        yield [(int(t), int(rng.integers(1, 4**ell))) for t in points]


def test_criterion_9_decode_agreement(capsys):
    with criterion(capsys, 9, "decode-agreement"):
        rng = np.random.default_rng(41)
        configs = [
            # (k, h, ell, m, exhaustive corruption sizes, extra sampled patterns)
            (2, 1, 1, 3, (1, 2), 0),
            (1, 2, 2, 3, (1,), 200),
            (3, 1, 1, 4, (1, 2), 0),
            (4, 1, 1, 5, (1,), 400),
        ]
        survivors_decoded = 0
        for cfg_idx, (k, h, ell, m, sizes, sampled) in enumerate(configs):
            inst, sel = solvable_instance(rng, k, m)
            csp = build_csp(inst, sample_scheme(cfg_idx, h, m, ell), k, h, ell)
            honest = honest_assignment(csp, sel)
            base = honest.values
            n = csp.num_vars
            idx = np.arange(n)
            xor_table = idx[:, None] ^ idx[None, :]
            for delta in (Fraction(1, 8), Fraction(1, 4)):
                threshold = 1 - delta / 2
                cap = max(2, (n * delta.numerator) // delta.denominator)
                for pattern in _corruption_family(rng, n, ell, sizes, sampled, cap):
                    vals = base.copy()
                    for t, e in pattern:
                        vals[t] ^= e
                    hits = int((vals[xor_table] == (vals[:, None] ^ vals[None, :])).sum())
                    c1 = Fraction(hits, n * n)
                    if c1 < threshold:
                        continue
                    a = honest
                    for t, e in pattern:
                        a = replace_value(a, t, FVector(ell, int(vals[t])))
                    if survivors_decoded % 37 == 0:
                        assert evaluate(csp, a).c1_fraction == c1
                    res = linearity_decode(csp, a)
                    assert res.agreement >= 1 - delta, (cfg_idx, delta, pattern)
                    survivors_decoded += 1
        # the premise is satisfiable by real corruptions, not only the
        # empty one, so the bound above was genuinely exercised
        assert survivors_decoded > 1000


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_strong_power_multiplicativity(capsys):
    with criterion(capsys, 10, "strong-power-multiplicativity"):
        rng = np.random.default_rng(43)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.integers(0, 2)
            ]
            g = ExplicitGraph.from_edges(n, edges)
            base = max_clique_exact(g)
            assert base.exact
            for t in (2, 3):
                powered = export_power(strong_power(g, t))
                rep = max_clique_exact(powered)
                assert rep.exact
                assert rep.lower_bound == base.lower_bound**t, (trial, t)


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_determinism(capsys, tmp_path):
    with criterion(capsys, 11, "determinism"):
        g = ExplicitGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        cfg = dict(k=1, h=1, ell=1, replication=2, seed=5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        bundle_a = run_pipeline(g, PipelineConfig(**cfg), out_dir=str(out_a))
        bundle_b = run_pipeline(g, PipelineConfig(**cfg), out_dir=str(out_b))
        assert bundle_a.report_text == bundle_b.report_text
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
