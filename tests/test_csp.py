"""CSP layer tests.

The evaluation fast path is cross-checked by a plain Python recount that
walks the constraint definitions directly, and the decoding layer by
exhaustive candidate enumeration at tiny parameters.
"""

from __future__ import annotations

import io
import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gapforge.cliquered import (
    MulticolorGraph,
    SelectionCertificate,
    VectorSumInstance,
    brute_force_vector_sum,
    reduce_clique,
)
from gapforge.csp import (
    Assignment,
    CSPInstance,
    SatReport,
    nonlinear_part,
    build_csp,
    evaluate,
    honest_assignment,
    linearity_decode,
    read_assignment,
    write_assignment,
)
from gapforge.encoding import (
    MAX_ELL,
    EncodingScheme,
    derandomize_scheme,
    encode_g,
    sample_scheme,
)
from gapforge.errors import BudgetExceededError
from gapforge.explicit import ExplicitGraph
from gapforge.field import FVector
from gapforge.pipeline import plain_to_multicolor
from reference import (
    allowed_diffs,
    encode_f,
    from_entries,
    reference_decode,
    replace_value,
    target_code,
    zero_assignment,
)


def tiny_csp(target_text: str = "10", row=(1, 2)):
    """k=1, h=1, ell=1 instance: V_1 = {(1,0)}, configurable target."""
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (from_entries([row]),), "explicit")
    return build_csp(inst, scheme, k=1, h=1, ell=1)


def two_set_csp(ell: int = 2, seed: int = 3, h: int = 1):
    inst = VectorSumInstance(
        [
            [FVector.from_text("100"), FVector.from_text("010")],
            [FVector.from_text("001"), FVector.from_text("110")],
        ],
        FVector.from_text("101"),
    )
    scheme = sample_scheme(seed, h=h, m=3, ell=ell)
    return build_csp(inst, scheme, k=2, h=h, ell=ell)


def derandomized_csp(n: int, k: int, h: int):
    """The CSP of the derandomized pipeline on the complete graph K_n: on
    K3 at k = 2, h = 2 it has 4096 tuples and ell = 11, on K4 at k = 3,
    h = 1 it has 4096 tuples and ell = 42."""
    g = ExplicitGraph.from_edges(n, itertools.combinations(range(n), 2))
    inst = reduce_clique(plain_to_multicolor(g, k))
    scheme, _ = derandomize_scheme(inst.union(), h, inst.dim)
    return build_csp(inst, scheme, inst.num_sets, h, scheme.ell)


def recount_fractions(csp, a):
    """Independent constraint walk using only the public FVector API."""
    n = csp.num_vars
    c1 = sum(
        (a.value(s ^ t) == a.value(s) + a.value(t))
        for s in range(n)
        for t in range(n)
    )
    c2 = []
    for i in range(csp.k):
        hits = 0
        for t in range(n):
            for ap in range(csp.num_alphas):
                diff = a.value(t ^ csp.place(ap, i)) + a.value(t)
                allowed = {
                    encode_f(csp.scheme, FVector(csp.h, ap), v)
                    for v in csp.inst.sets[i]
                }
                hits += diff in allowed
        c2.append(Fraction(hits, n * csp.num_alphas))
    c3_hits = 0
    for t in range(n):
        for ap in range(csp.num_alphas):
            diff = a.value(t ^ csp.diagonal(ap)) + a.value(t)
            c3_hits += diff == encode_f(csp.scheme, FVector(csp.h, ap), csp.inst.target)
    return (
        Fraction(c1, n * n),
        tuple(c2),
        Fraction(c3_hits, n * csp.num_alphas),
    )


def test_variable_and_family_counts():
    csp = tiny_csp()
    assert csp.num_vars == 4
    csp2 = two_set_csp()
    assert csp2.num_vars == 16


def test_build_rejects_mismatches():
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    scheme = sample_scheme(0, h=1, m=3, ell=1)
    with pytest.raises(ValueError):
        build_csp(inst, scheme, 1, 1, 1)
    scheme2 = sample_scheme(0, h=1, m=2, ell=1)
    with pytest.raises(ValueError):
        build_csp(inst, scheme2, 2, 1, 1)


def test_build_accepts_ell_over_int64_width():
    # ell = 32 is one over the int64 width: the table holds Python ints
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    scheme = sample_scheme(0, h=1, m=2, ell=32)
    csp = build_csp(inst, scheme, 1, 1, 32)
    assert csp.allowed.dtype == object
    assert evaluate(csp, honest_assignment(csp, SelectionCertificate((0,)))).all_satisfied


def test_honest_assignment_zero_tuple_is_zero():
    csp = two_set_csp()
    a = honest_assignment(csp, SelectionCertificate((0, 0)))
    assert a.value(0).is_zero()


def test_honest_assignment_is_additive():
    csp = two_set_csp()
    a = honest_assignment(csp, SelectionCertificate((1, 0)))
    rng = np.random.default_rng(17)
    n = csp.num_vars
    for _ in range(1000):
        s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
        assert a.value(s ^ t) == a.value(s) + a.value(t)


def test_honest_assignment_formula():
    csp = two_set_csp()
    sel = SelectionCertificate((0, 1))
    a = honest_assignment(csp, sel)
    v1, v2 = csp.inst.sets[0][0], csp.inst.sets[1][1]
    for t in range(csp.num_vars):
        a1 = FVector(csp.h, csp.slot(t, 0))
        a2 = FVector(csp.h, csp.slot(t, 1))
        expected = encode_f(csp.scheme, a1, v1) + encode_f(csp.scheme, a2, v2)
        assert a.value(t) == expected


def test_honest_on_satisfying_selection_satisfies_everything():
    csp = two_set_csp()
    sel = brute_force_vector_sum(csp.inst)
    assert sel is not None
    rep = evaluate(csp, honest_assignment(csp, sel))
    assert rep.exact
    assert rep.all_satisfied


def test_honest_on_triangle_reduction_all_ones():
    g = MulticolorGraph(3, {1: 1, 2: 2, 3: 3}, [(1, 2), (1, 3), (2, 3)])
    inst = reduce_clique(g)
    sel = brute_force_vector_sum(inst)
    scheme = sample_scheme(11, h=1, m=inst.dim, ell=2)
    csp = build_csp(inst, scheme, inst.num_sets, 1, 2)
    rep = evaluate(csp, honest_assignment(csp, sel))
    assert rep.all_satisfied


def test_zero_assignment_fractions():
    csp = tiny_csp(target_text="01")
    a = zero_assignment(1, 1, 1)
    rep = evaluate(csp, a)
    assert rep.c1_fraction == 1
    # C3 holds exactly when f(alpha, t) = 0
    zero_alphas = sum(
        encode_f(csp.scheme, FVector(1, ap), csp.inst.target).is_zero()
        for ap in range(4)
    )
    assert rep.c3_fraction == Fraction(zero_alphas, 4)


def test_evaluate_matches_recount_on_corrupted_honest():
    rng = np.random.default_rng(23)
    csp = two_set_csp(ell=1, seed=9)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    for t in range(csp.num_vars):
        if rng.random() < 0.2:
            a = replace_value(a, t, FVector(1, int(rng.integers(0, 4))))
    rep = evaluate(csp, a)
    c1, c2, c3 = recount_fractions(csp, a)
    assert rep.c1_fraction == c1
    assert rep.c2_fraction_per_i == c2
    assert rep.c3_fraction == c3


def test_evaluate_sampled_is_close_and_reported():
    csp = two_set_csp(ell=1, seed=9)
    a = zero_assignment(2, 1, 1)
    exact = evaluate(csp, a)
    sampled = evaluate(csp, a, mode="sampled", count=4000, seed=1)
    assert not sampled.exact
    assert sampled.samples == 4000 and sampled.seed == 1
    assert abs(sampled.c1_fraction - exact.c1_fraction) < Fraction(1, 20)
    assert abs(sampled.c3_fraction - exact.c3_fraction) < Fraction(1, 20)


def seven_set_csp():
    """Seven one-vector sets (the unit vectors of F^7, target their sum),
    h = 1, ell = 2: 4^7 = 16,384 tuples, so the literal C1 family has
    4^14 constraints, while the C2/C3 tables need 8 * 4^7 * 4 checks."""
    units = [FVector.from_text("0" * i + "1" + "0" * (6 - i)) for i in range(7)]
    inst = VectorSumInstance([[u] for u in units], FVector.from_text("1" * 7))
    return build_csp(inst, sample_scheme(4, h=1, m=7, ell=2), k=7, h=1, ell=2)


def test_evaluate_is_guarded_by_its_work_not_the_c1_family_size():
    csp = seven_set_csp()
    rep = evaluate(csp, honest_assignment(csp, SelectionCertificate((0,) * 7)))
    assert rep.exact
    assert rep.all_satisfied


def test_evaluate_budget_guard(monkeypatch):
    csp = tiny_csp()
    a = zero_assignment(1, 1, 1)
    monkeypatch.setattr("gapforge.csp.EVALUATE_BUDGET", 8)
    with pytest.raises(BudgetExceededError):
        evaluate(csp, a)


@pytest.mark.parametrize("h, ell", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_decode_recovers_honest(h, ell):
    # ell >= 2 tells the blocks of each component apart, h = 2 the
    # coordinates within a block
    csp = two_set_csp(ell=ell, seed=9, h=h)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    res = linearity_decode(csp, a)
    assert res.exact
    assert res.agreement == 1
    chosen = [csp.inst.sets[i][sel.indices[i]] for i in range(csp.k)]
    assert res.components == tuple(encode_g(csp.scheme, v) for v in chosen)


def test_decode_corrupted_honest_still_recovers():
    # one tuple in sixteen overwritten: same components, agreement 15/16
    csp = two_set_csp(ell=1, seed=9)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    original = a.value(5)
    a = replace_value(a, 5, FVector(1, original.bits ^ 2))
    res = linearity_decode(csp, a)
    assert res.agreement == Fraction(15, 16)
    chosen = [csp.inst.sets[i][sel.indices[i]] for i in range(csp.k)]
    assert res.components == tuple(encode_g(csp.scheme, v) for v in chosen)


def test_decode_zero_assignment():
    csp = two_set_csp(ell=1, seed=9)
    res = linearity_decode(csp, zero_assignment(2, 1, 1))
    assert res.agreement == 1
    assert all(c.is_zero() for c in res.components)


def test_decode_budget_guard(monkeypatch):
    csp = two_set_csp(ell=2)
    monkeypatch.setattr("gapforge.csp.DECODE_BUDGET", 4)
    with pytest.raises(BudgetExceededError):
        linearity_decode(csp, zero_assignment(2, 1, 2))


def test_decode_budget_message_past_4300_digits():
    # k=h=1, ell=7200: 4^7200 candidates per tuple, a count str() refuses to write
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    csp = build_csp(inst, sample_scheme(0, h=1, m=2, ell=7200), k=1, h=1, ell=7200)
    a = honest_assignment(csp, brute_force_vector_sum(inst))
    entries = Decimal(4**7200 * csp.num_vars)
    with pytest.raises(BudgetExceededError, match=f"decode table would have {entries} entries"):
        linearity_decode(csp, a)


def test_decode_sampled_mode():
    csp = two_set_csp(ell=1, seed=9)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    res = linearity_decode(csp, a, mode="sampled", samples=8, seed=2)
    assert not res.exact
    assert res.agreement == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_decode_sampled_refuses_fewer_than_one_sample(samples):
    # as evaluate does, not with numpy's reshape or negative-dimension message
    csp = two_set_csp(ell=1, seed=9)
    a = honest_assignment(csp, brute_force_vector_sum(csp.inst))
    with pytest.raises(ValueError, match="^need at least one sample$"):
        linearity_decode(csp, a, mode="sampled", samples=samples)


@pytest.mark.parametrize(
    "k, h, ell", [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1)]
)
def test_decode_tie_break_matches_reference(k, h, ell):
    # random assignments tie often, exactly and on one to three samples;
    # the winner must be the first maximum in lexicographic digit order
    inst = VectorSumInstance([[FVector.unit(k, i)] for i in range(k)], FVector(k, 0))
    csp = build_csp(inst, sample_scheme(k, h=h, m=k, ell=ell), k=k, h=h, ell=ell)
    rng = np.random.default_rng([k, h, ell])
    runs = [("exact", 4096)] * 4 + [("sampled", s) for s in (1, 2, 3) * 2]
    ties = 0
    for seed, (mode, samples) in enumerate(runs):
        a = Assignment(k, h, ell, rng.integers(0, 4**ell, csp.num_vars))
        res = linearity_decode(csp, a, mode=mode, samples=samples, seed=seed)
        components, agreement, tied = reference_decode(csp, a, mode, samples, seed)
        assert (res.components, res.agreement) == (components, agreement), (mode, seed)
        ties += tied > 1
    assert ties >= 2


def test_trichotomy_at_k1_h1_ell1():
    """Exhaustive assignment sweep: yes-instances admit a perfect
    assignment, no-instances always violate one of the three families."""
    yes = tiny_csp(target_text="10")  # t = v
    no = tiny_csp(target_text="01")  # a*(v+t) != 0 for row (1, w)
    for csp, expect_perfect in ((yes, True), (no, False)):
        perfect_found = False
        for values in itertools.product(range(4), repeat=4):
            a = Assignment(1, 1, 1, values)
            rep = evaluate(csp, a)
            u1 = 1 - rep.c1_fraction
            u2 = max(1 - f for f in rep.c2_fraction_per_i)
            u3 = 1 - rep.c3_fraction
            if u1 == 0 and u2 == 0 and u3 == 0:
                perfect_found = True
        assert perfect_found == expect_perfect


def test_assignment_file_roundtrip():
    csp = two_set_csp(ell=2)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    buf = io.StringIO()
    write_assignment(csp, a, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == csp.num_vars
    keys = [ln.split()[0] for ln in lines]
    assert keys == sorted(keys)
    buf.seek(0)
    assert read_assignment(buf, 2, 1, 2) == a


def test_assignment_file_rejects_partial():
    with pytest.raises(ValueError):
        read_assignment(io.StringIO("00 0\n"), 1, 1, 1)


def test_assignment_file_skips_every_hash_comment():
    text = "#x\n" + "".join(f"  # tuple {t}\n{t} 1\n" for t in "0123")
    assert list(read_assignment(io.StringIO(text), 1, 1, 1).values) == [1, 1, 1, 1]


_OUT_OF_RANGE = "packed value out of range for ell"


@pytest.mark.parametrize(
    "ell, values, error",
    [
        (1, [0, 1, 2], "need one value per tuple"),
        (1, [0, 1, 2, -1], _OUT_OF_RANGE),
        (1, [0, 1, 2, 4], _OUT_OF_RANGE),
        (1, [0, 1, 2, 2**63], _OUT_OF_RANGE),
        (1, [0, 1, 2, 2**80], _OUT_OF_RANGE),
        (40, [0, 1, 2, 4**40], _OUT_OF_RANGE),
        (40, [0, 1, 2, 3], None),
        (1, (0, 1, 2, 3), None),
        (1, np.arange(4), None),
        (1, list(np.arange(4)), None),
    ],
    ids=[
        "short", "negative", "4-at-ell-1", "2**63", "2**80", "4**40-at-ell-40",
        "wide", "tuple", "ndarray", "numpy-scalars",
    ],
)
def test_assignment_checks_and_holds_one_read_only_array(ell, values, error):
    # an out-of-range value is one ValueError, never an OverflowError from
    # the int64 conversion; a valid one is copied once into the table's
    # dtype, read-only, and never aliases the caller's array
    if error:
        with pytest.raises(ValueError, match=error):
            Assignment(1, 1, ell, values)
        return
    a = Assignment(1, 1, ell, values)
    assert a.values.dtype == (np.int64 if ell <= MAX_ELL else object)
    assert a.values.shape == (4,) and a.values.tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="read-only"):
        a.values[0] = 1
    if isinstance(values, np.ndarray):
        assert values.flags.writeable and not np.shares_memory(values, a.values)


# -- reference: the per-alpha isin / per-sample loop evaluate -----------------


def reference_honest_assignment(csp, sel):
    """Per-tuple loop over per-slot tables of f(alpha, v_i)."""
    tables = []
    for i, idx in enumerate(sel.indices):
        v = csp.inst.sets[i][idx]
        tables.append(
            [encode_f(csp.scheme, FVector(csp.h, a), v).bits for a in range(csp.num_alphas)]
        )
    values = []
    for t in range(csp.num_vars):
        acc = 0
        for i in range(csp.k):
            acc ^= tables[i][csp.slot(t, i)]
        values.append(acc)
    return Assignment(csp.k, csp.h, csp.ell, values)


def reference_evaluate(csp, a, mode="exhaustive", count=10_000, seed=0):
    """Exhaustive mode checks one alpha at a time with np.isin; sampled mode
    walks the samples in Python."""
    n = csp.num_vars
    vals = np.array(a.values, dtype=np.int64 if csp.ell <= MAX_ELL else object)
    allowed = [[allowed_diffs(csp, i, ap) for ap in range(csp.num_alphas)] for i in range(csp.k)]
    if mode == "exhaustive":
        idx = np.arange(n)
        c1_hits = 0
        for s in range(n):
            c1_hits += int(np.count_nonzero((vals[s] ^ vals ^ vals[s ^ idx]) == 0))
        c2_per_i = []
        for i in range(csp.k):
            total = 0
            for ap in range(csp.num_alphas):
                diffs = vals[idx ^ csp.place(ap, i)] ^ vals
                total += int(np.count_nonzero(np.isin(diffs, sorted(allowed[i][ap]))))
            c2_per_i.append(Fraction(total, n * csp.num_alphas))
        c3_hits = 0
        for ap in range(csp.num_alphas):
            diffs = vals[idx ^ csp.diagonal(ap)] ^ vals
            c3_hits += int(np.count_nonzero(diffs == target_code(csp, ap)))
        return SatReport(
            Fraction(c1_hits, n * n), tuple(c2_per_i),
            Fraction(c3_hits, n * csp.num_alphas), True,
        )
    py_vals = a.values.tolist()  # the sampled loops index one Python int at a time
    rng = np.random.default_rng(seed)
    s_idx = rng.integers(0, n, count)
    t_idx = rng.integers(0, n, count)
    c1_hits = int(np.count_nonzero((vals[s_idx] ^ vals[t_idx] ^ vals[s_idx ^ t_idx]) == 0))
    c2_per_i = []
    for i in range(csp.k):
        t_s = rng.integers(0, n, count)
        a_s = rng.integers(0, csp.num_alphas, count)
        hits = 0
        for t, ap in zip(t_s.tolist(), a_s.tolist()):
            hits += (py_vals[t ^ csp.place(ap, i)] ^ py_vals[t]) in allowed[i][ap]
        c2_per_i.append(Fraction(hits, count))
    t_s = rng.integers(0, n, count)
    a_s = rng.integers(0, csp.num_alphas, count)
    c3_hits = 0
    for t, ap in zip(t_s.tolist(), a_s.tolist()):
        c3_hits += (py_vals[t ^ csp.diagonal(ap)] ^ py_vals[t]) == target_code(csp, ap)
    return SatReport(
        Fraction(c1_hits, count), tuple(c2_per_i), Fraction(c3_hits, count), False,
        samples=count, seed=seed,
    )


def reference_corpus():
    """Seeded CSPs over k' in {1, 2, 3, 6}, h in {1, 2}, ell 1-3, each with
    a random assignment, plus the honest assignment of a selection and
    copies of it with 10% of the tuples corrupted, with one non-basis
    tuple corrupted, with one basis tuple 2^j corrupted, and with x_0 != 0.
    Half the targets are the selection's sum (the honest assignment
    satisfies everything); every third instance has an empty set and only
    the random assignment.  Last, a CSP at ell = MAX_ELL with a linear
    assignment whose values sit near 2^62 and a copy with one tuple
    corrupted, and one at ell = 40, over the int64 width, with the same two
    assignments near 2^80, its honest assignment and a random one."""
    rng = np.random.default_rng(2024)
    for case, (k, h) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (6, 1)]):
        for ell in (1, 2, 3):
            m = int(rng.integers(2, 5))
            pool = [FVector.from_digits(d) for d in itertools.product((0, 1), repeat=m)]
            sets = [
                [pool[j] for j in rng.choice(len(pool), int(rng.integers(1, 4)), replace=False)]
                for _ in range(k)
            ]
            sel = tuple(int(rng.integers(0, len(s))) for s in sets)
            target = FVector(m, 0)
            for s, j in zip(sets, sel):
                target = target + s[j]
            if (case + ell) % 2:
                target = FVector(m, int(rng.integers(0, 4**m)))
            empty = (case + ell) % 3 == 0
            if empty:
                sets[int(rng.integers(0, k))] = []
            scheme = sample_scheme(int(rng.integers(0, 1 << 30)), h=h, m=m, ell=ell)
            csp = build_csp(VectorSumInstance(sets, target), scheme, k, h, ell)
            n, top = csp.num_vars, 4**ell
            assignments = [Assignment(k, h, ell, rng.integers(0, top, n).tolist())]
            if not empty:
                honest = honest_assignment(csp, SelectionCertificate(sel))
                assert honest == reference_honest_assignment(csp, SelectionCertificate(sel))
                corrupted = honest.values.copy()
                hit = rng.random(n) < 0.1
                corrupted[hit] = rng.integers(0, top, int(hit.sum()))
                assignments += [honest, Assignment(k, h, ell, corrupted)]
                delta = FVector(ell, int(rng.integers(1, top)))
                basis = 1 << int(rng.integers(0, n.bit_length() - 1))
                for t in (n - 1, basis, 0):
                    assignments.append(replace_value(honest, t, honest.value(t) + delta))
            yield csp, assignments
    ell = MAX_ELL
    scheme = sample_scheme(int(rng.integers(0, 1 << 30)), h=1, m=2, ell=ell)
    inst = VectorSumInstance([[FVector.from_text("10")], [FVector.from_text("01")]],
                             FVector.from_text("11"))
    csp = build_csp(inst, scheme, 2, 1, ell)
    images = rng.integers(1 << 61, 1 << 62, csp.num_vars.bit_length() - 1).tolist()
    linear = [0] * csp.num_vars
    for t in range(csp.num_vars):
        for j, image in enumerate(images):
            if t >> j & 1:
                linear[t] ^= image
    linear = Assignment(2, 1, ell, linear)
    yield csp, [linear, replace_value(linear, 5, FVector(ell, (1 << 62) - 1))]
    ell = 40
    scheme = sample_scheme(int(rng.integers(0, 1 << 30)), h=1, m=2, ell=ell)
    csp = build_csp(inst, scheme, 2, 1, ell)
    sel = SelectionCertificate((0, 0))
    honest = honest_assignment(csp, sel)
    assert honest == reference_honest_assignment(csp, sel)
    assert max(honest.values) >> 63  # the values need more than int64
    wide = [int(x) << 18 | int(y) for x, y in rng.integers(1 << 61, 1 << 62, (csp.num_vars, 2))]
    linear = [0] * csp.num_vars
    for t in range(csp.num_vars):
        for j in range(csp.num_vars.bit_length() - 1):
            if t >> j & 1:
                linear[t] ^= wide[j]
    linear = Assignment(2, 1, ell, linear)
    yield csp, [honest, Assignment(2, 1, ell, wide), linear,
                replace_value(linear, 5, FVector(ell, (1 << 80) - 1))]


def test_evaluate_and_honest_match_reference():
    checked = 0
    for csp, assignments in reference_corpus():
        for a in assignments:
            runs = [("exhaustive", 10_000, 0), ("sampled", 10_000, 3)]
            runs += [("sampled", count, seed) for count in (1, 7) for seed in (0, 5)]
            for mode, count, seed in runs:
                got = evaluate(csp, a, mode=mode, count=count, seed=seed)
                want = reference_evaluate(csp, a, mode=mode, count=count, seed=seed)
                assert got == want  # every per-family Fraction
                checked += 1
    assert checked > 250


def test_nonlinear_part_vanishes_on_basis_and_on_linear_assignments():
    for csp, assignments in reference_corpus():
        basis = [1 << j for j in range(csp.num_vars.bit_length() - 1)]
        for a in assignments:
            e = nonlinear_part(a.values)
            assert not e[basis].any() and e[0] == a.values[0]
            linear = evaluate(csp, a).c1_fraction == 1
            assert linear == (not e.any())


def test_honest_assignments_are_linear():
    # the premise of both completeness checks: f(a, v) is linear in a, so
    # x_t = f(t_1, v_1) + ... + f(t_k, v_k) is GF(2)-linear in the packed
    # tuple t, satisfying selection or not
    csps = [csp for csp, _ in reference_corpus()]
    csps += [derandomized_csp(3, 2, 2), derandomized_csp(4, 3, 1)]
    assert csps[-1].ell == 42
    rng = np.random.default_rng(38)
    checked = 0
    for csp in csps:
        sizes = [len(s) for s in csp.inst.sets]
        if not all(sizes):
            continue
        sels = [brute_force_vector_sum(csp.inst)]
        sels += [SelectionCertificate(tuple(map(int, rng.integers(0, sizes)))) for _ in range(16)]
        for sel in filter(None, sels):
            assert not nonlinear_part(honest_assignment(csp, sel).values).any(), sel
            checked += 1
    assert checked >= 300


def test_exhaustive_evaluate_of_an_honest_assignment_checks_one_row_per_family(monkeypatch):
    # an honest assignment is its linear part, so each family checks the
    # 4^h differences L[p(alpha)] once rather than every (t, alpha)
    csp = derandomized_csp(3, 2, 2)
    sizes = []
    c2_ok = CSPInstance.c2_ok

    def counted(self, row, diff):
        sizes.append(np.broadcast(row, diff).size)
        return c2_ok(self, row, diff)

    monkeypatch.setattr(CSPInstance, "c2_ok", counted)
    assert evaluate(csp, honest_assignment(csp, brute_force_vector_sum(csp.inst))).all_satisfied
    assert sizes and max(sizes) <= csp.num_alphas == 16
