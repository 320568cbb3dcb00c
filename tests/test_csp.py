"""CSP layer tests.

The evaluation fast path is cross-checked by a plain Python recount that
walks the constraint definitions directly, and the decoding layer by
exhaustive candidate enumeration at tiny parameters.
"""

from __future__ import annotations

import io
import itertools
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
    SatReport,
    _nonlinear_part,
    build_csp,
    evaluate,
    honest_assignment,
    iter_tuples_lex,
    linearity_decode,
    read_assignment,
    write_assignment,
)
from gapforge.encoding import MAX_ELL, EncodingScheme, encode_f, encode_g, sample_scheme
from gapforge.errors import BudgetExceededError
from gapforge.field import FMat, FVector


def tiny_csp(target_text: str = "10", row=(1, 2)):
    """k=1, h=1, ell=1 instance: V_1 = {(1,0)}, configurable target."""
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text(target_text))
    scheme = EncodingScheme(1, 2, 1, (FMat.from_entries([row]),), "explicit")
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


def test_build_rejects_ell_over_width_limit():
    # values are packed into int64: ell = 32 is one over the width limit
    inst = VectorSumInstance([[FVector.from_text("10")]], FVector.from_text("10"))
    scheme = sample_scheme(0, h=1, m=2, ell=32)
    with pytest.raises(ValueError, match="MAX_ELL = 31"):
        build_csp(inst, scheme, 1, 1, 32)


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
    a = Assignment.zero(1, 1, 1)
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
            a = a.replace(t, FVector(1, int(rng.integers(0, 4))))
    rep = evaluate(csp, a)
    c1, c2, c3 = recount_fractions(csp, a)
    assert rep.c1_fraction == c1
    assert rep.c2_fraction_per_i == c2
    assert rep.c3_fraction == c3


def test_per_alpha_maps():
    csp = two_set_csp(ell=1, seed=9)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    rep = evaluate(csp, a)
    # aggregate consistency: per-i fraction is the alpha-average
    for i in range(csp.k):
        total = sum(rep.c2_fraction_per_i_alpha[(i, ap)] for ap in range(1, 4))
        # alpha = 0 contributes n satisfied constraints
        assert rep.c2_fraction_per_i[i] == (total + 1) / 4
    assert 0 not in rep.c3_fraction_per_alpha
    assert all(0 <= f <= 1 for f in rep.c3_fraction_per_alpha.values())


def test_evaluate_sampled_is_close_and_reported():
    csp = two_set_csp(ell=1, seed=9)
    a = Assignment.zero(2, 1, 1)
    exact = evaluate(csp, a)
    sampled = evaluate(csp, a, mode="sampled", count=4000, seed=1)
    assert not sampled.exact
    assert sampled.samples == 4000 and sampled.seed == 1
    assert abs(sampled.c1_fraction - exact.c1_fraction) < Fraction(1, 20)
    assert abs(sampled.c3_fraction - exact.c3_fraction) < Fraction(1, 20)


def test_evaluate_budget_guard():
    csp = tiny_csp()
    a = Assignment.zero(1, 1, 1)
    with pytest.raises(BudgetExceededError):
        evaluate(csp, a, budget=8)


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
    a = a.replace(5, FVector(1, original.bits ^ 2))
    res = linearity_decode(csp, a)
    assert res.agreement == Fraction(15, 16)
    chosen = [csp.inst.sets[i][sel.indices[i]] for i in range(csp.k)]
    assert res.components == tuple(encode_g(csp.scheme, v) for v in chosen)


def test_decode_zero_assignment():
    csp = two_set_csp(ell=1, seed=9)
    res = linearity_decode(csp, Assignment.zero(2, 1, 1))
    assert res.agreement == 1
    assert all(c.is_zero() for c in res.components)


def test_decode_budget_guard():
    csp = two_set_csp(ell=2)
    with pytest.raises(BudgetExceededError):
        linearity_decode(csp, Assignment.zero(2, 1, 2), budget=4)


def test_decode_sampled_mode():
    csp = two_set_csp(ell=1, seed=9)
    sel = brute_force_vector_sum(csp.inst)
    a = honest_assignment(csp, sel)
    res = linearity_decode(csp, a, mode="sampled", samples=8, seed=2)
    assert not res.exact
    assert res.agreement == 1


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


def test_tuple_lex_order():
    order = list(iter_tuples_lex(1, 2))
    # digit strings 00,01,...,33 in lexicographic (left digit first) order
    texts = [FVector(2, t).to_text() for t in order]
    assert texts == sorted(texts)
    assert len(order) == 16


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
    vals = np.array(a.values, dtype=np.int64)
    allowed = [[csp.allowed_diffs(i, ap) for ap in range(csp.num_alphas)] for i in range(csp.k)]
    if mode == "exhaustive":
        idx = np.arange(n)
        c1_hits = 0
        for s in range(n):
            c1_hits += int(np.count_nonzero((vals[s] ^ vals ^ vals[s ^ idx]) == 0))
        c2_map, c2_per_i = {}, []
        for i in range(csp.k):
            total = 0
            for ap in range(csp.num_alphas):
                diffs = vals[idx ^ csp.place(ap, i)] ^ vals
                hits = int(np.count_nonzero(np.isin(diffs, sorted(allowed[i][ap]))))
                total += hits
                if ap != 0:
                    c2_map[(i, ap)] = Fraction(hits, n)
            c2_per_i.append(Fraction(total, n * csp.num_alphas))
        c3_map, c3_hits = {}, 0
        for ap in range(csp.num_alphas):
            diffs = vals[idx ^ csp.diagonal(ap)] ^ vals
            hits = int(np.count_nonzero(diffs == csp.target_code(ap)))
            c3_hits += hits
            if ap != 0:
                c3_map[ap] = Fraction(hits, n)
        return SatReport(
            Fraction(c1_hits, n * n), tuple(c2_per_i),
            Fraction(c3_hits, n * csp.num_alphas), True,
            c2_fraction_per_i_alpha=c2_map, c3_fraction_per_alpha=c3_map,
        )
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
            hits += (a.values[t ^ csp.place(ap, i)] ^ a.values[t]) in allowed[i][ap]
        c2_per_i.append(Fraction(hits, count))
    t_s = rng.integers(0, n, count)
    a_s = rng.integers(0, csp.num_alphas, count)
    c3_hits = 0
    for t, ap in zip(t_s.tolist(), a_s.tolist()):
        c3_hits += (a.values[t ^ csp.diagonal(ap)] ^ a.values[t]) == csp.target_code(ap)
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
    corrupted."""
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
                corrupted = np.array(honest.values)
                hit = rng.random(n) < 0.1
                corrupted[hit] = rng.integers(0, top, int(hit.sum()))
                assignments += [honest, Assignment(k, h, ell, corrupted.tolist())]
                delta = FVector(ell, int(rng.integers(1, top)))
                basis = 1 << int(rng.integers(0, n.bit_length() - 1))
                for t in (n - 1, basis, 0):
                    assignments.append(honest.replace(t, honest.value(t) + delta))
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
    yield csp, [linear, linear.replace(5, FVector(ell, (1 << 62) - 1))]


def test_evaluate_and_honest_match_reference():
    checked = 0
    for csp, assignments in reference_corpus():
        for a in assignments:
            runs = [("exhaustive", 10_000, 0), ("sampled", 10_000, 3)]
            runs += [("sampled", count, seed) for count in (1, 7) for seed in (0, 5)]
            for mode, count, seed in runs:
                got = evaluate(csp, a, mode=mode, count=count, seed=seed)
                want = reference_evaluate(csp, a, mode=mode, count=count, seed=seed)
                assert got == want  # the per-alpha maps are compared too
                checked += 1
    assert checked > 250


def test_nonlinear_part_vanishes_on_basis_and_on_linear_assignments():
    for csp, assignments in reference_corpus():
        basis = [1 << j for j in range(csp.num_vars.bit_length() - 1)]
        for a in assignments:
            e = _nonlinear_part(np.array(a.values, dtype=np.int64))
            assert not e[basis].any() and e[0] == a.values[0]
            linear = evaluate(csp, a).c1_fraction == 1
            assert linear == (not e.any())
