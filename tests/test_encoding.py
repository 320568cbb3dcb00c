"""Encoding layer tests.

Oracles: encode_f is re-derived from encode_g through block_linear; the
rank-one agreement frequency has an exact exhaustive counterpart; the
conditional-expectations guarantee is an arithmetic inequality checked
over random batches; derandomized schemes are fed back through the
independent condition checker.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.encoding import (
    EncodingScheme,
    check_scheme,
    conditional_expectation_vector,
    derandomize_projections,
    derandomize_scheme,
    encode_f,
    encode_g,
    collision_frequency,
    collision_frequency_exhaustive,
    read_scheme,
    sample_scheme,
    write_scheme,
    zero_dot_count,
)
from gapforge.errors import BudgetExceededError
from gapforge.field import FMat, FVector, block_linear


def random_vector(rng, dim: int) -> FVector:
    return FVector.from_digits(int(x) for x in rng.integers(0, 4, dim))


def test_sample_scheme_deterministic():
    a = sample_scheme(42, h=2, m=3, ell=4)
    b = sample_scheme(42, h=2, m=3, ell=4)
    assert a == b
    c = sample_scheme(43, h=2, m=3, ell=4)
    assert a != c
    assert a.provenance == "seeded-random(seed=42)"


def test_sample_scheme_digit_frequencies():
    # top-two-bit extraction should be close to uniform
    s = sample_scheme(7, h=4, m=25, ell=40)
    counts = [0] * 4
    for A in s.mats:
        for row in A.rows:
            for d in row.digits():
                counts[d] += 1
    total = sum(counts)
    assert total == 4 * 25 * 40
    for c in counts:
        assert abs(c / total - 0.25) < 0.02


def test_encode_f_matches_blockwise_g():
    rng = np.random.default_rng(21)
    for _ in range(50):
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        ell = int(rng.integers(1, 5))
        s = sample_scheme(int(rng.integers(0, 2**32)), h, m, ell)
        v = random_vector(rng, m)
        a = random_vector(rng, h)
        assert encode_f(s, a, v) == block_linear(a, encode_g(s, v))


def test_encode_g_concatenates_matvecs():
    s = sample_scheme(1, h=2, m=2, ell=3)
    v = FVector.from_text("12")
    g = encode_g(s, v)
    for i, A in enumerate(s.mats):
        assert g.slice(2 * i, 2 * i + 2) == A.matvec(v)


def test_encode_f_additive_in_v():
    rng = np.random.default_rng(22)
    s = sample_scheme(9, h=2, m=3, ell=4)
    a = random_vector(rng, 2)
    v, u = random_vector(rng, 3), random_vector(rng, 3)
    assert encode_f(s, a, v + u) == encode_f(s, a, v) + encode_f(s, a, u)


# -- condition checks -----------------------------------------------------


def test_projection_scheme_is_injective():
    mats = derandomize_projections(6, h=2)
    s = EncodingScheme(2, 6, 3, tuple(mats), "explicit")
    # difference (1,0 | 0,1 | 0,0) has blocks spanning F^2, so the
    # selectors separate this pair for every nonzero contraction
    V = [FVector.from_text("100000"), FVector.from_text("000100")]
    rep = check_scheme(s, V)
    assert rep.cond_injective
    assert rep.cond_separating
    # but a pair whose difference blocks only span one dimension is not
    # separated: alpha orthogonal to that line collapses both
    V2 = [FVector.from_text("110000"), FVector.from_text("001100")]
    rep2 = check_scheme(s, V2)
    assert rep2.cond_injective
    assert not rep2.cond_separating


def test_injectivity_failure_produces_kernel_witness():
    # single 1x2 matrix (1, w): rank 1 < m = 2
    s = EncodingScheme(1, 2, 1, (FMat.from_entries([[1, 2]]),), "explicit")
    rep = check_scheme(s, [FVector.from_text("10")])
    assert not rep.cond_injective
    assert rep.witness is not None and rep.witness.condition == "injective"
    ker = rep.witness.vectors[0]
    assert not ker.is_zero()
    assert s.mats[0].matvec(ker).is_zero()


def test_separation_failure_witness():
    # zero matrix cannot separate anything
    s = EncodingScheme(1, 2, 1, (FMat.from_entries([[0, 0]]),), "explicit")
    V = [FVector.from_text("10"), FVector.from_text("01")]
    rep = check_scheme(s, V)
    assert not rep.cond_separating
    w = rep.witness
    assert w is not None and w.condition == "injective"  # rank 0 fails first
    rep_vectors_only = check_scheme(
        EncodingScheme(
            1, 2, 2,
            (FMat.from_entries([[1, 1]]), FMat.from_entries([[1, 1]])),
            "explicit",
        ),
        V,
    )
    # rank deficient and (1,1).(1,1)... f(a, v) = a*(v1+v2): v=(1,0), u=(0,1) collide
    assert not rep_vectors_only.cond_separating


def test_self_correction_failure_at_ell1_with_three_vectors():
    # with one matrix row a, f(alpha, x) = alpha * <a, x> is a scalar;
    # three distinct differences force a collision of nonzero scalars
    s = EncodingScheme(1, 3, 1, (FMat.from_entries([[1, 1, 1]]),), "explicit")
    V = [FVector.from_text("100"), FVector.from_text("010"), FVector.from_text("001")]
    rep = check_scheme(s, V)
    assert not rep.cond_self_correcting


def test_check_scheme_witness_collides():
    # whenever a witness is reported, replaying it reproduces the failure
    rng = np.random.default_rng(31)
    seen_some_failure = False
    for seed in range(40):
        h, m = 1, 3
        V = []
        while len(V) < 4:
            v = random_vector(rng, m)
            if v not in V:
                V.append(v)
        s = sample_scheme(seed, h, m, ell=2)
        rep = check_scheme(s, V)
        if rep.all_pass:
            assert rep.witness is None
            continue
        seen_some_failure = True
        w = rep.witness
        if w.condition == "injective":
            assert encode_g(s, w.vectors[0]).is_zero()
        elif w.condition == "separating":
            (a,) = w.alphas
            v, u = w.vectors
            assert v != u
            assert encode_f(s, a, v) == encode_f(s, a, u)
        else:
            a, ap = w.alphas
            v, u, ww = w.vectors
            assert v != u and v != ww and u != ww
            assert encode_f(s, a, v + ww) == encode_f(s, ap, u + ww)
    assert seen_some_failure


def test_random_schemes_pass_at_recommended_width():
    # ell = 2*ceil(log2 n) + 2h passes all three conditions well over
    # half the time at desk scale.  Test sets are 0/1 vectors (the
    # domain the reduction produces); over full GF(4) sets condition
    # three can be structurally unsatisfiable via scalar-aligned triples.
    rng = np.random.default_rng(77)
    passes = 0
    trials = 60
    for seed in range(trials):
        h, n, m = 1, 6, 3
        V = tiny_instance_sets(rng, m, n)
        ell = 2 * math.ceil(math.log2(n)) + 2 * h
        s = sample_scheme(seed, h, m, ell)
        if check_scheme(s, V).all_pass:
            passes += 1
    assert passes >= trials * 0.6


def test_check_scheme_budget():
    s = sample_scheme(0, h=3, m=2, ell=2)
    V = [FVector.from_text("10"), FVector.from_text("01")]
    with pytest.raises(BudgetExceededError):
        check_scheme(s, V, budget=10)


def test_rank_deficiency_of_random_schemes_is_rare():
    # at ell*h = 3 rows and m = 2 columns the exact rank-deficiency rate
    # is 316/4096 ~ 7.7%; over seeds it stays safely below 1/10 + noise
    failures = 0
    trials = 400
    for seed in range(trials):
        s = sample_scheme(seed, h=1, m=2, ell=3)
        if not check_scheme(s, [FVector.from_text("10")]).cond_injective:
            failures += 1
    assert failures / trials < 0.10 + 3 * math.sqrt(0.077 * 0.923 / trials)


# -- rank-one agreement frequency ------------------------------------------


def test_collision_exhaustive_scalar_case():
    # h = m = 1: exactly one matrix in four agrees
    b = FVector.from_text("1")
    c = FVector.from_text("1")
    v = FVector.from_text("1")
    u = FVector.from_text("0")
    assert collision_frequency_exhaustive(b, c, v, u) == Fraction(1, 4)


def test_collision_exhaustive_matches_quarter_on_valid_inputs():
    rng = np.random.default_rng(41)
    found = 0
    while found < 12:
        h = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        b, c = random_vector(rng, h), random_vector(rng, h)
        v, u = random_vector(rng, m), random_vector(rng, m)
        try:
            freq = collision_frequency_exhaustive(b, c, v, u)
            collision_frequency(b, c, v, u, samples=1, seed=0)  # validity gate
        except ValueError:
            continue
        assert freq == Fraction(1, 4)
        found += 1


def test_collision_monte_carlo_concentrates():
    b = FVector.from_text("12")
    c = FVector.from_text("10")
    v = FVector.from_text("110")
    u = FVector.from_text("011")
    freq = collision_frequency(b, c, v, u, samples=100_000, seed=5)
    sigma = math.sqrt(0.25 * 0.75 / 100_000)
    assert abs(freq - Fraction(1, 4)) < 3 * sigma


def test_collision_degenerate_inputs():
    b = FVector.from_text("1")
    v = FVector.from_text("10")
    with pytest.raises(ValueError):
        collision_frequency(b, b, v, v, samples=10, seed=0)
    # measured anyway when validation is waived: identical forms agree always
    assert collision_frequency(b, b, v, v, samples=100, seed=0, require_valid=False) == 1
    with pytest.raises(ValueError):
        collision_frequency(FVector.zeros(1), b, v, v + v, samples=10, seed=0)


# -- conditional expectations ----------------------------------------------


def test_conditional_expectation_single_constraint():
    a = conditional_expectation_vector([FVector.from_text("1")])
    assert a == FVector.from_text("1")
    assert zero_dot_count(a, [FVector.from_text("1")]) == 0


def test_conditional_expectation_identical_constraints():
    cons = [FVector.from_text("11")] * 4
    a = conditional_expectation_vector(cons)
    assert zero_dot_count(a, cons) <= 1
    # ties resolve to the smallest digit: coordinate 0 is free, stays 0
    assert a[0] == 0


def test_conditional_expectation_rejects_zero_rows():
    with pytest.raises(ValueError):
        conditional_expectation_vector([FVector.from_text("00")])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31), st.integers(1, 60), st.integers(1, 6))
def test_conditional_expectation_quarter_guarantee(seed, n, d):
    rng = np.random.default_rng(seed)
    C = rng.integers(0, 4, size=(n, d), dtype=np.uint8)
    keep = C.any(axis=1)
    C = C[keep]
    if C.shape[0] == 0:
        return
    a = conditional_expectation_vector(C)
    cons = [FVector.from_digits(int(x) for x in row) for row in C]
    assert zero_dot_count(a, cons) <= C.shape[0] // 4


def test_conditional_expectation_array_and_fvector_paths_agree():
    rng = np.random.default_rng(55)
    C = rng.integers(1, 4, size=(20, 5), dtype=np.uint8)
    as_vectors = [FVector.from_digits(int(x) for x in row) for row in C]
    assert conditional_expectation_vector(C) == conditional_expectation_vector(as_vectors)


# -- derandomization --------------------------------------------------------


def test_derandomize_projections_shape():
    mats = derandomize_projections(6, 2)
    assert len(mats) == 3
    v = FVector.from_text("012301")
    chopped = [A.matvec(v) for A in mats]
    assert chopped[0].to_text() == "01"
    assert chopped[1].to_text() == "23"
    assert chopped[2].to_text() == "01"


def tiny_instance_sets(rng, m: int, n: int) -> list[FVector]:
    V: list[FVector] = []
    while len(V) < n:
        v = FVector.from_digits(int(x) for x in rng.integers(0, 2, m))
        if v not in V:
            V.append(v)
    return V


def test_derandomize_scheme_passes_checker():
    rng = np.random.default_rng(60)
    for trial in range(8):
        m = int(rng.integers(2, 5))
        h = int(rng.integers(1, 3))
        n = int(rng.integers(2, min(2**m, 5) + 1))
        V = tiny_instance_sets(rng, m, n)
        scheme, stats = derandomize_scheme(V, h, m)
        assert scheme.provenance == "derandomized"
        rep = check_scheme(scheme, V)
        assert rep.all_pass, f"trial {trial}: witness {rep.witness}"
        assert stats.rounds <= math.ceil(math.log(stats.n_constraints + 1, 4))


def test_derandomize_scheme_counts_constraints():
    # n vectors, q = 4^h - 1 nonzero contractions:
    # separating: q * C(n,2); self-correcting: n * C((n-1)*q... pairs with
    # distinct base vectors: q^2 * C(n-1, 2) per w
    V = tiny_instance_sets(np.random.default_rng(61), 3, 4)
    _, stats = derandomize_scheme(V, h=1, m=3)
    n, q = 4, 3
    expected = q * (n * (n - 1) // 2) + n * q * q * ((n - 1) * (n - 2) // 2)
    assert stats.n_constraints == expected


def test_derandomize_detects_unachievable_self_correction():
    # u + w = v + w is impossible for distinct u, v; force the scalar case
    # with non-0/1 vectors: u+w = w*(v+w)
    w = FVector.from_text("00")
    v = FVector.from_text("10")
    u = FVector.from_text("20")  # u = w * v
    with pytest.raises(ValueError):
        derandomize_scheme([w, v, u], h=1, m=2)


def test_scheme_file_roundtrip():
    s = sample_scheme(99, h=2, m=4, ell=3)
    buf = io.StringIO()
    write_scheme(s, buf)
    buf.seek(0)
    assert read_scheme(buf) == s


def test_scheme_file_rejects_malformed():
    with pytest.raises(ValueError):
        read_scheme(io.StringIO("not a scheme\n"))
    with pytest.raises(ValueError):
        read_scheme(io.StringIO("scheme 1 2 2 explicit\n01\n"))


# scheme text built from header and row tokens reaches every branch of
# the parser far more often than uniform text would
_scheme_token = st.sampled_from(
    ["scheme", "#", "explicit", "-1", "0", "1", "2", "3", "01", "10", "x"]
)
_scheme_line = st.one_of(
    st.lists(_scheme_token, max_size=6).map(" ".join), st.text(max_size=12)
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_scheme_line, max_size=8))
def test_scheme_text_parses_or_raises_value_error(lines):
    try:
        scheme = read_scheme(io.StringIO("\n".join(lines)))
    except ValueError:
        return
    assert isinstance(scheme, EncodingScheme)
