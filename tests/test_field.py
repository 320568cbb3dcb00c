"""Field layer tests.

The multiplication table oracle is computed here independently, by
explicit polynomial arithmetic over GF(2) followed by reduction mod
x^2 + x + 1, and every packed-vector operation is checked against a
digit-by-digit reference.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import field
from gapforge.field import (
    FMat,
    FVector,
    outer,
    rank_and_kernel,
)
from reference import add, block_linear, concat, dist, entry, from_entries, mul


def oracle_mul(a: int, b: int) -> int:
    # polynomials: digit d = (d & 1) + (d >> 1) x
    coeffs = [0, 0, 0]
    for i in range(2):
        for j in range(2):
            coeffs[i + j] ^= ((a >> i) & 1) & ((b >> j) & 1)
    # x^2 = x + 1
    if coeffs[2]:
        coeffs[0] ^= 1
        coeffs[1] ^= 1
    return coeffs[0] | (coeffs[1] << 1)


def ref_dot(v: FVector, u: FVector) -> int:
    acc = 0
    for a, b in zip(v.digits(), u.digits()):
        acc ^= oracle_mul(a, b)
    return acc


def test_mul_table_matches_polynomial_oracle():
    for a in range(4):
        for b in range(4):
            assert mul(a, b) == oracle_mul(a, b)


def test_field_axioms_exhaustive():
    els = range(4)
    for a in els:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, a) == 0, "characteristic 2"
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(
                    mul(a, b), mul(a, c)
                )
    for a in range(1, 4):
        assert mul(a, field.inv(a)) == 1


def test_nonzero_elements_cyclic_of_order_three():
    w = 2
    assert mul(w, w) == 3
    assert mul(mul(w, w), w) == 1


def test_packing_roundtrip():
    for digits in itertools.product(range(4), repeat=5):
        v = FVector.from_digits(digits)
        assert v.digits() == digits
        assert FVector.from_text(v.to_text()) == v
        assert FVector(v.dim, v.bits) == v


def test_vectors_and_matrices_are_immutable_values():
    # dict keys in the vector union and the scheme layer: equal by content,
    # hashed by content, never changed in place
    v, u = FVector.from_text("0123"), FVector(4, FVector.from_text("0123").bits)
    assert v == u and hash(v) == hash(u) and v != FVector.from_text("012")
    A = FMat([v, u])
    assert A.rows == (v, u) and (A.h, A.m) == (2, 4)
    assert A == FMat((u, v)) and hash(A) == hash(FMat((u, v)))
    for obj, name in ((v, "dim"), (v, "bits"), (A, "rows")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)


def test_from_text_rejects_junk():
    with pytest.raises(ValueError):
        FVector.from_text("0124")
    with pytest.raises(ValueError):
        FVector.from_text("01a")


def test_vector_add_is_coordinatewise():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        a = [int(x) for x in rng.integers(0, 4, n)]
        b = [int(x) for x in rng.integers(0, 4, n)]
        va, vb = FVector.from_digits(a), FVector.from_digits(b)
        assert (va + vb).digits() == tuple(x ^ y for x, y in zip(a, b))


def test_vector_add_dimension_mismatch():
    with pytest.raises(ValueError):
        FVector.from_text("01") + FVector.from_text("013")


def test_scalar_mul_against_table():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        a = [int(x) for x in rng.integers(0, 4, n)]
        v = FVector.from_digits(a)
        for c in range(4):
            assert v.scalar_mul(c).digits() == tuple(oracle_mul(c, x) for x in a)


def test_dot_against_reference():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        v = FVector.from_digits(int(x) for x in rng.integers(0, 4, n))
        u = FVector.from_digits(int(x) for x in rng.integers(0, 4, n))
        assert v.dot(u) == ref_dot(v, u)


def test_dot_example():
    # 1*w + w*1 = w + w = 0
    assert FVector.from_text("12").dot(FVector.from_text("21")) == 0


def test_dist_exact_fraction():
    v = FVector.from_text("0123")
    u = FVector.from_text("0120")
    assert dist(v, u) == Fraction(1, 4)
    assert dist(v, v) == 0
    w = FVector.from_text("1230")
    # metric axioms on a few triples
    assert dist(v, u) == dist(u, v)
    assert dist(v, w) <= dist(v, u) + dist(u, w)


def test_concat_and_slice():
    v = FVector.from_text("012")
    u = FVector.from_text("33")
    c = concat(v, u)
    assert c.to_text() == "01233"
    assert c.slice(1, 4).to_text() == "123"


def test_block_linear_selects_with_unit():
    # d = 2, a = (1, 0) picks out the first coordinate of each block
    v = FVector.from_text("0123")
    a = FVector.from_text("10")
    assert block_linear(a, v).to_text() == "02"


def test_block_linear_reference():
    rng = np.random.default_rng(14)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        a = FVector.from_digits(int(x) for x in rng.integers(0, 4, d))
        v = FVector.from_digits(int(x) for x in rng.integers(0, 4, d * n))
        out = block_linear(a, v)
        for j in range(n):
            acc = 0
            for i in range(d):
                acc ^= oracle_mul(a[i], v[j * d + i])
            assert out[j] == acc


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_block_linear_additive_in_both_arguments(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    digits = st.lists(st.integers(0, 3), min_size=d * n, max_size=d * n)
    a1 = FVector.from_digits(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    a2 = FVector.from_digits(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    v1 = FVector.from_digits(data.draw(digits))
    v2 = FVector.from_digits(data.draw(digits))
    assert block_linear(a1 + a2, v1) == block_linear(a1, v1) + block_linear(a2, v1)
    assert block_linear(a1, v1 + v2) == block_linear(a1, v1) + block_linear(a1, v2)


def flatten(A: FMat) -> FVector:
    """Rows of A concatenated in row-major order."""
    return FVector.from_digits(d for row in A.rows for d in row.digits())


def test_matvec_and_flatten():
    m = from_entries([[1, 2], [0, 3]])
    v = FVector.from_text("11")
    # row dots: 1*1 + 2*1 = 3; 0 + 3*1 = 3
    assert m.matvec(v).to_text() == "33"
    assert flatten(m).to_text() == "1203"


def test_outer_entries():
    a = FVector.from_text("12")
    v = FVector.from_text("103")
    o = outer(a, v)
    for i in range(2):
        for j in range(3):
            assert entry(o, i, j) == oracle_mul(a[i], v[j])


def test_bilinear_form_equals_flattened_outer_dot():
    # b^T A v = <flatten(A), flatten(outer(b, v))>
    rng = np.random.default_rng(15)
    for _ in range(100):
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        A = from_entries([[int(x) for x in rng.integers(0, 4, m)] for _ in range(h)])
        b = FVector.from_digits(int(x) for x in rng.integers(0, 4, h))
        v = FVector.from_digits(int(x) for x in rng.integers(0, 4, m))
        lhs = b.dot(A.matvec(v))
        rhs = flatten(A).dot(flatten(outer(b, v)))
        assert lhs == rhs


def test_rank_full_and_deficient():
    full = [FVector.from_text("10"), FVector.from_text("01")]
    r, ker = rank_and_kernel(FMat(full))
    assert r == 2 and ker is None

    # single row (1, w): kernel contains (w, 1) since w + w^2*... check dot
    row = FVector.from_text("12")
    r, ker = rank_and_kernel(FMat([row]))
    assert r == 1
    assert ker is not None and not ker.is_zero()
    assert row.dot(ker) == 0


def test_rank_random_matches_brute_force_injectivity():
    # the kernel K of the rows, enumerated: rank = m - log4|K|, and column j
    # is free when the first j+1 columns have the rank of the first j, that
    # is, when K has 4x as many vectors supported on [0, j] as on [0, j)
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        nrows = int(rng.integers(1, 6))
        rows = [
            FVector.from_digits(int(x) for x in rng.integers(0, 4, m))
            for _ in range(nrows)
        ]
        rank, ker = rank_and_kernel(FMat(rows))
        kernel = [
            v
            for v in map(FVector.from_digits, itertools.product(range(4), repeat=m))
            if all(r.dot(v) == 0 for r in rows)
        ]
        assert 4 ** (m - rank) == len(kernel)
        support = [sum(v.bits >> (2 * j) == 0 for v in kernel) for j in range(m + 1)]
        free = [j for j in range(m) if support[j + 1] == 4 * support[j]]
        if rank == m:
            assert ker is None
        else:
            assert ker is not None and not ker.is_zero()
            assert all(r.dot(ker) == 0 for r in rows)
            assert [ker[j] for j in free] == [1] + [0] * (len(free) - 1)


def test_is_zero_one():
    assert FVector.from_text("0110").is_zero_one()
    assert not FVector.from_text("0120").is_zero_one()


def test_unit_vectors():
    e = FVector(4, 3 << 4)
    assert e.digits() == (0, 0, 3, 0)
    assert FVector.unit(4, 2).digits() == (0, 0, 1, 0)
