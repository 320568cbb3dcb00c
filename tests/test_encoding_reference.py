"""The table-driven scheme layer against scalar reference implementations.

The references below are the per-pair formulations the f-value table
replaced: `check_scheme` hashing one `encode_f` call per (a, v),
`derandomize_scheme` building every rank-one constraint as an FVector
and filtering the whole list each round, and the two collision
frequencies evaluating each bilinear form directly.  On a seeded corpus
(h in {1, 2}, m 1-5, ell 1-4, |V| up to 7, digits {0, 1} and {0..3}) the
package must give the same reports and witnesses, the same schemes and
stats, the same Fractions and the same ValueError messages.  Wide cases
pack f-values into Python ints: schemes of ell 32 and 40 for the checker,
and selector stacks of more than `MAX_ELL` matrices for the derandomizer.
The sort that finds first repeats is checked against the dict scan
`reference.first_repeat` on small key and tag arrays, and the per-w sort
that lists the constraints a selector stack violates against the dense
tensor of `reference.violated_constraints`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from gapforge.cliquered import reduce_clique
from gapforge.encoding import (
    MAX_ELL,
    ConditionWitness,
    EncodingScheme,
    SchemeReport,
    _violated,
    as_digits,
    check_scheme,
    conditional_expectation_vector,
    derandomize_projections,
    derandomize_scheme,
    first_repeat as sorted_first_repeat,
    matrix_stack,
    sample_scheme,
)
from gapforge.explicit import ExplicitGraph
from gapforge.field import MUL, FMat, FVector, outer, rank_and_kernel
from gapforge.pipeline import plain_to_multicolor
from reference import (
    all_pass,
    collision_frequency,
    collision_frequency_exhaustive,
    encode_f,
    first_repeat,
    from_entries,
    violated_constraints,
)

_MUL_NP = np.array(MUL, dtype=np.uint8)


def flatten(A: FMat) -> FVector:
    return FVector.from_digits(d for row in A.rows for d in row.digits())


def ref_check_scheme(scheme: EncodingScheme, V: list[FVector]) -> SchemeReport:
    witness = None
    rank, kernel = rank_and_kernel(FMat([row for A in scheme.mats for row in A.rows]))
    cond_inj = rank == scheme.m
    if not cond_inj:
        witness = ConditionWitness("injective", (), (kernel,))

    cond_sep = True
    for a in (FVector(scheme.h, packed) for packed in range(1, 4**scheme.h)):
        seen: dict[int, FVector] = {}
        for v in V:
            key = encode_f(scheme, a, v).bits
            if key in seen and seen[key] != v:
                cond_sep = False
                if witness is None:
                    witness = ConditionWitness("separating", (a,), (seen[key], v))
                break
            seen[key] = v
        if not cond_sep:
            break

    cond_self = True
    for w in V:
        seen_pairs: dict[int, tuple[FVector, FVector]] = {}
        for x in V:
            if x == w:
                continue
            for a in (FVector(scheme.h, packed) for packed in range(1, 4**scheme.h)):
                key = encode_f(scheme, a, x + w).bits
                prev = seen_pairs.get(key)
                if prev is not None and prev[1] != x:
                    cond_self = False
                    if witness is None:
                        witness = ConditionWitness(
                            "self-correcting", (prev[0], a), (prev[1], x, w)
                        )
                    break
                seen_pairs[key] = (a, x)
            if not cond_self:
                break
        if not cond_self:
            break

    return SchemeReport(cond_inj, cond_sep, cond_self, witness)


def ref_derandomize_scheme(V: list[FVector], h: int, m: int):
    nz_alphas = [FVector(h, packed) for packed in range(1, 4**h)]
    constraints: list[FVector] = []
    for v, u in itertools.combinations(V, 2):
        for a in nz_alphas:
            constraints.append(flatten(outer(a, v + u)))
    for w in V:
        others = [x for x in V if x != w]
        for v, u in itertools.combinations(others, 2):
            vw, uw = v + w, u + w
            for a in nz_alphas:
                left = flatten(outer(a, vw))
                for ap in nz_alphas:
                    constraint = left + flatten(outer(ap, uw))
                    if constraint.is_zero():
                        raise ValueError(
                            "self-correction unachievable: "
                            f"{u.to_text()}+{w.to_text()} is a scalar multiple "
                            f"of {v.to_text()}+{w.to_text()}"
                        )
                    constraints.append(constraint)

    mats = derandomize_projections(m, h)
    flat_mats = [flatten(A) for A in mats]
    remaining = [c for c in constraints if all(fm.dot(c) == 0 for fm in flat_mats)]
    rounds = 0
    while remaining:
        rows = np.array([c.digits() for c in remaining], dtype=np.uint8)
        a = conditional_expectation_vector(rows)
        mats.append(FMat([a.slice(i * m, (i + 1) * m) for i in range(h)]))
        remaining = [c for c in remaining if a.dot(c) == 0]
        rounds += 1
    scheme = EncodingScheme(h, m, len(mats), tuple(mats), "derandomized")
    return scheme, (len(constraints), rounds)


def ref_collision_frequency(b, c, v, u, samples, seed) -> Fraction:
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 4, size=(samples, b.dim, v.dim), dtype=np.uint8)

    def form(lhs: FVector, rhs: FVector) -> np.ndarray:
        rv = np.array(rhs.digits(), dtype=np.uint8)
        Av = np.bitwise_xor.reduce(_MUL_NP[A, rv[None, None, :]], axis=2)
        lv = np.array(lhs.digits(), dtype=np.uint8)
        return np.bitwise_xor.reduce(_MUL_NP[lv[None, :], Av], axis=1)

    return Fraction(int(np.count_nonzero(form(b, v) == form(c, u))), samples)


def ref_collision_frequency_exhaustive(b, c, v, u) -> Fraction:
    h, m = b.dim, v.dim
    hits = 0
    for digits in itertools.product(range(4), repeat=h * m):
        A = from_entries([digits[i * m : (i + 1) * m] for i in range(h)])
        if b.dot(A.matvec(v)) == c.dot(A.matvec(u)):
            hits += 1
    return Fraction(hits, 4 ** (h * m))


def outcome(fn, *args):
    """The result, or the message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def random_vector(rng, dim: int, top: int) -> FVector:
    return FVector.from_digits(int(x) for x in rng.integers(0, top, dim))


def corpus(cases: int):
    for case in range(cases):
        rng = np.random.default_rng(9000 + case)
        h = 1 + case % 2
        top = 2 if case % 4 < 2 else 4
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, min(7, top**m) + 1))
        if h == 2:
            n = min(n, 5)  # the reference enumerates q^2 n^3 / 2 FVector constraints
        V: list[FVector] = []
        while len(V) < n:
            v = random_vector(rng, m, top)
            if v not in V:
                V.append(v)
        ell = int(rng.integers(1, 5))
        yield rng, h, m, ell, V


def test_check_and_derandomize_match_reference():
    kinds = set()
    for rng, h, m, ell, V in corpus(120):
        for seed in rng.integers(0, 2**32, 3):
            scheme = sample_scheme(int(seed), h, m, ell)
            rep = check_scheme(scheme, V)
            assert rep == ref_check_scheme(scheme, V), (scheme, V)
            kinds.add(rep.witness.condition if rep.witness else "pass")
        got = outcome(derandomize_scheme, V, h, m)
        want = outcome(ref_derandomize_scheme, V, h, m)
        if want[0] == "ValueError":
            assert got == want
            kinds.add("unachievable")
            continue
        scheme, stats = got
        assert (scheme, (stats.n_constraints, stats.rounds)) == want, V
        assert all_pass(check_scheme(scheme, V))
        if stats.rounds:
            kinds.add("rounds")
    # the corpus reaches every outcome the comparison is meant to cover
    assert kinds >= {
        "pass", "injective", "separating", "self-correcting", "unachievable", "rounds"
    }, kinds


def wide_corpus(cases: int):
    """Schemes of ell 32 and 40 against test sets of up to 12 vectors.  Most
    repeat a sampled scheme of 1-2 matrices up to the full width, so the
    three conditions fail as often as at that small width while every
    f-value is wider than int64; the rest are sampled at the full width."""
    for case in range(cases):
        rng = np.random.default_rng(9300 + case)
        h = 1 + case % 2
        ell = (32, 40)[case // 2 % 2]
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, min(12 if h == 1 else 6, 4**m) + 1))
        V: list[FVector] = []
        while len(V) < n:
            v = random_vector(rng, m, 4)
            if v not in V:
                V.append(v)
        seed = int(rng.integers(0, 2**32))
        if case % 4 == 3:
            scheme = sample_scheme(seed, h, m, ell)
        else:
            base = sample_scheme(seed, h, m, 1 + case % 2).mats
            mats = tuple(base[i % len(base)] for i in range(ell))
            scheme = EncodingScheme(h, m, ell, mats, "explicit")
        yield scheme, V


def test_wide_check_matches_reference():
    kinds = set()
    for scheme, V in wide_corpus(24):
        assert scheme.ell > MAX_ELL
        rep = check_scheme(scheme, V)
        assert rep == ref_check_scheme(scheme, V), (scheme, V)
        kinds.add(rep.witness.condition if rep.witness else "pass")
    assert kinds == {"pass", "injective", "separating", "self-correcting"}, kinds


def wide_derandomize_cases():
    """Test sets whose selector stack has more than MAX_ELL matrices.  At
    h = 1 the selectors violate only zero constraints, so a case either
    needs no round or is unachievable; at h = 2 two vectors in one block
    make the selectors violate nonzero constraints, so rounds run."""
    rng = np.random.default_rng(9400)
    for m in (32, 33, 40):
        for top in (2, 4):
            V = []
            while len(V) < 4:
                v = random_vector(rng, m, top)
                if v not in V:
                    V.append(v)
            yield V, 1, m
    w, v = FVector.zeros(34), FVector.unit(34, 5)
    yield [w, v, v.scalar_mul(2), FVector.unit(34, 9)], 1, 34  # u + w = w * (v + w)
    for m in (64, 66):
        zero, e0, e1 = FVector.zeros(m), FVector.unit(m, 0), FVector.unit(m, 1)
        yield [zero, e0, e1, random_vector(rng, m, 2)], 2, m


def test_wide_derandomize_matches_reference():
    seen = set()
    for V, h, m in wide_derandomize_cases():
        assert -(-m // h) > MAX_ELL
        got = outcome(derandomize_scheme, V, h, m)
        want = outcome(ref_derandomize_scheme, V, h, m)
        if want[0] == "ValueError":
            assert got == want
            seen.add("unachievable")
            continue
        scheme, stats = got
        assert (scheme, (stats.n_constraints, stats.rounds)) == want, V
        assert all_pass(check_scheme(scheme, V))
        seen.add("rounds" if stats.rounds else "clean")
    assert seen == {"clean", "rounds", "unachievable"}, seen


def constraint_list(fn, V: list[FVector], h: int, m: int):
    """The constraints fn lists for the selectors of V as sorted (left,
    right, row bytes) triples, or the message of the ValueError raised."""
    mats = matrix_stack(derandomize_projections(m, h))
    try:
        pairs, rows = fn(mats, as_digits(V, m), V)
    except ValueError as e:
        return str(e)
    return sorted(zip(pairs[0].tolist(), pairs[1].tolist(), map(bytes, rows)))


def violated_cases():
    """Seeded test sets at h = 1, 2 and n = 3..9, the K3 k=2 h=2 union
    (equal-key groups up to 12 long, with x = w and same-x entries among
    them) and the K5 k=2 h=1 union, which the selectors meet in full."""
    rng = np.random.default_rng(9500)
    for h, n, top in itertools.product((1, 2), range(3, 10), (2, 4)):
        m = int(rng.integers(2, 7))
        V: list[FVector] = []
        while len(V) < min(n, top**m):
            v = random_vector(rng, m, top)
            if v not in V:
                V.append(v)
        yield V, h, m
    for n, k, h in ((3, 2, 2), (5, 2, 1)):
        g = ExplicitGraph.from_edges(n, itertools.combinations(range(n), 2))
        inst = reduce_clique(plain_to_multicolor(g, k))
        yield inst.union(), h, inst.dim


def test_violated_lists_the_dense_tensor_constraint_set():
    sizes = []
    for V, h, m in violated_cases():
        got = constraint_list(_violated, V, h, m)
        assert got == constraint_list(violated_constraints, V, h, m), (V, h)
        sizes.append(len(got) if isinstance(got, list) else "unachievable")
    # the random sets reach every outcome; the two unions come last, the
    # K3 one with 48 separating and 1,443 self-correcting constraints
    assert {0, "unachievable"} <= set(sizes) and max(s for s in sizes if s != "unachievable") > 0
    assert sizes[-2:] == [1491, 0]


def scan_rows(keys: np.ndarray, tags: np.ndarray):
    """`reference.first_repeat` row by row, the payload being the column."""
    for r, krow in enumerate(keys.tolist()):
        hit = first_repeat(zip(krow, tags.tolist(), range(len(krow))))
        if hit:
            return (r, *hit)
    return None


@pytest.mark.parametrize(
    "tags, want",
    [([0, 0, 1], (0, 1, 2)), ([0, 1, 0], (0, 0, 1)), ([0, 0, 0], None), ([2, 1, 1], (0, 0, 1))],
    ids=["AAB", "ABA", "AAA", "BAA"],
)
def test_first_repeat_tag_patterns(tags, want):
    # one key three times: a same-tag repeat moves the earlier column on
    keys, tags = np.array([[7, 7, 7]]), np.array(tags)
    assert sorted_first_repeat(keys, tags) == scan_rows(keys, tags) == want


def test_first_repeat_matches_scan():
    rng = np.random.default_rng(9500)
    hits = same_tag = 0
    for trial in range(400):
        rows, width = int(rng.integers(1, 5)), int(rng.integers(0, 9))
        keys = rng.integers(0, 1 + trial % 5, (rows, width))
        tags = rng.integers(0, 1 + trial % 3, width)
        if trial % 2:  # Python ints past int64, as check_scheme sees past MAX_ELL
            keys = (keys.astype(object) << 70) | 1
        want = scan_rows(keys, tags)
        assert sorted_first_repeat(keys, tags) == want, (keys, tags)
        hits += want is not None
        same_tag += any(len(set(zip(k, tags.tolist()))) < width for k in keys.tolist())
    assert hits > 100 and same_tag > 100, (hits, same_tag)


def test_collision_frequencies_match_reference():
    rng = np.random.default_rng(9100)
    seen_error = seen_degenerate = 0
    for trial in range(60):
        h = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4 if h == 1 else 3))
        b, c = random_vector(rng, h, 4), random_vector(rng, h, 4)
        v, u = random_vector(rng, m, 4), random_vector(rng, m, 4)
        want = outcome(ref_collision_frequency, b, c, v, u, 500, trial)
        got = outcome(collision_frequency, b, c, v, u, 500, trial, False)
        assert got == want
        checked = outcome(collision_frequency, b, c, v, u, 500, trial)
        if isinstance(checked, tuple):
            seen_error += 1
        else:
            assert checked == want
        exact = collision_frequency_exhaustive(b, c, v, u)
        assert exact == ref_collision_frequency_exhaustive(b, c, v, u)
        seen_degenerate += exact != Fraction(1, 4)
    assert seen_error and seen_degenerate


@pytest.mark.parametrize("texts", [("1", "10", "1", "0"), ("1", "1", "1", "10")])
def test_collision_shape_mismatch_is_value_error(texts):
    args = [FVector.from_text(t) for t in texts]
    with pytest.raises(ValueError, match="shape mismatch"):
        collision_frequency(*args, samples=10, seed=0, require_valid=False)
    with pytest.raises(ValueError, match="shape mismatch"):
        collision_frequency_exhaustive(*args)
