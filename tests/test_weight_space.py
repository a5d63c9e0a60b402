from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import dense_vectors

from gaudin_potentials.operators import ParameterPoint, casimir_apply, hamiltonian_apply
from gaudin_potentials.projection import _gauss_jordan, embed_in_factors, project
from gaudin_potentials.weight_space import (
    SubsetIndex,
    WeightVector,
    apply_e,
    apply_f,
    apply_h,
    basis_vector,
    is_singular,
    shapovalov,
    subset_masks,
    subset_rank,
    subsets,
    weight_dim,
    zero_vector,
)


def test_subset_masks_colex_order():
    masks = subset_masks(4, 2)
    assert masks == tuple(sorted(masks))  # colex == increasing mask value
    as_sets = [SubsetIndex(4, m).elements for m in masks]
    assert as_sets == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def test_subset_rank_roundtrip():
    for n in range(1, 9):
        for k in range(0, n + 1):
            for r, ix in enumerate(subsets(n, k)):
                assert subset_rank(ix) == r


def test_subset_out_of_range():
    with pytest.raises(ValueError):
        SubsetIndex.of(3, [4])
    with pytest.raises(ValueError):
        SubsetIndex.of(3, [0])
    with pytest.raises(ValueError):
        SubsetIndex(65, 1)


def test_repeated_subset_element_is_refused():
    # a repeated element must not collapse into a smaller subset
    with pytest.raises(ValueError, match="repeated"):
        SubsetIndex.of(4, [1, 1, 2])
    with pytest.raises(ValueError, match="repeated"):
        basis_vector(4, [1, 1, 2])
    assert SubsetIndex.of(4, [2, 1]) == SubsetIndex(4, 0b11)


def test_basis_vector_indicator():
    v = basis_vector(2, [1])
    assert v.coeffs == (Fraction(1), Fraction(0))
    w = basis_vector(4, [1, 2])
    assert len(w.coeffs) == 6
    assert w.coefficient(SubsetIndex.of(4, [1, 2])) == 1
    assert sum(w.coeffs) == 1
    with pytest.raises(ValueError):
        basis_vector(3, [4])


def test_weight_vector_length_validation():
    with pytest.raises(ValueError):
        WeightVector.of(3, 1, (Fraction(1),))


def test_shapovalov_orthonormal_basis():
    v1 = basis_vector(2, [1])
    v2 = basis_vector(2, [2])
    assert shapovalov(v1, v1) == 1
    assert shapovalov(v1, v2) == 0
    assert shapovalov(v1 + v2, v1 - v2) == 0
    with pytest.raises(ValueError):
        shapovalov(v1, basis_vector(2, [1, 2]))


def test_apply_examples():
    e = apply_e(basis_vector(4, [1, 2]))
    assert e == basis_vector(4, [1]) + basis_vector(4, [2])
    f = apply_f(basis_vector(2, []))
    assert f == basis_vector(2, [1]) + basis_vector(2, [2])
    h = apply_h(basis_vector(3, [1]))
    assert h == basis_vector(3, [1]) * 1


def test_ladder_out_of_range_gives_canonical_zero():
    top = basis_vector(2, [])
    assert apply_e(top).k == -1
    assert apply_e(top).coeffs == ()
    assert apply_e(top).is_zero
    bottom = basis_vector(2, [1, 2])
    assert apply_f(bottom).k == 3
    assert apply_f(bottom).is_zero


def test_is_singular_examples():
    x = (basis_vector(2, [1]) - basis_vector(2, [2])) * Fraction(1, 2)
    assert is_singular(x)
    assert not is_singular(basis_vector(2, [1]))
    assert is_singular(zero_vector(4, 2))


def test_adjointness_exhaustive():
    # (e x, y) == (x, f y) on all basis pairs, every weight space, n <= 8
    for n in range(1, 9):
        for k in range(1, n + 1):
            for x in subsets(n, k):
                ex = apply_e(basis_vector(n, x))
                for y in subsets(n, k - 1):
                    vy = basis_vector(n, y)
                    assert shapovalov(ex, vy) == shapovalov(basis_vector(n, x), apply_f(vy))


def test_h_self_adjoint():
    for n in (2, 4, 5):
        for k in range(0, n + 1):
            for x in subsets(n, k):
                for y in subsets(n, k):
                    vx, vy = basis_vector(n, x), basis_vector(n, y)
                    assert shapovalov(apply_h(vx), vy) == shapovalov(vx, apply_h(vy))


def _commutator_checks(x):
    ef = apply_e(apply_f(x)) - apply_f(apply_e(x))
    assert ef == apply_h(x)
    he = apply_h(apply_e(x)) - apply_e(apply_h(x))
    assert he == apply_e(x) * 2
    hf = apply_h(apply_f(x)) - apply_f(apply_h(x))
    assert hf == apply_f(x) * (-2)


def test_commutators_on_basis_and_mixtures():
    for n in range(1, 7):
        for k in range(0, n + 1):
            for ix in subsets(n, k):
                _commutator_checks(basis_vector(n, ix))
    mixed = basis_vector(5, [1, 3]) * Fraction(2, 3) - basis_vector(5, [2, 5]) * Fraction(7, 2)
    _commutator_checks(mixed)


def test_singular_dimension_by_kernel_rank():
    # dim ker(e) on the k-th weight space is C(n,k) - C(n,k-1) for n >= 2k
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            cols = subsets(n, k)
            rows = subsets(n, k - 1)
            mat = []
            for r in rows:
                row = []
                for c in cols:
                    e_img = apply_e(basis_vector(n, c))
                    row.append(e_img.coefficient(r))
                mat.append(row)
            rank = _gauss_jordan(mat, len(cols))
            assert len(cols) - rank == weight_dim(n, k) - weight_dim(n, k - 1)


def test_embed_in_factors_refuses_slots_outside_range():
    # slot 0, and a slot above n both on and off the vector's support
    for vec, slots in [
        (basis_vector(2, [1]), (0, 2)),
        (basis_vector(2, [1]), (5, 1)),
        (basis_vector(2, [1]), (1, 5)),
    ]:
        with pytest.raises(ValueError, match="must lie in 1..3"):
            embed_in_factors(vec, slots, 3)
    assert embed_in_factors(basis_vector(2, [1]), (3, 1), 3) == basis_vector(3, [3])


@settings(max_examples=80, deadline=None)
@given(dense_vectors(), st.data())
def test_shapovalov_matches_fraction_sum(x, data):
    y = data.draw(dense_vectors(n=x.n, k=x.k))
    got = shapovalov(x, y)
    assert got == sum((a * b for a, b in zip(x.coeffs, y.coeffs)), Fraction(0))
    assert type(got) is Fraction


@settings(max_examples=80, deadline=None)
@given(dense_vectors())
def test_ladder_operators_match_basis_definition(x):
    # e V_I = sum of V_{I minus i} over i in I; f V_I = sum of V_{I plus j} over j not in I
    n, k = x.n, x.k
    e_expected, f_expected = zero_vector(n, k - 1), zero_vector(n, k + 1)
    for I, c in zip(subsets(n, k), x.coeffs):
        for i in range(1, n + 1):
            if I.contains(i):
                e_expected = e_expected + basis_vector(n, I.without_element(i)) * c
            else:
                f_expected = f_expected + basis_vector(n, I.with_element(i)) * c
    for got, expected in ((apply_e(x), e_expected), (apply_f(x), f_expected)):
        assert got == expected
        assert all(type(c) is Fraction for c in got.coeffs)


def test_unreduced_vector_is_refused():
    with pytest.raises(ValueError, match="lowest terms"):
        WeightVector(1, 1, (2,), 2)
    with pytest.raises(ValueError, match="lowest terms"):
        WeightVector(2, 1, (0, 0), 3)
    with pytest.raises(ValueError, match="lowest terms"):
        WeightVector(2, 1, (1, 0), -1)
    assert WeightVector.over(2, 1, [2, -4], 6) == WeightVector(2, 1, (1, -2), 3)


def test_float_scalar_is_refused():
    v = basis_vector(3, [1])
    for bad in (lambda: v * 0.1, lambda: 0.1 * v, lambda: WeightVector.of(3, 1, [0.5, 0, 0])):
        with pytest.raises(TypeError):
            bad()
    assert v * Fraction(1, 10) == WeightVector(3, 1, (1, 0, 0), 10)


def _in_lowest_terms(v):
    return v.den >= 1 and gcd(v.den, *v.nums) == 1 and all(type(c) is int for c in v.nums)


@settings(max_examples=80, deadline=None)
@given(dense_vectors(), st.data())
def test_vector_arithmetic_matches_fraction_arithmetic(x, data):
    y = data.draw(dense_vectors(n=x.n, k=x.k))
    c = data.draw(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)))
    assert WeightVector.of(x.n, x.k, x.coeffs) == x
    assert all(type(v) is Fraction for v in x.coeffs)
    cases = [
        (x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)]),
        (x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)]),
        (-x, [-a for a in x.coeffs]),
        (x * c, [c * a for a in x.coeffs]),
        (c * x, [c * a for a in x.coeffs]),
    ]
    for got, expected in cases:
        assert got.coeffs == tuple(expected)
        assert _in_lowest_terms(got)


@settings(max_examples=60, deadline=None)
@given(dense_vectors(min_k=1), st.data())
def test_kernel_outputs_are_in_lowest_terms(x, data):
    n = x.n
    u = ParameterPoint(tuple(data.draw(st.lists(st.fractions(-9, 9, max_denominator=7),
                                                min_size=n, max_size=n, unique=True))))
    slots = tuple(data.draw(st.permutations(range(1, n + 2))))[:n]
    outputs = [apply_e(x), apply_f(x), apply_h(x), project(x), embed_in_factors(x, slots, n + 1)]
    for m in range(1, n + 1):
        outputs.append(hamiltonian_apply(m, u, x))
        outputs.extend(casimir_apply(x, m, j) for j in range(1, n + 1) if j != m)
    assert all(_in_lowest_terms(v) for v in outputs)
