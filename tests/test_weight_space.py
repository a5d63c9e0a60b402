from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import dense_vectors

from gaudin_potentials.projection import matrix_rank
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
        WeightVector(3, 1, (Fraction(1),))


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
            rank = matrix_rank(mat)
            assert len(cols) - rank == weight_dim(n, k) - weight_dim(n, k - 1)


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
