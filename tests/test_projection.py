from fractions import Fraction

import pytest
from hypothesis import given, settings
from strategies import dense_vectors

from gaudin_potentials.checks import locality_constant, oracle_coefficients
from gaudin_potentials.projection import (
    coefficients,
    oracle_decompose,
    pairing_closed_form,
    pairing_difference,
    project,
    project_oracle,
)
from gaudin_potentials.weight_space import (
    SubsetIndex,
    apply_f,
    basis_vector,
    is_singular,
    shapovalov,
    subsets,
    zero_vector,
)


def test_coefficients_k1_row():
    for n in range(2, 11):
        table = coefficients(n, 1)
        assert table.b == (Fraction(-1, n),)
        assert table.a == (Fraction(-1, n), Fraction(n - 1, n))


def test_coefficients_k2_row():
    # closed k=2 family in n
    for n in range(4, 11):
        table = coefficients(n, 2)
        assert table.b[0] == Fraction(1, (n - 1) * (n - 2))
        assert table.b[1] == Fraction(-1, n - 1)
        assert table.a[0] == Fraction(2, (n - 2) * (n - 1))
        assert table.a[1] == Fraction(-(n - 3), (n - 2) * (n - 1))
        assert table.a[2] == Fraction(n - 3, n - 1)


def test_coefficients_examples():
    t42 = coefficients(4, 2)
    assert t42.a == (Fraction(1, 3), Fraction(-1, 6), Fraction(1, 3))
    assert t42.b == (Fraction(1, 6), Fraction(-1, 3))
    t21 = coefficients(2, 1)
    assert t21.a == (Fraction(-1, 2), Fraction(1, 2))
    assert coefficients(4, 1).a[1] == Fraction(3, 4)


def test_coefficients_rejects_small_n():
    with pytest.raises(ValueError):
        coefficients(3, 2)
    with pytest.raises(ValueError):
        coefficients(4, 0)


def test_coefficient_recursions():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            t = coefficients(n, k)
            for l in range(k):
                assert (k - l) * t.a[l + 1] + (n - 2 * k + l + 1) * t.a[l] == 0
            assert t.a[0] == k * t.b[0]


def test_project_example_n2():
    v = project(basis_vector(2, [1]))
    assert v.coeffs == (Fraction(1, 2), Fraction(-1, 2))
    assert is_singular(v)


def test_project_is_idempotent_and_kills_lowered_vectors():
    for n, k in [(2, 1), (4, 2), (5, 2), (6, 3)]:
        for I in subsets(n, k):
            v = project(basis_vector(n, I))
            assert project(v) == v
            assert is_singular(v)
        for K in subsets(n, k - 1):
            lowered = apply_f(basis_vector(n, K))
            assert project(lowered).is_zero


def test_project_k0_is_identity():
    x = basis_vector(3, [])
    assert project(x) == x


def test_project_rejects_small_n():
    with pytest.raises(ValueError):
        project(basis_vector(3, [1, 2]))


def test_project_self_adjoint():
    n, k = 5, 2
    xs = subsets(n, k)
    for I in xs[:4]:
        for J in xs[-4:]:
            x, y = basis_vector(n, I), basis_vector(n, J)
            assert shapovalov(project(x), y) == shapovalov(x, project(y))


def test_oracle_simple_case():
    assert project_oracle(basis_vector(2, [1])).coeffs == (Fraction(1, 2), Fraction(-1, 2))
    assert project_oracle(zero_vector(4, 2)).is_zero


def test_oracle_equals_closed_form_on_all_basis_vectors():
    for n in range(2, 9):
        for k in range(1, min(3, n // 2) + 1):
            for I in subsets(n, k):
                x = basis_vector(n, I)
                assert project(x) == project_oracle(x)


def test_oracle_decomposition_structure():
    # x = s + f y with s singular, exactly
    for n, k in [(4, 2), (6, 3), (7, 2)]:
        for I in subsets(n, k)[:5]:
            x = basis_vector(n, I)
            s, y = oracle_decompose(x)
            assert is_singular(s)
            assert s + apply_f(y) == x


def test_defining_relations():
    # summing projections of V_{K+m} over m outside K gives zero
    for n in range(2, 9):
        for k in range(1, min(3, n // 2) + 1):
            for K in subsets(n, k - 1):
                acc = zero_vector(n, k)
                for m in range(1, n + 1):
                    if K.contains(m):
                        continue
                    acc = acc + project(basis_vector(n, K.with_element(m)))
                assert acc.is_zero


def test_b_expansion_reconstructs_projection():
    for n, k in [(2, 1), (4, 2), (5, 2), (6, 3)]:
        table = coefficients(n, k)
        for I in subsets(n, k):
            recon = basis_vector(n, I)
            for K in subsets(n, k - 1):
                recon = recon + table.b[I.intersection_size(K)] * apply_f(basis_vector(n, K))
            assert recon == project(basis_vector(n, I))


def test_pairing_closed_form_examples():
    assert pairing_closed_form(SubsetIndex.of(2, [1]), SubsetIndex.of(2, [2])) == Fraction(-1, 2)
    assert pairing_closed_form(SubsetIndex.of(4, [1, 2]), SubsetIndex.of(4, [3, 4])) == Fraction(1, 3)
    assert pairing_closed_form(SubsetIndex.of(4, [1, 2]), SubsetIndex.of(4, [1, 2])) == Fraction(1, 3)
    with pytest.raises(ValueError):
        pairing_closed_form(SubsetIndex.of(4, [1, 2]), SubsetIndex.of(4, [1]))


def test_pairing_matches_shapovalov_of_projections():
    for n, k in [(2, 1), (4, 2), (6, 2)]:
        for I in subsets(n, k):
            vI = project(basis_vector(n, I))
            for J in subsets(n, k):
                expected = pairing_closed_form(I, J)
                assert shapovalov(vI, project(basis_vector(n, J))) == expected
                assert shapovalov(vI, basis_vector(n, J)) == expected


def test_pairing_difference_examples():
    assert pairing_difference(2, 1, 1) == Fraction(-1)
    assert pairing_difference(4, 2, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        pairing_difference(4, 2, 3)


def test_pairing_difference_consistency():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            t = coefficients(n, k)
            for l in range(1, k + 1):
                assert t.a[l - 1] - t.a[l] == pairing_difference(n, k, l)


def test_oracle_coefficient_tables_match_closed_forms():
    for n in range(2, 11):
        for k in range(1, min(3, n // 2) + 1):
            oa, ob = oracle_coefficients(n, k)
            t = coefficients(n, k)
            assert oa == list(t.a)
            assert ob == list(t.b)


def test_locality_constant_k1_is_2_over_n():
    for n in range(2, 11):
        assert locality_constant(n, 1) == Fraction(2, n)


def test_locality_scalar_multiple_holds():
    for n in range(2, 9):
        for k in range(1, min(3, n // 2) + 1):
            c = locality_constant(n, k)  # raises if not an exact multiple
            assert c != 0


@settings(max_examples=80, deadline=None)
@given(dense_vectors(min_k=1))
def test_project_matches_oracle_on_dense_vectors(x):
    got = project(x)
    assert got == project_oracle(x)
    assert all(type(c) is Fraction for c in got.coeffs)
