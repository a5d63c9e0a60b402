from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import dense_vectors, fractions

from gaudin_potentials.operators import (
    PairingFunction,
    ParameterPoint,
    casimir_apply,
    evaluate_basis_action,
    hamiltonian_apply,
    hamiltonian_basis_action,
    hamiltonian_pairing,
)
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.projection import pairing_difference, project
from gaudin_potentials.weight_space import (
    SubsetIndex,
    apply_e,
    basis_vector,
    is_singular,
    shapovalov,
    subsets,
    zero_vector,
)


def test_parameter_point_validation():
    ParameterPoint.of([0, 1, 2])
    with pytest.raises(ValueError):
        ParameterPoint.of([0, 1, 0])
    # a float coordinate would turn the exact kernels inexact
    with pytest.raises(TypeError):
        ParameterPoint((Fraction(1, 2), 1.5))
    with pytest.raises(TypeError):
        ParameterPoint.of([Fraction(1, 2), 1.5])
    # int coordinates are exact: 1/(u_1 - u_j) = -1, -1/3
    out = hamiltonian_apply(1, ParameterPoint((0, 1, 3)), basis_vector(3, [1]))
    assert out.coeffs == (Fraction(4, 3), Fraction(-1), Fraction(-1, 3))


def test_casimir_examples():
    out = casimir_apply(basis_vector(2, [1]), 1, 2)
    assert out == basis_vector(2, [2]) - basis_vector(2, [1])
    assert casimir_apply(basis_vector(4, [1, 2]), 1, 2).is_zero
    x = basis_vector(4, [1, 3]) * Fraction(3, 5) + basis_vector(4, [2, 4])
    with pytest.raises(ValueError):
        casimir_apply(x, 2, 2)


def test_hamiltonian_apply_basis_example():
    u = ParameterPoint.of([0, 1])
    out = hamiltonian_apply(1, u, basis_vector(2, [1]))
    assert out == basis_vector(2, [1]) - basis_vector(2, [2])


def test_hamiltonian_apply_matches_casimir_sum():
    n, k = 5, 2
    u = deterministic_parameter_points(n)[0]
    x = basis_vector(n, [2, 4]) - basis_vector(n, [1, 5]) * Fraction(2, 3)
    for m in range(1, n + 1):
        total = None
        for j in range(1, n + 1):
            if j == m:
                continue
            term = casimir_apply(x, m, j) * (1 / (u.u(m) - u.u(j)))
            total = term if total is None else total + term
        assert hamiltonian_apply(m, u, x) == total


def test_hamiltonian_on_projected_vector_n2():
    # the reduced Hamiltonian sends v_1 to -2 v_1 / (u_1 - u_2)
    u = ParameterPoint.of([Fraction(1, 3), Fraction(5)])
    v1 = project(basis_vector(2, [1]))
    expected = v1 * (Fraction(-2) / (u.u(1) - u.u(2)))
    assert hamiltonian_apply(1, u, v1) == expected


def test_hamiltonian_preserves_singularity():
    n, k = 6, 2
    u = deterministic_parameter_points(n)[0]
    for I in subsets(n, k)[:5]:
        v = project(basis_vector(n, I))
        for m in (1, 3, n):
            assert is_singular(hamiltonian_apply(m, u, v))


def test_basis_action_terms_n3():
    I = SubsetIndex.of(3, [1])
    terms = hamiltonian_basis_action(1, I)
    assert [(t.pole, t.plus.elements, t.minus.elements) for t in terms] == [
        ((1, 2), (2,), (1,)),
        ((1, 3), (3,), (1,)),
    ]
    terms2 = hamiltonian_basis_action(2, I)
    assert [(t.pole, t.plus.elements, t.minus.elements) for t in terms2] == [
        ((2, 1), (2,), (1,)),
    ]


def test_basis_action_agrees_with_apply():
    for n, k in [(3, 1), (5, 2), (6, 3)]:
        for u in deterministic_parameter_points(n)[:2]:
            for m in range(1, n + 1):
                for I in subsets(n, k):
                    terms = hamiltonian_basis_action(m, I)
                    assert evaluate_basis_action(terms, u, n, k) == hamiltonian_apply(
                        m, u, basis_vector(n, I)
                    )


def test_pairing_function_normalization_and_str():
    pf = PairingFunction.from_raw({(2, 1): Fraction(1), (1, 3): Fraction(1, 2)})
    assert pf.terms == (((1, 2), Fraction(-1)), ((1, 3), Fraction(1, 2)))
    assert str(pf) == "-1/(u_1-u_2) + (1/2)/(u_1-u_3)"
    assert str(PairingFunction.from_raw({})) == "0"
    with pytest.raises(ValueError):
        PairingFunction.from_raw({(1, 1): Fraction(1)})


def test_pairing_example_n2():
    pf = hamiltonian_pairing(1, SubsetIndex.of(2, [1]), SubsetIndex.of(2, [1]))
    assert pf.terms == (((1, 2), Fraction(-1)),)
    assert str(pf) == "-1/(u_1-u_2)"


def test_pairing_example_n4_outside_case():
    I = SubsetIndex.of(4, [1, 2])
    J = SubsetIndex.of(4, [1, 3])
    pf = hamiltonian_pairing(4, I, J)
    terms = dict(pf.terms)
    # pole (1,4) carries a_0 - a_1 = 1/2 with flipped orientation
    assert terms.get((1, 4)) == -pairing_difference(4, 2, 1)
    assert (2, 4) not in terms


def test_pairing_matches_operator_route():
    for n, k in [(2, 1), (4, 2), (6, 3)]:
        pts = deterministic_parameter_points(n)[:2]
        all_subsets = subsets(n, k)
        for m in (1, n):
            for I in all_subsets[:4]:
                for J in all_subsets[-4:]:
                    pf = hamiltonian_pairing(m, I, J)
                    for u in pts:
                        direct = shapovalov(
                            hamiltonian_apply(m, u, project(basis_vector(n, I))),
                            project(basis_vector(n, J)),
                        )
                        assert pf.evaluate(u) == direct


def test_operators_commute_and_are_symmetric_small():
    n, k = 4, 2
    u = deterministic_parameter_points(n)[0]
    basis = [basis_vector(n, I) for I in subsets(n, k)]
    for m in range(1, n + 1):
        for j in range(m + 1, n + 1):
            for x in basis:
                assert hamiltonian_apply(m, u, hamiltonian_apply(j, u, x)) == hamiltonian_apply(
                    j, u, hamiltonian_apply(m, u, x)
                )
    for x in basis:
        for y in basis:
            for m in range(1, n + 1):
                assert shapovalov(hamiltonian_apply(m, u, x), y) == shapovalov(
                    x, hamiltonian_apply(m, u, y)
                )


def test_equivariance_small():
    n, k = 5, 2
    u = deterministic_parameter_points(n)[0]
    for I in subsets(n, k):
        x = basis_vector(n, I)
        for m in (1, 4):
            assert apply_e(hamiltonian_apply(m, u, x)) == hamiltonian_apply(m, u, apply_e(x))
            assert project(hamiltonian_apply(m, u, x)) == hamiltonian_apply(m, u, project(x))


@settings(max_examples=80, deadline=None)
@given(dense_vectors(), st.data())
def test_hamiltonian_apply_matches_casimir_oracle_on_dense_vectors(x, data):
    # oracle: sum over j != m of casimir_apply(x, m, j) / (u_m - u_j)
    n = x.n
    u = ParameterPoint(tuple(data.draw(st.lists(fractions, min_size=n, max_size=n, unique=True))))
    m = data.draw(st.integers(1, n))
    expected = zero_vector(n, x.k)
    for j in range(1, n + 1):
        if j != m:
            expected = expected + casimir_apply(x, m, j) * (1 / (u.u(m) - u.u(j)))
    got = hamiltonian_apply(m, u, x)
    assert got == expected
    assert all(type(c) is Fraction for c in got.coeffs)
