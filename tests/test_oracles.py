"""The oracles do not reach the production routes they check.

Each row names a production route and the independent oracles set
against it.  With the route rebound to raise in every package module
that imported it, each oracle must still give the value it gave before,
and that value must be the route's own.  A row passing proves, by
construction rather than by reading, that the oracle is a second route.

A second table shows that each theorem check can fail: one plausible
mutant of a name its route reads must turn the report to fail while it
still checks the same cases.
"""

import dataclasses
import sys

import pytest

import gaudin_potentials.checks as checks_mod
import gaudin_potentials.operators as operators_mod
import gaudin_potentials.potentials as potentials_mod
import gaudin_potentials.projection as projection_mod
from gaudin_potentials.operators import casimir_apply, evaluate_basis_action, hamiltonian_basis_action
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.projection import oracle_decompose, project_oracle
from gaudin_potentials.weight_space import basis_vector, subsets, zero_vector

# Every route is linear, so its values on the basis determine it.
N, K = 5, 2
BASIS = [(I, basis_vector(N, I)) for I in subsets(N, K)]


def _point():
    return deterministic_parameter_points(N)[0]


def _casimir_sum():
    u = _point()
    out = []
    for m in range(1, N + 1):
        for _, x in BASIS:
            total = zero_vector(N, K)
            for j in range(1, N + 1):
                if j != m:
                    total = total + casimir_apply(x, m, j) * (1 / (u.u(m) - u.u(j)))
            out.append(total)
    return out


def _basis_action():
    u = _point()
    return [
        evaluate_basis_action(hamiltonian_basis_action(m, I), u, N, K)
        for m in range(1, N + 1)
        for I, _ in BASIS
    ]


def _coefficients():
    table = projection_mod.coefficients(N, K)
    return list(table.a), list(table.b)


# (route module, route name, production value, {oracle name: oracle value});
# the production value goes through the module attribute, so that it
# sees the route disabled
ROWS = [
    (
        projection_mod,
        "project",
        lambda: [projection_mod.project(x) for _, x in BASIS],
        {
            "project_oracle": lambda: [project_oracle(x) for _, x in BASIS],
            "oracle_decompose": lambda: [oracle_decompose(x)[0] for _, x in BASIS],
        },
    ),
    (
        projection_mod,
        "coefficients",
        _coefficients,
        {"oracle_coefficients": lambda: checks_mod.oracle_coefficients(N, K)},
    ),
    (
        operators_mod,
        "hamiltonian_apply",
        lambda: [
            operators_mod.hamiltonian_apply(m, _point(), x) for m in range(1, N + 1) for _, x in BASIS
        ],
        {"casimir_apply sum": _casimir_sum, "evaluate_basis_action": _basis_action},
    ),
]

CASES = [
    pytest.param(module, route, production, oracle, id=f"{route}-{name}")
    for module, route, production, oracles in ROWS
    for name, oracle in oracles.items()
]


def _clear_package_caches():
    # a memo filled before the route was disabled would hide a call to it
    for name, module in list(sys.modules.items()):
        if name.startswith("gaudin_potentials"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.mark.parametrize("module,route,production,oracle", CASES)
def test_oracle_survives_disabled_route(monkeypatch, module, route, production, oracle):
    expected = production()
    before = oracle()
    assert before == expected

    original = getattr(module, route)

    def disabled(*args, **kwargs):
        raise AssertionError(f"the oracle reached the production route {route}")

    _clear_package_caches()
    for name, mod in list(sys.modules.items()):
        if name.startswith("gaudin_potentials"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, disabled)
    with pytest.raises(AssertionError, match="production route"):
        production()
    assert oracle() == before


def _swap_a0_a1(coefficients):
    def mutant(n, k):
        table = coefficients(n, k)
        a = list(table.a)
        a[0], a[1] = a[1], a[0]
        return dataclasses.replace(table, a=tuple(a))

    return mutant


def _doubled(build):
    return lambda *args: build(*args) * 2


def _first_pole_dropped(hamiltonian_pairing):
    def mutant(m, I, J):
        pf = hamiltonian_pairing(m, I, J)
        return dataclasses.replace(pf, terms=pf.terms[1:])

    return mutant


# (check, name in potentials, mutant of it); _first_kind guards the P
# phase of the relation check and _second_kind its Q phase
SENSITIVITY = [
    ("theorem1", "coefficients", _swap_a0_a1),
    ("relation", "_first_kind", _doubled),
    ("relation", "_second_kind", _doubled),
    ("theorem2", "hamiltonian_pairing", _first_pole_dropped),
]

THEOREM_CHECKS = {
    "theorem1": potentials_mod.verify_theorem_first,
    "relation": potentials_mod.verify_relation,
    "theorem2": potentials_mod.verify_theorem_second,
}


@pytest.mark.parametrize("n,k", [(4, 2), (7, 2)], ids=["exhaustive", "stratified"])
@pytest.mark.parametrize(
    "check,name,mutate", SENSITIVITY, ids=[f"{check}-{name}" for check, name, _ in SENSITIVITY]
)
def test_theorem_check_fails_on_mutant(monkeypatch, n, k, check, name, mutate):
    verify = THEOREM_CHECKS[check]
    good = verify(n, k)
    assert good.passed
    monkeypatch.setattr(potentials_mod, name, mutate(getattr(potentials_mod, name)))
    bad = verify(n, k)
    assert not bad.passed
    assert bad.cases_checked == good.cases_checked
