"""The oracles do not reach the production routes they check.

Each row names a production route and the independent oracles set
against it.  With the route rebound to raise in every package module
that imported it, each oracle must still give the value it gave before,
and that value must be the route's own.  A row passing proves, by
construction rather than by reading, that the oracle is a second route.

The streamed export is checked the other way round as well: with the
symbolic expansion disabled, the CLI must still give the oracle's bytes.
Every oracle of the north star, and every package function named as an
oracle, must appear in some row.

Two more tables show that every registry check can fail: one plausible
mutant of a name its route reads must turn the report to fail while it
still checks the same cases.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import sys

import pytest

import gaudin_potentials
import gaudin_potentials.checks as checks_mod
import gaudin_potentials.cli as cli_mod
import gaudin_potentials.operators as operators_mod
import gaudin_potentials.potentials as potentials_mod
import gaudin_potentials.projection as projection_mod
import gaudin_potentials.symbolic as symbolic_mod
import gaudin_potentials.weight_space as weight_space_mod
from gaudin_potentials.checks import registry
from gaudin_potentials.cli import RunConfig
from gaudin_potentials.operators import casimir_apply, evaluate_basis_action, hamiltonian_basis_action
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.potentials import build_P, build_Q
from gaudin_potentials.projection import oracle_decompose, project_oracle
from gaudin_potentials.symbolic import LogRationalExpr, dumps_expr
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


def _cli_exports():
    out = []
    for kind in ("P", "Q"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_mod.main(["potential", "--n", str(N), "--k", str(K), "--kind", kind])
        out.append(buf.getvalue())
    return out


def _expanded_exports():
    return [dumps_expr(LogRationalExpr.from_polynomial(build_P(N, K))), dumps_expr(build_Q(N, K))]


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
    (
        potentials_mod,
        "export_lines",
        _cli_exports,
        {"dumps_expr(build_P, build_Q)": _expanded_exports},
    ),
]

CASES = [
    pytest.param(module, route, production, oracle, id=f"{route}-{name}")
    for module, route, production, oracles in ROWS
    for name, oracle in oracles.items()
]


# the north star's independent routes; each must have an independence row
NORTH_STAR_ORACLES = {
    "project_oracle",
    "oracle_decompose",
    "oracle_coefficients",
    "casimir_apply",
    "evaluate_basis_action",
    "dumps_expr",
}


def test_every_oracle_has_an_independence_row():
    named = {word for _, _, _, oracles in ROWS for key in oracles for word in re.findall(r"\w+", key)}
    assert NORTH_STAR_ORACLES <= named
    # an oracle added to the package without a row fails here
    modules = [
        importlib.import_module(f"gaudin_potentials.{info.name}")
        for info in pkgutil.iter_modules(gaudin_potentials.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    package_oracles = {
        name
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and "oracle" in name
        and not name.startswith("check_")
    }
    assert package_oracles
    assert package_oracles <= NORTH_STAR_ORACLES


def _clear_package_caches():
    # a memo filled before the route was disabled would hide a call to it
    for name, module in list(sys.modules.items()):
        if name.startswith("gaudin_potentials"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _rebind(monkeypatch, original, replacement):
    """Bind `replacement` wherever a package module bound `original`."""
    _clear_package_caches()
    for name, mod in list(sys.modules.items()):
        if name.startswith("gaudin_potentials"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def _disable(monkeypatch, original, message):
    def disabled(*args, **kwargs):
        raise AssertionError(message)

    _rebind(monkeypatch, original, disabled)


@pytest.mark.parametrize("module,route,production,oracle", CASES)
def test_oracle_survives_disabled_route(monkeypatch, module, route, production, oracle):
    expected = production()
    before = oracle()
    assert before == expected

    _disable(monkeypatch, getattr(module, route), f"the oracle reached the production route {route}")
    with pytest.raises(AssertionError, match="production route"):
        production()
    assert oracle() == before


# the symbolic expansion and serializer behind the export oracle
EXPANSION = [
    (potentials_mod, "_square_sums"),
    (potentials_mod, "build_P"),
    (potentials_mod, "build_Q"),
    (symbolic_mod, "dumps_expr"),
]


def test_streamed_export_survives_disabled_expansion(monkeypatch):
    expected = _expanded_exports()
    for module, name in EXPANSION:
        _disable(monkeypatch, getattr(module, name), f"the export reached the expansion {name}")
    with pytest.raises(AssertionError, match="expansion build_Q"):
        potentials_mod.build_Q(N, K)
    assert _cli_exports() == expected


def _swap_a0_a1(coefficients):
    def mutant(n, k):
        table = coefficients(n, k)
        a = list(table.a)
        a[0], a[1] = a[1], a[0]
        return table._replace(a=tuple(a))

    return mutant


def _doubled(build):
    return lambda *args: build(*args) * 2


def _first_pole_dropped(hamiltonian_pairing):
    def mutant(m, I, J):
        pf = hamiltonian_pairing(m, I, J)
        return pf._replace(terms=pf.terms[1:])

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


def _a_shifted_by_one(coefficients):
    # project then reads a[|I meet J| - 1]: an off-by-one intersection index
    def mutant(n, k):
        table = coefficients(n, k)
        return table._replace(a=table.a[-1:] + table.a[:-1])

    return mutant


def _denominator_dropped(embed_in_factors):
    def mutant(vec, slots, n):
        return embed_in_factors(vec, slots, n) * vec.den

    return mutant


def _negated(apply_f):
    return lambda x: -apply_f(x)


def _last_pole_dropped(hamiltonian_apply):
    # the pole sum runs over j < n instead of j <= n
    def mutant(m, u, x):
        out = hamiltonian_apply(m, u, x)
        if m == x.n:
            return out
        return out - casimir_apply(x, m, x.n) * (1 / (u.u(m) - u.u(x.n)))

    return mutant


def _pole_sign_flipped(hamiltonian_apply):
    # 1/(u_j - u_m) for 1/(u_m - u_j)
    return lambda m, u, x: -hamiltonian_apply(m, u, x)


# (check, module, name, mutant of it, (n, k)); the mutant is bound
# wherever a package module bound the name.  locality at k = 1, where the
# check pins its constant to 2/n
OPERATOR_SENSITIVITY = [
    ("relations", projection_mod, "coefficients", _a_shifted_by_one, (4, 2)),
    ("locality", projection_mod, "embed_in_factors", _denominator_dropped, (4, 1)),
    ("shapovalov-oracle", weight_space_mod, "apply_f", _negated, (4, 2)),
    ("corollary", operators_mod, "hamiltonian_apply", _last_pole_dropped, (4, 2)),
    ("hamiltonian-properties", operators_mod, "hamiltonian_apply", _pole_sign_flipped, (4, 2)),
]


@pytest.mark.parametrize(
    "check,module,name,mutate,size",
    OPERATOR_SENSITIVITY,
    ids=[f"{check}-{name}" for check, _, name, _, _ in OPERATOR_SENSITIVITY],
)
def test_operator_check_fails_on_mutant(monkeypatch, check, module, name, mutate, size):
    config = RunConfig(*size, checks=(check,))
    run = registry()[check]
    good = run(config)
    assert good.passed
    original = getattr(module, name)
    _rebind(monkeypatch, original, mutate(original))
    bad = run(config)
    # memos filled under the mutant must not outlive it
    _clear_package_caches()
    assert not bad.passed
    assert bad.cases_checked == good.cases_checked


def test_every_check_has_a_sensitivity_row():
    covered = {row[0] for row in SENSITIVITY + OPERATOR_SENSITIVITY}
    assert covered == set(registry())


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
