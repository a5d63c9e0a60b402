import json

from fractions import Fraction

import pytest

import gaudin_potentials.checks as checks_mod
from gaudin_potentials.checks import (
    check_hamiltonian_properties,
    check_locality,
    check_relations,
    check_shapovalov_oracle,
)
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.cli import RunConfig, render_text_report, run_checks
from gaudin_potentials.report import CheckReport


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 2), (6, 3)])
def test_core_checks_pass(n, k):
    assert check_shapovalov_oracle(n, k).passed
    assert check_relations(n, k).passed
    loc = check_locality(n, k)
    assert loc.passed
    assert "constant" in loc.details
    assert check_hamiltonian_properties(n, k, deterministic_parameter_points(n)).passed


def test_hamiltonian_properties_catch_a_wrong_hamiltonian(monkeypatch):
    # H_2 scaled by 2 still commutes with everything; only the independent
    # basis-action route can tell, so the check must still reach it
    import gaudin_potentials.operators as operators_mod

    right = operators_mod.hamiltonian_apply

    def wrong_for_m2(m, u, x):
        out = right(m, u, x)
        return out * 2 if m == 2 else out

    monkeypatch.setattr(operators_mod, "hamiltonian_apply", wrong_for_m2)
    monkeypatch.setattr(checks_mod, "hamiltonian_apply", wrong_for_m2)
    rep = check_hamiltonian_properties(4, 2, deterministic_parameter_points(4))
    assert not rep.passed
    assert rep.first_failure["what"] == "basis action vs direct application"
    assert rep.first_failure["m"] == "2"


def test_locality_reports_k1_constant():
    rep = check_locality(6, 1)
    assert rep.details == {"constant": str(Fraction(2, 6))}


def test_run_checks_exit_status_on_failure(monkeypatch):
    def failing(cfg):
        return CheckReport("relations", cases_checked=3, first_failure={"why": "injected"})

    reg = {"relations": failing}
    monkeypatch.setattr(checks_mod, "registry", lambda: reg)
    monkeypatch.setattr("gaudin_potentials.cli.registry", lambda: reg)
    config = RunConfig(n=4, k=2, checks=("relations",))
    status, report = run_checks(config)
    assert status == 1
    assert report["checks"][0]["status"] == "fail"
    assert report["checks"][0]["first_failure"] == {"why": "injected"}
    text = render_text_report(report)
    assert "[FAIL] relations" in text


def test_report_json_shape():
    config = RunConfig(n=4, k=2, checks=("relations", "locality"))
    status, report = run_checks(config)
    assert status == 0
    assert list(report.keys()) == ["n", "k", "checks"]
    for chk in report["checks"]:
        keys = list(chk.keys())
        assert keys[:4] == ["name", "status", "cases_checked", "first_failure"]
        assert keys[-1] == "elapsed_s"
    json.dumps(report)  # serializable


def test_theorem2_and_corollary_share_one_schedule(monkeypatch):
    # theorem2 evaluates at z^(1) = u on the points the operator checks use
    import gaudin_potentials.operators as operators_mod
    import gaudin_potentials.potentials as potentials_mod

    config = RunConfig(5, 2, checks=("theorem2", "corollary"), seed=3, points=2)
    seen = {"theorem2": [], "corollary": []}
    evaluate = operators_mod.PairingFunction.evaluate
    apply = potentials_mod.hamiltonian_apply

    def recording_evaluate(pf, u):
        seen["theorem2"].append(u)
        return evaluate(pf, u)

    def recording_apply(m, u, x):
        seen["corollary"].append(u)
        return apply(m, u, x)

    monkeypatch.setattr(operators_mod.PairingFunction, "evaluate", recording_evaluate)
    monkeypatch.setattr(potentials_mod, "hamiltonian_apply", recording_apply)
    reg = checks_mod.registry()
    assert all(reg[name](config).passed for name in config.checks)
    expected = config.parameter_points()
    assert len(expected) == 5
    for name, points in seen.items():
        assert list(dict.fromkeys(points)) == expected, name
