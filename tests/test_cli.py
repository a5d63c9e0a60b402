import hashlib
import json
import subprocess
import sys

import pytest

import gaudin_potentials.checks as checks_mod
import gaudin_potentials.cli as cli_mod
from gaudin_potentials.cli import main
from gaudin_potentials.potentials import build_Q
from gaudin_potentials.symbolic import expr_equal, loads_expr


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_tables_output(capsys):
    code, out = run_cli(["tables", "--n", "4", "--k", "2"], capsys)
    assert code == 0
    assert "a[0] = 1/3" in out
    assert "a[1] = -1/6" in out
    assert "a[2] = 1/3" in out
    assert "b[0] = 1/6" in out
    assert "b[1] = -1/3" in out


def test_tables_k1(capsys):
    code, out = run_cli(["tables", "--n", "5", "--k", "1"], capsys)
    assert code == 0
    assert "a[0] = -1/5" in out
    assert "a[1] = 4/5" in out
    assert "b[0] = -1/5" in out


def test_pair_values(capsys):
    code, out = run_cli(["pair", "--n", "2", "--k", "1", "--I", "1", "--J", "1"], capsys)
    assert code == 0 and out == "1/2\n"
    code, out = run_cli(["pair", "--n", "2", "--k", "1", "--I", "1", "--J", "1", "--m", "1"], capsys)
    assert code == 0 and out == "-1/(u_1-u_2)\n"
    code, out = run_cli(["pair", "--n", "4", "--k", "2", "--I", "1,2", "--J", "3,4"], capsys)
    assert code == 0 and out == "1/3\n"


def test_pair_malformed_subset_exits_2(capsys):
    for I, J in [
        ("1,zap", "3,4"),
        ("1", "3,4"),
        # a repeated element is refused, not merged into a smaller subset
        ("1,1,2", "3,4"),
        ("1,2", "3,3,4"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--n", "4", "--k", "2", "--I", I, "--J", J])
        assert exc.value.code == 2, (I, J)
        assert capsys.readouterr().err.startswith("usage: gaudin-potentials pair"), (I, J)


def test_potential_P_golden_bytes(tmp_path, capsys):
    out_file = tmp_path / "p.txt"
    code, _ = run_cli(
        ["potential", "--n", "2", "--k", "1", "--kind", "P", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == (
        "POLY\n1/4 ; (1,1)^2\n-1/2 ; (1,1)^1 (2,1)^1\n1/4 ; (2,1)^2\n"
    )


def test_potential_Q_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "q.txt"
    code, _ = run_cli(
        ["potential", "--n", "4", "--k", "2", "--kind", "Q", "--out", str(out_file)], capsys
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("LOG 1 2\n")
    parsed = loads_expr(text)
    assert parsed == build_Q(4, 2)
    assert expr_equal(parsed, build_Q(4, 2))
    # deterministic bytes on re-export
    out2 = tmp_path / "q2.txt"
    run_cli(["potential", "--n", "4", "--k", "2", "--kind", "Q", "--out", str(out2)], capsys)
    assert out2.read_bytes() == out_file.read_bytes()


@pytest.mark.parametrize(
    "kind,sha256",
    [
        ("P", "9fc2fd563420fe8d94538296f729de63e85d3c707956c19c3a87929723358f12"),
        ("Q", "855d9594b3cca9ea76b6ac55e922e18c4496f17927d6f1594370c11532189182"),
    ],
)
def test_potential_export_bytes_pinned_6_3(kind, sha256, capsys):
    code, out = run_cli(["potential", "--n", "6", "--k", "3", "--kind", kind], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_verify_json_all_pass(capsys):
    code, out = run_cli(["verify", "--n", "4", "--k", "2", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4 and report["k"] == 2
    names = [c["name"] for c in report["checks"]]
    assert set(names) == {
        "relations",
        "locality",
        "shapovalov-oracle",
        "corollary",
        "hamiltonian-properties",
        "theorem1",
        "relation",
        "theorem2",
    }
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all(c["first_failure"] is None for c in report["checks"])


def test_verify_single_check_counts(capsys):
    code, out = run_cli(
        ["verify", "--n", "6", "--k", "2", "--check", "theorem2", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    (chk,) = report["checks"]
    assert chk["name"] == "theorem2"
    assert chk["cases_checked"] == 15 * 15 * 6


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--k", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--k", "2", "--check", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "80", "--k", "1"])
    assert exc.value.code == 2
    # a seeded run that would check no seeded point is refused, and so is
    # --points without --seed; an unknown check name is refused even next
    # to `all`; the error shows the subcommand's usage line
    for extra, message in [
        (["--seed", "3", "--points", "-5"], "--points must be at least 1"),
        (["--seed", "3", "--points", "0"], "--points must be at least 1"),
        (["--check", "theorem1", "--points", "5"], "--points needs --seed"),
        (["--check", "all", "--check", "bogus"], "unknown checks: bogus"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "4", "--k", "2", *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gaudin-potentials verify")
        assert message in err


# (subcommand arguments, the cli name that does its work)
OUT_CASES = [
    (["verify", "--n", "4", "--k", "2"], "run_checks"),
    (["tables", "--n", "4", "--k", "2"], "coefficients"),
    (["potential", "--n", "4", "--k", "2", "--kind", "P"], "export_lines"),
    (["pair", "--n", "4", "--k", "2", "--I", "1,2", "--J", "3,4", "--m", "1"], "hamiltonian_pairing"),
]


@pytest.mark.parametrize("args,work", OUT_CASES, ids=[args[0] for args, _ in OUT_CASES])
def test_unwritable_out_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys, args, work):
    def no_work(*_args, **_kwargs):
        raise AssertionError(f"{work} ran before --out was opened")

    monkeypatch.setattr(cli_mod, work, no_work)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "missing" / "out.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gaudin-potentials {args[0]}")
    assert "--out" in err
    # a size error still leaves no file
    out = tmp_path / "out.txt"
    sized = [a if a != "4" else "3" for a in args]
    with pytest.raises(SystemExit) as exc:
        main(sized + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def _strip_timings(report):
    for chk in report["checks"]:
        chk.pop("elapsed_s", None)
    return report


def test_verify_deterministic_reports(tmp_path, capsys):
    args = ["verify", "--n", "4", "--k", "2", "--format", "json", "--seed", "11"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    r1 = json.loads(f1.read_text())
    r2 = json.loads(f2.read_text())
    assert _strip_timings(r1) == _strip_timings(r2)


def test_verify_reports_a_raising_check_and_keeps_the_others(tmp_path, monkeypatch):
    def broken(n, k):
        raise RuntimeError("oracle lowering coefficients not constant")

    monkeypatch.setattr(checks_mod, "oracle_coefficients", broken)
    with pytest.raises(RuntimeError):
        checks_mod.check_shapovalov_oracle(4, 2)  # the library call still raises
    out = tmp_path / "report.json"
    args = ["verify", "--n", "4", "--k", "2", "--check", "relations", "--check", "shapovalov-oracle"]
    assert main(args + ["--format", "json", "--out", str(out)]) == 1
    relations, oracle = json.loads(out.read_text())["checks"]
    assert (relations["name"], relations["status"], relations["first_failure"]) == ("relations", "pass", None)
    assert (oracle["name"], oracle["status"], oracle["cases_checked"]) == ("shapovalov-oracle", "fail", 0)
    assert oracle["first_failure"] == {"error": "RuntimeError: oracle lowering coefficients not constant"}


def test_verify_text_format(capsys):
    code, out = run_cli(["verify", "--n", "4", "--k", "1", "--check", "theorem1"], capsys)
    assert code == 0
    assert "[PASS] theorem1" in out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gaudin_potentials", "pair", "--n", "2", "--k", "1", "--I", "1", "--J", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-1/2\n"
