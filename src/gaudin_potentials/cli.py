"""Command-line harness: verify, tables, potential, pair.

Exit status contract for `verify`: 0 when every selected check passes,
1 when any check fails or raises, 2 on usage errors.  Reports are
deterministic for a fixed configuration (including the seed) up to the
elapsed-time fields.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from functools import partial
from typing import ContextManager, NamedTuple, TextIO

from .checks import registry
from .operators import ParameterPoint, hamiltonian_pairing
from .points import DEFAULT_POINT_COUNT, deterministic_parameter_points, random_parameter_points
from .potentials import export_lines
from .projection import coefficients, pairing_closed_form
from .report import CheckReport
from .weight_space import MAX_N, SubsetIndex

USAGE_ERROR = 2


class RunConfig(NamedTuple):
    """Fully explicit configuration of one `verify` run."""

    n: int
    k: int
    checks: tuple[str, ...]
    seed: int | None = None
    points: int = DEFAULT_POINT_COUNT

    def parameter_points(self) -> list[ParameterPoint]:
        pts = deterministic_parameter_points(self.n)
        if self.seed is not None:
            pts += random_parameter_points(self.n, self.points, self.seed)
        return pts


def run_checks(config: RunConfig) -> tuple[int, dict]:
    """Run the selected checks in order, timing each.  A check that
    raises becomes a failed report naming the exception, and the
    remaining checks still run."""
    reg = registry()
    reports = []
    for name in config.checks:
        started = time.perf_counter()
        try:
            rep = reg[name](config)
        except Exception as exc:  # any error inside a check is that check's failure
            rep = CheckReport(name, first_failure={"error": f"{type(exc).__name__}: {exc}"})
        rep.elapsed_s = time.perf_counter() - started
        reports.append(rep)
    status = 0 if all(r.passed for r in reports) else 1
    report = {
        "n": config.n,
        "k": config.k,
        "checks": [r.to_json_dict() for r in reports],
    }
    return status, report


def render_text_report(report: dict) -> str:
    lines = [f"n={report['n']} k={report['k']}"]
    for chk in report["checks"]:
        status = "PASS" if chk["status"] == "pass" else "FAIL"
        line = f"[{status}] {chk['name']}: {chk['cases_checked']} cases ({chk['elapsed_s']:.3f}s)"
        if chk.get("details"):
            line += f" details={chk['details']}"
        if chk["first_failure"] is not None:
            line += f" first_failure={chk['first_failure']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _open_out(parser: argparse.ArgumentParser, out: str | None) -> ContextManager[TextIO]:
    """The --out file opened for writing, or stdout.  Opened before any
    work, so an unwritable path is a usage error, not a lost result."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"--out {out}: {exc.strerror or exc}")


def _parse_subset_arg(parser: argparse.ArgumentParser, n: int, k: int, raw: str, name: str) -> SubsetIndex:
    try:
        elements = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--{name} must be a comma-separated list of integers, got {raw!r}")
    try:
        ix = SubsetIndex.of(n, elements)
    except ValueError as exc:
        parser.error(f"--{name}: {exc}")
    if ix.size != k:
        parser.error(f"--{name} must have exactly k={k} elements, got {ix}")
    return ix


def _validate_sizes(parser: argparse.ArgumentParser, n: int, k: int) -> None:
    if n < 1 or n > MAX_N:
        parser.error(f"n must lie in 1..{MAX_N}")
    if k < 1:
        parser.error("k must be at least 1")
    if n < 2 * k:
        parser.error(f"need n >= 2k, got n={n}, k={k}")


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_sizes(parser, args.n, args.k)
    if args.points is not None:
        if args.seed is None:
            parser.error("--points needs --seed: it counts the seeded points")
        if args.points < 1:
            parser.error(f"--points must be at least 1, got {args.points}")
    reg = registry()
    unknown = [c for c in args.check if c != "all" and c not in reg]
    if unknown:
        parser.error(f"unknown checks: {', '.join(unknown)} (known: {', '.join(reg)}, all)")
    # keep default execution order, drop duplicates
    selected = tuple(name for name in reg if "all" in args.check or name in args.check)
    points = DEFAULT_POINT_COUNT if args.points is None else args.points
    config = RunConfig(args.n, args.k, selected, seed=args.seed, points=points)
    with _open_out(parser, args.out) as out:
        status, report = run_checks(config)
        if args.format == "json":
            out.write(json.dumps(report, indent=2) + "\n")
        else:
            out.write(render_text_report(report))
    return status


def cmd_tables(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_sizes(parser, args.n, args.k)
    with _open_out(parser, args.out) as out:
        table = coefficients(args.n, args.k)
        lines = [f"n={args.n} k={args.k}"]
        for ell, val in enumerate(table.a):
            lines.append(f"a[{ell}] = {val}")
        for ell, val in enumerate(table.b):
            lines.append(f"b[{ell}] = {val}")
        for ell, val in enumerate(table.a):
            lines.append(f"pairing(|I∩J|={ell}) = {val}")
        out.write("\n".join(lines) + "\n")
    return 0


def cmd_potential(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_sizes(parser, args.n, args.k)
    with _open_out(parser, args.out) as out:
        out.writelines(export_lines(args.n, args.k, args.kind))
    return 0


def cmd_pair(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_sizes(parser, args.n, args.k)
    I = _parse_subset_arg(parser, args.n, args.k, args.I, "I")
    J = _parse_subset_arg(parser, args.n, args.k, args.J, "J")
    if args.m is not None and not 1 <= args.m <= args.n:
        parser.error(f"--m must lie in 1..{args.n}")
    with _open_out(parser, args.out) as out:
        value = pairing_closed_form(I, J) if args.m is None else hamiltonian_pairing(args.m, I, J)
        out.write(f"{value}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaudin-potentials",
        description="Exact verification of the potential-function identities of the sl2 Gaudin model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks and report pass/fail")
    p_verify.add_argument("--n", type=int, required=True, help="number of tensor factors (<= 64)")
    p_verify.add_argument("--k", type=int, required=True, help="weight-space index, n >= 2k")
    p_verify.add_argument(
        "--check",
        action="append",
        default=None,
        help="check name (repeatable); default all. Known: "
        + ", ".join(registry())
        + ", all",
    )
    p_verify.add_argument("--seed", type=int, default=None, help="add seeded random evaluation points")
    p_verify.add_argument(
        "--points",
        type=int,
        default=None,
        help=f"number of extra random points added by --seed (default {DEFAULT_POINT_COUNT})",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="write the report to this file")
    # each handler gets its own subparser, whose usage line its errors print
    p_verify.set_defaults(func=partial(cmd_verify, p_verify))

    p_tables = sub.add_parser("tables", help="print the exact projection coefficient tables")
    p_tables.add_argument("--n", type=int, required=True)
    p_tables.add_argument("--k", type=int, required=True)
    p_tables.add_argument("--out", default=None)
    p_tables.set_defaults(func=partial(cmd_tables, p_tables))

    p_pot = sub.add_parser("potential", help="export a potential in the exchange format")
    p_pot.add_argument("--n", type=int, required=True)
    p_pot.add_argument("--k", type=int, required=True)
    p_pot.add_argument("--kind", choices=("P", "Q"), required=True)
    p_pot.add_argument("--out", default=None, help="output file (stdout if omitted)")
    p_pot.set_defaults(func=partial(cmd_potential, p_pot))

    p_pair = sub.add_parser("pair", help="print an exact pairing value or pairing function")
    p_pair.add_argument("--n", type=int, required=True)
    p_pair.add_argument("--k", type=int, required=True)
    p_pair.add_argument("--I", required=True, help="comma-separated k-subset, e.g. 1,2")
    p_pair.add_argument("--J", required=True, help="comma-separated k-subset")
    p_pair.add_argument("--m", type=int, default=None, help="Hamiltonian index; omit for the plain pairing")
    p_pair.add_argument("--out", default=None)
    p_pair.set_defaults(func=partial(cmd_pair, p_pair))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.check is None:
        args.check = ["all"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
