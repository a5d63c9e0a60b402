"""Verification checks behind the CLI's check names.

Each check exercises one family of exact identities at a given (n, k)
and returns a CheckReport; `cli.run_checks` times it and turns an
exception it raises into a failed report.  The theorem checks live in
`potentials`; this module adds the projection-oracle, defining-relation,
locality and operator-property checks, plus the registry the CLI
dispatches on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .operators import (
    ParameterPoint,
    evaluate_basis_action,
    hamiltonian_apply,
    hamiltonian_basis_action,
    hamiltonian_matrix,
    hamiltonian_pairing,
)
from .potentials import verify_corollary, verify_relation, verify_theorem_first, verify_theorem_second
from .projection import (
    coefficients,
    embed_in_factors,
    oracle_decompose,
    pairing_closed_form,
    pairing_difference,
    project,
    project_oracle,
)
from .report import CheckReport
from .weight_space import (
    SubsetIndex,
    apply_e,
    apply_f,
    apply_h,
    basis_vector,
    is_singular,
    shapovalov,
    subsets,
    zero_vector,
)


def oracle_coefficients(n: int, k: int) -> tuple[list[Fraction], list[Fraction]]:
    """Extract the a- and b-tables from the Gram-solve oracle alone.

    a[l] is read off the oracle projection of V_{1..k} at subsets meeting
    it in l elements; b[l] comes from the lowering coefficients of the
    same decomposition.  Raises if either family fails to be constant on
    an intersection-size class.
    """
    I = SubsetIndex.of(n, range(1, k + 1))
    s, y = oracle_decompose(basis_vector(n, I))
    a_vals: list[Fraction | None] = [None] * (k + 1)
    for J in subsets(n, k):
        ell = I.intersection_size(J)
        val = s.coefficient(J)
        if a_vals[ell] is None:
            a_vals[ell] = val
        elif a_vals[ell] != val:
            raise RuntimeError(f"oracle projection not constant on |I∩J|={ell}")
    b_vals: list[Fraction | None] = [None] * k
    for K in subsets(n, k - 1):
        ell = I.intersection_size(K)
        val = -y.coefficient(K)
        if b_vals[ell] is None:
            b_vals[ell] = val
        elif b_vals[ell] != val:
            raise RuntimeError(f"oracle lowering coefficients not constant on |I∩K|={ell}")
    return [v for v in a_vals], [v for v in b_vals]


def check_shapovalov_oracle(n: int, k: int) -> CheckReport:
    """Closed-form projection versus the Gram-solve oracle, plus the
    pairing and expansion contracts tied to the coefficient tables."""
    rep = CheckReport("shapovalov-oracle")
    table = coefficients(n, k)
    oracle_a, oracle_b = oracle_coefficients(n, k)
    rep.record(list(table.a) == oracle_a, what="a-table vs oracle", closed=table.a, oracle=oracle_a)
    rep.record(list(table.b) == oracle_b, what="b-table vs oracle", closed=table.b, oracle=oracle_b)
    for ell in range(1, k + 1):
        rep.record(
            table.a[ell - 1] - table.a[ell] == pairing_difference(n, k, ell),
            what="pairing difference",
            ell=ell,
        )
    all_subsets = subsets(n, k)
    projected = []
    for I in all_subsets:
        v = project(basis_vector(n, I))
        projected.append(v)
        rep.record(v == project_oracle(basis_vector(n, I)), what="projection vs oracle", I=I)
        rep.record(is_singular(v), what="projected vector singular", I=I)
        rep.record(project(v) == v, what="projection idempotent", I=I)
        # b-expansion: V_I plus the b-weighted lowered sums reconstructs v_I
        recon = basis_vector(n, I)
        for K in subsets(n, k - 1):
            recon = recon + table.b[I.intersection_size(K)] * apply_f(basis_vector(n, K))
        rep.record(recon == v, what="b-expansion", I=I)
    for i, I in enumerate(all_subsets):
        for j, J in enumerate(all_subsets):
            expected = pairing_closed_form(I, J)
            rep.record(
                shapovalov(projected[i], projected[j]) == expected
                and shapovalov(projected[i], basis_vector(n, J)) == expected,
                what="pairing closed form",
                I=I,
                J=J,
            )
    return rep


def check_relations(n: int, k: int) -> CheckReport:
    """Defining relations: summing the projections of V_{K+m} over all
    m outside a (k-1)-subset K gives zero, exactly."""
    rep = CheckReport("relations")
    for K in subsets(n, k - 1):
        acc = zero_vector(n, k)
        for m in range(1, n + 1):
            if K.contains(m):
                continue
            acc = acc + project(basis_vector(n, K.with_element(m)))
        rep.record(acc.is_zero, K=K)
    return rep


def locality_constant(n: int, k: int) -> Fraction:
    """Scalar c with v_{1..k} = c * sum of embedded small-space projections.

    The embedded sum places the projected half-full vector of the
    2k-factor space into factors {1..k} union J, summed over k-subsets J
    of {k+1..n}.  Raises if the two vectors are not exact multiples.
    """
    I = SubsetIndex.of(n, range(1, k + 1))
    v = project(basis_vector(n, I))
    small = project(basis_vector(2 * k, SubsetIndex.of(2 * k, range(1, k + 1))))
    total = zero_vector(n, k)
    base = tuple(range(1, k + 1))
    for J in subsets(n - k, k):
        slots = base + tuple(e + k for e in J.elements)
        total = total + embed_in_factors(small, slots, n)
    ratio = None
    for a, b in zip(v.coeffs, total.coeffs):
        if (a == 0) != (b == 0):
            raise RuntimeError("embedded sum has different support than the projected vector")
        if b != 0:
            r = a / b
            if ratio is None:
                ratio = r
            elif ratio != r:
                raise RuntimeError("projected vector is not a scalar multiple of the embedded sum")
    if not ratio:
        raise RuntimeError("degenerate locality comparison")
    return ratio


def check_locality(n: int, k: int) -> CheckReport:
    """Projection locality: one small-space projection, embedded and
    summed, reproduces v_{1..k} up to a computed nonzero constant."""
    rep = CheckReport("locality")
    c = locality_constant(n, k)
    rep.details = {"constant": str(c)}
    rep.record(c != 0, what="constant nonzero", constant=c)
    if k == 1:
        rep.record(c == Fraction(2, n), what="k=1 constant 2/n", constant=c)
    return rep


def check_hamiltonian_properties(n: int, k: int, points: Sequence[ParameterPoint]) -> CheckReport:
    """Operator algebra at exact points: symmetry, commutativity, sl2
    equivariance, projector commutation, and agreement of the two
    independent application paths."""
    rep = CheckReport("hamiltonian-properties")
    basis = [basis_vector(n, I) for I in subsets(n, k)]
    for u in points:
        columns = {m: hamiltonian_matrix(m, u, n, k) for m in range(1, n + 1)}
        for m in range(1, n + 1):
            mat = [col.coeffs for col in columns[m]]  # mat[c][r]: row r of column c
            dim = len(mat)
            symmetric = all(mat[c][r] == mat[r][c] for r in range(dim) for c in range(r + 1, dim))
            rep.record(symmetric, what="symmetry", m=m, point=u.values)
        for m in range(1, n + 1):
            for j in range(m + 1, n + 1):
                ok = all(
                    hamiltonian_apply(m, u, hj_x) == hamiltonian_apply(j, u, hm_x)
                    for hm_x, hj_x in zip(columns[m], columns[j])
                )
                rep.record(ok, what="commutativity", m=m, j=j, point=u.values)
        for m in range(1, n + 1):
            pairs = list(zip(columns[m], basis))
            ok_e = all(apply_e(hx) == hamiltonian_apply(m, u, apply_e(x)) for hx, x in pairs)
            ok_f = all(apply_f(hx) == hamiltonian_apply(m, u, apply_f(x)) for hx, x in pairs)
            ok_h = all(apply_h(hx) == hamiltonian_apply(m, u, apply_h(x)) for hx, x in pairs)
            rep.record(ok_e and ok_f and ok_h, what="sl2 equivariance", m=m, point=u.values)
        for m in range(1, n + 1):
            ok = all(
                project(hx) == hamiltonian_apply(m, u, project(x))
                for hx, x in zip(columns[m], basis)
            )
            rep.record(ok, what="projector commutation", m=m, point=u.values)
        for m in range(1, n + 1):
            for I, hx in zip(subsets(n, k), columns[m]):
                terms = hamiltonian_basis_action(m, I)
                ok = evaluate_basis_action(terms, u, n, k) == hx
                rep.record(ok, what="basis action vs direct application", m=m, I=I)
        # pairing function against the full operator route, on a few vectors
        for m in (1, n):
            for I in subsets(n, k)[:3]:
                for J in subsets(n, k)[-3:]:
                    pf = hamiltonian_pairing(m, I, J)
                    direct = shapovalov(
                        hamiltonian_apply(m, u, project(basis_vector(n, I))),
                        project(basis_vector(n, J)),
                    )
                    rep.record(
                        pf.evaluate(u) == direct, what="pairing vs operator route", m=m, I=I, J=J
                    )
    return rep


def registry() -> dict[str, Callable]:
    """Check names in default (cheapest-first) execution order."""
    return {
        "relations": lambda cfg: check_relations(cfg.n, cfg.k),
        "locality": lambda cfg: check_locality(cfg.n, cfg.k),
        "shapovalov-oracle": lambda cfg: check_shapovalov_oracle(cfg.n, cfg.k),
        "corollary": lambda cfg: verify_corollary(cfg.n, cfg.k, points=cfg.parameter_points()),
        "hamiltonian-properties": lambda cfg: check_hamiltonian_properties(
            cfg.n, cfg.k, points=cfg.parameter_points()
        ),
        "theorem1": lambda cfg: verify_theorem_first(cfg.n, cfg.k),
        "relation": lambda cfg: verify_relation(cfg.n, cfg.k),
        "theorem2": lambda cfg: verify_theorem_second(cfg.n, cfg.k, points=cfg.parameter_points()),
    }
