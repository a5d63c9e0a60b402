"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints one [PASS] line on success; a failing assertion marks
the criterion failed.  Runtime limits are asserted where stated.
"""

import json
import time
from fractions import Fraction

from gaudin_potentials.checks import (
    check_hamiltonian_properties,
    check_locality,
    check_relations,
    locality_constant,
    oracle_coefficients,
)
from gaudin_potentials.cli import RunConfig, run_checks
from gaudin_potentials.operators import hamiltonian_apply, hamiltonian_pairing
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.potentials import (
    alpha_count,
    build_Q,
    enumerate_alpha,
    lift_pairing,
    sample_pairs,
    verify_corollary,
    verify_relation,
    verify_theorem_first,
    verify_theorem_second,
)
from gaudin_potentials.projection import coefficients, project
from gaudin_potentials.symbolic import LinearForm, LogRationalExpr, Polynomial, Var, expr_equal
from gaudin_potentials.weight_space import SubsetIndex, basis_vector, subsets, zero_vector


def _size_grid(max_n, max_k):
    return [(n, k) for n in range(2, max_n + 1) for k in range(1, min(max_k, n // 2) + 1)]


def test_criterion_01_coefficient_tables():
    started = time.perf_counter()
    for n, k in _size_grid(10, 3):
        table = coefficients(n, k)
        oracle_a, oracle_b = oracle_coefficients(n, k)
        assert list(table.a) == oracle_a, (n, k)
        assert list(table.b) == oracle_b, (n, k)
        if k == 1:
            assert table.b[0] == Fraction(-1, n)
            assert table.a[0] == Fraction(-1, n)
            assert table.a[1] == Fraction(n - 1, n)
        if k == 2:
            assert table.b[0] == Fraction(1, (n - 1) * (n - 2))
            assert table.b[1] == Fraction(-1, n - 1)
            assert table.a[0] == Fraction(2, (n - 2) * (n - 1))
            assert table.a[1] == Fraction(-(n - 3), (n - 2) * (n - 1))
            assert table.a[2] == Fraction(n - 3, n - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"coefficient-table check took {elapsed:.1f}s"
    print(f"[PASS] criterion 1: coefficient tables match Gram oracle, n<=10 ({elapsed:.1f}s)")


def test_criterion_02_defining_relations():
    for n, k in _size_grid(8, 3):
        report = check_relations(n, k)
        assert report.passed, (n, k, report.first_failure)
    print("[PASS] criterion 2: defining relations hold exactly, n<=8, k<=3")


def _exhaustive_grid():
    return [(n, k) for n in range(2, 7) for k in range(1, min(2, n // 2) + 1)]


def test_criterion_03_theorem_first():
    started = time.perf_counter()
    for n, k in _exhaustive_grid():
        report = verify_theorem_first(n, k)
        assert report.passed, (n, k, report.first_failure)
        assert report.cases_checked == len(subsets(n, k)) ** 2
    for n in (7, 8):
        report = verify_theorem_first(n, 3)
        assert report.passed, (n, 3, report.first_failure)
        assert report.cases_checked >= 4  # every intersection size represented
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"theorem-1 check took {elapsed:.1f}s"
    print(f"[PASS] criterion 3: first-potential pairings, exhaustive n<=6 + stratified ({elapsed:.1f}s)")


def test_criterion_04_theorem_second():
    for n, k in _exhaustive_grid():
        report = verify_theorem_second(n, k, deterministic_parameter_points(n))
        assert report.passed, (n, k, report.first_failure)
        assert report.cases_checked == n * len(subsets(n, k)) ** 2
    for n in (7, 8):
        triples = [(m, I, J) for I, J in sample_pairs(n, 3) for m in range(1, n + 1)]
        assert len(triples) >= 50
        placements = set()
        for m, I, J in triples:
            if I.contains(m) and J.contains(m):
                placements.add("both")
            elif I.contains(m) and not J.contains(m):
                placements.add("I only")
            elif not I.contains(m) and not J.contains(m):
                placements.add("outside")
        assert {"both", "I only", "outside"} <= placements
        report = verify_theorem_second(n, 3, deterministic_parameter_points(n))
        assert report.passed, (n, 3, report.first_failure)
        assert report.cases_checked == len(triples)
    print("[PASS] criterion 4: second-potential pairings, structural + 3-point evaluation")


def test_criterion_05_k1_specialization():
    for n in range(2, 11):
        report = verify_theorem_second(n, 1, deterministic_parameter_points(n))
        assert report.passed, (n, report.first_failure)
        assert report.cases_checked == n * n * n
    # closed n=2 case: the triple derivative is exactly -1/(z1 - z2)
    E = build_Q(2, 1)
    for _ in range(3):
        E = E.differentiate(Var(1, 1))
    E = E.reduced()
    assert E == LogRationalExpr(dens={LinearForm(1, 2): {1: Polynomial.constant(-1)}})
    pf = hamiltonian_pairing(1, SubsetIndex.of(2, [1]), SubsetIndex.of(2, [1]))
    assert expr_equal(E, lift_pairing(pf))
    print("[PASS] criterion 5: k=1 third-derivative identity, exhaustive n<=10")


def test_criterion_06_relation_between_potentials():
    for n, k in _exhaustive_grid():
        report = verify_relation(n, k)
        assert report.passed, (n, k, report.first_failure)
        assert report.cases_checked == len(subsets(n, k)) ** 2
    print("[PASS] criterion 6: relation between the two potentials, all (I,J), n<=6, k<=2")


def test_criterion_07_corollary_scalar():
    for n, k in _size_grid(8, 3):
        report = verify_corollary(n, k, deterministic_parameter_points(n))
        assert report.passed, (n, k, report.first_failure)
        assert report.cases_checked == 3 * len(subsets(n, k))
    # spot value -12 at (6,3)
    n, k = 6, 3
    u = deterministic_parameter_points(n)[0]
    v = project(basis_vector(n, SubsetIndex.of(n, [1, 2, 3])))
    acc = zero_vector(n, k)
    for m in range(1, n + 1):
        acc = acc + hamiltonian_apply(m, u, v) * u.u(m)
    assert acc == v * Fraction(-12)
    print("[PASS] criterion 7: weighted Hamiltonian sum is the scalar -k(n-k+1), n<=8, k<=3")


def test_criterion_08_enumeration_counts():
    for n in range(2, 11):
        for k in range(1, min(4, n // 2) + 1):
            seqs = list(enumerate_alpha(n, k))
            assert len(seqs) == alpha_count(n, k), (n, k)
            assert len(set(seqs)) == len(seqs), (n, k)
    assert alpha_count(4, 2) == 6
    assert alpha_count(6, 2) == 90
    assert alpha_count(8, 3) == 2520
    print("[PASS] criterion 8: pair-sequence enumeration matches n!/(2^k (n-2k)!), n<=10, k<=4")


def test_criterion_09_operator_properties():
    for n, k in _size_grid(8, 3):
        report = check_hamiltonian_properties(n, k, deterministic_parameter_points(n))
        assert report.passed, (n, k, report.first_failure)
    print("[PASS] criterion 9: symmetry, commutativity, equivariance, projector commutation, n<=8")


def test_criterion_10_locality():
    for n, k in _size_grid(8, 3):
        c = locality_constant(n, k)
        assert c != 0, (n, k)
        report = check_locality(n, k)
        assert report.passed and report.details is not None
    for n in range(2, 13):
        assert locality_constant(n, 1) == Fraction(2, n)
    print("[PASS] criterion 10: projection locality constant exists; equals 2/n at k=1")


def test_criterion_11_determinism():
    config = RunConfig(n=4, k=2, checks=("relations", "shapovalov-oracle", "theorem1", "theorem2"), seed=3)
    status1, report1 = run_checks(config)
    status2, report2 = run_checks(config)
    assert status1 == status2 == 0

    def stripped(r):
        clone = json.loads(json.dumps(r))
        for chk in clone["checks"]:
            chk.pop("elapsed_s", None)
        return json.dumps(clone, sort_keys=False)

    assert stripped(report1) == stripped(report2)
    print("[PASS] criterion 11: identical configuration gives identical reports modulo timings")
