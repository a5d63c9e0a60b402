import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

import gaudin_potentials.potentials as potentials_mod
from gaudin_potentials.cli import main
from gaudin_potentials.potentials import (
    _double_partial,
    alpha_count,
    build_P,
    build_Q,
    enumerate_alpha,
    export_lines,
    lift_pairing,
    potential_constants,
    sample_pairs,
    verify_corollary,
    verify_relation,
    verify_theorem_first,
    verify_theorem_second,
)
from gaudin_potentials.operators import hamiltonian_pairing
from gaudin_potentials.points import deterministic_parameter_points
from gaudin_potentials.symbolic import (
    DerivativeCache,
    LinearForm,
    LogRationalExpr,
    Polynomial,
    Var,
    dumps_expr,
    expr_equal,
    mono_degree,
)
from gaudin_potentials.weight_space import SubsetIndex


def test_enumerate_alpha_smallest():
    assert list(enumerate_alpha(2, 1)) == [((1, 2),)]


def test_enumerate_alpha_4_2():
    seqs = list(enumerate_alpha(4, 2))
    assert len(seqs) == 6
    assert set(seqs) == {
        ((1, 2), (3, 4)),
        ((3, 4), (1, 2)),
        ((1, 3), (2, 4)),
        ((2, 4), (1, 3)),
        ((1, 4), (2, 3)),
        ((2, 3), (1, 4)),
    }
    flattened = [tuple(x for pair in s for x in pair) for s in seqs]
    assert flattened == sorted(flattened)  # lexicographic emission order


def test_enumerate_alpha_counts():
    for n in range(2, 11):
        for k in range(1, min(4, n // 2) + 1):
            seqs = list(enumerate_alpha(n, k))
            assert len(seqs) == alpha_count(n, k)
            assert len(set(seqs)) == len(seqs)
    assert alpha_count(6, 2) == 90
    assert alpha_count(8, 3) == 2520


def test_enumerate_alpha_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_alpha(3, 2)


def test_potential_constants():
    assert potential_constants(2, 1).c1 == Fraction(1, 4)
    assert potential_constants(4, 2).c2 == Fraction(-1, 8)
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            consts = potential_constants(n, k)
            assert consts.c2 / consts.c1 == -k * (n - k + 1)
    with pytest.raises(ValueError):
        potential_constants(4, 0)


def _oracle_potentials(n, k):
    """The product route: each pair sequence's squared differences are
    multiplied out as Polynomials and summed, times c1 (P) or times c2
    under the log of the first pair (Q)."""
    consts = potential_constants(n, k)
    P = Polynomial.zero()
    logs = {}
    for alpha in enumerate_alpha(n, k):
        prod = Polynomial.constant(1)
        for level, (p, q) in enumerate(alpha, start=1):
            d = Polynomial.difference(p, q, level)
            prod = prod * (d * d)
        P = P + prod
        L = LinearForm(*alpha[0])
        logs[L] = logs.get(L, Polynomial.zero()) + prod
    return P * consts.c1, LogRationalExpr(logs={L: g * consts.c2 for L, g in logs.items()})


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)])
def test_build_matches_product_oracle(n, k):
    P_oracle, Q_oracle = _oracle_potentials(n, k)
    P, Q = build_P(n, k), build_Q(n, k)
    assert P == P_oracle
    assert Q == Q_oracle
    coefficients = list(P.terms.values()) + [c for g in Q.logs.values() for c in g.terms.values()]
    assert coefficients and all(type(c) is Fraction for c in coefficients)


def test_build_P_2_1():
    P = build_P(2, 1)
    L = Polynomial.difference(1, 2, 1)
    assert P == Fraction(1, 4) * (L * L)


def test_build_P_k1_closed_form():
    # (1/(2n)) sum of squared differences over i < j
    for n in (3, 4, 5):
        expected = Polynomial.zero()
        for i, j in combinations(range(1, n + 1), 2):
            d = Polynomial.difference(i, j, 1)
            expected = expected + d * d
        assert build_P(n, 1) == Fraction(1, 2 * n) * expected


def test_build_P_degree_and_symmetry():
    P = build_P(6, 2)
    assert {mono_degree(m) for m in P.terms} == {4}
    # swapping indices 1 and 2 everywhere leaves P invariant
    swapped = {}
    swap = {1: 2, 2: 1}
    for mono, c in P.terms.items():
        new = tuple(sorted(((Var(swap.get(v.i, v.i), v.j), e) for v, e in mono)))
        swapped[new] = c
    assert Polynomial(swapped) == P


def test_build_Q_k1_closed_form():
    for n in (2, 3, 4):
        logs = {}
        for i, j in combinations(range(1, n + 1), 2):
            d = Polynomial.difference(i, j, 1)
            logs[LinearForm(i, j)] = Fraction(-1, 2) * (d * d)
        assert build_Q(n, 1) == LogRationalExpr(logs=logs)


def test_build_Q_structure():
    Q = build_Q(4, 2)
    assert Q.poly.is_zero
    assert not Q.dens
    assert set(Q.logs) == {LinearForm(p, q) for p, q in combinations(range(1, 5), 2)}


EXPORT_SIZES = [(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)] + [(8, 3)]


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("n,k", EXPORT_SIZES)
def test_streamed_export_matches_dumps_oracle(tmp_path, capsys, n, k, kind):
    if kind == "P":
        expected = dumps_expr(LogRationalExpr.from_polynomial(build_P(n, k)))
    else:
        expected = dumps_expr(build_Q(n, k))
    args = ["potential", "--n", str(n), "--k", str(k), "--kind", kind]
    assert main(args) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "export.txt"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")


def _walk_terms(n, k):
    # sum over c cross levels of C(k, c) n! / (2^c (n-k-c)!)
    return sum(comb(k, c) * factorial(n) // (2**c * factorial(n - k - c)) for c in range(k + 1))


@pytest.mark.parametrize("n,k", [(9, 4), (12, 3)])
def test_streamed_export_term_counts(n, k):
    # beyond the oracle's reach: one line per monomial, one header per section
    assert sum(1 for _ in export_lines(n, k, "P")) == 1 + _walk_terms(n, k)
    # each LOG p q section: z_p^2, z_p z_q or z_q^2 at level 1, times
    # the monomials of k-1 levels on the other n-2 indices
    sections = comb(n, 2)
    assert sum(1 for _ in export_lines(n, k, "Q")) == sections * (1 + 3 * _walk_terms(n - 2, k - 1))


def test_potential_usage_error_creates_no_file(tmp_path, capsys):
    out = tmp_path / "f"
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--n", "3", "--k", "2", "--kind", "P", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: gaudin-potentials potential")
    assert not out.exists()
    with pytest.raises(ValueError, match="kind"):
        next(export_lines(4, 2, "R"))


def test_build_rejects_bad_sizes():
    for fn in (build_P, build_Q):
        with pytest.raises(ValueError):
            fn(3, 2)
        with pytest.raises(ValueError):
            fn(4, 0)


def test_theorem_first_hand_case():
    report = verify_theorem_first(2, 1)
    assert report.passed and report.cases_checked == 4
    # by hand: d1 d2 of (1/4)L^2 is -1/2, d1 d1 is 1/2
    P = build_P(2, 1)
    assert P.differentiate(Var(1, 1)).differentiate(Var(2, 1)) == Polynomial.constant(
        Fraction(-1, 2)
    )
    assert P.differentiate(Var(1, 1)).differentiate(Var(1, 1)) == Polynomial.constant(
        Fraction(1, 2)
    )


def test_theorem_first_exhaustive_small():
    for n, k in [(4, 2), (5, 2), (6, 1)]:
        report = verify_theorem_first(n, k)
        assert report.passed
        assert report.cases_checked == len(sample_pairs(n, k))


def test_double_partial_depends_only_on_intersection_size():
    from gaudin_potentials.potentials import _double_partial
    from gaudin_potentials.symbolic import DerivativeCache

    n, k = 5, 2
    cache = DerivativeCache(build_P(n, k))
    by_ell = {}
    for I, J in sample_pairs(n, k):
        ell = I.intersection_size(J)
        val = _double_partial(cache, I, J).constant_value()
        by_ell.setdefault(ell, set()).add(val)
    assert all(len(vals) == 1 for vals in by_ell.values())


def test_theorem_second_hand_case():
    report = verify_theorem_second(2, 1)
    assert report.passed and report.cases_checked == 8
    Q = build_Q(2, 1)
    E = Q.differentiate(Var(1, 1)).differentiate(Var(1, 1)).differentiate(Var(1, 1)).reduced()
    assert E == LogRationalExpr.den_term(LinearForm(1, 2), 1, Polynomial.constant(-1))
    pf = hamiltonian_pairing(1, SubsetIndex.of(2, [1]), SubsetIndex.of(2, [1]))
    assert expr_equal(E, lift_pairing(pf))


def test_theorem_second_exhaustive_small():
    for n, k in [(4, 2), (5, 1)]:
        report = verify_theorem_second(n, k)
        assert report.passed
        assert report.cases_checked == n * len(sample_pairs(n, k))


def test_theorem_second_simple_poles_case():
    # m outside I and J: only poles at z_m - z_i for i in the intersection
    from gaudin_potentials.potentials import _double_partial
    from gaudin_potentials.symbolic import DerivativeCache

    n, k = 4, 2
    cache = DerivativeCache(build_Q(n, k))
    I = SubsetIndex.of(n, [1, 2])
    J = SubsetIndex.of(n, [1, 3])
    E = _double_partial(cache, I, J).differentiate(Var(4, 1)).reduced()
    assert E.is_log_free
    assert E.denominator_powers() == {1}
    terms = {L: by[1].constant_value() for L, by in E.dens.items()}
    assert terms == {LinearForm(1, 4): Fraction(-1, 2)}  # -(a0 - a1)/(z1 - z4)


def test_relation_hand_case_and_small():
    for n, k in [(2, 1), (4, 2)]:
        report = verify_relation(n, k)
        assert report.passed
        assert report.cases_checked == len(sample_pairs(n, k))


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3)])  # exhaustive, stratified
def test_relation_holds_one_derivative_cache(monkeypatch, n, k):
    live = weakref.WeakSet()
    live_counts = []

    class CountingCache(DerivativeCache):
        def __init__(self, base):
            super().__init__(base)
            live.add(self)
            live_counts.append(len(live))

    monkeypatch.setattr(potentials_mod, "DerivativeCache", CountingCache)
    assert verify_relation(n, k).passed
    # one cache for P, then one for Q, never both
    assert live_counts == [1, 1]


def test_derivative_memo_keys_share_variables():
    cache = DerivativeCache(build_Q(5, 2))
    for I, J in sample_pairs(5, 2):
        _double_partial(cache, I, J)
    entries = [v for key in cache._memo for v in key]
    assert len({id(v) for v in entries}) == len(set(entries))


def test_corollary_values():
    r = verify_corollary(2, 1)
    assert r.passed
    r = verify_corollary(4, 1, points=[deterministic_parameter_points(4)[0]])
    assert r.passed
    r = verify_corollary(6, 3)
    assert r.passed
    # scalar explicitly: -k(n-k+1)
    assert -1 * (2 - 1 + 1) == -2
    assert -3 * (6 - 3 + 1) == -12


def test_corollary_rejects_bad_point():
    with pytest.raises(ValueError):
        verify_corollary(4, 2, points=deterministic_parameter_points(5))


def test_theorem_second_rejects_bad_point_before_building(monkeypatch):
    monkeypatch.setattr(potentials_mod, "build_Q", lambda n, k: pytest.fail("Q was built"))
    with pytest.raises(ValueError, match="parameter point has 5 coordinates, expected 4"):
        verify_theorem_second(4, 2, points=deterministic_parameter_points(5))


def test_stratified_samples_cover_all_cases():
    for n in (7, 8):
        k = 3
        pairs = sample_pairs(n, k)
        assert {I.intersection_size(J) for I, J in pairs} == {0, 1, 2, 3}
        triples = [(m, I, J) for I, J in pairs for m in range(1, n + 1)]
        assert len(triples) >= 50
        cases = set()
        for m, I, J in triples:
            if I.contains(m) and J.contains(m):
                cases.add("in both")
            elif I.contains(m) and not J.contains(m):
                cases.add("in I only")
            elif not I.contains(m) and not J.contains(m):
                cases.add("outside both")
        assert {"in both", "in I only", "outside both"} <= cases
