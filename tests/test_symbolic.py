from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin_potentials.symbolic import (
    DerivativeCache,
    LinearForm,
    LogRationalExpr,
    Polynomial,
    Var,
    divmod_linear,
    dumps_expr,
    expr_equal,
    level_assignments,
    loads_expr,
    mono_degree,
)

X1 = Var(1, 1)
X2 = Var(2, 1)
X3 = Var(3, 1)
L12 = LinearForm(1, 2)
L13 = LinearForm(1, 3)
L23 = LinearForm(2, 3)


def difference(p, q, level=1):
    """The binomial z_p^(level) - z_q^(level)."""
    return Polynomial.variable(Var(p, level)) - Polynomial.variable(Var(q, level))


def L12_poly():
    return difference(1, 2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_polynomial_basics():
    p = L12_poly() * L12_poly()
    assert {mono_degree(m) for m in p.terms} == {2}
    assert len(p.terms) == 3
    assert p.evaluate({X1: Fraction(3), X2: Fraction(1)}) == 4
    assert (p - p).is_zero
    assert Polynomial.constant(0).is_zero


def test_float_scalars_are_refused():
    # 0.1 would silently become 3602879701896397/36028797018963968
    p = L12_poly()
    e = LogRationalExpr(logs={L12: p})
    for bad in (lambda: Polynomial.constant(0.1), lambda: p * 0.1, lambda: 0.1 * p, lambda: e * 0.1):
        with pytest.raises(TypeError):
            bad()
    assert p * Fraction(1, 10) == Polynomial.constant(Fraction(1, 10)) * p
    assert (e * 2).logs[L12] == p * 2


def test_polynomial_differentiate():
    p = L12_poly() * L12_poly()
    dp = p.differentiate(X1)
    assert dp == Fraction(2) * L12_poly()
    assert p.differentiate(X3).is_zero


def test_divmod_linear():
    p = L12_poly() * L12_poly() * Polynomial.variable(X3) + Polynomial.constant(5)
    q, r = divmod_linear(p, L12)
    assert q * L12_poly() + r == p
    assert r == Polynomial.constant(5)
    q2, r2 = divmod_linear(q, L12)
    assert q2 == Polynomial.variable(X3)
    assert r2.is_zero


# ---------------------------------------------------------------------------
# log-rational differentiation
# ---------------------------------------------------------------------------


def test_differentiate_log_times_square():
    # d/dx1 of ln(L) L^2 == 2 ln(L) L + L
    e = LogRationalExpr(logs={L12: L12_poly() * L12_poly()})
    d = e.differentiate(X1)
    expected = LogRationalExpr(
        poly=L12_poly(), logs={L12: Fraction(2) * L12_poly()}
    )
    assert expr_equal(d, expected)
    # raw form keeps the unreduced L^2/L term; reduction folds it away
    assert d.reduced() == expected


def test_differentiate_inverse():
    e = LogRationalExpr(dens={L12: {1: Polynomial.constant(1)}})
    d = e.differentiate(X1)
    assert d == LogRationalExpr(dens={L12: {2: Polynomial.constant(-1)}})
    assert e.differentiate(X2) == LogRationalExpr(dens={L12: {2: Polynomial.constant(1)}})


def test_differentiate_unrelated_variable_is_zero():
    e = LogRationalExpr(
        poly=L12_poly(),
        logs={L12: Polynomial.constant(3)},
        dens={L12: {2: L12_poly()}},
    )
    assert e.differentiate(Var(3, 1)).is_zero
    assert e.differentiate(Var(1, 2)).is_zero


def test_third_derivative_of_log_square_is_log_free():
    e = LogRationalExpr(logs={L12: L12_poly() * L12_poly()})
    d3 = e.differentiate(X1).differentiate(X1).differentiate(X1)
    assert d3.is_log_free
    expected = LogRationalExpr(dens={L12: {1: Polynomial.constant(2)}})
    assert expr_equal(d3, expected)
    pt = {X1: Fraction(7), X2: Fraction(3)}
    assert d3.evaluate(pt) == Fraction(2, 4)


def test_evaluate_pole_and_log_errors():
    inv = LogRationalExpr(dens={L12: {1: Polynomial.constant(1)}})
    assert inv.evaluate({X1: Fraction(3), X2: Fraction(1)}) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        inv.evaluate({X1: Fraction(1), X2: Fraction(1)})
    logged = LogRationalExpr(logs={L12: Polynomial.constant(1)})
    with pytest.raises(ValueError):
        logged.evaluate({X1: Fraction(3), X2: Fraction(1)})


# ---------------------------------------------------------------------------
# partial operator
# ---------------------------------------------------------------------------


def test_apply_partial_matches_flat_multiset_composition():
    # composing the operator twice equals summing over flattened multisets
    def apply_partial(expr, elements):
        # sum over level assignments of the chained partials
        total = Polynomial.zero()
        for variables in level_assignments(elements):
            d = expr
            for v in variables:
                d = d.differentiate(v)
            total = total + d
        return total

    base = (
        L12_poly() * difference(1, 2, 2) * difference(1, 3, 2)
    )
    composed = apply_partial(apply_partial(base, [1, 2]), [1, 3])
    cache = DerivativeCache(base)
    from gaudin_potentials.potentials import partial_multisets
    from gaudin_potentials.weight_space import SubsetIndex

    total = None
    for ms, mult in partial_multisets(SubsetIndex.of(3, [1, 2]), SubsetIndex.of(3, [1, 3])):
        d = cache.derivative(ms) * Fraction(mult)
        total = d if total is None else total + d
    assert composed == total


# ---------------------------------------------------------------------------
# structural equality
# ---------------------------------------------------------------------------


def test_expr_equal_examples():
    a = LogRationalExpr(dens={L12: {1: Polynomial.constant(1)}})
    b = LogRationalExpr(dens={L12: {1: Polynomial.constant(-1)}})
    assert (a + b).is_zero
    quotient = LogRationalExpr(dens={L12: {1: L12_poly()}})
    assert expr_equal(quotient, LogRationalExpr(poly=Polynomial.constant(1)))
    five = LogRationalExpr(poly=Polynomial.constant(5), logs={L12: Polynomial.zero()})
    assert expr_equal(five, LogRationalExpr(poly=Polynomial.constant(5)))
    assert five == LogRationalExpr(poly=Polynomial.constant(5))  # zero log dropped at construction


def test_expr_equal_distinguishes():
    assert not expr_equal(
        LogRationalExpr(dens={L12: {1: Polynomial.constant(1)}}),
        LogRationalExpr(dens={L13: {1: Polynomial.constant(1)}}),
    )
    assert not expr_equal(
        LogRationalExpr(logs={L12: Polynomial.constant(1)}),
        LogRationalExpr(),
    )


def test_reduced_cascades_powers():
    # L^2 / L^3 reduces to 1/L; (L^2 + 1)/L^2 reduces to 1 + 1/L^2
    e = LogRationalExpr(dens={L12: {3: L12_poly() * L12_poly()}})
    r = e.reduced()
    assert r == LogRationalExpr(dens={L12: {1: Polynomial.constant(1)}})
    e2 = LogRationalExpr(dens={L12: {2: L12_poly() * L12_poly() + Polynomial.constant(1)}})
    r2 = e2.reduced()
    assert r2 == LogRationalExpr(
        poly=Polynomial.constant(1), dens={L12: {2: Polynomial.constant(1)}}
    )
    assert expr_equal(e2, r2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_polynomial_exchange_format_bytes():
    p = Fraction(1, 4) * (L12_poly() * L12_poly())
    text = dumps_expr(LogRationalExpr(poly=p))
    assert text == "POLY\n1/4 ; (1,1)^2\n-1/2 ; (1,1)^1 (2,1)^1\n1/4 ; (2,1)^2\n"
    assert loads_expr(text) == LogRationalExpr(poly=p)


def test_expr_exchange_format_roundtrip():
    e = LogRationalExpr(
        poly=Polynomial.variable(Var(2, 2)) + Polynomial.constant(Fraction(-3, 7)),
        logs={L12: L12_poly(), L23: Polynomial.constant(2)},
        dens={L13: {1: Polynomial.constant(1), 3: Polynomial.variable(X2)}},
    )
    text = dumps_expr(e)
    again = loads_expr(text)
    assert again == e
    assert dumps_expr(again) == text
    assert text.endswith("\n")


def test_zero_expr_serializes_empty():
    assert dumps_expr(LogRationalExpr()) == ""
    assert loads_expr("") == LogRationalExpr()


def test_loads_rejects_malformed():
    with pytest.raises(ValueError):
        loads_expr("WHAT 1 2\n")
    with pytest.raises(ValueError):
        loads_expr("1/2 ; (1,1)^1\n")  # term before any section
    with pytest.raises(ValueError):
        loads_expr("POLY\nnonsense\n")


@pytest.mark.parametrize(
    "text",
    [
        "POLY\n1/0 ;\n",
        "POLY\n1/1 ; (1,1)^0\n",
        "POLY\n1/1 ; (0,1)^1\n",
        "POLY\n1/1 ; (1,0)^1\n",
        "POLY\n1/1 ; (1,1)^1 (1,1)^1\n",
        "LOG +1 2\n1/1 ;\n",
        "LOG 1_0 12\n1/1 ;\n",
        "DEN 1 2 \u0663\n1/1 ;\n",
        # a repeated monomial or section would be summed silently
        "POLY\n1/1 ; (1,1)^1\n1/1 ; (1,1)^1\n",
        "POLY\n1/1 ; (1,1)^1 (2,1)^1\n1/1 ; (2,1)^1 (1,1)^1\n",
        "POLY\n1/1 ; (1,1)^1\nPOLY\n-1/1 ; (1,1)^1\n",
        "LOG 1 2\n1/1 ;\nDEN 1 2 1\n1/1 ;\nLOG 1 2\n1/1 ;\n",
    ],
)
def test_loads_rejects_non_canonical_input(text):
    with pytest.raises(ValueError):
        loads_expr(text)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
_vars = st.sampled_from([Var(1, 1), Var(2, 1), Var(3, 1), Var(1, 2), Var(2, 2)])
_forms = st.sampled_from([L12, L13, L23])


@st.composite
def polynomials(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        support = draw(st.lists(_vars, unique=True, max_size=3))
        mono = tuple(sorted((v, draw(st.integers(1, max_exp))) for v in support))
        terms[mono] = draw(_fractions)
    return Polynomial(terms)


@st.composite
def expressions(draw):
    poly = draw(polynomials())
    logs = {}
    dens = {}
    for L in draw(st.lists(_forms, unique=True, max_size=2)):
        logs[L] = draw(polynomials(max_terms=2))
    for L in draw(st.lists(_forms, unique=True, max_size=2)):
        dens[L] = {draw(st.integers(1, 2)): draw(polynomials(max_terms=2))}
    return LogRationalExpr(poly=poly, logs=logs, dens=dens)


@settings(max_examples=60, deadline=None)
@given(expressions(), _vars, _vars)
def test_clairaut_symmetry(e, v, w):
    assert expr_equal(e.differentiate(v).differentiate(w), e.differentiate(w).differentiate(v))


@settings(max_examples=60, deadline=None)
@given(expressions(), _vars)
def test_reduction_commutes_with_differentiation(e, v):
    assert expr_equal(e.differentiate(v), e.reduced().differentiate(v))


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions(), _vars)
def test_differentiation_is_linear(a, b, v):
    assert (a + b).differentiate(v) == a.differentiate(v) + b.differentiate(v)
    assert (a * Fraction(3, 2)).differentiate(v) == a.differentiate(v) * Fraction(3, 2)


@settings(max_examples=60, deadline=None)
@given(
    expressions(),
    expressions(),
    _forms,
    st.integers(2, 3),
    polynomials(max_terms=2),
    _fractions.filter(bool),
)
def test_expr_equal_is_congruence(a, c, L, d, N, const):
    # disguise a without changing its value: add L/L - 1
    b = a + LogRationalExpr(dens={L: {1: difference(L.p, L.q)}}) + LogRationalExpr(poly=Polynomial.constant(-1))
    assert b != a  # structurally different
    assert expr_equal(a, b)
    assert expr_equal(b, a)
    assert expr_equal(a + c, b + c)
    for v in (Var(1, 1), Var(2, 1)):
        assert expr_equal(a.differentiate(v), b.differentiate(v))
    assert expr_equal(a, a)
    # the same disguise at a power d >= 2: N L / L^(d+1) - N / L^d
    b2 = a + LogRationalExpr(dens={L: {d + 1: N * difference(L.p, L.q)}}) - LogRationalExpr(dens={L: {d: N}})
    assert expr_equal(a, b2)
    assert expr_equal(b2, a)
    # a nonzero pole term changes the value
    bumped = a + LogRationalExpr(dens={L: {d: Polynomial.constant(const)}})
    assert not expr_equal(a, bumped)
    assert not expr_equal(b2, bumped)


# two points with distinct level-1 coordinates, so no pole is hit
_EVAL_POINTS = [
    {X1: Fraction(1, 2), X2: Fraction(-3), X3: Fraction(7, 3), Var(1, 2): Fraction(5), Var(2, 2): Fraction(-2, 7)},
    {X1: Fraction(-4, 5), X2: Fraction(2), X3: Fraction(11), Var(1, 2): Fraction(-1, 3), Var(2, 2): Fraction(9, 2)},
]


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_reduced_preserves_value_and_roundtrip(e):
    r = e.reduced()
    assert expr_equal(e, r)
    # an exact check that does not go through reduced(): the logs are
    # untouched and the log-free parts agree in value
    assert r.logs == e.logs
    logs = LogRationalExpr(logs=e.logs)
    for point in _EVAL_POINTS:
        assert (r - logs).evaluate(point) == (e - logs).evaluate(point)
    assert loads_expr(dumps_expr(e)) == e


@settings(max_examples=100, deadline=None)
@given(polynomials(max_terms=4, max_exp=3), _forms)
def test_divmod_linear_identity(p, L):
    quot, rem = divmod_linear(p, L)
    assert quot * difference(L.p, L.q) + rem == p
    assert all(v != Var(L.p, 1) for mono in rem.terms for v, _ in mono)


def _univariate_derivative_oracle(p, v, point):
    """Derivative at a point via Lagrange interpolation of the univariate
    restriction t -> p(point with v=t); independent of differentiate()."""
    d = max((e for mono in p.terms for var, e in mono if var == v), default=0)
    nodes = [Fraction(t) for t in range(d + 1)]
    samples = []
    for t in nodes:
        shifted = dict(point)
        shifted[v] = t
        samples.append(p.evaluate(shifted))
    x0 = point[v]
    total = Fraction(0)
    for i, xi in enumerate(nodes):
        # derivative of the i-th Lagrange basis at x0
        basis_deriv = Fraction(0)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            term = Fraction(1)
            for r, xr in enumerate(nodes):
                if r in (i, j):
                    continue
                term *= (x0 - xr) / (xi - xr)
            basis_deriv += term / (xi - xj)
        total += samples[i] * basis_deriv
    return total


@settings(max_examples=40, deadline=None)
@given(polynomials(max_terms=4, max_exp=3), _vars)
def test_polynomial_derivative_matches_lagrange_oracle(p, v):
    point = {
        Var(1, 1): Fraction(5),
        Var(2, 1): Fraction(-3),
        Var(3, 1): Fraction(7, 2),
        Var(1, 2): Fraction(11, 3),
        Var(2, 2): Fraction(-2, 5),
    }
    assert p.differentiate(v).evaluate(point) == _univariate_derivative_oracle(p, v, point)


@settings(max_examples=30, deadline=None)
@given(polynomials(max_terms=3, max_exp=2), _vars)
def test_degree_plus_one_divided_difference_vanishes(p, v):
    # (d+1)-st finite difference of a degree-d restriction is zero
    d = max((e for mono in p.terms for var, e in mono if var == v), default=0)
    point = {
        Var(1, 1): Fraction(2),
        Var(2, 1): Fraction(-1),
        Var(3, 1): Fraction(4),
        Var(1, 2): Fraction(3),
        Var(2, 2): Fraction(-5),
    }
    from math import comb

    total = Fraction(0)
    for t in range(d + 2):
        shifted = dict(point)
        shifted[v] = point[v] + t
        total += Fraction((-1) ** t * comb(d + 1, t)) * p.evaluate(shifted)
    assert total == 0


_FORMAT_CHARS = "0123456789-/;()^, \nPOLYGDEN"
# Sections and term lines with small numbers, so zero denominators, zero
# indices, levels and exponents, repeated variables and bad headers are common.
_NEAR_VALID = st.from_regex(
    r"((POLY|LOG [0-3] [0-3]|DEN [0-3] [0-3] [0-3])\n(-?[0-3]/[0-3] ;( \([0-3],[0-3]\)\^[0-3]){0,3}\n){0,3}){1,3}",
    fullmatch=True,
)


@st.composite
def mutated_exports(draw):
    text = dumps_expr(draw(expressions()))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.text(alphabet=_FORMAT_CHARS, max_size=3)) + text[stop:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_FORMAT_CHARS), _NEAR_VALID, mutated_exports()))
def test_loads_raises_only_value_error_and_accepted_text_round_trips(text):
    try:
        e = loads_expr(text)
    except ValueError:
        return
    once = dumps_expr(e)
    assert loads_expr(once) == e
    assert dumps_expr(loads_expr(once)) == once
