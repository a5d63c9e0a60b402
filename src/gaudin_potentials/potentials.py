"""Potentials of the first and second kind and their verification.

Both potentials are sums over ordered sequences of k pairwise-disjoint
unordered pairs from {1, ..., n}.  Each sequence contributes the product
of squared level-wise differences; the second kind multiplies in the
logarithm of the first pair's level-1 difference.  Second derivatives of
the first potential under the partial operators reproduce the pairings
of projected basis vectors, and third-order derivatives of the second
potential reproduce the reduced Hamiltonian pairings; the verify_*
functions check those identities exactly.

Every coefficient of either potential is a count, so `export_lines`
writes the exchange format of P or Q straight from a walk over the
indices, without expanding them; `build_P`/`build_Q` followed by
`symbolic.dumps_expr` is its slow oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, NamedTuple, Sequence

from .operators import PairingFunction, ParameterPoint, hamiltonian_apply, hamiltonian_pairing
from .projection import coefficients, project
from .report import CheckReport
from .symbolic import (
    DerivativeCache,
    LinearForm,
    LogRationalExpr,
    Monomial,
    Polynomial,
    Var,
    derivative_order_key,
    expr_equal,
    level_assignments,
)
from .weight_space import SubsetIndex, basis_vector, subsets

# An ordered sequence of k disjoint unordered pairs, each stored (p, q)
# with p < q.
PairSequence = tuple[tuple[int, int], ...]


def _require_sizes(n: int, k: int) -> None:
    if k < 1:
        raise ValueError("the potentials are defined for k >= 1; k = 0 is vacuous")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")


def alpha_count(n: int, k: int) -> int:
    """Number of pair sequences: n! / (2^k (n-2k)!)."""
    return factorial(n) // (2**k * factorial(n - 2 * k))


def enumerate_alpha(n: int, k: int) -> Iterator[PairSequence]:
    """All pair sequences, each once, in lexicographic order of the
    flattened normalized pair list."""
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    all_pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]

    def rec(used: int, depth: int) -> Iterator[PairSequence]:
        if depth == 0:
            yield ()
            return
        for p, q in all_pairs:
            bits = (1 << p) | (1 << q)
            if used & bits:
                continue
            for rest in rec(used | bits, depth - 1):
                yield ((p, q),) + rest

    return rec(0, k)


class PotentialConstants(NamedTuple):
    """Normalizing constants of the two potentials; c2/c1 = -k(n-k+1)."""

    c1: Fraction
    c2: Fraction


def potential_constants(n: int, k: int) -> PotentialConstants:
    _require_sizes(n, k)
    c1 = Fraction(factorial(n - 2 * k + 1), 2**k * factorial(k) * factorial(n - k + 1))
    c2 = -Fraction(factorial(n - 2 * k + 1), 2**k * factorial(k - 1) * factorial(n - k))
    if c2 / c1 != -k * (n - k + 1):
        raise RuntimeError(f"potential constants violate c2/c1 = -k(n-k+1) at n={n}, k={k}")
    return PotentialConstants(c1, c2)


def _square_sums(n: int, k: int) -> dict[LinearForm, dict[Monomial, int]]:
    """Sum over pair sequences of prod_j (z_{p_j}^(j) - z_{q_j}^(j))^2,
    expanded with integer coefficients and grouped by the first pair's
    linear form (in order of first appearance).

    Each level contributes z_p^2, -2 z_p z_q or z_q^2.  The pairs of a
    sequence are disjoint, so the factors picked at different levels
    never share a variable and each monomial is their sorted union.
    """
    by_form: dict[LinearForm, dict[Monomial, int]] = {}
    for alpha in enumerate_alpha(n, k):
        sums = by_form.setdefault(LinearForm(*alpha[0]), {})
        partial: list[tuple[tuple[tuple[Var, int], ...], int]] = [((), 1)]
        for level, (p, q) in enumerate(alpha, start=1):
            vp, vq = Var(p, level), Var(q, level)
            square = (((vp, 2),), 1), (((vp, 1), (vq, 1)), -2), (((vq, 2),), 1)
            partial = [(f + g, c * d) for f, c in partial for g, d in square]
        for factors, c in partial:
            mono = tuple(sorted(factors))
            sums[mono] = sums.get(mono, 0) + c
    return by_form


def _first_kind(sums: dict[LinearForm, dict[Monomial, int]], c1: Fraction) -> Polynomial:
    """P from the per-form sums of `_square_sums`: merged, scaled by c1."""
    total: dict[Monomial, int] = {}
    for form_sums in sums.values():
        for mono, c in form_sums.items():
            total[mono] = total.get(mono, 0) + c
    return Polynomial({mono: c1 * c for mono, c in total.items()})


def _second_kind(sums: dict[LinearForm, dict[Monomial, int]], c2: Fraction) -> LogRationalExpr:
    """Q from the per-form sums of `_square_sums`: each scaled by c2 under its log."""
    return LogRationalExpr(logs={
        L: Polynomial({mono: c2 * c for mono, c in form_sums.items()})
        for L, form_sums in sums.items()
    })


def build_P(n: int, k: int) -> Polynomial:
    """Potential of the first kind: homogeneous of degree 2k, expanded."""
    _require_sizes(n, k)
    return _first_kind(_square_sums(n, k), potential_constants(n, k).c1)


def build_Q(n: int, k: int) -> LogRationalExpr:
    """Potential of the second kind: a pure log-polynomial."""
    _require_sizes(n, k)
    return _second_kind(_square_sums(n, k), potential_constants(n, k).c2)


# ---------------------------------------------------------------------------
# Streamed export
# ---------------------------------------------------------------------------

# Placement of a level in the walk: not placed, opened by its smaller
# index, or closed as a square or as a cross.
_UNUSED, _OPEN, _SQUARE, _CROSS = range(4)


def export_lines(n: int, k: int, kind: str) -> Iterator[str]:
    """The exchange-format export of P (kind "P") or Q (kind "Q"), line
    by line: the bytes of `dumps_expr` of the built potential, without
    building it."""
    _require_sizes(n, k)
    if kind not in ("P", "Q"):
        raise ValueError(f"kind must be P or Q, got {kind!r}")
    consts = potential_constants(n, k)
    if kind == "P":
        yield "POLY\n"
        yield from _term_walk(n, k, consts.c1, None)
        return
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            yield f"LOG {p} {q}\n"
            yield from _term_walk(n, k, consts.c2, (p, q))


def _term_walk(n: int, k: int, scale: Fraction, pin: tuple[int, int] | None) -> Iterator[str]:
    """Term lines of scale * sum over pair sequences of
    prod_j (z_{p_j}^(j) - z_{q_j}^(j))^2, in the descending graded lex
    order of `Polynomial.sorted_terms`; with `pin` = (p, q), only the
    sequences whose first pair is (p, q).

    A monomial takes, at each level, either z_a^2 (square) or z_a z_b
    with a < b (cross), and no index at two levels.  The levels drawn
    from a pool of N indices, c of them cross and s square, give the
    coefficient (-2)^c * (N-2c-s)!/(N-2c-2s)!: the falling factorial
    counts the square levels' partners.  Unpinned, the pool is all n
    indices and all k levels; pinned, level 1 lies on {p, q} (square
    with one partner, or cross) and levels 2..k draw from the other n-2.

    The walk visits i = 1..n.  At index i it tries the levels in
    ascending order, an unplaced level as z_i^2 before it opens a cross
    level with z_i, and closes an open level with z_i; skipping i comes
    last.  That is the sort order, so no term is stored or sorted.  A
    branch stops once its open and unplaced levels outnumber the indices
    left to place them on.
    """
    p, q = pin if pin else (0, 0)  # index 0 is never visited
    levels = range(2 if pin else 1, k + 1)
    pool = n - 2 if pin else n

    def coefficient_row(level1_cross: int) -> list[str]:
        row = []
        for c in range(len(levels) + 1):
            s = len(levels) - c
            partners = factorial(pool - 2 * c - s) // factorial(pool - 2 * c - 2 * s)
            v = scale * (-2) ** (c + level1_cross) * partners
            row.append(f"{v.numerator}/{v.denominator} ;")
        return row

    # by how the pinned level closed; unpinned, the walk starts as if it
    # had closed as a square
    coef = {_SQUARE: coefficient_row(0)}
    if pin:
        coef[_CROSS] = coefficient_row(1)
    # cap[i]: indices of the pool in i..n
    cap = [0] * (n + 2)
    for i in range(n, 0, -1):
        cap[i] = cap[i + 1] + (i != p and i != q)
    square = [[f" ({i},{j})^2" for j in range(k + 1)] for i in range(n + 1)]
    cross = [[f" ({i},{j})^1" for j in range(k + 1)] for i in range(n + 1)]
    state = [_UNUSED] * (k + 1)

    def walk(start: int, prefix: str, need: int, crosses: int, pinned: int) -> Iterator[str]:
        # need: open or unplaced levels of the pool
        if need == 0 and pinned >= _SQUARE:
            yield coef[pinned][crosses] + prefix + "\n"
            return
        for i in range(start, n + 1):
            if cap[i] < need or (pinned < _SQUARE and i > q):
                return
            if i == p:
                yield from walk(i + 1, prefix + square[i][1], need, crosses, _SQUARE)
                yield from walk(i + 1, prefix + cross[i][1], need, crosses, _OPEN)
                continue
            if i == q:
                if pinned == _UNUSED:
                    yield from walk(i + 1, prefix + square[i][1], need, crosses, _SQUARE)
                elif pinned == _OPEN:
                    yield from walk(i + 1, prefix + cross[i][1], need, crosses, _CROSS)
                continue
            for j in levels:
                if state[j] == _UNUSED:
                    state[j] = _SQUARE
                    yield from walk(i + 1, prefix + square[i][j], need - 1, crosses, pinned)
                    if cap[i] > need:
                        state[j] = _OPEN
                        yield from walk(i + 1, prefix + cross[i][j], need, crosses + 1, pinned)
                    state[j] = _UNUSED
                elif state[j] == _OPEN:
                    state[j] = _CROSS
                    yield from walk(i + 1, prefix + cross[i][j], need - 1, crosses, pinned)
                    state[j] = _OPEN

    return walk(1, "", len(levels), 0, _UNUSED if pin else _SQUARE)


# ---------------------------------------------------------------------------
# Differentiation plumbing
# ---------------------------------------------------------------------------


def partial_multisets(I: SubsetIndex, J: SubsetIndex) -> list[tuple[tuple[Var, ...], int]]:
    """Variable multisets of the composed partial operators for I and J,
    with multiplicities over all level-assignment pairs."""
    counter: Counter[tuple[Var, ...]] = Counter()
    right = list(level_assignments(J.elements))
    for left in level_assignments(I.elements):
        for tau in right:
            counter[tuple(sorted(left + tau, key=derivative_order_key))] += 1
    return list(counter.items())


def _double_partial(cache: DerivativeCache, I: SubsetIndex, J: SubsetIndex):
    total = None
    for ms, mult in partial_multisets(I, J):
        d = cache.derivative(ms)
        if mult != 1:
            d = d * Fraction(mult)
        total = d if total is None else total + d
    return total


def lift_pairing(pf: PairingFunction) -> LogRationalExpr:
    """View a pairing function as a log-rational expression in the
    level-1 variables (u_i becomes z_i^(1))."""
    dens = {LinearForm(p, q): {1: Polynomial.constant(c)} for (p, q), c in pf.terms}
    return LogRationalExpr(dens=dens)


# ---------------------------------------------------------------------------
# Case sampling
# ---------------------------------------------------------------------------

# Largest weight-space dimension C(n, k) whose pairs are all checked;
# C(6, 3) = 20, so every n <= 6 and every k = 1 up to n = 20 is exhaustive.
EXHAUSTIVE_LIMIT = 20


def sample_pairs(n: int, k: int) -> list[tuple[SubsetIndex, SubsetIndex]]:
    """Pairs (I, J) to check: every pair while C(n, k) <= EXHAUSTIVE_LIMIT,
    otherwise a deterministic stratified family covering every
    intersection size, for I = {1..k} and for I shifted up by one."""
    if comb(n, k) <= EXHAUSTIVE_LIMIT:
        alls = subsets(n, k)
        return [(I, J) for I in alls for J in alls]
    pairs = []
    for offset in (0, 1):
        if offset + 2 * k > n:
            continue
        I = SubsetIndex.of(n, range(offset + 1, offset + k + 1))
        for ell in range(k + 1):
            J = SubsetIndex.of(
                n,
                list(range(offset + 1, offset + ell + 1))
                + list(range(offset + k + 1, offset + 2 * k - ell + 1)),
            )
            pairs.append((I, J))
    return pairs


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


def verify_theorem_first(n: int, k: int) -> CheckReport:
    """Double partial derivatives of the first potential equal the
    closed-form pairings a_{|I meet J|}."""
    _require_sizes(n, k)
    rep = CheckReport("theorem1")
    P = build_P(n, k)
    cache = DerivativeCache(P)
    a = coefficients(n, k).a
    for I, J in sample_pairs(n, k):
        derived = _double_partial(cache, I, J)
        expected = a[I.intersection_size(J)]
        ok = derived.is_constant and derived.constant_value() == expected
        rep.record(ok, I=I, J=J, derived=repr(derived), expected=expected)
    return rep


def verify_theorem_second(n: int, k: int, points: Sequence[ParameterPoint]) -> CheckReport:
    """Third-order derivatives of the second potential equal the reduced
    Hamiltonian pairings, both structurally and at exact points, where
    each derivative is evaluated at z^(1) = u.

    Each derivative must also be log-free with simple poles only.
    """
    _require_sizes(n, k)
    rep = CheckReport("theorem2")
    for u in points:
        if u.n != n:
            raise ValueError(f"parameter point has {u.n} coordinates, expected {n}")
    Q = build_Q(n, k)
    cache = DerivativeCache(Q)
    # a reduced derivative equal to a lifted pairing holds level-1 variables only
    level1 = [{Var(i, 1): v for i, v in enumerate(u.values, start=1)} for u in points]
    for I, J in sample_pairs(n, k):
        S = _double_partial(cache, I, J)
        for m in range(1, n + 1):
            E = S.differentiate(Var(m, 1)).reduced()
            pf = hamiltonian_pairing(m, I, J)
            ok = E.is_log_free
            reason = "log terms survive"
            if ok:
                powers = E.denominator_powers()
                ok = powers <= {1}
                reason = f"denominator powers {sorted(powers)}"
            if ok:
                # expr_equal(E, lift_pairing(pf)), with E already reduced
                ok = E == lift_pairing(pf).reduced()
                reason = "structural mismatch with operator pairing"
            if ok:
                for u, z in zip(points, level1):
                    if E.evaluate(z) != pf.evaluate(u):
                        ok = False
                        reason = "pointwise mismatch with operator pairing"
                        break
            rep.record(ok, m=m, I=I, J=J, reason=reason, pairing=pf)
    return rep


def verify_relation(n: int, k: int) -> CheckReport:
    """The Euler-type relation tying the two potentials together:
    (1/c1) * D_I D_J P equals (1/c2) * sum_m z_m * d/dz_m D_I D_J Q."""
    _require_sizes(n, k)
    rep = CheckReport("relation")
    consts = potential_constants(n, k)
    pairs = sample_pairs(n, k)
    # one accumulation gives both potentials; the left sides are
    # constants, so P's memo is freed before Q's is built
    sums = _square_sums(n, k)
    cache_p = DerivativeCache(_first_kind(sums, consts.c1))
    lhs_all = [
        LogRationalExpr(poly=_double_partial(cache_p, I, J) * (1 / consts.c1))
        for I, J in pairs
    ]
    del cache_p
    cache_q = DerivativeCache(_second_kind(sums, consts.c2))
    del sums
    for (I, J), lhs in zip(pairs, lhs_all):
        S = _double_partial(cache_q, I, J)
        rhs = LogRationalExpr()
        for m in range(1, n + 1):
            zm = Polynomial.variable(Var(m, 1))
            rhs = rhs + S.differentiate(Var(m, 1)).reduced() * zm
        rep.record(expr_equal(lhs, rhs * (1 / consts.c2)), I=I, J=J)
    return rep


def verify_corollary(n: int, k: int, points: Sequence[ParameterPoint]) -> CheckReport:
    """The weighted Hamiltonian sum acts on every projected basis vector
    as the scalar -k(n-k+1)."""
    _require_sizes(n, k)
    rep = CheckReport("corollary")
    scalar = Fraction(-k * (n - k + 1))
    for u in points:
        for I in subsets(n, k):
            v = project(basis_vector(n, I))
            acc = None
            for m in range(1, n + 1):
                term = hamiltonian_apply(m, u, v) * u.u(m)
                acc = term if acc is None else acc + term
            rep.record(acc == scalar * v, I=I, point=u.values, expected_scalar=scalar)
    return rep
