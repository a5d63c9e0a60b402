"""Exact polynomial and log-rational calculus over the variables z_i^(j).

A variable carries an index i (1..n) and a level j (1..k).  Expressions
are sums

    poly  +  sum over L of ln(L) * g_L  +  sum over (L, d) of P_{L,d} / L^d

where every L is a difference of two level-1 variables.  The class is
closed under partial differentiation, which is all the verification
machinery needs: potentials are log-polynomials in this class and their
derivatives never leave it.  Since d ln L = s/L and d L^-d = -d*s/L^(d+1),
with s = dL/dz, ln L is stored as the power-0 part of L, and a
derivative moves every part up one power.

Monomials are sparse, terms are kept in a dict with zero coefficients
dropped, and the printable form orders terms by descending graded
lexicographic order on (i, j).  That order also fixes the on-disk
exchange format:

    POLY                        section holding the free polynomial
    LOG p q                     section: coefficient of ln(z_p - z_q)
    DEN p q d                   section: numerator of 1/(z_p - z_q)^d
    <num>/<den> ; (i,j)^e ...   one term per line, canonical order

Each section is one part of the expression, so a section header, and a
monomial within one section, appears at most once.  Serialization
round-trips bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator, Mapping, NamedTuple

import re

from .weight_space import rational, validated_namedtuple

ZERO = Fraction(0)
ONE = Fraction(1)


class Var(NamedTuple):
    """The variable z_i^(j): hyperplane index i, level j (both 1-based)."""

    i: int
    j: int


# Monomial: tuple of (Var, exponent) pairs, sorted by Var, exponents > 0.
Monomial = tuple[tuple[Var, int], ...]

EMPTY_MONO: Monomial = ()


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged: dict[Var, int] = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_sort_key(mono: Monomial):
    # Descending graded lex: high degree first, then earlier variables
    # with higher exponents first.
    return (-mono_degree(mono), tuple((v, -e) for v, e in mono))


def derivative_order_key(v: Var) -> tuple[int, int]:
    """Canonical order for iterated partials: higher levels first.

    Only level-1 derivatives create denominator terms, so running them
    last keeps intermediate derivatives polynomial for as long as
    possible.  Mixed partials commute, so any fixed order is valid.
    """
    return (-v.j, v.i)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = rational(c)
        return cls({EMPTY_MONO: c} if c else {})

    @classmethod
    def variable(cls, v: Var) -> "Polynomial":
        return cls({((Var(*v), 1),): ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(EMPTY_MONO, ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = out.get(m, ZERO) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            res = Polynomial.__new__(Polynomial)
            res.terms = out
            return res
        c = rational(other)
        if not c:
            return Polynomial.zero()
        res = Polynomial.__new__(Polynomial)
        res.terms = {m: c * v for m, v in self.terms.items()}
        return res

    __rmul__ = __mul__

    def differentiate(self, v: Var) -> "Polynomial":
        v = Var(*v)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            for pos, (var, e) in enumerate(mono):
                if var == v:
                    if e == 1:
                        new = mono[:pos] + mono[pos + 1 :]
                    else:
                        new = mono[:pos] + ((var, e - 1),) + mono[pos + 1 :]
                    s = out.get(new, ZERO) + c * e
                    if s:
                        out[new] = s
                    else:
                        out.pop(new, None)
                    break
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        total = ZERO
        for mono, c in self.terms.items():
            val = c
            for var, e in mono:
                val *= point[var] ** e
            total += val
        return total

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_mono_sort_key)]

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "".join(f"*z({v.i},{v.j})^{e}" for v, e in m)
            bits.append(f"{c}{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


class LinearForm(validated_namedtuple("LinearForm", "p q")):
    """The level-1 difference z_p^(1) - z_q^(1), normalized to p < q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "LinearForm":
        if not 1 <= p < q:
            raise ValueError(f"linear form requires 1 <= p < q, got ({p}, {q})")
        return tuple.__new__(cls, (p, q))

    def sign_of(self, v: Var) -> int:
        if v.j != 1:
            return 0
        if v.i == self.p:
            return 1
        if v.i == self.q:
            return -1
        return 0

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        return point[Var(self.p, 1)] - point[Var(self.q, 1)]


def _merge(parts: dict, key, g: Polynomial) -> None:
    """Add g to the part under key; a part that cancels is dropped."""
    if g.is_zero:
        return
    acc = parts.get(key)
    g = g if acc is None else acc + g
    if g.is_zero:
        del parts[key]
    else:
        parts[key] = g


def _expr(parts: dict) -> "LogRationalExpr":
    """Wrap parts that already hold no zero polynomial."""
    res = LogRationalExpr.__new__(LogRationalExpr)
    res.parts = parts
    return res


class LogRationalExpr:
    """poly + sum of ln(L)*g_L + sum of P_{L,d}/L^d, closed under d/dz.

    One map holds every part: key None the free polynomial, key (L, 0)
    the coefficient of ln L and key (L, d), d >= 1, the numerator over
    L^d.  No part is zero.
    """

    __slots__ = ("parts",)

    def __init__(
        self,
        poly: Polynomial | None = None,
        logs: Mapping[LinearForm, Polynomial] | None = None,
        dens: Mapping[LinearForm, Mapping[int, Polynomial]] | None = None,
    ):
        parts = {None: poly} if poly is not None else {}
        parts.update(((L, 0), g) for L, g in (logs or {}).items())
        for L, by_pow in (dens or {}).items():
            for d, num in by_pow.items():
                if d < 1:
                    raise ValueError("denominator powers must be >= 1")
                parts[L, d] = num
        self.parts = {key: g for key, g in parts.items() if not g.is_zero}

    @property
    def logs(self) -> dict[LinearForm, Polynomial]:
        """The coefficient of each ln L."""
        return {key[0]: g for key, g in self.parts.items() if key and not key[1]}

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def is_log_free(self) -> bool:
        return all(key is None or key[1] for key in self.parts)

    def denominator_powers(self) -> set[int]:
        return {key[1] for key in self.parts if key and key[1]}

    def __eq__(self, other) -> bool:
        """Structural equality (same normalized representation).

        Mathematically equal expressions can differ here, for example
        L/L and 1; expr_equal compares their reduced forms instead.
        """
        return isinstance(other, LogRationalExpr) and self.parts == other.parts

    def __hash__(self):
        raise TypeError("LogRationalExpr is not hashable")

    def __add__(self, other: "LogRationalExpr") -> "LogRationalExpr":
        parts = dict(self.parts)
        for key, g in other.parts.items():
            _merge(parts, key, g)
        return _expr(parts)

    def __sub__(self, other: "LogRationalExpr") -> "LogRationalExpr":
        return self + (-other)

    def __neg__(self) -> "LogRationalExpr":
        return _expr({key: -g for key, g in self.parts.items()})

    def __mul__(self, other) -> "LogRationalExpr":
        """Multiply by a scalar or a Polynomial; the class is closed."""
        factor = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        products = ((key, g * factor) for key, g in self.parts.items())
        return _expr({key: g for key, g in products if not g.is_zero})

    __rmul__ = __mul__

    def differentiate(self, v: Var) -> "LogRationalExpr":
        """Exact partial derivative with respect to z_v.

        Each part moves up one power of its L, s = dL/dz_v:
        d(ln L * g) = ln L * g' + s*g/L and
        d(P/L^d)    = P'/L^d - d*s*P/L^(d+1).
        """
        v = Var(*v)
        parts: dict = {}
        for key, g in self.parts.items():
            _merge(parts, key, g.differentiate(v))
            if key is None:
                continue
            L, d = key
            s = L.sign_of(v)
            if s:
                moved = (g if s > 0 else -g) if d == 0 else g * Fraction(-d * s)
                _merge(parts, (L, d + 1), moved)
        return _expr(parts)

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        """Exact value at a point; requires a log-free expression and no
        coincident level-1 coordinates on the denominators touched."""
        if not self.is_log_free:
            raise ValueError("expression contains log terms; its value is transcendental")
        total = ZERO
        for key, g in self.parts.items():
            if key is None:
                total += g.evaluate(point)
                continue
            L, d = key
            lval = L.evaluate(point)
            if lval == 0:
                raise ZeroDivisionError(
                    f"pole hit: z_{L.p}^(1) and z_{L.q}^(1) coincide at the evaluation point"
                )
            total += g.evaluate(point) / lval**d
        return total

    def reduced(self) -> "LogRationalExpr":
        """Canonical form: numerators carry no factor of their own L.

        Exact division cascades quotients toward lower powers and finally
        into the free polynomial; the value is unchanged.
        """
        work = dict(self.parts)
        top: dict[LinearForm, int] = {}
        for key in self.parts:
            if key and key[1] > top.get(key[0], 0):
                top[key[0]] = key[1]
        settled: dict = {}
        for L, D in top.items():
            for d in range(D, 0, -1):
                num = work.pop((L, d), None)
                if num is None:
                    continue
                quot, rem = divmod_linear(num, L)
                if not rem.is_zero:
                    settled[L, d] = rem
                _merge(work, (L, d - 1) if d > 1 else None, quot)
        work.update(settled)
        return _expr(work)

    def __repr__(self) -> str:
        poly = self.parts.get(None, Polynomial())
        logs = sum(1 for key in self.parts if key and not key[1])
        dens = len(self.parts) - logs - (None in self.parts)
        return f"LogRationalExpr(poly={len(poly.terms)}t, logs={logs}, dens={dens})"


def divmod_linear(poly: Polynomial, L: LinearForm) -> tuple[Polynomial, Polynomial]:
    """Exact division of a polynomial by z_p - z_q.

    Returns (quotient, remainder); the remainder is free of z_p^(1) and
    therefore not divisible by L unless it is zero.  Each term is divided
    on its own, by z_p^e z_q^f = z_q^(e+f) + L * sum_{i<e} z_p^i z_q^(e-1-i+f).
    """
    vp = Var(L.p, 1)
    vq = Var(L.q, 1)
    quot: dict[Monomial, Fraction] = {}
    rem: dict[Monomial, Fraction] = {}
    for mono, c in poly.terms.items():
        rest = dict(mono)
        e = rest.pop(vp, 0)
        f = rest.pop(vq, 0)
        for i in range(e):
            _accumulate(quot, {**rest, vp: i, vq: e - 1 - i + f}, c)
        _accumulate(rem, {**rest, vq: e + f}, c)
    return Polynomial(quot), Polynomial(rem)


def _accumulate(terms: dict[Monomial, Fraction], powers: dict[Var, int], c: Fraction) -> None:
    """Add c times the monomial with these powers (zero powers dropped)."""
    mono = tuple(sorted((v, x) for v, x in powers.items() if x))
    terms[mono] = terms.get(mono, ZERO) + c


def expr_equal(a: LogRationalExpr, b: LogRationalExpr) -> bool:
    """Mathematical equality within the class: equal reduced forms.

    The reduced form is unique.  Logarithms of distinct linear forms are
    independent over rational functions, so log coefficients must agree
    exactly.  For the rational part, a reduced numerator at L = z_p - z_q
    is free of z_p^(1).  Multiplying a vanishing difference by L^D, D the
    top power of L, and restricting to z_p = z_q leaves the top numerator
    unchanged and sends every other term to zero (no other linear form
    vanishes there), so that numerator is zero; descending on D, so are
    all of them, and then the free polynomial too.
    """
    return a.reduced() == b.reduced()


def level_assignments(elements: Iterable[int]) -> Iterator[tuple[Var, ...]]:
    """Every assignment of levels 1..k to the indices of a k-subset, as
    the variables (index, level) in level order, one per permutation of
    the sorted indices."""
    elems = tuple(sorted(elements))
    if len(set(elems)) != len(elems):
        raise ValueError("index set must consist of distinct elements")
    for perm in permutations(elems):
        yield tuple(Var(idx, level) for level, idx in enumerate(perm, start=1))


class DerivativeCache:
    """Shared memo of iterated partial derivatives of one base expression.

    Prefixes in the canonical variable order are cached, so the many
    permutation multisets arising from the partial operators reuse each
    other's work.  Keys hold one shared `Var` instance per variable.
    """

    def __init__(self, base):
        self._memo: dict[tuple[Var, ...], object] = {(): base}
        self._vars: dict[Var, Var] = {}

    def derivative(self, variables: Iterable[Var]):
        """Mixed partial for a multiset of variables, continuing from the
        longest cached prefix of its canonical order."""
        memo = self._memo
        shared = (self._vars.setdefault(v, Var(*v)) for v in variables)
        key = tuple(sorted(shared, key=derivative_order_key))
        start = len(key)
        while key[:start] not in memo:
            start -= 1
        cur = memo[key[:start]]
        for t in range(start, len(key)):
            cur = cur.differentiate(key[t])
            memo[key[: t + 1]] = cur
        return cur

    def cached_count(self) -> int:
        return len(self._memo)


# ---------------------------------------------------------------------------
# Exchange format
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(-?\d+)/(\d+)\s*;\s*(.*)$", re.ASCII)
_FACTOR_RE = re.compile(r"^\((\d+),(\d+)\)\^(\d+)$", re.ASCII)


def _term_lines(p: Polynomial) -> list[str]:
    lines = []
    for mono, c in p.sorted_terms():
        parts = [f"{c.numerator}/{c.denominator}", ";"]
        parts.extend(f"({v.i},{v.j})^{e}" for v, e in mono)
        lines.append(" ".join(parts))
    return lines


def dumps_expr(e: LogRationalExpr) -> str:
    """Canonical serialization; deterministic bytes for equal expressions."""
    lines: list[str] = []
    # POLY first, then every LOG section, then every DEN section
    for key in sorted(e.parts, key=lambda key: () if key is None else (key[1] > 0, *key)):
        if key is None:
            lines.append("POLY")
        elif key[1]:
            lines.append(f"DEN {key[0].p} {key[0].q} {key[1]}")
        else:
            lines.append(f"LOG {key[0].p} {key[0].q}")
        lines.extend(_term_lines(e.parts[key]))
    return "\n".join(lines) + "\n" if lines else ""


def _parse_term(line: str) -> tuple[Monomial, Fraction]:
    """One term line; only canonical monomials are accepted: index,
    level and exponent at least 1, each variable at most once."""
    m = _TERM_RE.match(line)
    if not m:
        raise ValueError(f"malformed term line: {line!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in term line: {line!r}")
    factors: dict[Var, int] = {}
    for tok in m.group(3).split():
        fm = _FACTOR_RE.match(tok)
        if not fm:
            raise ValueError(f"malformed monomial factor: {tok!r}")
        i, j, e = (int(g) for g in fm.groups())
        if min(i, j, e) < 1:
            raise ValueError(f"index, level and exponent must be >= 1: {tok!r}")
        if Var(i, j) in factors:
            raise ValueError(f"variable repeated in term line: {line!r}")
        factors[Var(i, j)] = e
    return tuple(sorted(factors.items())), Fraction(num, den)


def _section_key(header: str):
    """The part key a section header opens."""
    fields = header.split()
    if not all(f.isascii() and f.isdigit() for f in fields[1:]):
        raise ValueError(f"section header fields must be decimal digits: {header!r}")
    if fields[0] == "POLY" and len(fields) == 1:
        return None
    if fields[0] == "LOG" and len(fields) == 3:
        return LinearForm(int(fields[1]), int(fields[2])), 0
    if fields[0] == "DEN" and len(fields) == 4:
        d = int(fields[3])
        if d < 1:
            raise ValueError(f"denominator power must be >= 1: {header!r}")
        return LinearForm(int(fields[1]), int(fields[2])), d
    raise ValueError(f"malformed section header: {header!r}")


def loads_expr(text: str) -> LogRationalExpr:
    """Parse the exchange format; a section or a monomial within one
    section may appear only once."""
    sections: dict = {}
    target: dict[Monomial, Fraction] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0].isalpha():
            key = _section_key(line)
            if key in sections:
                raise ValueError(f"repeated section header: {line!r}")
            target = sections[key] = {}
            continue
        if target is None:
            raise ValueError("term line before any section header")
        mono, c = _parse_term(line)
        if mono in target:
            raise ValueError(f"monomial repeated in its section: {line!r}")
        target[mono] = c
    parts = ((key, Polynomial(terms)) for key, terms in sections.items())
    return _expr({key: g for key, g in parts if not g.is_zero})
