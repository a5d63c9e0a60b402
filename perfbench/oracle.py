"""Independent check of exported potentials.

The exchange format is parsed here by a small parser of its own (the
package's `loads_expr` is not used).  The exported polynomials are then
evaluated at a seeded rational point and compared exactly with a direct
`Fraction` sum over ordered sequences of k disjoint pairs, built from
the paper's definitions:

    P = c1 * sum_alpha prod_j (z_{p_j}^(j) - z_{q_j}^(j))^2
    Q = c2 * sum_alpha prod_j (z_{p_j}^(j) - z_{q_j}^(j))^2 * ln(z_{p_1}^(1) - z_{q_1}^(1))

with c1 = (n-2k+1)! / (2^k k! (n-k+1)!) and
c2 = -(n-2k+1)! / (2^k (k-1)! (n-k)!).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial


def seeded_point(n: int, k: int, seed: int) -> tuple[dict[tuple[int, int], int], int]:
    """Random rational values a_ij / d for every z_i^(j), as (numerators, d)."""
    rng = random.Random(f"export-oracle:{seed}")
    den = rng.randint(2, 997)
    nums = {(i, j): rng.randint(-99999, 99999) for i in range(1, n + 1) for j in range(1, k + 1)}
    return nums, den


def parse_sections(text: str) -> dict[tuple, list]:
    """Map each section header (as a tuple) to its terms.

    A term is (numerator, denominator, [(i, j, e), ...]).  Raises
    ValueError on any line that is not a header or a well-formed term.
    """
    sections: dict[tuple, list] = {}
    current: list | None = None
    for line in text.split("\n"):
        if not line:
            continue
        head = line.split(" ")
        if head[0] in ("POLY", "LOG", "DEN"):
            key = (head[0], *map(int, head[1:]))
            if key in sections:
                raise ValueError(f"repeated section {line!r}")
            current = sections[key] = []
            continue
        if current is None:
            raise ValueError("term before the first section header")
        coeff_text, sep, factors_text = line.partition(" ;")
        if not sep or factors_text[:1] not in ("", " "):
            raise ValueError(f"malformed term {line!r}")
        num, den = coeff_text.split("/")
        if int(den) <= 0:
            raise ValueError(f"bad denominator in {line!r}")
        factors = []
        for tok in factors_text.split():
            body, exp = tok.split("^")
            i, j = body.strip("()").split(",")
            factors.append((int(i), int(j), int(exp)))
        current.append((int(num), int(den), factors))
    return sections


def evaluate_terms(terms, nums: dict[tuple[int, int], int], den: int) -> Fraction:
    """Exact value at z = nums / den, summed in integers per
    (coefficient denominator, degree) and reduced once at the end."""
    sums: dict[tuple[int, int], int] = {}
    for value, coeff_den, factors in terms:
        degree = 0
        for i, j, e in factors:
            value *= nums[(i, j)] ** e
            degree += e
        key = (coeff_den, degree)
        sums[key] = sums.get(key, 0) + value
    return sum((Fraction(s, c * den**d) for (c, d), s in sums.items()), Fraction(0))


def pair_sequences(n: int, k: int):
    """Ordered sequences of k pairwise-disjoint pairs (p < q) from 1..n."""
    def extend(prefix: tuple, used: frozenset):
        if len(prefix) == k:
            yield prefix
            return
        for p in range(1, n + 1):
            if p in used:
                continue
            for q in range(p + 1, n + 1):
                if q not in used:
                    yield from extend(prefix + ((p, q),), used | {p, q})
    yield from extend((), frozenset())


def expected_values(n: int, k: int, nums: dict[tuple[int, int], int], den: int):
    """P at z = nums / den, and for Q the value of the polynomial
    multiplying each ln(z_p - z_q), keyed by (p, q)."""
    point = {ij: Fraction(a, den) for ij, a in nums.items()}
    c1 = Fraction(factorial(n - 2 * k + 1), 2**k * factorial(k) * factorial(n - k + 1))
    c2 = -Fraction(factorial(n - 2 * k + 1), 2**k * factorial(k - 1) * factorial(n - k))
    plain = Fraction(0)
    by_first: dict[tuple[int, int], Fraction] = {}
    for alpha in pair_sequences(n, k):
        prod = Fraction(1)
        for level, (p, q) in enumerate(alpha, start=1):
            prod *= (point[(p, level)] - point[(q, level)]) ** 2
        plain += prod
        by_first[alpha[0]] = by_first.get(alpha[0], Fraction(0)) + prod
    return c1 * plain, {pq: c2 * v for pq, v in by_first.items()}


def check_export(kind: str, n: int, k: int, text: str, seed: int) -> str | None:
    """None when the exported potential matches the definition at the
    seeded point, otherwise a one-line reason."""
    try:
        sections = parse_sections(text)
    except ValueError as exc:
        return f"unparseable export: {exc}"
    nums, den = seeded_point(n, k, seed)
    p_value, q_logs = expected_values(n, k, nums, den)
    if kind == "P":
        if set(sections) != {("POLY",)}:
            return f"P export has sections {sorted(sections)[:3]}..., expected POLY only"
        got = evaluate_terms(sections[("POLY",)], nums, den)
        return None if got == p_value else f"P differs at the seeded point: {got} != {p_value}"
    expected_keys = {("LOG", p, q) for p, q in q_logs}
    if set(sections) != expected_keys:
        return "Q export does not hold exactly one LOG section per pair p < q"
    for p, q in sorted(q_logs):
        got = evaluate_terms(sections[("LOG", p, q)], nums, den)
        if got != q_logs[(p, q)]:
            return f"Q coefficient of ln(z_{p}-z_{q}) differs at the seeded point"
    return None


def count_terms(text: str) -> int:
    """Number of term lines in an export."""
    return sum(1 for line in text.split("\n") if line and line[0] in "-0123456789")
