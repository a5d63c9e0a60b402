"""Orthogonal projection onto the singular subspace of a weight space.

Two independent routes are provided.  The production path uses the
closed-form coefficient tables `a` and `b`: the projected basis vector
v_I expands over the k-subset basis with coefficient a_{|I meet J|} at
V_J, and over lowered (k-1)-subset vectors with coefficients b.  The
oracle path never sees those formulas: it splits a vector into its
singular component plus an image of the lowering operator by solving the
Gram system of the lowered basis with exact Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .weight_space import (
    ONE,
    ZERO,
    SubsetIndex,
    WeightVector,
    _mask_rank,
    apply_f,
    basis_vector,
    shapovalov,
    subset_masks,
    subsets,
    weight_dim,
    zero_vector,
)


class ProjectionCoefficients(NamedTuple):
    """Coefficient tables of the projection at fixed (n, k).

    a[l] is the pairing of two projected basis vectors whose subsets meet
    in l elements; b[l] expands a projected vector over lowered
    (k-1)-subset vectors grouped by intersection size.
    """

    n: int
    k: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]


def _require_projectable(n: int, k: int) -> None:
    if n < 2 * k:
        raise ValueError(f"projection needs n >= 2k, got n={n}, k={k}")


@lru_cache(maxsize=None)
def coefficients(n: int, k: int) -> ProjectionCoefficients:
    """Closed-form tables a (length k+1) and b (length k)."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"coefficient tables need n >= 2k >= 2, got n={n}, k={k}")
    dn = factorial(n - k + 1)
    a = tuple(
        Fraction((-1) ** (k + l) * (n - 2 * k + 1) * factorial(k - l) * factorial(n - 2 * k + l), dn)
        for l in range(k + 1)
    )
    b = tuple(
        Fraction((-1) ** (k - l) * factorial(k - l - 1) * factorial(n - 2 * k + l + 1), dn)
        for l in range(k)
    )
    # Defining linear systems; cheap guards against a bad closed form.
    def guard(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"closed-form tables violate {what} at n={n}, k={k}")

    for l in range(k):
        guard((k - l) * a[l + 1] + (n - 2 * k + l + 1) * a[l] == 0, f"the a-recursion at l={l}")
    guard(1 + b[k - 1] * n + (b[k - 2] * (k - 1) * (n - k) if k >= 2 else 0) == 0, "the b boundary relation")
    for l in range(k - 1):
        three = b[l + 1] * (k - l) * (k - l - 1) + b[l] * (k - l) * (n - 2 * k + 2 * l + 2)
        if l >= 1:
            three += b[l - 1] * l * (n - 2 * k + l + 1)
        guard(three == 0, f"the three-term b-recursion at l={l}")
    guard(a[0] == k * b[0], "a[0] = k*b[0]")
    return ProjectionCoefficients(n, k, a, b)


def project(x: WeightVector) -> WeightVector:
    """Orthogonal projection onto the singular subspace, via the a-table."""
    n, k = x.n, x.k
    if k == 0:
        return x  # every weight-n vector is singular
    _require_projectable(n, k)
    a_den = factorial(n - k + 1)  # coefficients() builds the a-table over (n-k+1)!
    a = [int(v * a_den) for v in coefficients(n, k).a]
    masks = subset_masks(n, k)
    out = [0] * len(masks)
    for mi, c in zip(masks, x.nums):
        if not c:
            continue
        row = [c * v for v in a]
        for j, mj in enumerate(masks):
            out[j] += row[(mi & mj).bit_count()]
    return WeightVector.over(n, k, out, x.den * a_den)


def _gauss_jordan(work: list[list[Fraction]], ncols: int) -> int:
    """Reduce the first `ncols` columns of `work` in place to reduced row
    echelon form, pivoting on the first nonzero entry of each column.
    Returns the rank."""
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[rank])]
        rank += 1
    return rank


def invert_matrix(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination on [rows | I].  Raises
    RuntimeError when singular."""
    d = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(d)] for i, row in enumerate(rows)]
    if _gauss_jordan(aug, d) < d:
        raise RuntimeError("singular matrix in exact elimination")
    return [row[d:] for row in aug]


@lru_cache(maxsize=None)
def _gram_inverse(n: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse Gram matrix of the lowered basis {f V_K}, K a (k-1)-subset."""
    lowered = [apply_f(basis_vector(n, K)) for K in subsets(n, k - 1)]
    gram = [[shapovalov(u, v) for v in lowered] for u in lowered]
    return tuple(tuple(row) for row in invert_matrix(gram))


def oracle_decompose(x: WeightVector) -> tuple[WeightVector, WeightVector]:
    """Split x = s + f y with s singular, by solving the Gram system.

    Returns (s, y).  Independent of the closed-form tables.
    """
    n, k = x.n, x.k
    if k == 0:
        return x, zero_vector(n, k - 1)
    _require_projectable(n, k)
    lowered_subsets = subsets(n, k - 1)
    rhs = [shapovalov(apply_f(basis_vector(n, K)), x) for K in lowered_subsets]
    ginv = _gram_inverse(n, k)
    y = WeightVector.of(n, k - 1, [sum((g * r for g, r in zip(row, rhs)), ZERO) for row in ginv])
    return x - apply_f(y), y


def project_oracle(x: WeightVector) -> WeightVector:
    """Projection computed without the closed forms (test oracle)."""
    return oracle_decompose(x)[0]


def pairing_closed_form(I: SubsetIndex, J: SubsetIndex) -> Fraction:
    """Pairing of two projected basis vectors: a at their intersection size."""
    if I.n != J.n or I.size != J.size:
        raise ValueError(f"subsets {I} and {J} do not label the same weight space")
    k = I.size
    if k == 0:
        return ONE
    _require_projectable(I.n, k)
    return coefficients(I.n, k).a[I.intersection_size(J)]


def pairing_difference(n: int, k: int, l: int) -> Fraction:
    """Closed form for a[l-1] - a[l], 1 <= l <= k."""
    if not 1 <= l <= k:
        raise ValueError(f"difference index l={l} outside 1..{k}")
    _require_projectable(n, k)
    return Fraction(
        (-1) ** (k - l + 1) * (n - 2 * k + 1) * factorial(k - l) * factorial(n - 2 * k + l - 1),
        factorial(n - k),
    )


def embed_in_factors(vec: WeightVector, slots: tuple[int, ...], n: int) -> WeightVector:
    """Place a small tensor vector into the factors `slots` of a larger power.

    slots[t-1] names the big-space factor carrying small-space factor t;
    all remaining factors hold the unlowered basis vector, so a small
    k-subset maps to the k-subset of its slot images.
    """
    if len(slots) != vec.n or len(set(slots)) != len(slots):
        raise ValueError("slot list must name one distinct factor per small tensor factor")
    if not all(1 <= s <= n for s in slots):
        raise ValueError(f"slots {slots} must lie in 1..{n}")
    small_masks = subset_masks(vec.n, vec.k)
    out = [0] * weight_dim(n, vec.k)
    rank = _mask_rank(n, vec.k)
    for mask, c in zip(small_masks, vec.nums):
        if not c:
            continue
        big = 0
        m = mask
        pos = 0
        while m:
            if m & 1:
                big |= 1 << (slots[pos] - 1)
            m >>= 1
            pos += 1
        out[rank[big]] += c
    return WeightVector(n, vec.k, tuple(out), vec.den)
