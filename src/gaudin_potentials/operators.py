"""Casimir and Gaudin Hamiltonian actions on the tensor power.

The reduced two-factor Casimir acts on basis vectors as (swap the
contents of the two factors) minus the identity, which keeps every
application exactly sparse.  The reduced Gaudin Hamiltonians are the
pole-weighted sums of these pair Casimirs.
Besides direct application at an exact rational parameter point, the
basis action is also available symbolically as a list of first-order
pole terms, and pairings against projected basis vectors come out as
exact rational functions with degree-one denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .projection import coefficients
from .weight_space import (
    ONE,
    ZERO,
    SubsetIndex,
    WeightVector,
    _mask_rank,
    basis_vector,
    rational,
    subset_masks,
    subsets,
    validated_namedtuple,
    zero_vector,
)


class ParameterPoint(validated_namedtuple("ParameterPoint", "values")):
    """Pairwise-distinct exact rational parameters u_1, ..., u_n."""

    # no __slots__: cached_property keeps the pole weights in the instance __dict__

    def __new__(cls, values: tuple[Fraction, ...]) -> "ParameterPoint":
        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise TypeError("parameter coordinates must be exact rationals (int or Fraction)")
        if len(set(values)) != len(values):
            raise ValueError("parameter coordinates must be pairwise distinct")
        return tuple.__new__(cls, (values,))

    @classmethod
    def of(cls, values) -> "ParameterPoint":
        return cls(tuple(rational(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def u(self, m: int) -> Fraction:
        return self.values[m - 1]

    @cached_property
    def _pole_weights(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Entry m - 1 holds integers W (indexed by j - 1, with W[m - 1] = 0)
        and D such that 1/(u_m - u_j) = W[j - 1] / D for every j != m."""
        rows = []
        for i, ui in enumerate(self.values):
            inv = [ZERO if j == i else ONE / (ui - uj) for j, uj in enumerate(self.values)]
            den = lcm(*(w.denominator for w in inv))
            rows.append((tuple(w.numerator * (den // w.denominator) for w in inv), den))
        return tuple(rows)


def casimir_apply(x: WeightVector, m: int, j: int) -> WeightVector:
    """Apply the reduced pair Casimir in factors m and j: swap minus
    identity on basis vectors."""
    n = x.n
    if m == j:
        raise ValueError(f"Casimir needs two distinct factors, got m = j = {m}")
    if not (1 <= m <= n and 1 <= j <= n):
        raise ValueError(f"factor indices ({m},{j}) outside 1..{n}")
    masks = subset_masks(n, x.k)
    rank = _mask_rank(n, x.k)
    pair = (1 << (m - 1)) | (1 << (j - 1))
    out = [ZERO] * len(masks)
    for idx, c in enumerate(x.coeffs):
        if not c:
            continue
        mask = masks[idx]
        hit = mask & pair
        if hit and hit != pair:  # exactly one of the two factors is lowered
            out[rank[mask ^ pair]] += c
            out[idx] -= c
    return WeightVector.of(n, x.k, out)


def hamiltonian_apply(m: int, u: ParameterPoint, x: WeightVector) -> WeightVector:
    """Apply the m-th reduced Gaudin Hamiltonian at the point u.

    Equals the sum over j != m of casimir_apply(x, m, j) divided
    by u_m - u_j.  The loop is fused and visits only the nonzero entries
    of x: for V_I, the Casimir in factors m, j acts only when exactly one
    of them lies in I, i.e. j outside I when m is in I, j in I otherwise.
    """
    n = x.n
    if u.n != n:
        raise ValueError(f"parameter point has {u.n} coordinates, expected {n}")
    if not 1 <= m <= n:
        raise ValueError(f"Hamiltonian index {m} outside 1..{n}")
    weights, den = u._pole_weights[m - 1]
    masks = subset_masks(n, x.k)
    rank = _mask_rank(n, x.k)
    out = [0] * len(masks)
    bit_m = 1 << (m - 1)
    full = (1 << n) - 1
    for idx, c in enumerate(x.nums):
        if not c:
            continue
        mask = masks[idx]
        partners = full & ~mask if mask & bit_m else mask
        diag = 0
        while partners:
            low = partners & -partners
            cw = c * weights[low.bit_length() - 1]
            out[rank[mask ^ bit_m ^ low]] += cw
            diag -= cw
            partners ^= low
        out[idx] += diag
    return WeightVector.over(n, x.k, out, den * x.den)


class HamiltonianTerm(NamedTuple):
    """One pole term (V_plus - V_minus) / (u_pole[0] - u_pole[1])."""

    pole: tuple[int, int]
    plus: SubsetIndex
    minus: SubsetIndex


def hamiltonian_basis_action(m: int, I: SubsetIndex) -> list[HamiltonianTerm]:
    """Symbolic expansion of the reduced Hamiltonian on a basis vector.

    For m in I the poles run over j outside I, otherwise over j in I; in
    both cases the numerator swaps the roles of m and j in the subset.
    """
    n = I.n
    if not 1 <= m <= n:
        raise ValueError(f"Hamiltonian index {m} outside 1..{n}")
    terms = []
    if I.contains(m):
        for j in range(1, n + 1):
            if I.contains(j):
                continue
            swapped = I.without_element(m).with_element(j)
            terms.append(HamiltonianTerm((m, j), swapped, I))
    else:
        for j in I.elements:
            swapped = I.without_element(j).with_element(m)
            terms.append(HamiltonianTerm((m, j), swapped, I))
    return terms


def evaluate_basis_action(
    terms: list[HamiltonianTerm], u: ParameterPoint, n: int, k: int
) -> WeightVector:
    """Evaluate a symbolic basis action at a parameter point.

    Independent of casimir_apply; used to cross-check the two paths.
    """
    total = zero_vector(n, k)
    for term in terms:
        weight = 1 / (u.u(term.pole[0]) - u.u(term.pole[1]))
        total = total + (basis_vector(n, term.plus) - basis_vector(n, term.minus)) * weight
    return total


class PairingFunction(NamedTuple):
    """An exact rational function sum of c/(u_p - u_q).

    Pole pairs are normalized to p < q with the sign absorbed into the
    coefficient, and zero coefficients are dropped, so equal functions
    compare equal structurally.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @classmethod
    def from_raw(cls, raw: dict[tuple[int, int], Fraction]) -> "PairingFunction":
        merged: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in raw.items():
            if a == b:
                raise ValueError("degenerate pole u_a - u_a")
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            merged[key] = merged.get(key, ZERO) + sign * c
        return cls(tuple(sorted((pq, c) for pq, c in merged.items() if c)))

    def evaluate(self, u: ParameterPoint) -> Fraction:
        total = ZERO
        for (p, q), c in self.terms:
            total += c / (u.u(p) - u.u(q))
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for pos, ((p, q), c) in enumerate(self.terms):
            mag = c if c > 0 else -c
            coeff = str(mag) if mag.denominator == 1 else f"({mag})"
            sign = ("-" if c < 0 else "") if pos == 0 else ("- " if c < 0 else "+ ")
            out.append(f"{sign}{coeff}/(u_{p}-u_{q})")
        return " ".join(out)


def hamiltonian_pairing(m: int, I: SubsetIndex, J: SubsetIndex) -> PairingFunction:
    """The pairing of the reduced Hamiltonian applied to v_I against v_J,
    as an exact rational function of the parameters.

    Assembled from the symbolic basis action and the closed-form pairing
    table; the Hamiltonians commute with the projection, so projecting
    the swapped basis vectors is free.
    """
    if I.n != J.n or I.size != J.size:
        raise ValueError(f"subsets {I} and {J} do not label the same weight space")
    n, k = I.n, I.size
    a = coefficients(n, k).a
    base = a[I.intersection_size(J)]
    raw: dict[tuple[int, int], Fraction] = {}
    for term in hamiltonian_basis_action(m, I):
        c = a[term.plus.intersection_size(J)] - base
        if c:
            raw[term.pole] = raw.get(term.pole, ZERO) + c
    return PairingFunction.from_raw(raw)


def hamiltonian_matrix(m: int, u: ParameterPoint, n: int, k: int) -> list[WeightVector]:
    """Columns H_m V_I of the Hamiltonian on the colex basis, in colex order."""
    return [hamiltonian_apply(m, u, basis_vector(n, I)) for I in subsets(n, k)]
