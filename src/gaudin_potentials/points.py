"""Deterministic and seeded evaluation point schedules.

Theorem checks evaluate at small distinct integers by default (level
offset 100*j plus a prime per index), so denominators stay small and
every run is reproducible.  A seed adds extra random rational points on
top of the deterministic pass, never replacing it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .operators import ParameterPoint
from .symbolic import Var

DEFAULT_POINT_COUNT = 3


def primes(count: int) -> list[int]:
    """First `count` primes by a plain sieve."""
    if count <= 0:
        return []
    bound = 16
    while True:
        sieve = bytearray([1] * (bound + 1))
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
        found = [i for i, flag in enumerate(sieve) if flag]
        if len(found) >= count:
            return found[:count]
        bound *= 2


def _prime_blocks(n: int, count: int) -> list[list[int]]:
    """`count` consecutive blocks of n primes, pairwise distinct overall."""
    ps = primes(count * n)
    return [ps[r * n : (r + 1) * n] for r in range(count)]


def deterministic_parameter_points(n: int, count: int = DEFAULT_POINT_COUNT) -> list[ParameterPoint]:
    """`count` parameter points with pairwise-distinct prime coordinates."""
    return [ParameterPoint.of(block) for block in _prime_blocks(n, count)]


def deterministic_z_points(n: int, k: int, count: int = DEFAULT_POINT_COUNT) -> list[dict[Var, Fraction]]:
    """Full variable grids z_i^(j) = 100*j + prime(i), one prime block per pass."""
    return [
        {Var(i, j): Fraction(100 * j + block[i - 1]) for i in range(1, n + 1) for j in range(1, k + 1)}
        for block in _prime_blocks(n, count)
    ]


def _random_row(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9999, 9999), rng.randint(1, 64)) for _ in range(n)]


def _distinct_row(rng: random.Random, n: int) -> list[Fraction]:
    """Draw rows of n random rationals until one has distinct entries."""
    while True:
        row = _random_row(rng, n)
        if len(set(row)) == n:
            return row


def random_parameter_points(n: int, count: int, seed: int) -> list[ParameterPoint]:
    """Seeded random rational points with distinct coordinates."""
    rng = random.Random(seed)
    return [ParameterPoint(tuple(_distinct_row(rng, n))) for _ in range(count)]


def random_z_points(n: int, k: int, count: int, seed: int) -> list[dict[Var, Fraction]]:
    """Seeded random variable grids with distinct level-1 coordinates."""
    rng = random.Random(seed)
    points: list[dict[Var, Fraction]] = []
    for _ in range(count):
        rows = [_distinct_row(rng, n)] + [_random_row(rng, n) for _ in range(2, k + 1)]
        points.append({Var(i, j): rows[j - 1][i - 1] for j in range(1, k + 1) for i in range(1, n + 1)})
    return points
