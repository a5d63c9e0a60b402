"""The one evaluation point schedule every point-based check shares.

A point is a tuple of pairwise-distinct exact rationals u_1, ..., u_n.
The operator checks apply the Hamiltonians there, and theorem2
evaluates its reduced derivatives at z^(1) = u.  The deterministic pass
takes consecutive blocks of n primes, so denominators stay small and
every run is reproducible.  A seed adds extra random rational points on
top of the deterministic pass, never replacing it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .operators import ParameterPoint

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


def deterministic_parameter_points(n: int) -> list[ParameterPoint]:
    """DEFAULT_POINT_COUNT points, consecutive blocks of n primes, so all
    coordinates are pairwise distinct."""
    ps = primes(DEFAULT_POINT_COUNT * n)
    return [ParameterPoint.of(ps[r * n : (r + 1) * n]) for r in range(DEFAULT_POINT_COUNT)]


def _distinct_row(rng: random.Random, n: int) -> list[Fraction]:
    """Draw rows of n random rationals until one has distinct entries."""
    while True:
        row = [Fraction(rng.randint(-9999, 9999), rng.randint(1, 64)) for _ in range(n)]
        if len(set(row)) == n:
            return row


def random_parameter_points(n: int, count: int, seed: int) -> list[ParameterPoint]:
    """Seeded random rational points with distinct coordinates."""
    rng = random.Random(seed)
    return [ParameterPoint(tuple(_distinct_row(rng, n))) for _ in range(count)]
