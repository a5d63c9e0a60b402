"""Exact model of the n-fold tensor power of the two-dimensional sl2 module.

The tensor power splits into weight spaces indexed by k, the number of
lowered factors.  A basis of the weight-(n-2k) space is labeled by the
k-element subsets of {1, ..., n}; subsets are stored as bitmasks and
enumerated in colexicographic order (which coincides with increasing mask
value).  All coefficients are exact rationals (`fractions.Fraction`);
nothing in this package computes in floating point (only the runner's
wall-clock timings are floats).  The vector kernels here and in
`projection` and `operators` compute on integer numerators over one
common denominator (`_numerators`, `_from_numerators`), so a `Fraction`
is built once per output coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable

MAX_N = 64

ZERO = Fraction(0)
ONE = Fraction(1)


def weight_dim(n: int, k: int) -> int:
    """Dimension of the weight-(n-2k) space; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def subset_masks(n: int, k: int) -> tuple[int, ...]:
    """All k-subset bitmasks of {1, ..., n} in colexicographic order.

    Element i occupies bit i-1, so colex order is increasing mask value.
    """
    if k < 0 or k > n:
        return ()
    if k == 0:
        return (0,)
    out: list[int] = []
    for last in range(k, n + 1):
        high = 1 << (last - 1)
        out.extend(m | high for m in subset_masks(last - 1, k - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _mask_rank(n: int, k: int) -> dict[int, int]:
    return {m: r for r, m in enumerate(subset_masks(n, k))}


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class SubsetIndex:
    """A subset of {1, ..., n} as a bitmask (bit i-1 holds element i)."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"ambient size n={self.n} must lie in 1..{MAX_N}")
        if self.mask < 0 or self.mask >> self.n:
            bad = _mask_elements(self.mask)
            raise ValueError(f"subset {bad} does not fit inside {{1,...,{self.n}}}")

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "SubsetIndex":
        mask = 0
        for i in elements:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside {{1,...,{n}}}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def elements(self) -> tuple[int, ...]:
        return _mask_elements(self.mask)

    def contains(self, i: int) -> bool:
        return bool(self.mask >> (i - 1) & 1)

    def intersection_size(self, other: "SubsetIndex") -> int:
        return (self.mask & other.mask).bit_count()

    def with_element(self, i: int) -> "SubsetIndex":
        return SubsetIndex(self.n, self.mask | 1 << (i - 1))

    def without_element(self, i: int) -> "SubsetIndex":
        return SubsetIndex(self.n, self.mask & ~(1 << (i - 1)))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements) + "}"


def subsets(n: int, k: int) -> tuple[SubsetIndex, ...]:
    """All k-subsets of {1, ..., n} in colexicographic order."""
    return tuple(SubsetIndex(n, m) for m in subset_masks(n, k))


def subset_rank(ix: SubsetIndex) -> int:
    """Position of a subset in the colex enumeration of its size class."""
    return _mask_rank(ix.n, ix.size)[ix.mask]


@dataclass(frozen=True)
class WeightVector:
    """Element of the weight-(n-2k) space as a dense coefficient tuple.

    Coefficients follow the colex enumeration of k-subsets.  Weight
    spaces with k outside 0..n are canonical empty spaces whose only
    vector is the zero vector (coeffs = ()).
    """

    n: int
    k: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"ambient size n={self.n} must lie in 1..{MAX_N}")
        if len(self.coeffs) != weight_dim(self.n, self.k):
            raise ValueError(
                f"coefficient array has length {len(self.coeffs)}, "
                f"expected C({self.n},{self.k}) = {weight_dim(self.n, self.k)}"
            )

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coefficient(self, ix: SubsetIndex) -> Fraction:
        if ix.n != self.n or ix.size != self.k:
            raise ValueError(f"subset {ix} does not label the (n={self.n}, k={self.k}) basis")
        return self.coeffs[subset_rank(ix)]

    def _require_same_space(self, other: "WeightVector") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"mismatched weight spaces (n={self.n},k={self.k}) vs (n={other.n},k={other.k})"
            )

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._require_same_space(other)
        return WeightVector(self.n, self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        self._require_same_space(other)
        return WeightVector(self.n, self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(self.n, self.k, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "WeightVector":
        c = Fraction(scalar)
        return WeightVector(self.n, self.k, tuple(c * a if a else ZERO for a in self.coeffs))

    __rmul__ = __mul__


def zero_vector(n: int, k: int) -> WeightVector:
    return WeightVector(n, k, (ZERO,) * weight_dim(n, k))


def basis_vector(n: int, subset) -> WeightVector:
    """The indicator vector V_I for a k-subset I (k = |I|)."""
    ix = subset if isinstance(subset, SubsetIndex) else SubsetIndex.of(n, subset)
    if ix.n != n:
        raise ValueError(f"subset carries ambient size {ix.n}, expected {n}")
    coeffs = [ZERO] * weight_dim(n, ix.size)
    coeffs[subset_rank(ix)] = ONE
    return WeightVector(n, ix.size, tuple(coeffs))


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over the lcm of their denominators."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = lcm(*{d for _, d in ratios})
    if den == 1:
        return [p for p, _ in ratios], 1
    return [p * (den // d) for p, d in ratios], den


def _from_numerators(n: int, k: int, nums: list[int], den: int) -> WeightVector:
    """The weight vector with coefficients nums[i] / den, as Fractions."""
    return WeightVector(n, k, tuple(Fraction(v, den) if v else ZERO for v in nums))


def shapovalov(x: WeightVector, y: WeightVector) -> Fraction:
    """The bilinear form making the tensor basis orthonormal: sum of x_I * y_I."""
    x._require_same_space(y)
    xs, xd = _numerators(x.coeffs)
    ys, yd = _numerators(y.coeffs)
    return Fraction(sum(a * b for a, b in zip(xs, ys) if a), xd * yd)


def apply_e(x: WeightVector) -> WeightVector:
    """Raising operator: e V_I = sum over i in I of V_{I minus i}."""
    n, k = x.n, x.k
    dim = weight_dim(n, k - 1)
    if dim == 0 or not 0 <= k <= n:
        return zero_vector(n, k - 1)
    rank = _mask_rank(n, k - 1)
    masks = subset_masks(n, k)
    nums, den = _numerators(x.coeffs)
    out = [0] * dim
    for mask, c in zip(masks, nums):
        if not c:
            continue
        m = mask
        while m:
            low = m & -m
            out[rank[mask ^ low]] += c
            m ^= low
    return _from_numerators(n, k - 1, out, den)


def apply_f(x: WeightVector) -> WeightVector:
    """Lowering operator: f V_I = sum over j not in I of V_{I plus j}."""
    n, k = x.n, x.k
    dim = weight_dim(n, k + 1)
    if dim == 0 or not 0 <= k <= n:
        return zero_vector(n, k + 1)
    rank = _mask_rank(n, k + 1)
    masks = subset_masks(n, k)
    nums, den = _numerators(x.coeffs)
    out = [0] * dim
    full = (1 << n) - 1
    for mask, c in zip(masks, nums):
        if not c:
            continue
        m = full & ~mask
        while m:
            low = m & -m
            out[rank[mask | low]] += c
            m ^= low
    return _from_numerators(n, k + 1, out, den)


def apply_h(x: WeightVector) -> WeightVector:
    """Cartan operator: multiplication by the weight n - 2k."""
    return x * Fraction(x.n - 2 * x.k)


def is_singular(x: WeightVector) -> bool:
    """True iff the raising operator annihilates x."""
    return apply_e(x).is_zero
