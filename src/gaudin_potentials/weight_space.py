"""Exact model of the n-fold tensor power of the two-dimensional sl2 module.

The tensor power splits into weight spaces indexed by k, the number of
lowered factors.  A basis of the weight-(n-2k) space is labeled by the
k-element subsets of {1, ..., n}; subsets are stored as bitmasks and
enumerated in colexicographic order (which coincides with increasing mask
value).  A vector holds integer numerators over one positive
denominator, in lowest terms; `coeffs` is a derived `Fraction` view for
the oracles.  The vector kernels here and in `projection` and
`operators` read and write the numerators directly.  Nothing in this
package computes in floating point (only the runner's wall-clock
timings are floats), and scalars must be `int` or `Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Iterable

MAX_N = 64

ZERO = Fraction(0)
ONE = Fraction(1)


def weight_dim(n: int, k: int) -> int:
    """Dimension of the weight-(n-2k) space; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rational(c) -> Fraction:
    """c as a Fraction; TypeError unless c is an exact int or Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(c).__name__} {c!r}")
    return Fraction(c)


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
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"element {i} is repeated")
            mask |= bit
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
    """Element of the weight-(n-2k) space: integer numerators over one
    positive denominator.

    The coefficient at V_I is nums[r] / den, where r is the colex rank of
    I.  The pair is kept in lowest terms, so equal vectors are equal
    structurally.  Weight spaces with k outside 0..n are canonical empty
    spaces whose only vector is the zero vector (nums = ()).
    """

    n: int
    k: int
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"ambient size n={self.n} must lie in 1..{MAX_N}")
        if len(self.nums) != weight_dim(self.n, self.k):
            raise ValueError(
                f"coefficient array has length {len(self.nums)}, "
                f"expected C({self.n},{self.k}) = {weight_dim(self.n, self.k)}"
            )
        if self.den < 1 or gcd(self.den, *self.nums) != 1:
            raise ValueError(f"numerators over denominator {self.den} are not in lowest terms")

    @classmethod
    def over(cls, n: int, k: int, nums, den: int) -> "WeightVector":
        """The vector with coefficients nums[r] / den (den > 0), reduced."""
        g = gcd(den, *nums)
        nums = tuple(nums) if g == 1 else tuple([v // g for v in nums])
        return cls(n, k, nums, den // g)

    @classmethod
    def of(cls, n: int, k: int, coeffs) -> "WeightVector":
        """The vector with the given exact rational coefficients."""
        ratios = [rational(c).as_integer_ratio() for c in coeffs]
        den = lcm(*(d for _, d in ratios))
        return cls.over(n, k, [p * (den // d) for p, d in ratios], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in colex order."""
        return tuple(Fraction(v, self.den) if v else ZERO for v in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def coefficient(self, ix: SubsetIndex) -> Fraction:
        if ix.n != self.n or ix.size != self.k:
            raise ValueError(f"subset {ix} does not label the (n={self.n}, k={self.k}) basis")
        return Fraction(self.nums[subset_rank(ix)], self.den)

    def _require_same_space(self, other: "WeightVector") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"mismatched weight spaces (n={self.n},k={self.k}) vs (n={other.n},k={other.k})"
            )

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._require_same_space(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums = [a * sa + b * sb for a, b in zip(self.nums, other.nums)]
        return WeightVector.over(self.n, self.k, nums, den)

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return self + -other

    def __neg__(self) -> "WeightVector":
        return WeightVector(self.n, self.k, tuple(-v for v in self.nums), self.den)

    def __mul__(self, scalar) -> "WeightVector":
        p, q = rational(scalar).as_integer_ratio()
        return WeightVector.over(self.n, self.k, [p * v for v in self.nums], q * self.den)

    __rmul__ = __mul__


def zero_vector(n: int, k: int) -> WeightVector:
    return WeightVector(n, k, (0,) * weight_dim(n, k))


def basis_vector(n: int, subset) -> WeightVector:
    """The indicator vector V_I for a k-subset I (k = |I|)."""
    ix = subset if isinstance(subset, SubsetIndex) else SubsetIndex.of(n, subset)
    if ix.n != n:
        raise ValueError(f"subset carries ambient size {ix.n}, expected {n}")
    nums = [0] * weight_dim(n, ix.size)
    nums[subset_rank(ix)] = 1
    return WeightVector(n, ix.size, tuple(nums))


def shapovalov(x: WeightVector, y: WeightVector) -> Fraction:
    """The bilinear form making the tensor basis orthonormal: sum of x_I * y_I."""
    x._require_same_space(y)
    return Fraction(sum(a * b for a, b in zip(x.nums, y.nums) if a), x.den * y.den)


def apply_e(x: WeightVector) -> WeightVector:
    """Raising operator: e V_I = sum over i in I of V_{I minus i}."""
    n, k = x.n, x.k
    dim = weight_dim(n, k - 1)
    if dim == 0 or not 0 <= k <= n:
        return zero_vector(n, k - 1)
    rank = _mask_rank(n, k - 1)
    masks = subset_masks(n, k)
    out = [0] * dim
    for mask, c in zip(masks, x.nums):
        if not c:
            continue
        m = mask
        while m:
            low = m & -m
            out[rank[mask ^ low]] += c
            m ^= low
    return WeightVector.over(n, k - 1, out, x.den)


def apply_f(x: WeightVector) -> WeightVector:
    """Lowering operator: f V_I = sum over j not in I of V_{I plus j}."""
    n, k = x.n, x.k
    dim = weight_dim(n, k + 1)
    if dim == 0 or not 0 <= k <= n:
        return zero_vector(n, k + 1)
    rank = _mask_rank(n, k + 1)
    masks = subset_masks(n, k)
    out = [0] * dim
    full = (1 << n) - 1
    for mask, c in zip(masks, x.nums):
        if not c:
            continue
        m = full & ~mask
        while m:
            low = m & -m
            out[rank[mask | low]] += c
            m ^= low
    return WeightVector.over(n, k + 1, out, x.den)


def apply_h(x: WeightVector) -> WeightVector:
    """Cartan operator: multiplication by the weight n - 2k."""
    return x * (x.n - 2 * x.k)


def is_singular(x: WeightVector) -> bool:
    """True iff the raising operator annihilates x."""
    return apply_e(x).is_zero
