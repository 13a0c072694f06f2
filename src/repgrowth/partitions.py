"""Partitions as dominant SL_m weights: dimensions, duality, and tableau counts.

Irreducible polynomial representations of SL_m are indexed by partitions with
at most m parts.  Two partitions index the same SL_m representation exactly
when they differ by a multiple of (1, ..., 1); the canonical representative
has last part 0.  Weyl's dimensions and Frobenius's tableau counts are both
quotients of one Vandermonde product.  Everything here is exact arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm, prod
from typing import Iterable, Sequence, Union


class InvalidPartitionError(ValueError):
    """Raised for sequences that are not weakly decreasing and non-negative."""


PartitionLike = Union["Partition", Iterable[int]]


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of non-negative integers, padded to m parts.

    The padding makes coordinate arithmetic (duality, mean-distance tests)
    uniform: ``parts`` always has exactly ``m`` entries.
    """

    parts: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidPartitionError(f"rank must be at least 1, got {self.m}")
        parts = tuple(map(operator.index, self.parts))
        if len(parts) > self.m:
            raise InvalidPartitionError(f"{parts} has more than {self.m} parts")
        parts = parts + (0,) * (self.m - len(parts))
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise InvalidPartitionError(f"{parts} is not weakly decreasing")
        if parts[-1] < 0:
            raise InvalidPartitionError(f"{parts} has a negative part")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        """Number of boxes, i.e. the tensor degree this weight occurs in."""
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts if x != 0) + ")"


@dataclass(frozen=True)
class SlWeight:
    """An SL_m weight class, stored by its canonical representative.

    The canonical representative is the unique partition in the class
    ``parts + Z*(1, ..., 1)`` whose last part is 0.
    """

    canonical: Partition

    def __post_init__(self) -> None:
        if self.canonical.parts[-1] != 0:
            raise InvalidPartitionError(
                f"{self.canonical.parts} is not canonical: last part must be 0"
            )


@dataclass(frozen=True)
class DualWeightResult:
    """Canonical dual weight together with the degree shift it was found at.

    ``excess`` is m*lambda_1 - n: the dual of a weight of V^(x)n appears as a
    partition of n + excess, i.e. in degree n + excess rather than n.
    """

    dual: Partition
    excess: int


def _as_partition(parts: PartitionLike, m: int | None = None) -> Partition:
    if isinstance(parts, Partition):
        if m is not None and m != parts.m:
            raise InvalidPartitionError(f"{parts.parts} has rank {parts.m}, not {m}")
        return parts
    parts = tuple(parts)
    return Partition(parts, len(parts) if m is None else m)


def canonicalize(parts: PartitionLike, m: int | None = None) -> SlWeight:
    """Return the SL_m weight class of ``parts``.

    Subtracts the last coordinate from every coordinate, which is the unique
    shift by a multiple of (1, ..., 1) landing in canonical form.
    """
    lam = _as_partition(parts, m)
    shift = lam.parts[-1]
    return SlWeight(Partition(tuple(x - shift for x in lam.parts), lam.m))


def _vandermonde(l: Sequence[int]) -> int:
    """The product over i < j of (l_i - l_j)."""
    return prod(a - b for i, a in enumerate(l) for b in l[i + 1 :])


def weyl_dimension(lam: PartitionLike, m: int | None = None) -> int:
    """Dimension of the irreducible SL_m representation with highest weight lam.

    Weyl's formula: the product over i < j of (lam_i - lam_j + j - i)/(j - i).
    Pairs of two zero rows give 1, so over the r nonzero rows, with
    l_i = lam_i + r - i, it is Vandermonde(l) * prod_i (l_i+1)...(l_i+m-r)
    divided by prod_i (m-i)!: O(r**2 + r*m) factors.  The quotient is always
    an integer; the computation is exact.
    """
    lam = _as_partition(lam, m)
    rows = [x for x in lam.parts if x > 0]
    l = [x + len(rows) - i for i, x in enumerate(rows, start=1)]
    zeros = lam.m - len(rows)
    numerator = _vandermonde(l) * prod(perm(x + zeros, zeros) for x in l)
    return numerator // prod(factorial(lam.m - i) for i in range(1, len(rows) + 1))


def dual_weight(lam: PartitionLike, n: int, m: int | None = None) -> DualWeightResult:
    """Canonical weight of the dual representation, for lam a partition of n.

    The dual of the irreducible with highest weight (l_1, ..., l_m) has
    highest weight (-l_m, ..., -l_1); canonically (l_1 - l_m, ..., l_1 - l_2, 0).
    As a partition it has size m*l_1 - n, so the dual lives in tensor degree
    n + excess with excess = m*l_1 - n.
    """
    lam = _as_partition(lam, m)
    if lam.size != n:
        raise ValueError(f"{lam.parts} is a partition of {lam.size}, not {n}")
    top = lam.parts[0]
    dual = Partition(tuple(top - x for x in reversed(lam.parts)), lam.m)
    return DualWeightResult(dual, lam.m * top - n)


def is_close_to_mean(
    parts: PartitionLike,
    n: int,
    m: int | None = None,
    theta: Fraction = Fraction(2, 3),
) -> bool:
    """Whether every coordinate of ``parts`` lies within n**theta of n/m.

    Decided exactly: for theta = a/b the test |x - n/m| < n**theta is
    equivalent over the integers to |m*x - n|**b < n**a * m**b.  Strict
    inequality, so for n = 0 no partition is close (including the empty one).
    """
    lam = _as_partition(parts, m)
    if lam.size != n:
        raise ValueError(f"{lam.parts} is a partition of {lam.size}, not {n}")
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    a, b = theta.numerator, theta.denominator
    bound = n**a * lam.m**b
    return all(abs(lam.m * x - n) ** b < bound for x in lam.parts)


def hook_syt_count(shape: PartitionLike) -> int:
    """Number of standard Young tableaux of ``shape`` (Frobenius's formula).

    Over the r nonzero rows, with l_i = lam_i + r - i, the count is the exact
    integer n! * Vandermonde(l) / (l_1! * ... * l_r!).  It is also the
    multiplicity of the irreducible GL_m summand of highest weight ``shape``
    in the n-th tensor power of the natural module, for any m >= r.
    """
    if not isinstance(shape, Partition):
        shape = _as_partition((*shape, 0))  # the extra 0 gives the empty shape rank 1
    rows = [x for x in shape.parts if x > 0]
    l = [x + len(rows) - i for i, x in enumerate(rows, start=1)]
    return factorial(sum(rows)) * _vandermonde(l) // prod(map(factorial, l))
