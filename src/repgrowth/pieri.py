"""Tensor powers of the natural SL_m module, decomposed by Frobenius's formula.

By the Pieri rule (adding one box at a time), V^(x)n holds V_lam, for each
partition lam of n with at most m parts, once per standard Young tableau of
shape lam: Frobenius's count.  Trivial counts are those of the rectangles (k, ..., k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul

from ._exact import natural, unchecked
from .growth import GrowthSeries
from .partitions import Partition, hook_syt_count, is_close_to_mean, weyl_dimension


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of the irreducibles in V^(x)n for SL_m.

    Keys are partitions of n with at most m parts; iteration order is
    descending lexicographic on the padded parts.
    """

    m: int
    n: int
    mults: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for lam, mult in self.mults.items():
            if lam.m != self.m or lam.size != self.n:
                raise ValueError(
                    f"{lam.parts} is not a partition of {self.n} with {self.m} parts"
                )
            if mult < 1:
                raise ValueError(f"multiplicity of {lam.parts} must be positive")
        ordered = dict(
            sorted(self.mults.items(), key=lambda kv: kv[0].parts, reverse=True)
        )
        object.__setattr__(self, "mults", ordered)

    def total_multiplicity(self) -> int:
        return sum(self.mults.values())

    def dimension(self) -> int:
        """Total dimension; equals m**n when the decomposition is exact."""
        return sum(mult * weyl_dimension(lam) for lam, mult in self.mults.items())


@dataclass(frozen=True)
class MeanMassReport:
    """How the weight of V^(x)n distributes around the mean partition (n/m, ...).

    ``total_close``/``total_far`` split the summand count (sum of
    multiplicities); ``dim_close``/``dim_far`` split the dimension m**n.
    ``max_close_witness`` is a close partition of maximal multiplicity (ties
    broken toward the lexicographically smallest), or None when no partition
    is close.
    """

    total_close: int
    total_far: int
    dim_close: int
    dim_far: int
    max_close_witness: tuple[Partition, int] | None


def tensor_power_decomposition(m: int, n: int) -> Decomposition:
    """Decompose V^(x)n for the natural m-dimensional SL_m module.

    One walk fixes rows in the order the keys of a Decomposition run and stops when no
    boxes are left, so it fixes at most min(m, n) rows.  It carries the Vandermonde
    product of the lam_i - i over the rows fixed so far; at a shape with r nonzero rows,
    Frobenius's count is n! times that product over prod_i (lam_i + r - i)!, each
    factorial read from one table of n + min(m, n) entries.  The shapes and the
    Decomposition are built by the library itself, so neither is checked again.
    """
    m, n = natural(m, "m", 1), natural(n, "n")
    factorials = list(accumulate(range(1, n + min(m, n)), mul, initial=1))
    zeros, mults = (0,) * m, {}

    def walk(left: int, rows: tuple[int, ...], shifted: tuple[int, ...], delta: int) -> None:
        r = len(rows) + 1  # this call fixes row r; shifted holds lam_i - i of rows 1..r-1
        # A row of at least left/(m - r + 1) leaves each later row at most this one.
        for part in range(min(left, rows[-1] if rows else n), -(-left // (m - r + 1)) - 1, -1):
            x, product = part - r, delta
            for y in shifted:
                product *= y - x
            if part < left:
                walk(left - part, rows + (part,), shifted + (x,), product)
                continue
            denominator = 1
            for y in shifted + (x,):
                denominator *= factorials[y + r]
            shape = unchecked(Partition, parts=rows + (part,) + zeros[r:], m=m)
            mults[shape] = factorials[n] * product // denominator

    walk(n, (), (), 1)
    return unchecked(Decomposition, m=m, n=n, mults=mults)


def trivial_multiplicity(m: int, n: int) -> int:
    """Number of trivial SL_m summands of V^(x)n.

    The trivial class is the rectangle (n/m, ..., n/m); the count is its
    number of standard tableaux, and zero unless m divides n.
    """
    m, n = natural(m, "m", 1), natural(n, "n")
    return hook_syt_count((n // m,) * m) if n % m == 0 else 0


def ts_series_sl(m: int, max_k: int) -> GrowthSeries:
    """Trivial-summand counts of V^(x)(m*k) for k = 1..max_k, as a growth series.

    By Frobenius's formula the k^m rectangle has f_k = (mk)! prod_i i! / prod_i (k+i)!
    standard tableaux (i = 0..m-1), so f_0 = 1 and
    f_{k+1} = f_k * prod_{r=1..m} (mk+r) / prod_{i=1..m} (k+i), the division exact.
    """
    max_k, m = natural(max_k, "max_k", 1), natural(m, "m", 1)
    values, f = [], 1
    for k in range(max_k):
        f = f * prod(range(m * k + 1, m * k + m + 1)) // prod(range(k + 1, k + m + 1))
        values.append(f)
    return GrowthSeries(step=m, values=tuple(values), dim_v=m)


def mean_mass_report(d: Decomposition, theta: Fraction = Fraction(2, 3)) -> MeanMassReport:
    """Split a tensor-power decomposition by distance of weights from the mean.

    A partition is close when every coordinate is within n**theta of n/m
    (exact test, strict inequality).  Multiplicity totals satisfy
    total_close + total_far = total multiplicity; dimension totals satisfy
    dim_close + dim_far = m**n.
    """
    total_close = total_far = dim_close = dim_far = 0
    witness: tuple[Partition, int] | None = None
    for lam, mult in d.mults.items():
        dim = mult * weyl_dimension(lam)
        if is_close_to_mean(lam, d.n, theta=theta):
            total_close += mult
            dim_close += dim
            if (
                witness is None
                or mult > witness[1]
                or (mult == witness[1] and lam.parts < witness[0].parts)
            ):
                witness = (lam, mult)
        else:
            total_far += mult
            dim_far += dim
    return MeanMassReport(total_close, total_far, dim_close, dim_far, witness)
