"""Tensor powers of the natural SL_m module, decomposed by the Pieri rule.

In characteristic zero, V_lam (x) V decomposes as the sum of the V_mu over
all mu obtained from lam by adding a single box.  Iterating from the empty
partition decomposes V^(x)n; the multiplicity of V_lam is the number of
standard Young tableaux of shape lam.  Trivial counts therefore need no
sweep: they are the hook-length counts of the rectangles (k, ..., k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    """Decompose V^(x)n for the natural m-dimensional SL_m module."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    states = {(0,) * m: 1}
    for _ in range(n):
        states = _add_box(states)
    return Decomposition(m, n, {Partition(p, m): c for p, c in states.items()})


def _add_box(states: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """One Pieri step on padded part tuples, which are trusted to be partitions."""
    out: dict[tuple[int, ...], int] = {}
    for parts, mult in states.items():
        for i, row in enumerate(parts):
            if i == 0 or parts[i - 1] > row:  # the new box keeps the rows weakly decreasing
                mu = parts[:i] + (row + 1,) + parts[i + 1 :]
                out[mu] = out.get(mu, 0) + mult
    return out


def trivial_multiplicity(m: int, n: int) -> int:
    """Number of trivial SL_m summands of V^(x)n.

    The trivial class is the rectangle (n/m, ..., n/m); the count is its
    hook-length SYT count, and zero unless m divides n.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return hook_syt_count((n // m,) * m) if n % m == 0 else 0


def ts_series_sl(m: int, max_k: int) -> GrowthSeries:
    """Trivial-summand counts of V^(x)(m*k) for k = 1..max_k, as a growth series."""
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    values = tuple(trivial_multiplicity(m, m * k) for k in range(1, max_k + 1))
    return GrowthSeries(step=m, values=values, dim_v=m)


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
