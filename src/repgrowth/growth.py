"""Growth-rate bookkeeping for trivial-summand counting sequences."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import exp, log

from ._exact import natural


@dataclass(frozen=True)
class GrowthSeries:
    """Counts a_k of trivial summands in the (step*k)-th tensor power, k = 1..len.

    ``dim_v`` is the dimension of the underlying module, so each term is
    bounded by dim_v**(step*k); this is checked exactly on construction.
    """

    step: int
    values: tuple[int, ...]
    dim_v: int

    def __post_init__(self) -> None:
        step, dim_v = natural(self.step, "step", 1), natural(self.dim_v, "dim_v", 1)
        values = tuple(map(operator.index, self.values))
        for k, a in enumerate(values, start=1):
            if a < 0:
                raise ValueError(f"negative count {a} at position {k}")
            if a > dim_v ** (step * k):
                raise ValueError(
                    f"count {a} at position {k} exceeds dim_v**(step*k)"
                )
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GrowthEstimate:
    lower: float
    upper: float
    fekete_ok: bool
    roots: tuple[float, ...]


def nth_root_sequence(series: GrowthSeries) -> list[float]:
    """Roots a_k**(1/(step*k)); zero terms give 0.0 rather than an error."""
    return [
        exp(log(a) / (series.step * k)) if a > 0 else 0.0
        for k, a in enumerate(series.values, start=1)
    ]


def fekete_check(series: GrowthSeries) -> bool:
    """Whether a_{l+k} >= a_l * a_k for all index pairs inside the horizon.

    The rule is symmetric in l and k, so each pair is tested once, with k >= l.
    Supermultiplicativity holds for genuine trivial-summand sequences (a
    trivial summand of each factor embeds as one of the product), and by
    Fekete's lemma it makes sup a_k**(1/(step*k)) the actual growth limit.
    """
    a = series.values
    return all(
        a[l + k - 1] >= a[l - 1] * a[k - 1]
        for l in range(1, len(a) + 1)
        for k in range(l, len(a) + 1 - l)
    )


def estimate(series: GrowthSeries) -> GrowthEstimate:
    """Bracket the growth rate lim a_k**(1/(step*k)) from the finite horizon.

    Lower bound: the best observed root (valid when the sequence is
    supermultiplicative, which ``fekete_ok`` reports).  Upper bound: dim_v,
    since a_k <= dim_v**(step*k) always.  ``roots`` holds every observed root.
    """
    if not series.values:
        raise ValueError("cannot estimate growth from an empty series")
    roots = tuple(nth_root_sequence(series))
    return GrowthEstimate(
        lower=max(roots),
        upper=float(series.dim_v),
        fekete_ok=fekete_check(series),
        roots=roots,
    )
