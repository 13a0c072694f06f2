"""Growth-rate bookkeeping for trivial-summand counting sequences."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import exp, log
from operator import sub

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
        block, bound = dim_v**step, 1
        for k, a in enumerate(values, start=1):
            bound *= block  # dim_v**(step*k)
            if a < 0:
                raise ValueError(f"negative count {a} at position {k}")
            if a > bound:
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

    Pairs are screened by bit length first: a_l * a_k < 2**(bl + bk) with bl, bk
    the factors' bit lengths, so a pair passes when a_{l+k} has more than
    bl + bk bits, and a pair with a zero factor passes.  Only the rest multiply.
    """
    a = series.values
    bits = [x.bit_length() for x in a]
    floor = -1 - max(bits, default=0)  # a zero factor's bits: bl + floor < 0
    factor_bits = [b if b else floor for b in bits]
    n = len(a)
    for l in range(1, n // 2 + 1):
        al, bl = a[l - 1], factor_bits[l - 1]
        if not al:
            continue
        # The bits of a_{l+k} less those of a_k, for k = l..n-l: (l, k) passes above bl.
        margins = list(map(sub, bits[2 * l - 1 :], factor_bits[l - 1 : n - l]))
        if min(margins) > bl:
            continue
        if any(a[l + k - 1] < al * a[k - 1] for k, m in enumerate(margins, start=l) if m <= bl):
            return False
    return True


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
