"""Zero-weight counting for one-parameter torus actions, with a tail bound.

A diagonal torus action on an m-dimensional module is a tuple of integer
weights k = (k_1, ..., k_m).  The invariants of the n-th tensor power are
spanned by the basis tensors whose weights sum to zero, so counting them is
exact lattice combinatorics.  When the weights take two distinct values the
count is a single binomial term; otherwise it is a dynamic program over
partial sums.  When the weights sum to a positive number, a Bernstein
concentration bound gives an upper estimate for the probability that a
uniformly random basis tensor is invariant.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, factorial


class InapplicableBoundError(ValueError):
    """Raised when the weights do not sum to a positive number."""


@dataclass(frozen=True)
class BernsteinBound:
    """The Bernstein tail bound and the exact rational parameters fed into it.

    t: threshold n*sum(k)/(m+1); v: variance proxy n*E[(mean - k_i)**2];
    b: almost-sure bound max_i(mean - k_i), where mean = sum(k)/m.
    """

    value: float
    t: Fraction
    v: Fraction
    b: Fraction


def _clean_weights(weights) -> tuple[int, ...]:
    weights = tuple(operator.index(k) for k in weights)
    if not weights:
        raise ValueError("need at least one weight")
    return weights


def zero_weight_count(weights, n: int) -> int:
    """Number of basis tensors of weight 0 in the n-th tensor power.

    Equal weights form classes w_j of multiplicity mu_j, and the count is the
    sum of n!/prod(c_j!) * prod(mu_j**c_j) over c >= 0 with sum(c_j) = n and
    sum(c_j*w_j) = 0.  Two classes a < b leave the single solution
    c_a = b*n/(b - a), hence one binomial term.  Any other number of classes
    runs a dynamic program over partial sums, one round per tensor factor.
    """
    weights = _clean_weights(weights)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    classes = sorted(Counter(weights).items())
    if len(classes) == 2:
        (a, mu_a), (b, mu_b) = classes
        c_a, rest = divmod(b * n, b - a)
        if rest or not 0 <= c_a <= n:
            return 0
        return comb(n, c_a) * mu_a**c_a * mu_b ** (n - c_a)
    sums = {0: 1}
    for _ in range(n):
        step: dict[int, int] = {}
        for s, c in sums.items():
            for k in weights:
                step[s + k] = step.get(s + k, 0) + c
        sums = step
    return sums.get(0, 0)


def zero_weight_probability(weights, n: int) -> Fraction:
    """Exact probability that a uniform basis tensor has weight zero."""
    weights = _clean_weights(weights)
    return Fraction(zero_weight_count(weights, n), len(weights) ** n)


def bernstein_zero_bound(weights, n: int) -> BernsteinBound:
    """Bernstein upper bound on the zero-weight probability, for sum(k) > 0.

    Center: with K uniform on the weights and Y = sum(k)/m - K, the sum of n
    i.i.d. copies of Y exceeding t = n*sum(k)/(m+1) is necessary for a zero
    total weight, and Pr[sum Y_i > t] <= exp(-t**2 / (2*(v + b*t/3))) with
    v = n*E[Y**2] and b = max Y.  All parameters are exact rationals; only
    the final exponential is floating point.
    """
    weights = _clean_weights(weights)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    m = len(weights)
    total = sum(weights)
    if total <= 0:
        raise InapplicableBoundError(
            f"weights {weights} sum to {total}; the bound needs a positive sum"
        )
    mean = Fraction(total, m)
    t = Fraction(n * total, m + 1)
    v = n * Fraction(sum((mean - k) ** 2 for k in weights), m)
    b = max(mean - k for k in weights)
    denominator = 2 * (v + b * t / 3)
    if denominator == 0:
        # All weights equal (and positive): the centered variable is
        # identically zero, so the tail probability is 0 for t > 0.
        value = 1.0 if t == 0 else 0.0
    else:
        # exp underflows to 0.0 beyond about 745, so capping the exponent at 1000
        # changes no value and keeps float() of a huge rational from overflowing.
        value = exp(-float(min(t * t / denominator, 1000)))
    return BernsteinBound(value, t, v, b)


def diagonal_zero_count(m: int, n: int) -> int:
    """Invariant count for the full diagonal torus of SL_m on V^(x)(m*n).

    Only the perfectly balanced basis tensors survive: (m*n)!/(n!)**m.
    """
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    return factorial(m * n) // factorial(n) ** m
