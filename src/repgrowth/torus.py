"""Zero-weight counting for one-parameter torus actions, with a tail bound.

A diagonal torus action on an m-dimensional module is a tuple of integer
weights k = (k_1, ..., k_m).  The invariants of the n-th tensor power are
spanned by the basis tensors whose weights sum to zero, so their number is
the constant term of P(x)**n with P(x) = sum_i x**k_i.  It is computed
exactly by J. C. P. Miller's recurrence for the coefficients of a power of a
polynomial, in a number of steps linear in n for every weight vector.  When
the weights sum to a positive number, a Bernstein concentration bound gives
an upper estimate for the probability that a uniformly random basis tensor
is invariant.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import exp, factorial, gcd

from ._exact import natural


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

    The count is the constant term of P(x)**n, P(x) = sum_i x**k_i.  Shift
    the exponents to start at 0 and divide them by their gcd g, so that
    P = sum_j p_j x**j has degree d and p_0 > 0; the constant term becomes
    the coefficient of x**t in Q = P**n, t = n*(-min k)/g, and is 0 when g
    does not divide n*(-min k).  From P*Q' = n*P'*Q, Miller's recurrence

        k*p_0*q_k = sum_{j >= 1, p_j != 0} ((n+1)*j - k) * p_j * q_{k-j}

    gives q_1, ..., q_t from q_0 = p_0**n, holding only the coefficients
    of the last d exponents.  Reversing P swaps the ends of Q, so the walk
    starts from the end nearer x**t.  It visits only exponents that P**n can
    reach, at most min(t, n*d - t) of them, with one term per distinct
    weight.  A single weight class (g = 0) counts m**n if its weight is 0.
    """
    weights = _clean_weights(weights)
    n = natural(n, "n")
    if n == 0:
        return 1
    low, high = min(weights), max(weights)
    g = gcd(*(k - low for k in weights))
    if g == 0:
        return len(weights) ** n if low == 0 else 0
    degree = (high - low) // g
    target, rest = divmod(-low * n, g)
    if rest or not 0 <= target <= n * degree:
        return 0
    exponents = [(k - low) // g for k in weights]
    if 2 * target > n * degree:
        # Walk from the other end of Q: reverse P, x**j -> x**(degree - j).
        exponents = [degree - j for j in exponents]
        target = n * degree - target
    classes = Counter(exponents)
    p0 = classes.pop(0)
    terms = sorted((j, p) for j, p in classes.items() if j <= target)
    # Only exponents k = i + j with q_i != 0 can have q_k != 0, so the walk
    # visits those in increasing order and holds the ones within `degree`.
    q = {0: p0**n}
    held = deque([0])
    frontier = [j for j, _ in terms]
    while frontier:
        k = heappop(frontier)
        if k == held[-1]:
            continue
        while held[0] < k - degree:
            del q[held.popleft()]
        total = sum(((n + 1) * j - k) * p * q.get(k - j, 0) for j, p in terms)
        q[k], rest = divmod(total, k * p0)
        if rest:
            raise ArithmeticError(f"Miller's recurrence left a remainder at x**{k}")
        held.append(k)
        if q[k]:
            for j, _ in terms:
                if k + j <= target:
                    heappush(frontier, k + j)
    return q.get(target, 0)


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
    n = natural(n, "n")
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
    m, n = natural(m, "m", 1), natural(n, "n")
    return factorial(m * n) // factorial(n) ** m
