"""The representation ring of Z/pZ over a field of characteristic p.

There are exactly p indecomposable modules V_0, ..., V_{p-1}, with dim V_i =
i + 1 (V_i is a single Jordan block of size i + 1 for a generator).  Modulo
the projective V_{p-1}, V_i is its Weyl numerator t^(i+1) - t^-(i+1) in
Z[t]/(t^(2p) - 1), and the numerator of X (x) W is X's numerator times W's
SL_2 character; the multiple of V_{p-1} is the rest of the dimension, over p.
``jordan_oracle`` re-derives the same decomposition independently, as the
Jordan type of x + y on F_p[x,y]/(x^(m+1), y^(n+1)), from the ranks of its
degree blocks; the tests compare both.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import comb, isqrt
from operator import add, mul, sub

from ._exact import natural, power
from .growth import GrowthSeries


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class FusionVector:
    """A non-negative integer combination of the indecomposables V_0..V_{p-1}."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        coeffs = tuple(map(operator.index, self.coeffs))
        if len(coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"negative multiplicity in {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dimension(self) -> int:
        return sum(map(mul, self.coeffs, range(1, self.p + 1)))


def basis_vector(p: int, i: int) -> FusionVector:
    """The class of the single indecomposable V_i."""
    if not 0 <= operator.index(i) < p:
        raise ValueError(f"index {i} outside 0..{p - 1}")
    return FusionVector(p, tuple(int(j == i) for j in range(p)))


def _require_pair(p: int, m: int, n: int) -> None:
    require_prime(p)
    if not (0 <= m < p and 0 <= n < p):
        raise ValueError(f"indices ({m}, {n}) outside 0..{p - 1}")


def fuse_basis(p: int, m: int, n: int) -> FusionVector:
    """Decompose V_m (x) V_n over Z/pZ in characteristic p (see ``fuse``)."""
    _require_pair(p, m, n)
    return fuse(basis_vector(p, m), basis_vector(p, n))


def fuse(a: FusionVector, b: FusionVector) -> FusionVector:
    """Tensor product in the representation ring, extended bilinearly.

    Modulo projectives, the Weyl numerator of a (x) b is one operand's
    numerator times the other's SL_2 character (``_times_character``); the
    character comes from the operand with fewer non-projective terms.  With
    x_i copies of V_i for i < p - 1 in that product, a (x) b holds
    (dim a * dim b - sum_i (i + 1) x_i) / p copies of the projective V_{p-1}.
    """
    if a.p != b.p:
        raise ValueError(f"mismatched primes {a.p} and {b.p}")
    p = a.p
    terms_a, terms_b = _terms(a), _terms(b)
    x, terms = (b, terms_a) if len(terms_a) < len(terms_b) else (a, terms_b)
    low = _times_character(list(x.coeffs[: p - 1]), terms, p) if terms else [0] * (p - 1)
    projective, rest = divmod(a.dimension * b.dimension - sum(map(mul, low, range(1, p))), p)
    if rest:
        raise ArithmeticError(f"the non-projective part leaves a remainder of {rest} mod {p}")
    return FusionVector(p, (*low, projective))


def tensor_power(v: FusionVector, n: int) -> FusionVector:
    """n-th tensor power by repeated squaring; n = 0 gives the trivial V_0."""
    return power(v, n, fuse, lambda: basis_vector(v.p, 0))


def fusion_matrix(w: FusionVector) -> tuple[tuple[int, ...], ...]:
    """Rows of M_w, the integer matrix of "tensor by w": column j is w (x) V_j."""
    return tuple(zip(*(fuse(w, basis_vector(w.p, j)).coeffs for j in range(w.p))))


def ts(v: FusionVector) -> int:
    """Multiplicity of the trivial module V_0."""
    return v.coeffs[0]


def ts_series_modular(v: FusionVector, step: int, max_k: int) -> GrowthSeries:
    """Trivial-summand counts of v^(x)(step*k) for k = 1..max_k.

    Modulo projectives, V_i maps to its Weyl numerator t^(i+1) - t^-(i+1) in
    Z[t]/(t^(2p) - 1), where V_{p-1} maps to 0, and as in ``fuse`` tensoring
    by the block v^(x)step is multiplication by the block's SL_2 character
    sum_j b_j (t^j + t^(j-2) + ... + t^-j).  Every V_l is self-dual, and
    V_l (x) V_m holds V_0 once when l = m < p - 1 and never otherwise, so
    ts(X (x) Y) = sum_{l <= p-2} X_l Y_l.  With x_i the non-projective part of
    block^(x)i, a_{2i-1} = <x_i, x_{i-1}> and a_{2i} = <x_i, x_i>: ceil(max_k/2)
    steps, the i-th over the at most min(p - 1, i*t + 1) indices that
    block^(x)i reaches, t the block's top non-projective index.  A step
    multiplies by the block's character once, or by v's step times when
    that takes fewer terms in all.
    """
    step, max_k = natural(step, "step", 1), natural(max_k, "max_k", 1)
    seed = _terms(v)
    block = seed if step == 1 else _terms(tensor_power(v, step))
    if not block:  # the block is projective, and so is each of its powers
        return GrowthSeries(step=step, values=(0,) * max_k, dim_v=v.dimension)
    factors = [block] if len(block) <= step * len(seed) else [seed] * step
    values: list[int] = []
    previous = current = [1]
    while len(values) < max_k:
        previous = current
        for terms in factors:
            current = _times_character(current, terms, v.p)
        values += sum(map(mul, current, previous)), sum(map(mul, current, current))
    return GrowthSeries(step=step, values=tuple(values[:max_k]), dim_v=v.dimension)


def _terms(w: FusionVector) -> list[tuple[int, int]]:
    """(j, b_j) for each non-projective V_j that w holds b_j > 0 copies of."""
    return [(j, b) for j, b in enumerate(w.coeffs[: w.p - 1]) if b]


def _times_character(x: list[int], terms: list[tuple[int, int]], p: int) -> list[int]:
    """Multiplicities of V_0, V_1, ... in X (x) W modulo projectives.

    X has x_l copies of V_l; W has b_j copies of V_j for (j, b_j) in
    ``terms``, j < p - 1.  On the numerator N (N_e = x_{e-1} for 0 < e < p, odd about 0
    and about p) with parity sums S_e = N_e + N_{e-2} + ..., the character of
    V_j adds S_{e+j} - S_{e-j-2} at each e.
    """
    top = terms[-1][0]
    width = min(p - 1, len(x) + top)
    reach = width + top
    padded = x + [0] * (2 * top + 1)
    numerator = [-a for a in padded[top::-1]] + [0]  # e = -top-1 .. 0
    numerator += padded[: min(reach, p - 1)]  # e = 1 .. p-1 at most
    if reach >= p:  # e = p .. reach, where N_e = -N_{2p-e}
        numerator += [0] + [-a for a in padded[p - 2 : 2 * p - reach - 2 : -1]]
    sums = [0] * len(numerator)  # index e + top + 1
    sums[0::2] = accumulate(numerator[0::2])
    sums[1::2] = accumulate(numerator[1::2])
    result = None
    for j, b in terms:
        box = map(sub, sums[top + j + 2 : top + j + 2 + width], sums[top - j : top - j + width])
        if b != 1:
            box = map(mul, box, repeat(b))
        result = list(box) if result is None else list(map(add, result, box))
    return result


# --- Independent oracle: Jordan form of a tensor product of unipotent blocks ---


def _echelon(vectors: list[list[int]], p: int) -> list[list[int]]:
    """A basis over F_p of the span of ``vectors``, each row monic at its pivot.

    Every row is zero at the earlier rows' pivots, so one pass in order reduces.
    """
    basis: list[tuple[int, list[int]]] = []
    for v in vectors:
        v = [x % p for x in v]
        for col, row in basis:
            if f := v[col]:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        col = next((i for i, x in enumerate(v) if x), None)
        if col is not None:
            inv = pow(v[col], -1, p)
            basis.append((col, [x * inv % p for x in v]))
    return [row for _, row in basis]


def jordan_oracle(p: int, m: int, n: int) -> FusionVector:
    """Decompose V_m (x) V_n from scratch, bypassing the closed-form rule.

    V_m (x) V_n is A = F_p[x,y]/(x^(m+1), y^(n+1)), with the generator acting
    as multiplication by (1+x)(1+y), so the nilpotent part is x + y + xy.  The
    automorphism y -> y(1+x) of A (1+x is a unit) carries x + y to x + y + xy,
    so L = x + y has the same Jordan type.  L is homogeneous of degree 1, so
    r_s = rank(L**s) is the sum over degrees d of the ranks of the blocks
    A_d -> A_(d+s), which send x^i y^(d-i) to the sum over t of
    C(s, t-i) x^t y^(d+s-t).  There are exactly r_{s-1} - 2*r_s + r_{s+1}
    Jordan blocks of size s, and a size-s block is a copy of V_{s-1}.
    """
    _require_pair(p, m, n)

    def rank(s: int) -> int:
        total = 0
        for d in range(m + n - s + 1):
            targets = range(max(0, d + s - n), min(m, d + s) + 1)
            block = [
                [comb(s, t - i) if i <= t <= i + s else 0 for t in targets]
                for i in range(max(0, d - n), min(m, d) + 1)
            ]
            total += len(_echelon(block, p))
        return total

    ranks = [(m + 1) * (n + 1)]
    while ranks[-1] and len(ranks) <= p:
        ranks.append(rank(len(ranks)))
    if len(ranks) == p + 1 and ranks[p] != 0:
        raise ArithmeticError(f"L**{p} is nonzero; ranks {ranks}")
    ranks.extend([0] * (p + 2 - len(ranks)))  # pad through r_{p+1}
    return FusionVector(p, tuple(a - 2 * b + c for a, b, c in zip(ranks, ranks[1:], ranks[2:])))
