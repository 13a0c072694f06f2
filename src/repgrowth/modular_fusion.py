"""The representation ring of Z/pZ over a field of characteristic p.

There are exactly p indecomposable modules V_0, ..., V_{p-1}, with dim V_i =
i + 1 (V_i is a single Jordan block of size i + 1 for a generator).  Tensor
products decompose by a closed-form rule; ``jordan_oracle`` re-derives the
same decomposition independently, as the Jordan type of x + y on
F_p[x,y]/(x^(m+1), y^(n+1)), from the ranks of its degree blocks; the tests
compare both.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb, isqrt

from .growth import GrowthSeries


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % q for q in range(2, isqrt(p) + 1))


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
        return sum((i + 1) * c for i, c in enumerate(self.coeffs))


def basis_vector(p: int, i: int) -> FusionVector:
    """The class of the single indecomposable V_i."""
    if not 0 <= i < p:
        raise ValueError(f"index {i} outside 0..{p - 1}")
    return FusionVector(p, tuple(int(j == i) for j in range(p)))


def fuse_basis(p: int, m: int, n: int) -> FusionVector:
    """Decompose V_m (x) V_n over Z/pZ in characteristic p (see ``fuse``)."""
    require_prime(p)
    if not (0 <= m < p and 0 <= n < p):
        raise ValueError(f"indices ({m}, {n}) outside 0..{p - 1}")
    return fuse(basis_vector(p, m), basis_vector(p, n))


def fuse(a: FusionVector, b: FusionVector) -> FusionVector:
    """Tensor product in the representation ring, extended bilinearly.

    V_i (x) V_j splits off d = max(0, i + j - (p - 2)) copies of the projective
    V_{p-1}, and the rest is the Clebsch-Gordan ladder V_|i-j| + V_|i-j|+2 + ...
    + V_{i+j-2d}, empty when min(i, j) < d.  At i + j = p - 1 the one projective
    is the top term of the characteristic-zero ladder V_|i-j| + ... + V_{i+j}.
    """
    if a.p != b.p:
        raise ValueError(f"mismatched primes {a.p} and {b.p}")
    p = a.p
    coeffs = [0] * p
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs):
            if not bj:
                continue
            c = ai * bj
            d = max(0, i + j - (p - 2))
            coeffs[p - 1] += c * d
            for k in range(abs(i - j), i + j - 2 * d + 1, 2):
                coeffs[k] += c
    return FusionVector(p, tuple(coeffs))


def _power(base, n: int, product, one):
    """base**n by repeated squaring under ``product``; ``one``, for n = 0, is never a factor."""
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    result = None
    while n:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return one if result is None else result


def tensor_power(v: FusionVector, n: int) -> FusionVector:
    """n-th tensor power by repeated squaring; n = 0 gives the trivial V_0."""
    return _power(v, n, fuse, basis_vector(v.p, 0))


def fusion_matrix(w: FusionVector) -> tuple[tuple[int, ...], ...]:
    """Rows of M_w, the integer matrix of "tensor by w": column j is w (x) V_j."""
    return tuple(zip(*(fuse(w, basis_vector(w.p, j)).coeffs for j in range(w.p))))


def ts(v: FusionVector) -> int:
    """Multiplicity of the trivial module V_0."""
    return v.coeffs[0]


def ts_series_modular(v: FusionVector, step: int, max_k: int) -> GrowthSeries:
    """Trivial-summand counts of v^(x)(step*k) for k = 1..max_k.

    V_{p-1} (x) V_i = (i+1) V_{p-1} never feeds back into V_0, so only entries 0..p-2
    are kept, sparse, and a column of M_block is built on first use, not all p of them.
    """
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    block = tensor_power(v, step)
    columns: dict[int, list[tuple[int, int]]] = {}
    current = {0: 1}
    values = []
    for _ in range(max_k):
        following: dict[int, int] = {}
        for i, a in current.items():
            if i not in columns:
                column = fuse(basis_vector(v.p, i), block).coeffs[: v.p - 1]
                columns[i] = [(k, m) for k, m in enumerate(column) if m]
            for k, m in columns[i]:
                following[k] = following.get(k, 0) + a * m
        current = following
        values.append(current.get(0, 0))
    return GrowthSeries(step=step, values=tuple(values), dim_v=v.dimension)


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
    require_prime(p)
    if not (0 <= m < p and 0 <= n < p):
        raise ValueError(f"indices ({m}, {n}) outside 0..{p - 1}")

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
    coeffs = tuple(ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] for s in range(1, p + 1))
    return FusionVector(p, coeffs)
