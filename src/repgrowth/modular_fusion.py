"""The representation ring of Z/pZ over a field of characteristic p.

There are exactly p indecomposable modules V_0, ..., V_{p-1}, with dim V_i =
i + 1 (V_i is a single Jordan block of size i + 1 for a generator).  Tensor
products decompose by a closed-form rule; ``jordan_oracle`` re-derives the
same decomposition independently from ranks of powers of an explicit nilpotent
matrix over F_p, which is what the tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

from .growth import GrowthSeries


@cache
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
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"negative multiplicity in {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dimension(self) -> int:
        return sum((i + 1) * c for i, c in enumerate(self.coeffs))

    def __add__(self, other: "FusionVector") -> "FusionVector":
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} and {other.p}")
        return FusionVector(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


def basis_vector(p: int, i: int) -> FusionVector:
    """The class of the single indecomposable V_i."""
    if not 0 <= i < p:
        raise ValueError(f"index {i} outside 0..{p - 1}")
    return FusionVector(p, tuple(int(j == i) for j in range(p)))


@cache
def fuse_basis(p: int, m: int, n: int) -> FusionVector:
    """Decompose V_m (x) V_n over Z/pZ in characteristic p.

    When m + n <= p - 1 the answer is the characteristic-zero Clebsch-Gordan
    ladder V_|m-n| + V_|m-n|+2 + ... + V_{m+n}.  Otherwise d = m + n - (p - 2)
    copies of the projective V_{p-1} split off and the remainder is
    V_{m-d} (x) V_{n-d} (zero when an index goes negative); that remainder is
    back in the first case, so the recursion terminates after one step.
    """
    require_prime(p)
    if not (0 <= m < p and 0 <= n < p):
        raise ValueError(f"indices ({m}, {n}) outside 0..{p - 1}")
    coeffs = [0] * p
    lo, hi = sorted((m, n))
    if m + n <= p - 1:
        for j in range(hi - lo, hi + lo + 1, 2):
            coeffs[j] = 1
    else:
        d = m + n - (p - 2)
        coeffs[p - 1] = d
        if m - d >= 0 and n - d >= 0:
            for j, c in enumerate(fuse_basis(p, m - d, n - d).coeffs):
                coeffs[j] += c
    return FusionVector(p, tuple(coeffs))


def fuse(a: FusionVector, b: FusionVector) -> FusionVector:
    """Tensor product in the representation ring, extended bilinearly."""
    if a.p != b.p:
        raise ValueError(f"mismatched primes {a.p} and {b.p}")
    coeffs = [0] * a.p
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs):
            if not bj:
                continue
            for k, ck in enumerate(fuse_basis(a.p, i, j).coeffs):
                coeffs[k] += ai * bj * ck
    return FusionVector(a.p, tuple(coeffs))


def tensor_power(v: FusionVector, n: int) -> FusionVector:
    """n-th tensor power by repeated squaring; n = 0 gives the trivial V_0."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    result = basis_vector(v.p, 0)
    base = v
    while n:
        if n & 1:
            result = fuse(result, base)
        n >>= 1
        if n:
            base = fuse(base, base)
    return result


def ts(v: FusionVector) -> int:
    """Multiplicity of the trivial module V_0."""
    return v.coeffs[0]


def ts_series_modular(v: FusionVector, step: int, max_k: int) -> GrowthSeries:
    """Trivial-summand counts of v^(x)(step*k) for k = 1..max_k."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    block = tensor_power(v, step)
    current = basis_vector(v.p, 0)
    values = []
    for _ in range(max_k):
        current = fuse(current, block)
        values.append(ts(current))
    return GrowthSeries(step=step, values=tuple(values), dim_v=v.dimension)


# --- Independent oracle: Jordan form of a tensor product of unipotent blocks ---


def _unipotent_block(size: int) -> list[list[int]]:
    return [[1 if j in (i, i + 1) else 0 for j in range(size)] for i in range(size)]


def _kronecker(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows_b, cols_b = len(b), len(b[0])
    return [
        [a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(cols_b)]
        for i in range(len(a))
        for k in range(rows_b)
    ]


def _matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    zero = [0] * len(cols)
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in cols] if any(row) else zero[:]
        for row in a
    ]


def _rank_mod(matrix: list[list[int]], p: int) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def jordan_oracle(p: int, m: int, n: int) -> FusionVector:
    """Decompose V_m (x) V_n from scratch, bypassing the closed-form rule.

    Builds g = J_{m+1} (x) J_{n+1} over F_p for unipotent Jordan blocks J,
    sets N = g - I (nilpotent with N**p = 0), and reads off the number of
    Jordan blocks of size s from the ranks r_s = rank(N**s):
    exactly r_{s-1} - 2*r_s + r_{s+1} blocks of size s.  A size-s block of g
    is a copy of V_{s-1}.
    """
    require_prime(p)
    if not (0 <= m < p and 0 <= n < p):
        raise ValueError(f"indices ({m}, {n}) outside 0..{p - 1}")
    g = _kronecker(_unipotent_block(m + 1), _unipotent_block(n + 1))
    size = (m + 1) * (n + 1)
    nilpotent = [[(g[i][j] - (i == j)) % p for j in range(size)] for i in range(size)]
    ranks = [size]
    power = nilpotent
    while len(ranks) <= p:
        rank = _rank_mod(power, p)
        ranks.append(rank)
        if rank == 0:
            break
        power = _matmul_mod(power, nilpotent, p)
    if len(ranks) == p + 1 and ranks[p] != 0:
        raise ArithmeticError(f"N**{p} is nonzero; ranks {ranks}")
    ranks.extend([0] * (p + 2 - len(ranks)))  # pad through r_{p+1}
    coeffs = tuple(ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] for s in range(1, p + 1))
    return FusionVector(p, coeffs)
