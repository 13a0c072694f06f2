"""Dimension-ratio vectors and column-stochastic transition matrices on R(Z/pZ).

Q sends a nonzero fusion vector to the fractions of its dimension carried by
each indecomposable: Q(v)_i = (i+1)*v_i / dim(v).  A ring map S with S(V_j)
nonzero for all j then induces P(S), the column-stochastic matrix with j-th
column Q(S(V_j)).  For maps of the form "tensor by w", P is multiplicative:
P(w1 (x) -) P(w2 (x) -) = P((w1 (x) w2) (x) -); for general additive maps it
is not, and ``p_of_map`` exists to expose that failure on explicit examples.

For T = w (x) -, P(T) = D M_w D^-1 / dim(w) with M_w = ``fusion_matrix(w)`` and
D = diag(1, ..., p), so P(T)^k = D M_w^k D^-1 / dim(w)^k: powers run on integers and
``p_of_map`` makes them rational once.  The CLI compares M_w^k (matrix products) with M
of ``tensor_power(w, k)`` (a vector squared through ``fuse``): independent computations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .modular_fusion import FusionVector, fusion_matrix, require_prime, tensor_power


class HypothesisViolationError(ValueError):
    """Raised when a decay-rate hypothesis fails (a column misses V_{p-1})."""


def _matmul(a, b) -> tuple[tuple, ...]:
    """Rows of the exact product [a][b] of two p x p matrices given as rows (p = len(rows))."""
    if len(a) != len(b):
        raise ValueError(f"mismatched primes {len(a)} and {len(b)}")
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) for column in columns) for row in a)


@dataclass(frozen=True)
class RatioVector:
    """A probability vector over the indecomposables V_0..V_{p-1}."""

    p: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        entries = tuple(Fraction(e) for e in self.entries)
        if len(entries) != self.p:
            raise ValueError(f"expected {self.p} entries, got {len(entries)}")
        if any(e < 0 for e in entries):
            raise ValueError(f"negative entry in {entries}")
        if sum(entries) != 1:
            raise ValueError(f"entries sum to {sum(entries)}, not 1")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class TransitionMatrix:
    """A p x p column-stochastic matrix of exact rationals, stored row-major."""

    p: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        if len(rows) != self.p or any(len(row) != self.p for row in rows):
            raise ValueError(f"expected a {self.p}x{self.p} matrix")
        for j, column in enumerate(zip(*rows)):
            if any(x < 0 for x in column):
                raise ValueError(f"negative entry in column {j}")
            if sum(column) != 1:
                raise ValueError(f"column {j} sums to {sum(column)}, not 1")
        object.__setattr__(self, "rows", rows)

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        return TransitionMatrix(self.p, _matmul(self.rows, other.rows))

    def apply(self, vector: RatioVector) -> RatioVector:
        product = _matmul(self.rows, [(x,) for x in vector.entries])
        return RatioVector(self.p, tuple(x for (x,) in product))


@dataclass(frozen=True)
class IntegerRingMap:
    """An additive map on R(Z/pZ) with non-negative integer matrix, row-major.

    Column j lists the multiplicities of S(V_j).
    """

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        if len(rows) != self.p or any(len(row) != self.p for row in rows):
            raise ValueError(f"expected a {self.p}x{self.p} matrix")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("entries must be non-negative")
        object.__setattr__(self, "rows", rows)

    def column_vector(self, j: int) -> FusionVector:
        """S(V_j) as a fusion vector."""
        return FusionVector(self.p, tuple(self.rows[i][j] for i in range(self.p)))

    def compose(self, other: "IntegerRingMap") -> "IntegerRingMap":
        """Matrix of self o other, i.e. the product [self][other]."""
        return IntegerRingMap(self.p, _matmul(self.rows, other.rows))

    def __pow__(self, exponent: int) -> "IntegerRingMap":
        """[self]^exponent by repeated squaring on the integer rows."""
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        result = tuple(tuple(int(i == j) for j in range(self.p)) for i in range(self.p))
        base = self.rows
        while exponent:
            if exponent & 1:
                result = _matmul(result, base)
            exponent >>= 1
            if exponent:
                base = _matmul(base, base)
        return IntegerRingMap(self.p, result)


def q_of(v: FusionVector) -> RatioVector:
    """Dimension-ratio vector Q(v)_i = (i+1)*v_i / dim(v); v must be nonzero."""
    dim = v.dimension
    if dim == 0:
        raise ValueError("Q is undefined on the zero element")
    return RatioVector(
        v.p, tuple(Fraction((i + 1) * c, dim) for i, c in enumerate(v.coeffs))
    )


def p_of_map(s: IntegerRingMap) -> TransitionMatrix:
    """Column-stochastic matrix with columns Q(S(V_j)): (i+1) [S]_ij / dim S(V_j) at (i, j)."""
    dims = [sum((i + 1) * row[j] for i, row in enumerate(s.rows)) for j in range(s.p)]
    if 0 in dims:
        raise ValueError(f"column {dims.index(0)} of the ring map is zero")
    scaled = [[Fraction((i + 1) * x, d) for x, d in zip(r, dims)] for i, r in enumerate(s.rows)]
    return TransitionMatrix(s.p, tuple(map(tuple, scaled)))


def p_of_tensor_by(w: FusionVector) -> TransitionMatrix:
    """P of the map "tensor by w" for a nonzero fusion vector w.

    column j = Q(w (x) V_j).  These matrices are multiplicative in w, which
    tests verify exactly; that is what makes powers of one matrix track
    dimension ratios of tensor powers.
    """
    if w.dimension == 0:
        raise ValueError("cannot tensor by the zero element")
    return p_of_map(IntegerRingMap(w.p, fusion_matrix(w)))


def decay_rate(w: FusionVector) -> Fraction:
    """Worst-case non-projective mass retained by one (p-1)-fold step of w.

    Let M = P(w^(x)(p-1) (x) -).  Every column of M must give positive mass
    to the projective V_{p-1} (otherwise HypothesisViolationError); the decay
    rate is the largest column sum over the non-projective entries, a rational
    strictly below 1.  The non-projective dimension fraction of w^(x)n then
    falls at least geometrically with ratio decay_rate per p-1 steps, because
    projective mass never flows back: V_{p-1} (x) V_i = (i+1) V_{p-1}.
    """
    matrix = p_of_tensor_by(tensor_power(w, w.p - 1))
    worst = Fraction(0)
    for j, column in enumerate(zip(*matrix.rows)):
        if column[w.p - 1] == 0:
            raise HypothesisViolationError(
                f"column {j} of P(w^(x){w.p - 1} (x) -) has no projective part"
            )
        worst = max(worst, sum(column[: w.p - 1], Fraction(0)))
    return worst
