"""Dimension-ratio vectors and column-stochastic transition matrices on R(Z/pZ).

Q sends a nonzero fusion vector to the fractions of its dimension carried by
each indecomposable: Q(v)_i = (i+1)*v_i / dim(v).  A ring map S with S(V_j)
nonzero for all j then induces P(S), the column-stochastic matrix whose column j
is Q(S(V_j)).  For maps of the form "tensor by w", P is multiplicative:
P(w1 (x) -) P(w2 (x) -) = P((w1 (x) w2) (x) -); for general additive maps it
is not, and ``p_of_map`` exists to expose that failure on explicit examples.

One exact p x p matrix type holds both kinds, with one set of checks, one product
``@`` and one power ``**``: ``IntegerRingMap`` has non-negative integer entries, and
``TransitionMatrix`` rational entries whose columns obey the ``RatioVector`` rule.

For T = w (x) -, P(T) = D M_w D^-1 / dim(w) with M_w = ``fusion_matrix(w)`` and
D = diag(1, ..., p), so P(T)^k = D M_w^k D^-1 / dim(w)^k: powers run on integers and
``p_of_map`` makes them rational once; ``decay_rate`` reads the one row it needs off M.  The
CLI compares M_w^k (matrix products) with M of ``tensor_power(w, k)`` (``fuse`` squarings).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational

from ._exact import power
from .modular_fusion import FusionVector, fusion_matrix, require_prime, tensor_power


class HypothesisViolationError(ValueError):
    """Raised when a decay-rate hypothesis fails (a column misses V_{p-1})."""


def _matmul(a, b) -> tuple[tuple, ...]:
    """Rows of the exact product [a][b] of two p x p matrices given as rows (p = len(rows))."""
    if len(a) != len(b):
        raise ValueError(f"mismatched primes {len(a)} and {len(b)}")
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, column)) for column in columns) for row in a)


def _rational(value) -> Fraction:
    """An exact entry as a Fraction; any other, a float or a string among them, raises."""
    if type(value) is not Fraction and not isinstance(value, Rational):
        raise TypeError(f"entry {value!r} is not Rational")
    return value if type(value) is Fraction else Fraction(value)


def _require_non_negative(entries, name: str) -> None:
    if any(e.numerator < 0 for e in entries):
        raise ValueError(f"negative entry in {name}")


def _require_probability(entries, name: str) -> None:
    """The rule of a probability vector: non-negative entries that sum to exactly 1, the
    sum taken in integers, each numerator scaled to the lcm of the denominators."""
    _require_non_negative(entries, name)
    common = lcm(*(e.denominator for e in entries))
    if sum(e.numerator * (common // e.denominator) for e in entries) != common:
        raise ValueError(f"{name} sums to {sum(entries)}, not 1")


@dataclass(frozen=True)
class RatioVector:
    """A probability vector over the indecomposables V_0..V_{p-1}."""

    p: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        entries = tuple(map(_rational, self.entries))
        if len(entries) != self.p:
            raise ValueError(f"expected {self.p} entries, got {len(entries)}")
        _require_probability(entries, "the ratio vector")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class _ExactMatrix:
    """A p x p exact matrix, row-major; a subclass sets ``_entry`` and ``_column_rule``."""

    p: int
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        rows = tuple(tuple(map(self._entry, row)) for row in self.rows)
        if len(rows) != self.p or any(len(row) != self.p for row in rows):
            raise ValueError(f"expected a {self.p}x{self.p} matrix")
        for j, column in enumerate(zip(*rows)):
            self._column_rule(column, f"column {j}")
        object.__setattr__(self, "rows", rows)

    def __matmul__(self, other):
        """The product [self][other]; for ring maps, the matrix of self o other."""
        return type(self)(self.p, _matmul(self.rows, other.rows))

    def __pow__(self, exponent: int):
        """[self]^exponent by repeated squaring on the rows."""
        def identity():
            return tuple(tuple(int(i == j) for j in range(self.p)) for i in range(self.p))

        return type(self)(self.p, power(self.rows, exponent, _matmul, identity))


class TransitionMatrix(_ExactMatrix):
    """A p x p column-stochastic matrix of exact rationals, stored row-major."""

    _entry = staticmethod(_rational)
    _column_rule = staticmethod(_require_probability)

    def apply(self, vector: RatioVector) -> RatioVector:
        product = _matmul(self.rows, [(x,) for x in vector.entries])
        return RatioVector(self.p, tuple(x for (x,) in product))


class IntegerRingMap(_ExactMatrix):
    """An additive map S on R(Z/pZ): non-negative integers, row-major; column j is S(V_j)."""

    _entry = staticmethod(operator.index)
    _column_rule = staticmethod(_require_non_negative)

    compose = _ExactMatrix.__matmul__


def _q(column, zero: str) -> tuple[Fraction, ...]:
    """Q of a coefficient column, ((i+1)*c/dim)_i; a zero column raises ValueError(zero)."""
    dim = sum((i + 1) * c for i, c in enumerate(column))
    if dim == 0:
        raise ValueError(zero)
    return tuple(Fraction((i + 1) * c, dim) for i, c in enumerate(column))


def q_of(v: FusionVector) -> RatioVector:
    """Dimension-ratio vector Q(v)_i = (i+1)*v_i / dim(v); v must be nonzero."""
    return RatioVector(v.p, _q(v.coeffs, "Q is undefined on the zero element"))


def p_of_map(s: IntegerRingMap) -> TransitionMatrix:
    """Column-stochastic matrix whose column j is Q(S(V_j)); every S(V_j) must be nonzero."""
    columns = [_q(c, f"column {j} of the ring map is zero") for j, c in enumerate(zip(*s.rows))]
    return TransitionMatrix(s.p, tuple(zip(*columns)))


def _tensor_by(w: FusionVector) -> tuple[tuple[int, ...], ...]:  # P needs w nonzero
    if w.dimension == 0:
        raise ValueError("cannot tensor by the zero element")
    return fusion_matrix(w)


def p_of_tensor_by(w: FusionVector) -> TransitionMatrix:
    """P of the map "tensor by w" for a nonzero fusion vector w: column j = Q(w (x) V_j).

    Multiplicative in w (tests verify it exactly), so powers of one matrix track the
    dimension ratios of tensor powers.
    """
    return p_of_map(IntegerRingMap(w.p, _tensor_by(w)))


def decay_rate(w: FusionVector) -> Fraction:
    """Worst-case non-projective mass retained by one (p-1)-fold step of w.

    Let u = w^(x)(p-1).  Every column of P(u (x) -) must give positive mass to the
    projective V_{p-1} (otherwise HypothesisViolationError); the decay rate is the largest
    column sum over the non-projective entries, a rational strictly below 1: 1 minus the
    least projective entry, p*M[p-1][j] / dim(u (x) V_j) with M = ``fusion_matrix(u)`` and
    dim(u (x) V_j) = (j+1)*dim(w)^(p-1).  The non-projective dimension fraction of w^(x)n
    then falls at least geometrically with ratio decay_rate per p-1 steps, because
    projective mass never flows back: V_{p-1} (x) V_i = (i+1) V_{p-1}.
    """
    u = tensor_power(w, w.p - 1)
    projective = _tensor_by(u)[w.p - 1]
    if 0 in projective:
        raise HypothesisViolationError(
            f"column {projective.index(0)} of P(w^(x){w.p - 1} (x) -) has no projective part"
        )
    return 1 - w.p * min(Fraction(m, j + 1) for j, m in enumerate(projective)) / u.dimension
