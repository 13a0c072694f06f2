"""Partition arithmetic checked against brute force and classical identities."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repgrowth.growth import GrowthSeries
from repgrowth.markov import IntegerRingMap
from repgrowth.modular_fusion import FusionVector
from repgrowth.partitions import (
    InvalidPartitionError,
    Partition,
    SlWeight,
    canonicalize,
    dual_weight,
    hook_syt_count,
    is_close_to_mean,
    weyl_dimension,
)


def all_partitions(n, max_parts=None):
    """Every partition of n with at most max_parts parts, largest part first."""
    limit = n if max_parts is None else max_parts

    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, n, limit)


@lru_cache(maxsize=None)
def brute_syt_count(shape):
    """Count standard tableaux by peeling the cell containing n off a corner.

    Independent of Frobenius's formula: pure recursion over removable corners.
    """
    rows = tuple(r for r in shape if r)
    if not rows:
        return 1
    total = 0
    for i, row in enumerate(rows):
        if i + 1 == len(rows) or rows[i + 1] < row:
            total += brute_syt_count(rows[:i] + (row - 1,) + rows[i + 1 :])
    return total


@st.composite
def partition_strategy(draw, max_part=9, max_parts=5):
    m = draw(st.integers(min_value=1, max_value=max_parts))
    parts = draw(st.lists(st.integers(0, max_part), min_size=0, max_size=m))
    return Partition(tuple(sorted(parts, reverse=True)), m)


def test_partition_pads_and_validates():
    lam = Partition((3, 1), 4)
    assert lam.parts == (3, 1, 0, 0)
    assert lam.size == 4
    assert str(lam) == "(3,1)"
    assert str(Partition((), 3)) == "()"
    with pytest.raises(InvalidPartitionError):
        Partition((1, 2), 2)
    with pytest.raises(InvalidPartitionError):
        Partition((2, -1), 2)
    with pytest.raises(InvalidPartitionError):
        Partition((1, 1, 1), 2)
    with pytest.raises(InvalidPartitionError):
        Partition((1,), 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition((1.5, 0), 2),
        lambda: hook_syt_count((2.7, 1)),
        lambda: FusionVector(3, (1.5, 0, 0)),
        lambda: IntegerRingMap(2, ((1.0, 0), (0, 1))),
        lambda: GrowthSeries(step=1, values=(1, 2.0), dim_v=2),
    ],
    ids=["Partition", "hook_syt_count", "FusionVector", "IntegerRingMap", "GrowthSeries"],
)
def test_integer_constructors_reject_floats(build):
    # An integral float is refused too: no integer answer passes through a float.
    with pytest.raises(TypeError):
        build()


def test_partition_of_another_rank_is_refused():
    lam = Partition((1,), 3)
    assert weyl_dimension(lam, 3) == 3 and canonicalize(lam, 3).canonical == lam
    with pytest.raises(InvalidPartitionError, match="rank 3, not 2"):
        weyl_dimension(lam, 2)
    with pytest.raises(InvalidPartitionError, match="rank 3, not 4"):
        canonicalize(lam, 4)


def test_canonicalize_examples():
    assert canonicalize((3, 2, 1)).canonical.parts == (2, 1, 0)
    assert canonicalize((2, 2), 2).canonical.parts == (0, 0)
    assert canonicalize((4, 0), 2).canonical.parts == (4, 0)
    with pytest.raises(InvalidPartitionError):
        SlWeight(Partition((2, 1), 2))


@given(partition_strategy())
def test_canonicalize_is_shift_invariant_and_idempotent(lam):
    weight = canonicalize(lam)
    shifted = Partition(tuple(x + 3 for x in lam.parts), lam.m)
    assert canonicalize(shifted) == weight
    assert canonicalize(weight.canonical) == weight
    assert weight.canonical.parts[-1] == 0


WEYL_CASES = [
    (((3, 0), 2), 4),
    (((2, 1, 0), 3), 8),
    (((2, 0), 2), 3),
    (((1, 1), 2), 1),
    (((5, 5, 5), 3), 1),
    (((2, 1, 1, 0), 4), 15),
]


def test_weyl_dimension_frozen_values():
    for (parts, m), expected in WEYL_CASES:
        assert weyl_dimension(parts, m) == expected
    for m in range(1, 7):
        assert weyl_dimension((1,), m) == m  # the natural module


def weyl_quotient(lam):
    """Weyl's dimension as Vandermonde(lam_i - i) / Vandermonde(m - i), over all pairs."""

    def vandermonde(l):
        return prod(a - b for i, a in enumerate(l) for b in l[i + 1 :])

    shifted = [x - i for i, x in enumerate(lam.parts)]
    return vandermonde(shifted) // vandermonde(range(lam.m, 0, -1))


def test_weyl_dimension_matches_the_full_quotient():
    # Every shape with at most 9 rows and parts at most 5, zero rows included.
    for m in range(1, 10):
        for rows in combinations_with_replacement(range(6), m):
            lam = Partition(rows[::-1], m)
            assert weyl_dimension(lam) == weyl_quotient(lam)


@pytest.mark.parametrize("m", [1000, 5000])
def test_weyl_dimension_many_rows(m):
    # For the shape (2, 1), Weyl's product reduces to m(m-1)(m+1)/3.
    assert weyl_dimension(Partition((2, 1), m)) == m * (m - 1) * (m + 1) // 3


@given(partition_strategy())
def test_weyl_dimension_respects_weight_classes(lam):
    assert weyl_dimension(lam) == weyl_dimension(canonicalize(lam).canonical)
    assert weyl_dimension(lam) >= 1


def test_dual_weight_examples():
    result = dual_weight((2, 1, 0), 3)
    assert result.dual.parts == (2, 1, 0) and result.excess == 3
    result = dual_weight((4, 0), 4)
    assert result.dual.parts == (4, 0) and result.excess == 4
    result = dual_weight((1, 1, 1), 3)
    assert result.dual.parts == (0, 0, 0) and result.excess == 0
    with pytest.raises(ValueError):
        dual_weight((2, 1, 0), 4)


@given(partition_strategy())
def test_dual_weight_involution_and_dimension(lam):
    first = dual_weight(lam, lam.size)
    # |dual| = m*top - n, which is exactly the excess when n = |lam|.
    assert first.dual.size == first.excess
    assert first.excess >= 0
    assert weyl_dimension(first.dual) == weyl_dimension(lam)
    second = dual_weight(first.dual, first.dual.size)
    assert second.dual == canonicalize(lam).canonical


def test_is_close_to_mean_examples():
    # theta = 2/3: compare |m*x - n|**3 < n**2 * m**3 over the integers.
    assert is_close_to_mean((7, 3), 10) is True
    assert is_close_to_mean((9, 1), 10) is True  # 8**3 = 512 < 800
    assert is_close_to_mean((10, 0), 10) is False  # 10**3 = 1000 >= 800
    assert is_close_to_mean((5, 5), 10) is True
    assert is_close_to_mean((8, 0), 8) is False  # boundary: 512 < 512 fails
    assert is_close_to_mean((0, 0), 0) is False  # n = 0: strict bound is empty
    assert is_close_to_mean((10, 0), 10, theta=1) is True
    assert is_close_to_mean((9, 1), 10, theta=Fraction(1, 3)) is False


def test_is_close_to_mean_validates():
    with pytest.raises(ValueError):
        is_close_to_mean((7, 3), 11)
    with pytest.raises(ValueError):
        is_close_to_mean((7, 3), 10, theta=0)


def test_hook_syt_count_frozen_values():
    assert hook_syt_count((2, 2)) == 2
    assert hook_syt_count((2, 2, 2)) == 5
    assert hook_syt_count((3, 1)) == 3
    assert hook_syt_count((1, 1, 1)) == 1
    assert hook_syt_count((6,)) == 1
    assert hook_syt_count(()) == 1
    with pytest.raises(InvalidPartitionError):
        hook_syt_count((1, 2))


def test_hook_syt_count_matches_corner_peeling():
    for n in range(9):
        for shape in all_partitions(n):
            assert hook_syt_count(shape) == brute_syt_count(shape)
    # Every shape in the 6 x 10 box, up to 60 boxes.
    for rows in combinations_with_replacement(range(11), 6):
        shape = rows[::-1]
        assert hook_syt_count(shape) == brute_syt_count(shape)


def test_hook_syt_count_classical_identities():
    for n in range(1, 9):
        shapes = list(all_partitions(n))
        # Sum over shapes of f**2 counts pairs of tableaux: n! in total.
        assert sum(hook_syt_count(s) ** 2 for s in shapes) == factorial(n)
        for shape in shapes:
            transpose = tuple(
                sum(1 for row in shape if row > j) for j in range(shape[0])
            )
            assert hook_syt_count(shape) == hook_syt_count(transpose)
