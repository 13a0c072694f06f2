"""Zero-weight counts against enumeration and the plain DP; Bernstein bound sanity."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.pieri import trivial_multiplicity
from repgrowth.torus import (
    InapplicableBoundError,
    bernstein_zero_bound,
    diagonal_zero_count,
    zero_weight_count,
    zero_weight_probability,
)


def brute_zero_count(weights, n):
    return sum(1 for word in product(weights, repeat=n) if sum(word) == 0)


def dp_zero_count(weights, n):
    """The DP on every input: one round per tensor factor over every partial sum."""
    sums = {0: 1}
    for _ in range(n):
        step = {}
        for s, c in sums.items():
            for k in weights:
                step[s + k] = step.get(s + k, 0) + c
        sums = step
    return sums.get(0, 0)


@st.composite
def weight_classes(draw):
    """1-5 distinct weights, each repeated 1-3 times, in a shuffled order."""
    distinct = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True))
    repeats = [w for w in distinct for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(repeats))


def test_zero_weight_count_examples():
    assert zero_weight_count((2, -1), 3) == 3
    assert zero_weight_count((1, -1), 4) == 6
    assert zero_weight_count((2, -1), 4) == 0  # 3 never divides into 4 picks
    assert zero_weight_count((1, 1), 1) == 0
    assert zero_weight_count((5, -3), 0) == 1  # the empty tensor is invariant


def test_weights_must_be_integers():
    with pytest.raises(TypeError):
        zero_weight_count((2.5, -1), 3)
    with pytest.raises(TypeError):
        bernstein_zero_bound((2.9, -1), 3)


def test_zero_weight_probability_examples():
    assert zero_weight_probability((2, -1), 3) == Fraction(3, 8)
    assert zero_weight_probability((1, -1), 4) == Fraction(6, 16)
    assert zero_weight_probability((1, -1), 0) == 1


@pytest.mark.parametrize(
    "weights",
    [
        (2, -1), (1, -1), (1, 1), (3, -1, -1), (2, -1, 0), (5, -2, -1),
        (0,), (0, 0), (3,), (2, 2), (1, 2), (0, 1, -1),
    ],
)
def test_zero_weight_count_matches_enumeration(weights):
    for n in range(8):
        assert zero_weight_count(weights, n) == brute_zero_count(weights, n)


@settings(deadline=None)
@given(weight_classes(), st.integers(min_value=0, max_value=30))
def test_zero_weight_count_symmetries(weights, n):
    count = zero_weight_count(weights, n)
    assert type(count) is int and count == dp_zero_count(weights, n)
    assert zero_weight_count(tuple(reversed(weights)), n) == count
    assert zero_weight_count([-w for w in weights], n) == count
    assert 0 <= count <= len(weights) ** n


def test_bernstein_bound_exact_inputs():
    bound = bernstein_zero_bound((2, -1), 3)
    assert bound.t == 1
    assert bound.v == Fraction(27, 4)
    assert bound.b == Fraction(3, 2)
    # exponent t**2 / (2*(v + b*t/3)) = 2/29, assembled exactly
    assert bound.value == math.exp(-2 / 29)
    bound = bernstein_zero_bound((2, -1), 30)
    assert bound.value == math.exp(-20 / 29)


def test_bernstein_bound_exponent_beyond_float_range():
    # t**2 / (2*(v + b*t/3)) is about 10**309 here, past float range; exp gives 0.0.
    assert bernstein_zero_bound((10**309, 10**309 - 1), 1).value == 0.0


def test_bernstein_bound_degenerate_weights():
    # All weights equal: the centered variable vanishes, the tail is empty.
    bound = bernstein_zero_bound((1, 1), 1)
    assert bound.value == 0.0
    assert zero_weight_probability((1, 1), 1) == 0
    assert bernstein_zero_bound((1, 1), 0).value == 1.0


def test_bernstein_bound_requires_positive_sum():
    with pytest.raises(InapplicableBoundError):
        bernstein_zero_bound((1, -1), 3)
    with pytest.raises(InapplicableBoundError):
        bernstein_zero_bound((2, -3), 3)


@pytest.mark.parametrize("weights", [(2, -1), (1, 1, -1), (3, -1, -1), (5, -2, -1)])
def test_bernstein_dominates_exact_probability(weights):
    for n in range(1, 41):
        probability = zero_weight_probability(weights, n)
        bound = bernstein_zero_bound(weights, n)
        assert float(probability) <= bound.value + 1e-12


def test_diagonal_zero_count_examples():
    assert diagonal_zero_count(3, 2) == 90
    assert diagonal_zero_count(2, 2) == 6
    assert diagonal_zero_count(2, 0) == 1
    assert diagonal_zero_count(4, 1) == 24
    with pytest.raises(ValueError):
        diagonal_zero_count(0, 2)


def test_diagonal_zero_count_matches_enumeration():
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 2), (4, 1)]:
        balanced = sum(
            1
            for word in product(range(m), repeat=m * n)
            if all(word.count(letter) == n for letter in range(m))
        )
        assert diagonal_zero_count(m, n) == balanced


def test_diagonal_count_vs_other_counts():
    # m = 2 balanced words are zero-weight words for weights (1, -1).
    for n in range(6):
        assert diagonal_zero_count(2, n) == zero_weight_count((1, -1), 2 * n)
    # Full-group invariants are a subset of torus invariants.
    for m in (2, 3):
        for n in range(1, 6):
            assert trivial_multiplicity(m, m * n) <= diagonal_zero_count(m, n)
