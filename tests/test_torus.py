"""Zero-weight counts by Miller's recurrence against three oracles; Bernstein bound sanity.

The oracles share no code with the library: enumeration and the plain DP
over partial sums for small n, the two-class binomial at any n, and
Kronecker substitution for large n.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.cli import main
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


def binomial_zero_count(weights, n):
    """Two weight classes a < b: c_a + c_b = n and a*c_a + b*c_b = 0 fix c_a = b*n/(b - a)."""
    (a, mu_a), (b, mu_b) = sorted(Counter(weights).items())
    c_a, rest = divmod(b * n, b - a)
    if rest or not 0 <= c_a <= n:
        return 0
    return math.comb(n, c_a) * mu_a**c_a * mu_b ** (n - c_a)


def _digits(x, count, size):
    """The lowest `count` base-256**size digits of x."""
    raw = x.to_bytes(max(count * size, (x.bit_length() + 7) // 8), "little")
    return [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(count)]


def kronecker_zero_count(weights, n):
    """Constant term of P(x)**n, P(x) = sum_k x**k, by Kronecker substitution.

    Shifted by the least weight, P evaluated at x = 2**B is one integer, and
    its h-th power holds the coefficients of P**h as base-2**B digits when
    2**B exceeds m**h, which bounds each of them.  The wanted coefficient of
    P**n = P**h * P**(n-h) is the dot product of the two digit lists.  With
    h = n // 2 each power is about half as wide as P(2**B)**n would be, which
    takes n = 2000 from about 20 s to about 2 s.
    """
    low = min(weights)
    target = -low * n
    if not 0 <= target <= n * (max(weights) - low):
        return 0
    size = (len(weights) ** (n - n // 2)).bit_length() // 8 + 1
    base = sum(1 << (8 * size * (k - low)) for k in weights)
    half = base ** (n // 2)
    left = _digits(half, target + 1, size)
    right = left if n % 2 == 0 else _digits(half * base, target + 1, size)
    return sum(a * b for a, b in zip(left, reversed(right)))


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


@pytest.mark.parametrize(
    "function", [zero_weight_count, zero_weight_probability, bernstein_zero_bound]
)
def test_weights_must_not_be_empty(function):
    with pytest.raises(ValueError, match=r"^need at least one weight$"):
        function((), 3)


def test_zero_weight_probability_examples():
    assert zero_weight_probability((2, -1), 3) == Fraction(3, 8)
    assert zero_weight_probability((1, -1), 4) == Fraction(6, 16)
    assert zero_weight_probability((1, -1), 0) == 1


@pytest.mark.parametrize(
    "weights",
    [
        (2, -1), (1, -1), (1, 1), (3, -1, -1), (2, -1, 0), (5, -2, -1),
        (0,), (0, 0), (3,), (2, 2), (1, 2), (0, 1, -1),
        (0, 1, 2), (0, 0, 3), (1, 2, 5), (0, -1, -4), (-1, -2), (0, 0, 0), (5, 1, -3),
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


def test_zero_weight_count_edge_cases():
    for n in range(1, 13):
        # All weights >= 0 or all <= 0: only the zero-weight letters survive.
        assert zero_weight_count((0, 1, 2), n) == 1
        assert zero_weight_count((0, 0, 3), n) == 2**n
        assert zero_weight_count((1, 2, 5), n) == 0
        assert zero_weight_count((0, -1, -4), n) == 1
        assert zero_weight_count((0, 0, -2, -1), n) == 2**n
        assert zero_weight_count((-1, -2), n) == 0
        # One class.
        assert zero_weight_count((0,), n) == 1
        assert zero_weight_count((0, 0, 0), n) == 3**n
        assert zero_weight_count((3,), n) == 0
        # (5, 1, -3) shifted by 3 is (8, 4, 0), gcd 4, target 3n: 0 unless 4 | n.
        count = zero_weight_count((5, 1, -3), n)
        assert count == dp_zero_count((5, 1, -3), n)
        assert (count > 0) == (n % 4 == 0)
    for weights in [(0,), (0, 0, 0), (3,), (1, 2, 5), (-1, -2), (5, 1, -3), (2, -1)]:
        assert zero_weight_count(weights, 0) == 1


def test_zero_weight_count_huge_spread():
    # One word shape: a single 10**9 among 10**9 copies of -1.
    assert zero_weight_count((10**9, -1), 10**9 + 1) == 10**9 + 1
    assert zero_weight_count((10**9, -1), 10**9 + 1) == binomial_zero_count((10**9, -1), 10**9 + 1)
    assert zero_weight_count((10**9, -1), 10**9) == 0
    # Three classes over a spread of 2*10**9: only reachable exponents are visited.
    for n in range(7):
        assert zero_weight_count((10**9, 1, -(10**9)), n) == dp_zero_count((10**9, 1, -(10**9)), n)
    assert zero_weight_count((10**9, 1, -(10**9)), 12) == math.comb(12, 6)


@settings(deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=2, unique=True),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=3000),
    st.randoms(use_true_random=False),
)
def test_two_classes_match_the_binomial(pair, mu_a, mu_b, n, rng):
    weights = [pair[0]] * mu_a + [pair[1]] * mu_b
    rng.shuffle(weights)
    assert zero_weight_count(weights, n) == binomial_zero_count(weights, n)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.parametrize("weights", [(3, 1, -1, -2), (2, 1, 0, -1, -3)])
def test_large_n_matches_kronecker(weights, n):
    assert zero_weight_count(weights, n) == kronecker_zero_count(weights, n)


def test_kronecker_oracle_matches_the_dp():
    for weights in [(3, 1, -1, -2), (2, 1, 0, -1, -3), (5, 1, -3), (0, 1, 2), (1, 2), (0,)]:
        for n in range(9):
            assert kronecker_zero_count(weights, n) == dp_zero_count(weights, n)


def test_cli_stress_size(capsys):
    assert main(["torus", "--weights", "3,-1,-1", "--n", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    count = kronecker_zero_count((3, -1, -1), 2000)
    assert count == binomial_zero_count((3, -1, -1), 2000)
    assert lines[:2] == [f"count = {count}", f"probability = {Fraction(count, 3**2000)}"]


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
