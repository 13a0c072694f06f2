"""Transition matrices on the fusion ring: exact values, multiplicativity, decay."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repgrowth.markov import (
    HypothesisViolationError,
    IntegerRingMap,
    RatioVector,
    TransitionMatrix,
    decay_rate,
    p_of_map,
    p_of_tensor_by,
    q_of,
)
from repgrowth.modular_fusion import (
    FusionVector,
    basis_vector,
    fuse,
    fusion_matrix,
    tensor_power,
)

F = Fraction


@st.composite
def nonzero_fusion_strategy(draw, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    coeffs = draw(
        st.lists(st.integers(0, 3), min_size=p, max_size=p).filter(any)
    )
    return FusionVector(p, tuple(coeffs))


def test_ratio_vector_validates():
    RatioVector(3, (F(1, 4), F(0), F(3, 4)))
    with pytest.raises(ValueError):
        RatioVector(3, (F(1, 2), F(0), F(0)))
    with pytest.raises(ValueError):
        RatioVector(3, (F(3, 2), F(-1, 2), F(0)))


def test_transition_matrix_validates_column_sums():
    with pytest.raises(ValueError, match="column 0 sums to 2, not 1"):
        TransitionMatrix(2, ((F(1), F(1)), (F(1), F(0))))
    with pytest.raises(ValueError, match="negative entry in column 0"):
        TransitionMatrix(2, ((F(2), F(0)), (F(-1), F(1))))
    with pytest.raises(ValueError, match="negative entry in column 1"):
        TransitionMatrix(2, ((F(1), F(3, 2)), (F(0), F(-1, 2))))
    with pytest.raises(ValueError, match="column 1 sums to 1/2, not 1"):
        TransitionMatrix(2, ((F(1), F(1, 4)), (F(0), F(1, 4))))


def test_q_of_examples():
    assert q_of(basis_vector(3, 1)).entries == (0, 1, 0)
    assert q_of(FusionVector(3, (1, 0, 1))).entries == (F(1, 4), 0, F(3, 4))
    assert q_of(FusionVector(5, (2, 0, 3, 0, 1))).entries == (
        F(1, 8),
        0,
        F(9, 16),
        0,
        F(5, 16),
    )
    with pytest.raises(ValueError):
        q_of(FusionVector(3, (0, 0, 0)))


def test_p_of_tensor_by_frozen_p3():
    matrix = p_of_tensor_by(basis_vector(3, 1))
    assert matrix.rows == (
        (0, F(1, 4), 0),
        (1, 0, 0),
        (0, F(3, 4), 1),
    )
    squared = matrix @ matrix
    assert squared.rows == (
        (F(1, 4), 0, 0),
        (0, F(1, 4), 0),
        (F(3, 4), F(3, 4), 1),
    )
    assert p_of_tensor_by(basis_vector(3, 0)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_p_of_map_example_is_not_multiplicative():
    s = IntegerRingMap(2, ((2, 1), (0, 1)))
    s2 = s.compose(s)
    assert s2.rows == ((4, 3), (0, 1))
    p_s = p_of_map(s)
    p_s2 = p_of_map(s2)
    assert p_s.rows == ((1, F(1, 3)), (0, F(2, 3)))
    assert p_s2.rows == ((1, F(3, 5)), (0, F(2, 5)))
    assert (p_s @ p_s).rows == ((1, F(5, 9)), (0, F(4, 9)))
    assert p_s @ p_s != p_s2


def test_p_of_map_rejects_zero_columns():
    with pytest.raises(ValueError, match="column 1 of the ring map is zero"):
        p_of_map(IntegerRingMap(2, ((1, 0), (0, 0))))
    with pytest.raises(ValueError, match="column 0 of the ring map is zero"):
        p_of_map(IntegerRingMap(3, ((0, 1, 0), (0, 0, 0), (0, 0, 1))))


def test_p_of_tensor_by_is_multiplicative_on_basis():
    for p in (2, 3, 5, 7):
        for i in range(p):
            for j in range(p):
                left = p_of_tensor_by(basis_vector(p, i)) @ p_of_tensor_by(
                    basis_vector(p, j)
                )
                right = p_of_tensor_by(fuse(basis_vector(p, i), basis_vector(p, j)))
                assert left == right


@given(nonzero_fusion_strategy())
def test_p_of_tensor_by_is_conjugated_integer_matrix(w):
    # P agrees with D [S] D^{-1} / dim(w), where [S] is the integer fusion
    # matrix of "tensor by w" and D = diag(1, 2, ..., p).
    p = w.p
    integer_rows = tuple(
        tuple(fuse(w, basis_vector(p, j)).coeffs[i] for j in range(p)) for i in range(p)
    )
    assert fusion_matrix(w) == integer_rows
    dim = w.dimension
    expected = TransitionMatrix(
        p,
        tuple(
            tuple(F((i + 1) * integer_rows[i][j], (j + 1) * dim) for j in range(p))
            for i in range(p)
        ),
    )
    assert p_of_tensor_by(w) == expected


@given(nonzero_fusion_strategy())
def test_matrix_power_tracks_tensor_power(w):
    matrix = p_of_tensor_by(w)
    e1 = q_of(basis_vector(w.p, 0))
    state = e1
    for n in range(1, 6):
        state = matrix.apply(state)
        assert state == q_of(tensor_power(w, n))
    assert (matrix @ matrix @ matrix).apply(e1) == q_of(tensor_power(w, 3))


def test_decay_rate_frozen_values():
    assert decay_rate(basis_vector(3, 1)) == F(1, 4)
    assert decay_rate(basis_vector(2, 1)) == 0
    assert decay_rate(basis_vector(5, 1)) == F(11, 16)
    assert decay_rate(basis_vector(3, 2)) == 0  # projective seed: instant decay
    rate7 = decay_rate(basis_vector(7, 1))
    assert 0 < rate7 < 1


def test_decay_rate_requires_projective_mass_everywhere():
    with pytest.raises(HypothesisViolationError):
        decay_rate(basis_vector(3, 0))
    with pytest.raises(HypothesisViolationError):
        decay_rate(basis_vector(2, 0))


def test_nonprojective_fraction_falls_geometrically():
    for p in (3, 5, 7):
        v1 = basis_vector(p, 1)
        rate = decay_rate(v1)
        for n in range(1, 9):
            power = tensor_power(v1, (p - 1) * n)
            nonprojective = F(
                sum((i + 1) * c for i, c in enumerate(power.coeffs[: p - 1])),
                power.dimension,
            )
            assert nonprojective <= rate**n


def test_integer_ring_map_validates():
    with pytest.raises(ValueError):
        IntegerRingMap(2, ((1, 0), (-1, 1)))
    with pytest.raises(ValueError):
        IntegerRingMap(2, ((1, 0),))
    s = IntegerRingMap(2, ((2, 1), (0, 1)))
    assert (s**0).rows == ((1, 0), (0, 1))
    assert (s**3).rows == s.compose(s).compose(s).rows == ((8, 7), (0, 1))
    with pytest.raises(ValueError):
        s**-1


@given(nonzero_fusion_strategy(primes=(2, 3, 5, 7)), st.integers(1, 6))
def test_integer_power_matches_tensor_power_and_fraction_product(w, k):
    # M_w^k by integer squaring against M of the vector-squared w^(x)k, and
    # P(M_w^k) against the k-fold product of the Fraction matrix P(T).
    power = IntegerRingMap(w.p, fusion_matrix(w)) ** k
    assert power == IntegerRingMap(w.p, fusion_matrix(tensor_power(w, k)))
    one_step = p_of_tensor_by(w)
    product = one_step
    for _ in range(k - 1):
        product = product @ one_step
    assert p_of_map(power) == product
    # Both matrix kinds share one product and one squaring routine: the
    # Fraction matrix's ** is its k-fold @ too, and IntegerRingMap @ is compose.
    assert one_step**k == product == p_of_tensor_by(tensor_power(w, k))
    assert one_step**0 == p_of_tensor_by(basis_vector(w.p, 0))
    tensor_by = IntegerRingMap(w.p, fusion_matrix(w))
    assert tensor_by @ tensor_by == tensor_by.compose(tensor_by)
    assert (tensor_by @ tensor_by).rows == fusion_matrix(fuse(w, w))
