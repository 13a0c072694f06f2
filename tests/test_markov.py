"""Transition matrices on the fusion ring: exact values, multiplicativity, decay."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repgrowth import markov
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


def fraction_sum_rule(entries, name):
    """The probability rule as a Fraction sum compared with 1, the form before integer sums."""
    if any(e < 0 for e in entries):
        raise ValueError(f"negative entry in {name}")
    if sum(entries) != 1:
        raise ValueError(f"{name} sums to {sum(entries)}, not 1")


def _refusal(rule, entries):
    try:
        rule(entries, "column 3")
    except ValueError as exc:
        return str(exc)
    return None


@given(
    st.lists(st.fractions(-2, 2, max_denominator=60), min_size=1, max_size=8),
    st.booleans(),
)
def test_integer_probability_rule_matches_the_fraction_sum(entries, normalise):
    total = sum(entries)
    if normalise and total:  # scaled to sum to exactly 1, so both rules can accept
        entries = [e / total for e in entries]
    entries = tuple(entries)
    assert _refusal(markov._require_probability, entries) == _refusal(fraction_sum_rule, entries)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RatioVector(2, (F(1, 2), F(1, 3))), ValueError,
         "the ratio vector sums to 5/6, not 1"),
        (lambda: RatioVector(2, (F(3, 2), F(-1, 2))), ValueError,
         "negative entry in the ratio vector"),
        (lambda: RatioVector(2, (0.5, 0.5)), TypeError, "entry 0.5 is not Rational"),
        (lambda: RatioVector(2, ("1/2", "1/2")), TypeError, "entry '1/2' is not Rational"),
        (lambda: TransitionMatrix(2, ((0.5, 1), (0.5, 0))), TypeError,
         "entry 0.5 is not Rational"),
        (lambda: TransitionMatrix(2, ((F(1, 3), 1), (F(1, 3), 0))), ValueError,
         "column 0 sums to 2/3, not 1"),
        (lambda: TransitionMatrix(2, ((F(4, 3), 1), (F(-1, 3), 0))), ValueError,
         "negative entry in column 0"),
        (lambda: IntegerRingMap(2, ((1, 0), (-1, 1))), ValueError, "negative entry in column 0"),
    ],
)
def test_caller_built_vectors_and_matrices_are_still_checked(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_entries_keep_their_fractions_and_convert_other_rationals():
    half = F(1, 2)
    v = RatioVector(2, (half, 1 - half))
    assert v.entries[0] is half
    w = RatioVector(2, (1, 0))
    assert [type(x) for x in w.entries] == [Fraction, Fraction] and w.entries == (1, 0)


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


def test_p_of_map_checks_each_column_once(monkeypatch):
    calls = []
    rule = markov._require_probability

    def counted(entries, name):
        calls.append(name)
        rule(entries, name)

    # The class attribute holds its own reference, so both names are wrapped.
    monkeypatch.setattr(markov, "_require_probability", counted)
    monkeypatch.setattr(TransitionMatrix, "_column_rule", staticmethod(counted))
    for p in (2, 3, 5, 7):
        calls.clear()
        p_of_map(IntegerRingMap(p, fusion_matrix(basis_vector(p, 1))))
        assert calls == [f"column {j}" for j in range(p)]


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


def _decay_rate_through_p(w):
    """The rate through the rational matrix: 1 - min of row p-1 of P(w^(x)(p-1) (x) -)."""
    projective = p_of_tensor_by(tensor_power(w, w.p - 1)).rows[w.p - 1]
    if 0 in projective:
        raise HypothesisViolationError(
            f"column {projective.index(0)} of P(w^(x){w.p - 1} (x) -) has no projective part"
        )
    return 1 - min(projective)


def _outcome(rate, w):
    try:
        value = rate(w)
    except HypothesisViolationError as exc:
        return "refused", str(exc)
    return type(value), value


def _small_seeds():
    for p in (2, 3, 5):
        for coeffs in itertools.product(range(3), repeat=p):
            if any(coeffs):
                yield FusionVector(p, coeffs)


def _random_seeds():
    rng = random.Random(22)
    for p in (7, 11, 13):
        for _ in range(12):
            coeffs = [rng.choice((0, 0, 1, 2, 3)) for _ in range(p)]
            coeffs[rng.randrange(p)] += 1
            yield FusionVector(p, tuple(coeffs))


def test_decay_rate_matches_the_rational_matrix():
    # Every nonzero seed with coefficients <= 2 at p <= 5, then seeded random seeds.
    seeds = [*_small_seeds(), *_random_seeds()]
    assert len(seeds) == 8 + 26 + 242 + 36
    outcomes = [_outcome(decay_rate, w) for w in seeds]
    assert outcomes == [_outcome(_decay_rate_through_p, w) for w in seeds]
    assert {kind for kind, _ in outcomes} == {Fraction, "refused"}


def test_decay_rate_builds_no_exact_matrix(monkeypatch):
    seeds = [basis_vector(5, 1), FusionVector(7, (1, 1, 0, 0, 0, 0, 2)), basis_vector(3, 0)]
    expected = [_outcome(_decay_rate_through_p, w) for w in seeds]

    def refuse(*args):
        raise AssertionError("decay_rate built an exact matrix")

    monkeypatch.setattr(markov, "p_of_map", refuse)
    monkeypatch.setattr(markov._ExactMatrix, "__post_init__", refuse)
    assert [_outcome(decay_rate, w) for w in seeds] == expected
    assert expected[0] == (Fraction, F(11, 16)) and expected[2][0] == "refused"


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntegerRingMap(2, ((1, 0), (0, 1))) @ IntegerRingMap(3, ((1, 0, 0),) * 3),
         "mismatched primes 2 and 3"),
        (lambda: p_of_tensor_by(basis_vector(3, 1)) @ p_of_tensor_by(basis_vector(2, 1)),
         "mismatched primes 3 and 2"),
        (lambda: p_of_tensor_by(basis_vector(3, 1)).apply(q_of(basis_vector(2, 1))),
         "mismatched primes 3 and 2"),
        (lambda: RatioVector(3, (F(1, 2), F(1, 2))), "expected 3 entries, got 2"),
        (lambda: p_of_tensor_by(FusionVector(3, (0, 0, 0))), "cannot tensor by the zero element"),
        (lambda: decay_rate(FusionVector(2, (0, 0))), "cannot tensor by the zero element"),
    ],
    ids=["integer-at", "rational-at", "apply", "ratio-count", "zero-p", "zero-decay"],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


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
