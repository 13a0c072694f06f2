"""Fusion rules for Z/pZ in characteristic p, cross-checked against Jordan forms."""

import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth import modular_fusion
from repgrowth.modular_fusion import (
    FusionVector,
    _echelon,
    basis_vector,
    fuse,
    fuse_basis,
    is_prime,
    jordan_oracle,
    tensor_power,
    ts,
    ts_series_modular,
)


@st.composite
def fusion_pair_strategy(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    coeffs = st.lists(st.integers(0, 3), min_size=p, max_size=p)
    return FusionVector(p, tuple(draw(coeffs))), FusionVector(p, tuple(draw(coeffs)))


def test_fusion_vector_validates():
    with pytest.raises(ValueError):
        FusionVector(4, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        FusionVector(3, (1, 0))
    with pytest.raises(ValueError):
        FusionVector(3, (1, -1, 0))
    with pytest.raises(ValueError):
        basis_vector(3, 3)
    assert basis_vector(5, 2).dimension == 3


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


def test_fuse_basis_examples():
    assert fuse_basis(3, 1, 1).coeffs == (1, 0, 1)  # V0 + V2
    assert fuse_basis(5, 4, 2).coeffs == (0, 0, 0, 0, 3)  # 3*V4
    assert fuse_basis(5, 3, 3).coeffs == (1, 0, 0, 0, 3)  # 3*V4 + V0
    assert fuse_basis(2, 1, 1).coeffs == (0, 2)  # 2*V1
    assert fuse_basis(7, 0, 4).coeffs == (0, 0, 0, 0, 1, 0, 0)
    assert fuse_basis(7, 2, 3).coeffs == (0, 1, 0, 1, 0, 1, 0)  # ladder V1+V3+V5


def stencil_oracle(p, m, n):
    """V_m (x) V_n from the image chain of N = J_{m+1} (x) J_{n+1} - I over F_p.

    N acts as a stencil: e_(a,b) maps to e_(a-1,b) + e_(a,b-1) + e_(a-1,b-1).
    From the standard basis, r_s = rank(N**s) is the dimension of the image
    chain im(N**(s+1)) = N im(N**s), and there are r_{s-1} - 2*r_s + r_{s+1}
    Jordan blocks of size s.  It shares only ``_echelon`` with the library.
    """
    width, size = n + 1, (m + 1) * (n + 1)

    def apply_n(v):
        # (N v)(a, b) = v(a+1, b) + v(a, b+1) + v(a+1, b+1); off-grid terms are 0.
        down = v[width:] + [0] * width  # v(a+1, b)
        both = [x + y for x, y in zip(v, down)]  # v(a, b) + v(a+1, b)
        return [d + (both[i + 1] if (i + 1) % width else 0) for i, d in enumerate(down)]

    image = [[int(i == j) for j in range(size)] for i in range(size)]
    ranks = [size]
    while ranks[-1]:
        image = _echelon([apply_n(v) for v in image], p)
        ranks.append(len(image))
    assert len(ranks) <= p + 1, ranks  # N**p = 0
    ranks.extend([0] * (p + 2 - len(ranks)))
    coeffs = tuple(ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] for s in range(1, p + 1))
    return FusionVector(p, coeffs)


def ladder_fuse(a, b):
    """``fuse`` summed pair by pair over the Clebsch-Gordan ladder; shares no code with it.

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


def images_ts(v, n):
    """ts(v^(x)n) by the method of images: -1/2 sum_{j = 0 mod 2p} [q^j] (q - 1/q)^2 chi(q)^n.

    chi is the characteristic-0 SL_2 character of v, sum_i a_i (q^i + q^(i-2) + ... + q^-i).
    Shifted by the highest weight t of v (at most p - 1), q^t chi(q) is a polynomial
    with non-negative coefficients, and its n-th power comes out of one integer power
    by Kronecker substitution: base-256**size digits, 256**size > dim(v)**n bounding
    each coefficient; [q^j] chi^n is digit j + n*t.  The sum reads no fusion rule.
    """
    t = max(i for i, a in enumerate(v.coeffs) if a)
    poly = [0] * (2 * t + 1)
    for i, a in enumerate(v.coeffs[: t + 1]):
        for k in range(t - i, t + i + 1, 2):
            poly[k] += a
    size = (v.dimension**n).bit_length() // 8 + 1
    power = sum(c << (8 * size * k) for k, c in enumerate(poly)) ** n
    raw = power.to_bytes((2 * t * n + 1) * size, "little")

    def coeff(j):
        k = j + n * t
        if not 0 <= k <= 2 * n * t:
            return 0
        return int.from_bytes(raw[k * size : (k + 1) * size], "little")

    period, reach = 2 * v.p, n * t + 2  # coeff(j - 2) or coeff(j + 2) may be nonzero
    images = range(-(reach // period) * period, reach + 1, period)
    twice = sum(2 * coeff(j) - coeff(j - 2) - coeff(j + 2) for j in images)
    assert twice % 2 == 0
    return twice // 2


def test_fuse_basis_whole_table_matches_jordan_oracle():
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(p):
            for n in range(p):
                closed = fuse_basis(p, m, n)
                assert closed == jordan_oracle(p, m, n) == stencil_oracle(p, m, n), (p, m, n)


@settings(deadline=None, max_examples=10)
@given(
    st.sampled_from([p for p in range(62) if is_prime(p)]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, p - 1), st.integers(0, p - 1))
    )
)
def test_jordan_oracle_matches_fuse_past_p13(pmn):
    assert jordan_oracle(*pmn) == fuse_basis(*pmn)


def test_jordan_oracle_large_pairs():
    big = jordan_oracle(31, 15, 29)  # 15*V30 + V14
    assert big == fuse_basis(31, 15, 29) and (big.coeffs[30], big.coeffs[14]) == (15, 1)
    big = jordan_oracle(53, 26, 51)  # 26*V52 + V25
    assert big == fuse_basis(53, 26, 51) and (big.coeffs[52], big.coeffs[25]) == (26, 1)


def test_fuse_basis_structure():
    # Identities that hold whatever the rule, checked past the oracle's reach.
    for p in filter(is_prime, range(62)):
        for m in range(p):
            for n in range(p):
                result = fuse_basis(p, m, n)
                assert result.dimension == (m + 1) * (n + 1)
                assert result == fuse_basis(p, n, m)
            # V_{p-1} is absorbing: tensoring multiplies it up.
            assert fuse_basis(p, p - 1, m).coeffs == tuple(
                (m + 1) * int(i == p - 1) for i in range(p)
            )
            # V_0 is the unit.
            assert fuse_basis(p, 0, m) == basis_vector(p, m)


def test_jordan_oracle_validates():
    with pytest.raises(ValueError):
        jordan_oracle(4, 1, 1)
    with pytest.raises(ValueError):
        jordan_oracle(5, 5, 0)


def test_jordan_oracle_refuses_a_rank_chain_that_does_not_reach_zero(monkeypatch):
    # With every binomial read as 1, L**p is nonzero and the check must fire.
    monkeypatch.setattr(modular_fusion, "comb", lambda s, k: 1)
    with pytest.raises(ArithmeticError):
        jordan_oracle(5, 4, 4)


def test_fuse_bilinear_examples():
    p3 = fuse(
        FusionVector(3, (1, 0, 1)),  # V0 + V2
        FusionVector(3, (1, 0, 1)),
    )
    assert p3.coeffs == (1, 0, 5)
    v1 = basis_vector(5, 1)
    ladder = fuse(v1, FusionVector(5, (1, 0, 1, 0, 0)))
    assert ladder.coeffs == (0, 2, 0, 1, 0)  # 2*V1 + V3
    with pytest.raises(ValueError):
        fuse(basis_vector(3, 1), basis_vector(5, 1))


@given(fusion_pair_strategy())
def test_fuse_commutative_with_multiplicative_dimension(pair):
    a, b = pair
    ab = fuse(a, b)
    assert ab == fuse(b, a)
    assert ab.dimension == a.dimension * b.dimension


ORACLE_TABLE = {
    (p, m, n): jordan_oracle(p, m, n).coeffs
    for p in (2, 3, 5, 7)
    for m in range(p)
    for n in range(p)
}


@given(fusion_pair_strategy())
def test_fuse_is_the_bilinear_extension_of_the_oracle(pair):
    a, b = pair
    expected = [0] * a.p
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            for k, ck in enumerate(ORACLE_TABLE[a.p, i, j]):
                expected[k] += ai * bj * ck
    assert fuse(a, b).coeffs == tuple(expected)


PRIMES_TO_61 = [p for p in range(62) if is_prime(p)]


@st.composite
def fusion_operand(draw, p):
    """A zero, projective-only, sparse (at most three terms) or dense element at p."""
    kind = draw(st.sampled_from(("zero", "projective", "sparse", "dense")))
    if kind == "dense":
        return FusionVector(p, tuple(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))))
    coeffs = [0] * p
    if kind == "projective":
        coeffs[p - 1] = draw(st.integers(1, 3))
    elif kind == "sparse":
        terms = st.dictionaries(st.integers(0, p - 1), st.integers(1, 3), max_size=3)
        for i, c in draw(terms).items():
            coeffs[i] = c
    return FusionVector(p, tuple(coeffs))


@pytest.mark.parametrize("p", PRIMES_TO_61)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_fuse_matches_the_ladder_in_both_orders(p, data):
    a, b = data.draw(fusion_operand(p)), data.draw(fusion_operand(p))
    expected = ladder_fuse(a, b)
    assert fuse(a, b) == expected
    assert fuse(b, a) == expected


def test_fuse_refuses_a_character_product_off_by_one(monkeypatch):
    # Entry i of the non-projective part adds i + 1 < p to the dimension, so a
    # product off by one anywhere leaves a nonzero remainder mod p.
    times_character = modular_fusion._times_character
    p = 7
    a, b = FusionVector(p, (1, 2, 0, 1, 0, 1, 1)), FusionVector(p, (0, 0, 1, 0, 2, 0, 0))
    assert fuse(a, b) == ladder_fuse(a, b)
    for entry in range(p - 1):
        for delta in (1, -1):

            def off_by_one(x, terms, q, entry=entry, delta=delta):
                product = times_character(x, terms, q)
                product[entry] += delta
                return product

            monkeypatch.setattr(modular_fusion, "_times_character", off_by_one)
            with pytest.raises(ArithmeticError, match="remainder"):
                fuse(a, b)


def test_fuse_takes_the_character_of_the_operand_with_fewer_terms(monkeypatch):
    times_character = modular_fusion._times_character
    lengths = []

    def counting(x, terms, q):
        lengths.append(len(terms))
        return times_character(x, terms, q)

    monkeypatch.setattr(modular_fusion, "_times_character", counting)
    p = 1009
    v1, dense = basis_vector(p, 1), FusionVector(p, tuple(1 + i % 3 for i in range(p)))
    product = fuse(v1, dense)
    assert product == fuse(dense, v1) == ladder_fuse(v1, dense)
    assert lengths == [1, 1]


def test_fuse_associative_on_basis():
    for p in (2, 3, 5):
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    left = fuse(fuse_basis(p, i, j), basis_vector(p, k))
                    right = fuse(basis_vector(p, i), fuse_basis(p, j, k))
                    assert left == right


def test_tensor_power_examples():
    v1 = basis_vector(3, 1)
    assert tensor_power(v1, 4).coeffs == (1, 0, 5)
    assert tensor_power(v1, 0) == basis_vector(3, 0)
    assert tensor_power(basis_vector(5, 1), 4).coeffs == (2, 0, 3, 0, 1)
    assert tensor_power(basis_vector(2, 1), 5).coeffs == (0, 16)
    with pytest.raises(ValueError):
        tensor_power(v1, -1)


def test_tensor_power_squares_without_the_identity(monkeypatch):
    # For n >= 1: bit_length - 1 squarings and bit_count - 1 products into the result.
    calls = []

    def counting_fuse(a, b):
        calls.append(None)
        return fuse(a, b)

    monkeypatch.setattr(modular_fusion, "fuse", counting_fuse)
    v = FusionVector(5, (1, 1, 0, 0, 0))
    for n in (0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 100):
        calls.clear()
        tensor_power(v, n)
        assert len(calls) == max(0, n.bit_length() + n.bit_count() - 2), n


def test_tensor_power_builds_the_identity_only_for_n_zero(monkeypatch):
    calls = []

    def counting_basis_vector(p, i):
        calls.append((p, i))
        return basis_vector(p, i)

    monkeypatch.setattr(modular_fusion, "basis_vector", counting_basis_vector)
    v = FusionVector(5, (1, 1, 0, 0, 0))
    for n in (1, 2, 3, 8, 13):
        tensor_power(v, n)
    assert calls == []
    with pytest.raises(ValueError, match="^exponent must be non-negative, got -1$"):
        tensor_power(v, -1)
    assert calls == []
    assert tensor_power(v, 0) == basis_vector(5, 0)
    assert calls == [(5, 0)]


def test_tensor_power_matches_repeated_fuse():
    for p in (2, 3, 5):
        v = FusionVector(p, tuple(1 if i < 2 else 0 for i in range(p)))
        running = basis_vector(p, 0)
        for n in range(7):
            assert tensor_power(v, n) == running
            running = fuse(running, v)


def test_ts_series_modular_scans_v_once_at_step_one(monkeypatch):
    # At step 1 the block is v itself, so its terms are the seed's.
    v = FusionVector(7, (0, 2, 1, 0, 0, 0, 1))
    block = tensor_power(v, 2)
    calls = []
    terms = modular_fusion._terms

    def counting_terms(w):
        calls.append(w)
        return terms(w)

    monkeypatch.setattr(modular_fusion, "_terms", counting_terms)
    one = ts_series_modular(v, 1, 12)
    assert calls == [v]
    calls.clear()
    two = ts_series_modular(v, 2, 6)
    assert (calls[0], calls[-1]) == (v, block)  # fuse scans its operands in between
    assert two.values == one.values[1::2]


def test_ts_examples():
    assert ts(FusionVector(3, (4, 1, 0))) == 4
    assert ts(basis_vector(5, 0)) == 1
    assert ts(basis_vector(5, 3)) == 0


def test_ts_series_modular_frozen():
    series = ts_series_modular(basis_vector(3, 1), 2, 4)
    assert series.values == (1, 1, 1, 1)
    assert series.step == 2 and series.dim_v == 2
    assert ts_series_modular(basis_vector(2, 1), 1, 3).values == (0, 0, 0)
    assert ts_series_modular(basis_vector(5, 1), 2, 3).values == (1, 2, 5)
    with pytest.raises(ValueError):
        ts_series_modular(basis_vector(3, 1), 0, 3)


@given(
    st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
        lambda p: st.lists(st.integers(0, 3), min_size=p, max_size=p).filter(any)
    ),
    st.integers(1, 3),
    st.integers(1, 8),
)
def test_ts_series_modular_matches_fuse_loop(coeffs, step, max_k):
    v = FusionVector(len(coeffs), tuple(coeffs))
    block = tensor_power(v, step)
    current = basis_vector(v.p, 0)
    expected = []
    for _ in range(max_k):
        current = fuse(current, block)
        expected.append(current.coeffs[0])
    series = ts_series_modular(v, step, max_k)
    assert series.values == tuple(expected)
    assert (series.step, series.dim_v) == (step, v.dimension)


def test_ts_series_modular_costs_only_its_reachable_support():
    # 40 terms of V1 reach V_0..V_20 of p = 1,000,003 indecomposables.  Building
    # the seed and the dimension are single passes over p; a walk over all p - 1
    # indices per step, or a fusion column of length p per index, misses the budget.
    p = 1_000_003
    v = basis_vector(p, 1)
    start = time.perf_counter()
    series = ts_series_modular(v, 1, 40)
    elapsed = time.perf_counter() - start
    # images_ts reads only p, the coefficients through the top index and the dimension.
    view = SimpleNamespace(p=p, coeffs=(0, 1), dimension=2)
    assert series.values == tuple(images_ts(view, k) for k in range(1, 41))
    assert elapsed < 1.0, elapsed


def test_ts_series_matches_tensor_power():
    cases = [(basis_vector(p, 1), step) for p, step in ((3, 2), (5, 2), (2, 1))]
    # V1 + V2 twice is four seed terms against five in the block, so v's character goes twice.
    cases.append((FusionVector(7, (0, 1, 1, 0, 0, 0, 0)), 2))
    for v, step in cases:
        series = ts_series_modular(v, step, 5)
        for k, a in enumerate(series.values, start=1):
            assert a == ts(tensor_power(v, step * k))


@settings(deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
        lambda p: st.lists(st.integers(0, 3), min_size=p, max_size=p).filter(any)
    ),
    st.integers(0, 9),
)
def test_method_of_images_matches_tensor_power(coeffs, n):
    v = FusionVector(len(coeffs), tuple(coeffs))
    assert images_ts(v, n) == ts(tensor_power(v, n))


def test_method_of_images_matches_ts_series_modular():
    v = FusionVector(53, tuple(int(i in (2, 5)) for i in range(53)))  # V2 + V5
    series = ts_series_modular(v, 2, 40)
    assert series.values == tuple(images_ts(v, 2 * k) for k in range(1, 41))
    series = ts_series_modular(basis_vector(101, 1), 1, 400)
    assert series.values == tuple(images_ts(basis_vector(101, 1), k) for k in range(1, 401))
