"""Growth-series bookkeeping: roots, Fekete checks, and bracketing estimates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.growth import GrowthSeries, estimate, fekete_check, nth_root_sequence
from repgrowth.markov import decay_rate
from repgrowth.modular_fusion import basis_vector, ts_series_modular

CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


def test_growth_series_validates():
    GrowthSeries(step=2, values=(1, 2, 5), dim_v=2)
    with pytest.raises(ValueError):
        GrowthSeries(step=0, values=(1,), dim_v=2)
    with pytest.raises(ValueError):
        GrowthSeries(step=1, values=(1,), dim_v=0)
    with pytest.raises(ValueError):
        GrowthSeries(step=1, values=(-1,), dim_v=2)
    with pytest.raises(ValueError):
        GrowthSeries(step=1, values=(3,), dim_v=2)  # exceeds dim_v**1
    GrowthSeries(step=1, values=(2, 4), dim_v=2)  # boundary is allowed
    GrowthSeries(step=3, values=(8, 64, 512), dim_v=2)
    with pytest.raises(ValueError, match=r"^count 513 at position 3 exceeds dim_v\*\*\(step\*k\)$"):
        GrowthSeries(step=3, values=(8, 64, 513), dim_v=2)
    with pytest.raises(ValueError, match=r"^negative count -1 at position 2$"):
        GrowthSeries(step=3, values=(8, -1, 10**9), dim_v=2)  # the first failure is named


def test_nth_root_sequence_values():
    series = GrowthSeries(step=2, values=(1, 2, 5, 14), dim_v=2)
    roots = nth_root_sequence(series)
    assert roots[0] == 1.0
    assert roots[1] == pytest.approx(2 ** (1 / 4), rel=1e-12)
    assert roots[3] == pytest.approx(14 ** (1 / 8), rel=1e-12)
    assert nth_root_sequence(GrowthSeries(step=1, values=(0, 0), dim_v=3)) == [
        0.0,
        0.0,
    ]
    powers = GrowthSeries(step=1, values=(4, 16, 64), dim_v=4)
    for root in nth_root_sequence(powers):
        assert root == pytest.approx(4.0, rel=1e-12)


def test_fekete_check():
    assert fekete_check(GrowthSeries(step=2, values=CATALAN, dim_v=2))
    assert not fekete_check(GrowthSeries(step=1, values=(1, 3, 1), dim_v=5))
    assert fekete_check(GrowthSeries(step=1, values=(1, 1, 2, 2), dim_v=3))
    assert fekete_check(GrowthSeries(step=1, values=(0, 0, 0), dim_v=2))
    # Each pair is tested once, with k >= l: these fail only at (1, 2) and at (1, 1).
    assert not fekete_check(GrowthSeries(step=1, values=(2, 4, 7), dim_v=2))
    assert not fekete_check(GrowthSeries(step=1, values=(2, 3), dim_v=2))
    # At the bit-length edge: 8 and 9 = 3 * 3 both have 2 + 2 bits.
    assert not fekete_check(GrowthSeries(step=1, values=(3, 8), dim_v=3))
    assert fekete_check(GrowthSeries(step=1, values=(3, 9), dim_v=3))


def all_pairs_fekete(values):
    """The rule with no screen: every pair l <= k with l + k inside the horizon multiplies."""
    n = len(values)
    return all(
        values[l + k - 1] >= values[l - 1] * values[k - 1]
        for l in range(1, n + 1)
        for k in range(l, n + 1 - l)
    )


@st.composite
def screen_edge_series(draw):
    """Terms a_j <= 256**j built left to right against m_j = max over splits of a_l * a_{j-l}:
    ties m_j and near misses m_j - 1 (the rule's edge, where a bit-length screen can
    go wrong), values above m_j, zeros, powers of two and their predecessors, and
    random values."""
    values = []
    for j in range(1, draw(st.integers(1, 14)) + 1):
        top = max((values[l - 1] * values[j - l - 1] for l in range(1, j)), default=0)
        kind = draw(st.sampled_from(("tie", "tie-1", "above", "above", "zero", "power", "random")))
        if kind == "tie":
            a = top
        elif kind == "tie-1":
            a = max(top - 1, 0)
        elif kind == "above":
            a = draw(st.integers(top, 256**j))
        elif kind == "zero":
            a = 0
        elif kind == "power":
            a = 2 ** draw(st.integers(0, 8 * j - 1)) - draw(st.integers(0, 1))
        else:
            a = draw(st.integers(0, 256**j))
        values.append(a)
    return GrowthSeries(step=1, values=tuple(values), dim_v=256)


@settings(max_examples=300)
@given(screen_edge_series())
def test_fekete_check_matches_the_all_pairs_rule(series):
    assert fekete_check(series) == all_pairs_fekete(series.values)


def test_fekete_check_on_series_with_zero_terms():
    # ts of V1 vanishes at odd powers; the series is supermultiplicative.
    series = ts_series_modular(basis_vector(101, 1), 1, 400)
    assert series.values[0::2] == (0,) * 200
    assert fekete_check(series) and all_pairs_fekete(series.values)
    # 0 has bit length 0: a zero factor passes, a zero a_{l+k} fails a nonzero product.
    assert fekete_check(GrowthSeries(step=1, values=(0, 1, 0, 1, 0, 2), dim_v=2))
    assert not fekete_check(GrowthSeries(step=1, values=(0, 1, 0, 0), dim_v=2))


def test_estimate_brackets_catalan_growth():
    series = GrowthSeries(step=2, values=CATALAN, dim_v=2)
    result = estimate(series)
    assert result.fekete_ok
    assert result.upper == 2.0
    assert result.lower == pytest.approx(208012 ** (1 / 24), rel=1e-12)
    assert 1.66 <= result.lower < 2.0
    assert result.roots == tuple(nth_root_sequence(series))
    with pytest.raises(ValueError):
        estimate(GrowthSeries(step=1, values=(), dim_v=2))


def test_estimate_lower_is_monotone_in_horizon():
    previous = 0.0
    for horizon in range(1, len(CATALAN) + 1):
        series = GrowthSeries(step=2, values=CATALAN[:horizon], dim_v=2)
        lower = estimate(series).lower
        assert lower >= previous - 1e-9
        previous = lower


def test_estimate_handles_flat_and_zero_series():
    flat = estimate(GrowthSeries(step=2, values=(1, 1, 1), dim_v=2))
    assert flat.lower == 1.0 and flat.upper == 2.0 and flat.fekete_ok
    zero = estimate(GrowthSeries(step=1, values=(0, 0), dim_v=2))
    assert zero.lower == 0.0


def test_ts_bounded_by_projective_decay():
    # TS sits inside the non-projective part, which shrinks at least
    # geometrically (exact rationals) once per p-1 tensor steps.
    for p in (3, 5, 7):
        v1 = basis_vector(p, 1)
        rate = decay_rate(v1)
        series = ts_series_modular(v1, 1, 12)
        for k, a in enumerate(series.values, start=1):
            assert a <= Fraction(2**k) * rate ** (k // (p - 1))
