"""Growth-series bookkeeping: roots, Fekete checks, and bracketing estimates."""

from fractions import Fraction

import pytest

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
