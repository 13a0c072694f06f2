"""Frobenius-formula decompositions against the Pieri sweep, and mass identities."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.growth import fekete_check
from repgrowth.partitions import Partition, canonicalize, hook_syt_count
from repgrowth.pieri import (
    Decomposition,
    mean_mass_report,
    tensor_power_decomposition,
    trivial_multiplicity,
    ts_series_sl,
)

CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


def pieri_sweep(m, n):
    """V^(x)n by the Pieri rule, one box at a time: padded parts -> multiplicity."""
    states = {(0,) * m: 1}
    for _ in range(n):
        out = {}
        for parts, mult in states.items():
            for i, row in enumerate(parts):
                if i == 0 or parts[i - 1] > row:  # the new box keeps the rows weakly decreasing
                    mu = parts[:i] + (row + 1,) + parts[i + 1 :]
                    out[mu] = out.get(mu, 0) + mult
        states = out
    return states


def test_tensor_power_decomposition_examples():
    d = tensor_power_decomposition(2, 4)
    assert {lam.parts: mult for lam, mult in d.mults.items()} == {
        (4, 0): 1,
        (3, 1): 3,
        (2, 2): 2,
    }
    assert list(d.mults) == [
        Partition((4, 0), 2),
        Partition((3, 1), 2),
        Partition((2, 2), 2),
    ]  # descending lexicographic iteration order
    d = tensor_power_decomposition(3, 3)
    assert {lam.parts: mult for lam, mult in d.mults.items()} == {
        (3, 0, 0): 1,
        (2, 1, 0): 2,
        (1, 1, 1): 1,
    }
    d = tensor_power_decomposition(2, 0)
    assert {lam.parts: mult for lam, mult in d.mults.items()} == {(0, 0): 1}


def test_decomposition_validates_keys():
    with pytest.raises(ValueError):
        Decomposition(2, 3, {Partition((1, 1), 2): 1})
    with pytest.raises(ValueError):
        Decomposition(2, 2, {Partition((1, 1), 2): 0})


@pytest.mark.parametrize("m, n", [(1, 5), (2, 0), (3, 6), (4, 12), (6, 20), (50, 7)])
def test_walk_builds_what_the_checked_constructors_build(m, n):
    # The walk builds its shapes and its Decomposition without running their checks.
    d = tensor_power_decomposition(m, n)
    for lam in d.mults:
        checked = Partition(lam.parts, m)
        assert lam == checked and hash(lam) == hash(checked)
        assert type(lam.parts) is tuple and len(lam.parts) == m
        assert all(type(x) is int for x in lam.parts)
        shift = lam.parts[-1]
        assert canonicalize(lam).canonical == Partition(tuple(x - shift for x in lam.parts), m)
    again = Decomposition(m, n, dict(d.mults))
    assert again == d and list(again.mults.items()) == list(d.mults.items())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition((1, 2), 2), "(1, 2) is not weakly decreasing"),
        (lambda: Partition((2, -1), 2), "(2, -1) has a negative part"),
        (lambda: Partition((1, 1, 1), 2), "(1, 1, 1) has more than 2 parts"),
        (lambda: Partition((2.0, 1), 2), "'float' object cannot be interpreted as an integer"),
        (lambda: canonicalize((1, 2)), "(1, 2) is not weakly decreasing"),
        (lambda: Decomposition(2, 3, {Partition((1, 1), 2): 1}),
         "(1, 1) is not a partition of 3 with 2 parts"),
        (lambda: Decomposition(3, 2, {Partition((1, 1), 2): 1}),
         "(1, 1) is not a partition of 2 with 3 parts"),
        (lambda: Decomposition(2, 2, {Partition((1, 1), 2): 0}),
         "multiplicity of (1, 1) must be positive"),
    ],
)
def test_caller_built_shapes_are_still_checked(build, message):
    with pytest.raises((ValueError, TypeError)) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_caller_built_decomposition_is_still_sorted():
    d = Decomposition(2, 4, {Partition((2, 2), 2): 2, Partition((4,), 2): 1})
    assert [lam.parts for lam in d.mults] == [(4, 0), (2, 2)]


def test_multiplicities_are_syt_counts():
    for m in (2, 3, 4):
        for n in range(13):
            d = tensor_power_decomposition(m, n)
            sweep = pieri_sweep(m, n)
            assert {lam.parts: mult for lam, mult in d.mults.items()} == sweep
            assert d.dimension() == m**n
            assert d.total_multiplicity() == sum(sweep.values())


def test_trivial_multiplicity_catalan():
    assert tuple(trivial_multiplicity(2, 2 * k) for k in range(1, 13)) == CATALAN
    assert trivial_multiplicity(2, 5) == 0
    assert trivial_multiplicity(3, 4) == 0
    # 3xk rectangles: three-row ballot numbers.
    assert tuple(trivial_multiplicity(3, 3 * k) for k in range(1, 5)) == (1, 5, 42, 462)
    with pytest.raises(ValueError, match="m must be at least 1, got 0"):
        trivial_multiplicity(0, 4)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="n must be non-negative"):
            trivial_multiplicity(2, n)


def test_ts_series_sl_matches_rectangles():
    series = ts_series_sl(2, 12)
    assert series.values == CATALAN
    assert series.step == 2 and series.dim_v == 2
    series = ts_series_sl(3, 4)
    assert series.values == (1, 5, 42, 462)
    assert series.values == tuple(
        hook_syt_count((k, k, k)) for k in range(1, 5)
    )
    with pytest.raises(ValueError):
        ts_series_sl(2, 0)


def test_ts_series_sl_ratio_matches_frobenius():
    for m in range(1, 9):
        series = ts_series_sl(m, 60)
        assert series.values == tuple(hook_syt_count((k,) * m) for k in range(1, 61)), m
        assert (series.step, series.dim_v) == (m, m)


@pytest.mark.parametrize(
    "m, max_k, error, message",
    [
        (0, 0, ValueError, "max_k must be at least 1, got 0"),
        (2.0, 0, ValueError, "max_k must be at least 1, got 0"),
        (0, 3, ValueError, "m must be at least 1, got 0"),
        (-2, 3, ValueError, "m must be at least 1, got -2"),
        (0, 3.0, TypeError, "float"),
        (2.0, 3, TypeError, "float"),
    ],
)
def test_ts_series_sl_checks_max_k_then_m(m, max_k, error, message):
    with pytest.raises(error, match=message):
        ts_series_sl(m, max_k)


@settings(deadline=None)
@given(m=st.integers(1, 6), k=st.integers(1, 4), n=st.integers(0, 20))
def test_closed_forms_match_the_pieri_sweep(m, k, n):
    # The sweep is the independent oracle for every Frobenius count.
    sweep = pieri_sweep(m, n)
    descending = sorted(sweep.items(), reverse=True)
    d = tensor_power_decomposition(m, n)
    assert [(lam.parts, mult) for lam, mult in d.mults.items()] == descending
    assert trivial_multiplicity(m, n) == sweep.get((n // m,) * m, 0)
    rectangles = tuple(pieri_sweep(m, m * j)[(j,) * m] for j in range(1, k + 1))
    assert ts_series_sl(m, k).values == rectangles


@pytest.mark.parametrize("m, n", [(2000, 2), (1000, 0), (5000, 4)])
def test_many_rows_few_boxes(m, n):
    # Zero rows cost nothing: m far above Python's recursion limit still works.
    d = tensor_power_decomposition(m, n)
    assert [(lam.parts, mult) for lam, mult in d.mults.items()] == sorted(
        pieri_sweep(m, n).items(), reverse=True
    )


@pytest.mark.parametrize("m, n", [(2, 3000), (3, 300)])
def test_large_n_decomposition_fills_m_to_the_n(m, n):
    assert tensor_power_decomposition(m, n).dimension() == m**n


def test_trivial_multiplicity_large_n_catalan():
    # Catalan's closed form shares nothing with Frobenius's formula.
    assert trivial_multiplicity(2, 3000) == comb(3000, 1500) // 1501


def test_ts_series_sl_supermultiplicative():
    assert fekete_check(ts_series_sl(2, 10))
    assert fekete_check(ts_series_sl(3, 8))


def test_mean_mass_report_small():
    report = mean_mass_report(tensor_power_decomposition(2, 2))
    # Both (2,0) and (1,1) are close; the tie breaks to the lex-smallest.
    assert (report.total_close, report.total_far) == (2, 0)
    assert (report.dim_close, report.dim_far) == (4, 0)
    lam, mult = report.max_close_witness
    assert lam.parts == (1, 1) and mult == 1


def test_mean_mass_report_n10():
    report = mean_mass_report(tensor_power_decomposition(2, 10))
    # Close partitions: (5,5) through (9,1); only (10,0) is far.
    assert (report.total_close, report.total_far) == (251, 1)
    assert report.dim_close + report.dim_far == 2**10
    assert report.dim_far == 11
    lam, mult = report.max_close_witness
    assert lam.parts == (6, 4) and mult == 90


def test_mean_mass_report_empty_close_set():
    report = mean_mass_report(tensor_power_decomposition(2, 0))
    assert report.max_close_witness is None
    assert (report.total_close, report.total_far) == (0, 1)
    assert (report.dim_close, report.dim_far) == (0, 1)


def test_mean_mass_conservation_and_witness_quality():
    for m in (2, 3):
        for n in (6, 9, 12):
            d = tensor_power_decomposition(m, n)
            report = mean_mass_report(d)
            assert report.total_close + report.total_far == d.total_multiplicity()
            assert report.dim_close + report.dim_far == m**n
            if report.max_close_witness is not None:
                _, mult = report.max_close_witness
                # Pigeonhole: the best close witness carries at least the
                # average close multiplicity.
                assert mult * len(d.mults) >= report.total_close


def test_dimension_weighted_mass_concentrates():
    # For large n almost all of m**n sits within n**(2/3) of the mean.
    for m in (2, 3):
        report = mean_mass_report(tensor_power_decomposition(m, 40))
        assert 2 * report.dim_close > m**40
