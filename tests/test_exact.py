"""Every bounded integer argument of the library goes through one rule and keeps its message."""

import pytest

from repgrowth.char_table import (
    ClassFunction,
    builtin_table,
    first_power_containing,
    min_power_containing_regular,
    root_of_unity,
    tensor_power_char,
)
from repgrowth.growth import GrowthSeries
from repgrowth.markov import IntegerRingMap
from repgrowth.modular_fusion import basis_vector, tensor_power, ts_series_modular
from repgrowth.partitions import dual_weight, is_close_to_mean
from repgrowth.pieri import tensor_power_decomposition, trivial_multiplicity, ts_series_sl
from repgrowth.torus import bernstein_zero_bound, diagonal_zero_count, zero_weight_count

S3 = builtin_table("s3")
STD = S3.irreps[S3.irrep_index("std")]
V1 = basis_vector(3, 1)

BOUNDED = {
    "Cyclotomic.__pow__": (lambda: root_of_unity(3) ** -1, "exponent must be non-negative, got -1"),
    "root_of_unity": (lambda: root_of_unity(0), "n must be at least 1, got 0"),
    "tensor_power_char": (
        lambda: tensor_power_char(ClassFunction((1, -1)), -1),
        "power must be non-negative, got -1",
    ),
    "first_power_containing": (
        lambda: first_power_containing(S3, STD, 0, 0),
        "max_d must be at least 1, got 0",
    ),
    "min_power_containing_regular": (
        lambda: min_power_containing_regular(S3, STD, 0),
        "max_n must be at least 1, got 0",
    ),
    "GrowthSeries-step": (
        lambda: GrowthSeries(step=0, values=(), dim_v=1),
        "step must be at least 1, got 0",
    ),
    "GrowthSeries-dim_v": (
        lambda: GrowthSeries(step=1, values=(), dim_v=0),
        "dim_v must be at least 1, got 0",
    ),
    "tensor_power": (lambda: tensor_power(V1, -1), "exponent must be non-negative, got -1"),
    "IntegerRingMap.__pow__": (
        lambda: IntegerRingMap(2, ((1, 0), (0, 1))) ** -1,
        "exponent must be non-negative, got -1",
    ),
    "ts_series_modular-step": (
        lambda: ts_series_modular(V1, 0, 1),
        "step must be at least 1, got 0",
    ),
    "ts_series_modular-max_k": (
        lambda: ts_series_modular(V1, 1, 0),
        "max_k must be at least 1, got 0",
    ),
    "tensor_power_decomposition-m": (
        lambda: tensor_power_decomposition(0, 1),
        "m must be at least 1, got 0",
    ),
    "tensor_power_decomposition-n": (
        lambda: tensor_power_decomposition(1, -1),
        "n must be non-negative, got -1",
    ),
    "trivial_multiplicity-m": (lambda: trivial_multiplicity(0, 1), "m must be at least 1, got 0"),
    "trivial_multiplicity-n": (
        lambda: trivial_multiplicity(1, -1),
        "n must be non-negative, got -1",
    ),
    "ts_series_sl": (lambda: ts_series_sl(2, 0), "max_k must be at least 1, got 0"),
    "zero_weight_count": (
        lambda: zero_weight_count((1, -1), -1),
        "n must be non-negative, got -1",
    ),
    "bernstein_zero_bound": (
        lambda: bernstein_zero_bound((2, -1), -1),
        "n must be non-negative, got -1",
    ),
    "diagonal_zero_count-m": (lambda: diagonal_zero_count(0, 1), "m must be at least 1, got 0"),
    "diagonal_zero_count-n": (
        lambda: diagonal_zero_count(1, -1),
        "n must be non-negative, got -1",
    ),
    "dual_weight": (lambda: dual_weight((1,), -1), "n must be non-negative, got -1"),
    "is_close_to_mean": (lambda: is_close_to_mean((1,), -1), "n must be non-negative, got -1"),
}


@pytest.mark.parametrize("call, message", BOUNDED.values(), ids=BOUNDED.keys())
def test_bounded_arguments_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
