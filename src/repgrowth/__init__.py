"""Exact tensor-power decompositions and trivial-summand growth rates.

Three regimes, all in exact arithmetic with independent cross-checks:
SL_m in characteristic zero (Pieri rule), one-parameter torus actions
(zero-weight counting plus a Bernstein tail bound), and Z/pZ in
characteristic p (modular fusion rules, cross-checked against Jordan
forms over F_p).  ``growth`` brackets the growth rate of the resulting
trivial-summand sequences; ``char_table`` covers arbitrary finite groups
through their complex character tables.
"""

from .char_table import (
    CharacterTable,
    ClassFunction,
    InvalidCharacterError,
    TableParseError,
    builtin_table,
    decompose,
    first_power_containing,
    inner_product,
    is_faithful,
    load_table,
    load_table_file,
    min_power_containing_regular,
    regular_character,
    regular_tensor_check,
    tensor_power_char,
)
from .growth import GrowthEstimate, GrowthSeries, estimate, fekete_check, nth_root_sequence
from .markov import (
    HypothesisViolationError,
    IntegerRingMap,
    RatioVector,
    TransitionMatrix,
    decay_rate,
    p_of_map,
    p_of_tensor_by,
    q_of,
)
from .modular_fusion import (
    FusionVector,
    basis_vector,
    fuse,
    fuse_basis,
    fusion_matrix,
    is_prime,
    jordan_oracle,
    tensor_power,
    ts,
    ts_series_modular,
)
from .partitions import (
    DualWeightResult,
    InvalidPartitionError,
    Partition,
    SlWeight,
    canonicalize,
    dual_weight,
    hook_syt_count,
    is_close_to_mean,
    weyl_dimension,
)
from .pieri import (
    Decomposition,
    MeanMassReport,
    mean_mass_report,
    tensor_power_decomposition,
    trivial_multiplicity,
    ts_series_sl,
)
from .torus import (
    BernsteinBound,
    InapplicableBoundError,
    bernstein_zero_bound,
    diagonal_zero_count,
    zero_weight_count,
    zero_weight_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinBound",
    "CharacterTable",
    "ClassFunction",
    "Decomposition",
    "DualWeightResult",
    "FusionVector",
    "GrowthEstimate",
    "GrowthSeries",
    "HypothesisViolationError",
    "InapplicableBoundError",
    "IntegerRingMap",
    "InvalidCharacterError",
    "InvalidPartitionError",
    "MeanMassReport",
    "Partition",
    "RatioVector",
    "SlWeight",
    "TableParseError",
    "TransitionMatrix",
    "basis_vector",
    "bernstein_zero_bound",
    "builtin_table",
    "canonicalize",
    "decay_rate",
    "decompose",
    "diagonal_zero_count",
    "dual_weight",
    "estimate",
    "fekete_check",
    "first_power_containing",
    "fuse",
    "fuse_basis",
    "fusion_matrix",
    "hook_syt_count",
    "inner_product",
    "is_close_to_mean",
    "is_faithful",
    "is_prime",
    "jordan_oracle",
    "load_table",
    "load_table_file",
    "mean_mass_report",
    "min_power_containing_regular",
    "nth_root_sequence",
    "p_of_map",
    "p_of_tensor_by",
    "q_of",
    "regular_character",
    "regular_tensor_check",
    "tensor_power",
    "tensor_power_char",
    "tensor_power_decomposition",
    "trivial_multiplicity",
    "ts",
    "ts_series_modular",
    "ts_series_sl",
    "weyl_dimension",
    "zero_weight_count",
    "zero_weight_probability",
]
