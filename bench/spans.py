"""Spans and counters around calls into each repgrowth module, from outside it.

``Tracer.install`` replaces the public functions of the eight modules with
wrappers, both in the module that defines them and wherever another
repgrowth module imported them by name (``cli`` and ``markov`` do).  A span
records (name, start, end, parent, job); the spans stay in memory and are
exported once, when the pass ends.  Functions called per element
(``is_prime``, ``Partition`` construction, ``inner_product``) get count-only
wrappers, and the ``fuse_basis`` cache is read through ``cache_info()``, so
tracing does not wrap the hottest calls in spans.

``layer_metrics`` turns one exported pass into the per-layer numbers: a
module's self time is the time inside its spans not covered by child spans.
Counts marked "computed" are derived from recorded call inputs, not
observed inside the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
from math import gcd
from time import perf_counter

MODULES = (
    "cli", "pieri", "partitions", "growth", "torus", "char_table", "modular_fusion", "markov",
)

# Public functions and methods that get a span, per module.
SPANNED = {
    "cli": ["main"],
    "pieri": [
        "tensor_power_decomposition", "pieri_step", "trivial_multiplicity", "ts_series_sl",
        "mean_mass_report", "Decomposition.__post_init__",
    ],
    "partitions": [
        "canonicalize", "weyl_dimension", "dual_weight", "is_close_to_mean", "hook_syt_count",
    ],
    "growth": ["nth_root_sequence", "fekete_check", "estimate", "GrowthSeries.__post_init__"],
    "torus": [
        "zero_weight_count", "zero_weight_probability", "bernstein_zero_bound",
        "diagonal_zero_count",
    ],
    "char_table": [
        "tensor_power_char", "decompose", "is_faithful", "first_power_containing",
        "regular_character", "regular_tensor_check", "min_power_containing_regular",
        "builtin_table", "load_table", "load_table_file", "CharacterTable.__post_init__",
    ],
    "modular_fusion": [
        "basis_vector", "fuse", "tensor_power", "ts", "ts_series_modular", "jordan_oracle",
    ],
    "markov": [
        "q_of", "p_of_map", "p_of_tensor_by", "decay_rate", "identity_matrix",
        "TransitionMatrix.__matmul__", "TransitionMatrix.__pow__", "TransitionMatrix.apply",
        "IntegerRingMap.compose",
    ],
}

# Per-element functions: counted, never spanned.
COUNTED = {
    "modular_fusion": ["is_prime"],
    "partitions": ["Partition.__post_init__"],
    "char_table": ["inner_product"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.dp_inputs: list[tuple[list[int], int]] = []
        self.fekete_failures: list[list[int]] = []
        self.job = -1
        self._cache = None
        self._cache_start = (0, 0)

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _after(self, name: str):
        """Cheap bookkeeping run after a span closes; heavy derivations wait for export."""
        if name == "pieri.pieri_step":
            return lambda args, result: self._add("pieri.states_total", len(result.mults))
        if name == "torus.zero_weight_count":
            return lambda args, result: self.dp_inputs.append((list(args[0]), args[1]))
        if name == "modular_fusion.jordan_oracle":
            return lambda args, result: self._add(
                "modular_fusion.oracle_cells", ((args[1] + 1) * (args[2] + 1)) ** 2
            )
        if name == "growth.fekete_check":
            return self._fekete
        return None

    def _fekete(self, args, result) -> None:
        length = len(args[0].values)
        if result:
            self._add("growth.fekete_pairs", length * (length - 1) // 2)
        else:
            self.fekete_failures.append(list(args[0].values))

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; absent names are skipped."""
        modules = {name: importlib.import_module(f"repgrowth.{name}") for name in MODULES}
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "repgrowth"]
        for kinds, make in ((SPANNED, "span"), (COUNTED, "count")):
            for module_name, attributes in kinds.items():
                module = modules[module_name]
                for path in attributes:
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = getattr(owner, attr, None)
                    if original is None:
                        continue
                    label = _label(module_name, path)
                    if make == "span":
                        wrapped = self._spanned(label, original, self._after(label))
                    else:
                        wrapped = self._counted(label, original)
                    setattr(owner, attr, wrapped)
                    if not owner_name:
                        for other in loaded:
                            if getattr(other, attr, None) is original:
                                setattr(other, attr, wrapped)
        self._cache = getattr(modules["modular_fusion"].fuse_basis, "cache_info", None)
        self._cache_start = self._cache_counts()

    def _cache_counts(self) -> tuple[int, int]:
        if self._cache is None:
            return (0, 0)
        info = self._cache()
        return (info.hits, info.misses)

    def export(self) -> dict:
        hits, misses = self._cache_counts()
        return {
            "spans": self.spans,
            "counts": self.counts,
            "dp_inputs": self.dp_inputs,
            "fekete_failures": self.fekete_failures,
            "fuse_basis": [hits - self._cache_start[0], misses - self._cache_start[1]],
        }


def _label(module: str, path: str) -> str:
    if path == "CharacterTable.__post_init__":
        return "char_table.validate"
    if path == "Partition.__post_init__":
        return "partitions.partition_inits"
    return f"{module}.{path}"


# --- derivation --------------------------------------------------------------


def dp_cell_updates(weights: list[int], n: int) -> int:
    """Inner-loop steps of the zero-weight DP: sum over i < n of |S_i| * m.

    S_i, the set of sums of i weights, is computed explicitly until
    Nathanson's bound h0 = (k-2)(a-1)a + 1 for the normalised k-element set
    with largest element a; from there on |S_i| grows by exactly a per step.
    """
    low = min(weights)
    shifted = sorted({k - low for k in weights})
    g = 0
    for x in shifted:
        g = gcd(g, x)
    if g == 0 or n == 0:
        return n * len(weights)
    a = [x // g for x in shifted]
    top = a[-1]
    h0 = (len(a) - 2) * (top - 1) * top + 1
    sizes, support = [], {0}
    for _ in range(min(n, h0 + 1)):
        sizes.append(len(support))
        support = {s + x for s in support for x in a}
    rest = n - len(sizes)
    total = sum(sizes) + rest * sizes[-1] + top * rest * (rest + 1) // 2
    return total * len(weights)


def _fekete_pairs(values: list[int]) -> int:
    """Pairs fekete_check compares before it finds the first violation."""
    pairs = 0
    for l in range(1, len(values) + 1):
        for k in range(1, len(values) + 1 - l):
            pairs += 1
            if values[l + k - 1] < values[l - 1] * values[k - 1]:
                return pairs
    return pairs


def layer_metrics(export: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans = export["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = dict.fromkeys(MODULES, 0.0)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _parent, _job), inner in zip(spans, covered):
        self_s[name.split(".")[0]] += end - start - inner
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    counts = export["counts"]
    hits, misses = export["fuse_basis"]
    metrics = {f"{module}.self_s": self_s[module] for module in MODULES}
    metrics.update(
        {
            "pieri.step_calls": calls.get("pieri.pieri_step", 0),
            "pieri.states_total": counts.get("pieri.states_total", 0),
            "partitions.partition_inits": counts.get("partitions.partition_inits", 0),
            "growth.fekete_pairs": counts.get("growth.fekete_pairs", 0)
            + sum(_fekete_pairs(v) for v in export["fekete_failures"]),
            "torus.dp_calls": calls.get("torus.zero_weight_count", 0),
            "torus.dp_cell_updates": sum(dp_cell_updates(w, n) for w, n in export["dp_inputs"]),
            "char_table.validate_s": inclusive.get("char_table.validate", 0.0),
            "char_table.inner_products": counts.get("char_table.inner_product", 0),
            "char_table.decompose_calls": calls.get("char_table.decompose", 0),
            "modular_fusion.oracle_s": inclusive.get("modular_fusion.jordan_oracle", 0.0),
            "modular_fusion.oracle_cells": counts.get("modular_fusion.oracle_cells", 0),
            "modular_fusion.fuse_s": inclusive.get("modular_fusion.fuse", 0.0),
            "modular_fusion.fuse_calls": calls.get("modular_fusion.fuse", 0),
            "modular_fusion.fuse_basis_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "modular_fusion.is_prime_calls": counts.get("modular_fusion.is_prime", 0),
            "markov.matmul_calls": calls.get("markov.TransitionMatrix.__matmul__", 0)
            + calls.get("markov.IntegerRingMap.compose", 0),
        }
    )
    return metrics
