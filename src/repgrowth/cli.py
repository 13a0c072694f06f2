"""Command-line front end.

Exit codes: 0 success, 1 computation-level failure (an oracle disagreement or
a failed identity check), 2 usage or input errors, 3 any other error (one
``error:`` line naming the exception type, no traceback).  Output is
deterministic: floats are printed with 12 significant digits, rationals
exactly.  Input that the library rejects raises ValueError there and exits 2
here; the handlers check only the rules that exist on the command line alone.
The ``--json`` params are the parsed arguments, except for ``torus`` and
``markov --example``.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .char_table import (
    decompose,
    first_power_containing,
    load_table_file,
    min_power_containing_regular,
    regular_tensor_check,
    tensor_power_char,
)
from .growth import estimate
from .markov import (
    HypothesisViolationError,
    IntegerRingMap,
    decay_rate,
    p_of_map,
    p_of_tensor_by,
)
from .modular_fusion import (
    FusionVector,
    fuse_basis,
    fusion_matrix,
    jordan_oracle,
    require_prime,
    tensor_power,
    ts_series_modular,
)
from .partitions import canonicalize
from .pieri import tensor_power_decomposition, ts_series_sl
from .torus import (
    InapplicableBoundError,
    bernstein_zero_bound,
    diagonal_zero_count,
    zero_weight_count,
)


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


@dataclass
class CommandResult:
    result: dict
    lines: list[str]
    csv_rows: list[list[object]] | None = None
    exit_code: int = 0
    params: dict | None = None  # JSON params, where they differ from the parsed arguments


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _ladder_str(terms) -> str:
    """Join (index, multiplicity) pairs as 'V0 + 2*V3', skipping zeros."""
    parts = [f"V{i}" if c == 1 else f"{c}*V{i}" for i, c in terms if c]
    return " + ".join(parts) if parts else "0"


def _fusion_display(p: int, m: int, n: int, closed: FusionVector) -> str:
    """Render V_m (x) V_n the way the closed-form rule derives it.

    Below the threshold the ladder prints in ascending index order.  Above it
    the split-off projective multiple closed.coeffs[p-1] leads, because the
    remainder ladder never reaches V_{p-1}, and the remainder follows.
    """
    terms = list(enumerate(closed.coeffs))
    if m + n > p - 1:
        terms.insert(0, terms.pop())
    return _ladder_str(terms)


def _matrix_str(rows) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in rows) + "]"


def _matrix_lines(matrices, result: dict) -> list[str]:
    """Text lines for (label, key, matrix) triples; each matrix also goes to result[key].

    In JSON, integer entries stay numbers and exact rationals become strings.
    """
    for _, key, matrix in matrices:
        result[key] = [[x if isinstance(x, int) else str(x) for x in row] for row in matrix.rows]
    return [f"{label} = {_matrix_str(matrix.rows)}" for label, _, matrix in matrices]


_SEED_TERM = re.compile(r"\s*(?:(\d+)\s*\*\s*)?V(\d+)\s*", re.ASCII)


def _parse_seed(p: int, text: str) -> FusionVector:
    """Parse seeds like 'V1', '2*V2', 'V0 + 3*V1': terms [count*]V<index> in ASCII digits."""
    require_prime(p)
    coeffs = [0] * p
    for term in text.split("+"):
        match = _SEED_TERM.fullmatch(term)
        if match is None:
            raise UsageError(f"malformed seed term {term.strip()!r}")
        index = int(match[2])
        if index >= p:
            raise UsageError(f"seed term {term.strip()!r} exceeds V{p - 1}")
        coeffs[index] += int(match[1] or 1)
    if not any(coeffs):
        raise UsageError(f"seed {text!r} is zero")
    return FusionVector(p, tuple(coeffs))


# --- command handlers ------------------------------------------------------


def _cmd_pieri(args) -> CommandResult:
    d = tensor_power_decomposition(args.m, args.n)
    items = list(d.mults.items())
    if args.canonical:  # only relabels: two partitions of n never differ by c * (1, ..., 1)
        items = [(canonicalize(lam).canonical, mult) for lam, mult in items]
        items.sort(key=lambda kv: kv[0].parts, reverse=True)
    return CommandResult(
        {"mults": {str(lam): mult for lam, mult in items}},
        [f"{lam}: {mult}" for lam, mult in items],
        [["partition", "multiplicity"]] + [[str(lam), mult] for lam, mult in items],
    )


def _cmd_ts(args) -> CommandResult:
    if args.mode == "sl":
        series = ts_series_sl(args.m, args.max)
    else:
        series = ts_series_modular(_parse_seed(args.p, args.seed), args.step, args.max)
    est = estimate(series)
    rows = [
        [k, series.step * k, a, _fmt_float(r)]
        for k, (a, r) in enumerate(zip(series.values, est.roots), start=1)
    ]
    lines = [f"k={k} n={n} ts={a} root={r}" for k, n, a, r in rows]
    fekete = "true" if est.fekete_ok else "false"
    lines.append(
        f"lower={_fmt_float(est.lower)} upper={_fmt_float(est.upper)} fekete_ok={fekete}"
    )
    result = {
        "step": series.step,
        "dim_v": series.dim_v,
        "values": list(series.values),
        "nth_roots": list(est.roots),
        "estimate": {"lower": est.lower, "upper": est.upper, "fekete_ok": est.fekete_ok},
    }
    return CommandResult(result, lines, [["k", "n", "ts", "nth_root"]] + rows)


def _cmd_fusion(args) -> CommandResult:
    closed = fuse_basis(args.p, args.m, args.n)
    display = _fusion_display(args.p, args.m, args.n, closed)
    result = {"decomposition": list(closed.coeffs), "display": display}
    if not args.oracle:
        return CommandResult(result, [display])
    oracle = jordan_oracle(args.p, args.m, args.n)
    result.update(oracle=list(oracle.coeffs), agree=oracle == closed)
    if oracle == closed:
        return CommandResult(result, [f"{display} | AGREE"])
    disagree = f"{display} != {_ladder_str(enumerate(oracle.coeffs))} | DISAGREE"
    return CommandResult(result, [disagree], exit_code=1)


def _cmd_markov(args) -> CommandResult:
    if args.example:
        if args.p != 2:
            raise UsageError("the worked non-multiplicativity example needs --p 2")
        s = IntegerRingMap(2, ((2, 1), (0, 1)))
        s2 = s.compose(s)
        p_s, p_s2 = p_of_map(s), p_of_map(s2)
        p_s_sq = p_s @ p_s
        result: dict = {}
        lines = _matrix_lines(
            [
                ("[S]", "s", s),
                ("[S^2]", "s_squared", s2),
                ("P(S)", "p_of_s", p_s),
                ("P(S^2)", "p_of_s_squared", p_s2),
                ("P(S)^2", "p_of_s_power_2", p_s_sq),
            ],
            result,
        )
        multiplicative = p_s_sq == p_s2
        result["multiplicative"] = multiplicative
        if multiplicative:
            lines.append("unexpected: P(S^2) == P(S)^2")
        else:
            lines.append("P(S^2) != P(S)^2: P is not multiplicative for this map")
        example = {"p": 2, "example": True}
        return CommandResult(result, lines, exit_code=1 if multiplicative else 0, params=example)
    if args.power < 1:
        raise UsageError(f"--power must be at least 1, got {args.power}")
    seed = _parse_seed(args.p, args.seed)
    tensor_by = IntegerRingMap(args.p, fusion_matrix(seed))
    one_step = p_of_map(tensor_by)
    powered = p_of_map(tensor_by**args.power)
    direct = p_of_tensor_by(tensor_power(seed, args.power))
    result = {"seed": list(seed.coeffs), "power": args.power}
    lines = _matrix_lines(
        [
            ("P(T)", "p_of_t", one_step),
            (f"P(T)^{args.power}", "p_of_t_power", powered),
            (f"P(T^{args.power})", "p_of_t_direct", direct),
        ],
        result,
    )
    multiplicative = powered == direct
    result["multiplicative"] = multiplicative
    lines.append(f"multiplicative: {'ok' if multiplicative else 'FAIL'}")
    try:
        rate = decay_rate(seed)
        lines.append(f"decay_rate = {rate}")
        result["decay_rate"] = str(rate)
    except HypothesisViolationError as exc:
        lines.append(f"decay_rate: unavailable ({exc})")
        result["decay_rate"] = None
    return CommandResult(result, lines, exit_code=0 if multiplicative else 1)


def _cmd_torus(args) -> CommandResult:
    if args.diagonal:
        if args.m is None or args.m < 1:
            raise UsageError("--diagonal needs --m with m >= 1")
        count = diagonal_zero_count(args.m, args.n)
        params = {"diagonal": True, "m": args.m, "n": args.n}
        return CommandResult({"count": count}, [f"count = {count}"], params=params)
    try:
        weights = tuple(int(token) for token in args.weights.split(","))
    except ValueError:
        raise UsageError(f"malformed weights {args.weights!r}") from None
    count = zero_weight_count(weights, args.n)
    probability = Fraction(count, len(weights) ** args.n)
    lines = [f"count = {count}", f"probability = {probability}"]
    result = {"count": count, "probability": str(probability)}
    try:
        bound = bernstein_zero_bound(weights, args.n)
        inputs = {name: str(getattr(bound, name)) for name in ("t", "v", "b")}
        shown = ", ".join(f"{name}={value}" for name, value in inputs.items())
        lines.append(f"bound = {_fmt_float(bound.value)} ({shown})")
        result.update(bound=bound.value, bound_inputs=inputs)
    except InapplicableBoundError as exc:
        lines.append(f"bound: unavailable ({exc})")
        result["bound"] = None
    params = {"diagonal": False, "weights": list(weights), "n": args.n}
    return CommandResult(result, lines, params=params)


def _cmd_chartab(args) -> CommandResult:
    table = load_table_file(args.table)
    index = table.irrep_index(args.irrep)
    chi = table.irreps[index]
    if args.action == "decompose":
        mults = decompose(table, tensor_power_char(chi, args.power))
        return CommandResult(
            {"mults": dict(zip(table.irrep_names, mults))},
            [f"{name}: {m}" for name, m in zip(table.irrep_names, mults)],
        )
    if args.action == "first-power":
        target = table.irrep_index(args.target)
        if args.max is None:
            args.max = table.group_order
        d = first_power_containing(table, chi, target, args.max)
        if d is None:
            return CommandResult({"d": d}, [f"no power up to {args.max} contains {args.target}"])
        return CommandResult({"d": d}, [f"d = {d}"])
    if args.action == "regular-check":
        ok = regular_tensor_check(table, chi)
        degree = table.degree(index)
        lines = (
            [f"OK: {args.irrep} (x) Regular = {degree} * Regular, TS={degree}"]
            if ok
            else [f"FAIL: {args.irrep} (x) Regular != {degree} * Regular"]
        )
        return CommandResult({"ok": ok, "degree": degree}, lines, exit_code=0 if ok else 1)
    # min-regular
    try:
        n = min_power_containing_regular(table, chi, args.max)
    except (LookupError, ArithmeticError) as exc:
        return CommandResult({"n": None}, [str(exc)], exit_code=1)
    return CommandResult({"n": n}, [f"N = {n}"])


# --- parser and dispatch ---------------------------------------------------


def _output_flags(parser: argparse.ArgumentParser, with_csv: bool = False) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit one JSON object")
    if with_csv:
        group.add_argument("--csv", action="store_true", help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgrowth",
        description="Exact tensor-power decompositions and trivial-summand growth rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pieri = sub.add_parser("pieri", help="decompose V^(x)n for SL_m")
    pieri.add_argument("--m", type=int, required=True, help="rank: V has dimension m")
    pieri.add_argument("--n", type=int, required=True, help="tensor degree")
    pieri.add_argument(
        "--canonical", action="store_true", help="merge summands into SL_m weight classes"
    )
    _output_flags(pieri, with_csv=True)
    pieri.set_defaults(handler=_cmd_pieri)

    ts = sub.add_parser("ts", help="trivial-summand growth series")
    ts.set_defaults(handler=_cmd_ts)
    ts_modes = ts.add_subparsers(dest="mode", required=True)
    ts_sl = ts_modes.add_parser("sl", help="SL_m on its natural module")
    ts_sl.add_argument("--m", type=int, required=True)
    ts_sl.add_argument("--max", type=int, required=True, help="number of terms")
    _output_flags(ts_sl, with_csv=True)
    ts_mod = ts_modes.add_parser("modular", help="Z/pZ in characteristic p")
    ts_mod.add_argument("--p", type=int, required=True)
    ts_mod.add_argument("--seed", required=True, help="e.g. V1 or V0+2*V2")
    ts_mod.add_argument("--step", type=int, default=1)
    ts_mod.add_argument("--max", type=int, required=True, help="number of terms")
    _output_flags(ts_mod, with_csv=True)

    fusion = sub.add_parser("fusion", help="decompose V_m (x) V_n over Z/pZ, char p")
    fusion.add_argument("--p", type=int, required=True)
    fusion.add_argument("m", type=int)
    fusion.add_argument("n", type=int)
    fusion.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against Jordan form ranks over F_p",
    )
    _output_flags(fusion)
    fusion.set_defaults(handler=_cmd_fusion)

    markov = sub.add_parser("markov", help="dimension-ratio transition matrices")
    markov_mode = markov.add_mutually_exclusive_group(required=True)
    markov.add_argument("--p", type=int, required=True)
    markov_mode.add_argument("--seed", help="tensor by this fusion vector, e.g. V1")
    markov.add_argument("--power", type=int, default=1)
    markov_mode.add_argument(
        "--example",
        action="store_true",
        help="show the additive map where P fails to be multiplicative",
    )
    _output_flags(markov)
    markov.set_defaults(handler=_cmd_markov)

    torus = sub.add_parser("torus", help="zero-weight counts for torus actions")
    torus_mode = torus.add_mutually_exclusive_group(required=True)
    torus_mode.add_argument("--weights", help="comma-separated integers, e.g. 2,-1")
    torus.add_argument("--n", type=int, required=True, help="tensor degree multiplier")
    torus_mode.add_argument(
        "--diagonal",
        action="store_true",
        help="full diagonal torus of SL_m on V^(x)(m*n)",
    )
    torus.add_argument("--m", type=int, help="rank, for --diagonal")
    _output_flags(torus)
    torus.set_defaults(handler=_cmd_torus)

    chartab = sub.add_parser("chartab", help="finite-group character table queries")
    chartab.add_argument("table", help="path to a character table file")
    chartab.set_defaults(handler=_cmd_chartab)
    actions = chartab.add_subparsers(dest="action", required=True)
    power = ("--power", {"type": int, "default": 1})
    target = ("--target", {"required": True})
    cap = ("--max", {"type": int, "help": "search cap (default: group order)"})
    for name, help_text, extra in (
        ("decompose", "decompose a tensor power of an irrep", [power]),
        ("first-power", "least d with target inside irrep**d", [target, cap]),
        ("regular-check", "verify V (x) Regular = deg * Regular", []),
        ("min-regular", "least N with Regular inside (1+V)**N", [cap]),
    ):
        action = actions.add_parser(name, help=help_text)
        action.add_argument("--irrep", required=True)
        for flag, options in extra:
            action.add_argument(flag, **options)
        _output_flags(action)

    return parser


# Namespace entries that are not parameters; the rest print in the order build_parser adds them.
_NOT_PARAMS = ("command", "handler", "json", "csv")


def _render(result: CommandResult, args: argparse.Namespace) -> None:
    if args.json:
        params = result.params
        if params is None:
            params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        print(json.dumps({"command": args.command, "params": params, "result": result.result}))
    elif getattr(args, "csv", False) and result.csv_rows is not None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(result.csv_rows)
    else:
        for line in result.lines:
            print(line)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _render(result, args)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
