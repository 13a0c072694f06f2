"""Command-line front end.

Exit codes: 0 success, 1 computation-level failure (an oracle disagreement or
a failed identity check), 2 usage or input errors, 3 any other error (one
``error:`` line naming the exception type, no traceback), a stdout that
cannot be written (closed by ``| head``, or on a full disk) among them.
Output is deterministic: floats are printed with 12 significant digits,
rationals exactly.  Input that the library rejects raises ValueError there and
exits 2 here; the handlers check only the rules that exist on the command line
alone.
The ``--json`` params are the names each (sub)command declares in ``build_parser``
that were parsed or that its handler resolved, in declared order; a resolved value
(the weights as a list, the markov power, the first-power cap) replaces the parsed one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from ._exact import natural
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
    params: dict = field(default_factory=dict)  # resolved values of declared params


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _ladder_str(terms) -> str:
    """Join (index, multiplicity) pairs as 'V0 + 2*V3', skipping zeros."""
    parts = [f"V{i}" if c == 1 else f"{c}*V{i}" for i, c in terms if c]
    return " + ".join(parts) if parts else "0"


def _fusion_display(p: int, m: int, n: int, closed: FusionVector) -> str:
    """Render V_m (x) V_n in ascending index order, projectives first past p - 1.

    When m + n > p - 1, V_m (x) V_n holds m + n - p + 2 copies of the
    projective V_{p-1}, and they lead; the non-projective terms follow.  At
    m + n = p - 1 the one projective is the top of the ladder and prints last.
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
    return [f"{label} = {_matrix_str(result[key])}" for label, key, _ in matrices]


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
    if args.canonical:  # relabelling reorders: (4,1,1) precedes (3,3,0), its (3,0,0) follows
        items = [(canonicalize(lam).canonical, mult) for lam, mult in items]
        items.sort(key=lambda kv: kv[0].parts, reverse=True)
    rows = [[str(lam), mult] for lam, mult in items]
    return CommandResult(
        {"mults": dict(rows)},
        [f"{lam}: {mult}" for lam, mult in rows],
        [["partition", "multiplicity"]] + rows,
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
        if "power" in args:
            raise UsageError("--power goes only with --seed")
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
        return CommandResult(result, lines, exit_code=int(multiplicative))
    power = natural(getattr(args, "power", 1), "--power", 1)
    seed = _parse_seed(args.p, args.seed)
    tensor_by = IntegerRingMap(args.p, fusion_matrix(seed))
    one_step = p_of_map(tensor_by)
    powered = p_of_map(tensor_by**power)
    direct = p_of_tensor_by(tensor_power(seed, power))
    result = {"seed": list(seed.coeffs), "power": power}
    lines = _matrix_lines(
        [
            ("P(T)", "p_of_t", one_step),
            (f"P(T)^{power}", "p_of_t_power", powered),
            (f"P(T^{power})", "p_of_t_direct", direct),
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
    return CommandResult(result, lines, exit_code=int(not multiplicative), params={"power": power})


def _cmd_torus(args) -> CommandResult:
    if args.diagonal:
        if getattr(args, "m", 0) < 1:
            raise UsageError("--diagonal needs --m with m >= 1")
        count = diagonal_zero_count(args.m, args.n)
        return CommandResult({"count": count}, [f"count = {count}"])
    if "m" in args:
        raise UsageError("--m goes only with --diagonal")
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
    return CommandResult(result, lines, params={"weights": list(weights)})


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
        cap = table.group_order if args.max is None else args.max
        d = first_power_containing(table, chi, target, cap)
        line = f"no power up to {cap} contains {args.target}" if d is None else f"d = {d}"
        return CommandResult({"d": d}, [line], params={"max": cap})
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
    pieri.set_defaults(handler=_cmd_pieri, params=("m", "n", "canonical"))

    ts = sub.add_parser("ts", help="trivial-summand growth series")
    ts_modes = ts.add_subparsers(dest="mode", required=True)
    ts_sl = ts_modes.add_parser("sl", help="SL_m on its natural module")
    ts_sl.add_argument("--m", type=int, required=True)
    ts_sl.add_argument("--max", type=int, required=True, help="number of terms")
    _output_flags(ts_sl, with_csv=True)
    ts_sl.set_defaults(handler=_cmd_ts, params=("mode", "m", "max"))
    ts_mod = ts_modes.add_parser("modular", help="Z/pZ in characteristic p")
    ts_mod.add_argument("--p", type=int, required=True)
    ts_mod.add_argument("--seed", required=True, help="e.g. V1 or V0+2*V2")
    ts_mod.add_argument("--step", type=int, default=1)
    ts_mod.add_argument("--max", type=int, required=True, help="number of terms")
    _output_flags(ts_mod, with_csv=True)
    ts_mod.set_defaults(handler=_cmd_ts, params=("mode", "p", "seed", "step", "max"))

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
    fusion.set_defaults(handler=_cmd_fusion, params=("p", "m", "n", "oracle"))

    markov = sub.add_parser("markov", help="dimension-ratio transition matrices")
    markov_mode = markov.add_mutually_exclusive_group(required=True)
    markov.add_argument("--p", type=int, required=True)
    markov_mode.add_argument(
        "--seed", default=argparse.SUPPRESS, help="tensor by this fusion vector, e.g. V1"
    )
    markov_mode.add_argument(
        "--example",
        action="store_true",
        help="show the additive map where P fails to be multiplicative",
    )
    markov.add_argument("--power", type=int, default=argparse.SUPPRESS)  # default 1
    _output_flags(markov)
    markov.set_defaults(handler=_cmd_markov, params=("p", "seed", "power", "example"))

    torus = sub.add_parser("torus", help="zero-weight counts for torus actions")
    torus_mode = torus.add_mutually_exclusive_group(required=True)
    torus_mode.add_argument(
        "--weights", default=argparse.SUPPRESS, help="comma-separated integers, e.g. 2,-1"
    )
    torus_mode.add_argument(
        "--diagonal",
        action="store_true",
        help="full diagonal torus of SL_m on V^(x)(m*n)",
    )
    torus.add_argument("--n", type=int, required=True, help="tensor degree multiplier")
    torus.add_argument("--m", type=int, default=argparse.SUPPRESS, help="rank, for --diagonal")
    _output_flags(torus)
    torus.set_defaults(handler=_cmd_torus, params=("diagonal", "weights", "m", "n"))

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
        action.set_defaults(params=("table", "action", "irrep", *(f[2:] for f, _ in extra)))

    return parser


def _render(result: CommandResult, args: argparse.Namespace) -> None:
    if args.json:
        values = vars(args) | result.params
        params = {name: values[name] for name in args.params if name in values}
        print(json.dumps({"command": args.command, "params": params, "result": result.result}))
    elif getattr(args, "csv", False) and result.csv_rows is not None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(result.csv_rows)
    else:
        for line in result.lines:
            print(line)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Exact answers of any size print: CPython's int <-> str digit
    limit (absent before 3.10.7) is lifted while the command runs, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
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
    try:
        _render(result, args)
        sys.stdout.flush()
    except OSError as exc:  # stdout is gone: its reader closed it, or its disk is full
        _discard_stdout()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return result.exit_code


def _discard_stdout() -> None:
    """Point stdout's descriptor, if it has one, at os.devnull: the flush at exit cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
