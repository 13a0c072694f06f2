"""The benchmark's workloads: seeded lists of distinct CLI jobs with exact checks.

Each job is one ``repgrowth`` command line plus a check that parses what the
command printed and compares every value with a reference from
``reference.py``.  The seed shuffles the job order and picks variants from
families whose members cost the same (weight vectors that are permutations
or negations of each other, fusion seeds with the same dimension and block
shape, irreducibles of equal degree or answer).  No job repeats within a
list, so no cross-call cache can turn a repeat into a hit.

Why these workloads:

* ``series`` -- trivial-summand counts and series only, the uses a closed
  form (rectangle SYT counts, grouped torus multinomials, a fusion
  matrix-vector step, exact character sums) can short-circuit.
* ``structure`` -- full decompositions on the same layers (Pieri sweeps,
  torus weights with four or more distinct values, exact transition
  matrices, large generated character tables), which no closed form
  removes; a change that speeds ``series`` by costing these shows here.
* ``oracle`` -- exhaustive Jordan-block oracle sweeps, the largest single
  cost, kept apart so its speed-up cannot hide changes elsewhere.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref


class Mismatch(Exception):
    """A printed value differs from the reference."""


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], None] = field(repr=False)
    known_defect: str | None = None


# s4 decompose at these powers rounds exact multiplicities through complex
# floats and prints wrong integers; the jobs stay in and count as failed.
S4_ROUNDING = "decompose rounds exact Fraction multiplicities through complex floats"


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 40 else f"{text[:20]}...({len(text)} digits)"


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _result(out: str, command: str) -> dict:
    payload = json.loads(out)
    _expect(payload.get("command") == command, f"JSON command is {payload.get('command')!r}")
    return payload["result"]


def _matrix(text: str) -> list[list[Fraction]]:
    _expect(text.startswith("[[") and text.endswith("]]"), f"not a matrix: {text[:40]!r}")
    return [[Fraction(x) for x in row.split(",")] for row in text[2:-2].split("],[")]


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _lines(out: str, count: int) -> list[str]:
    lines = out.splitlines()
    _expect(len(lines) == count, f"{len(lines)} lines, expected {count}")
    return lines


# --- checks ------------------------------------------------------------------


def _series_rows(want: dict, rows: list[tuple[str, str, str, str]]) -> None:
    values = want["values"]
    _expect(len(rows) == len(values), f"{len(rows)} terms, expected {len(values)}")
    for k, (row, value, root) in enumerate(zip(rows, values, want["roots"]), start=1):
        _expect(
            (int(row[0]), int(row[1])) == (k, want["step"] * k), f"term {k} labelled {row[:2]}"
        )
        _expect(int(row[2]) == value, f"ts at k={k} is {_short(row[2])}, expected {_short(value)}")
        _expect(_close(float(row[3]), root), f"root at k={k} is {row[3]}, expected {root!r}")


def check_ts(want: dict, fmt: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        if fmt == "json":
            result = _result(out, "ts")
            rows = [
                (k, want["step"] * k, a, r)
                for k, (a, r) in enumerate(zip(result["values"], result["nth_roots"]), start=1)
            ]
            estimate = result["estimate"]
            tail = (estimate["lower"], estimate["upper"], estimate["fekete_ok"])
        elif fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            _expect(table[0] == ["k", "n", "ts", "nth_root"], f"CSV header {table[0]}")
            rows, tail = table[1:], None
        else:
            lines = out.splitlines()
            pattern = re.compile(r"k=(\d+) n=(\d+) ts=(\d+) root=(\S+)")
            rows = [pattern.fullmatch(line).groups() for line in lines[:-1]]
            match = re.fullmatch(r"lower=(\S+) upper=(\S+) fekete_ok=(true|false)", lines[-1])
            lower, upper, fekete = match.groups()
            tail = (float(lower), float(upper), fekete == "true")
        _series_rows(want, rows)
        if tail is not None:
            _expect(_close(float(tail[0]), want["lower"]), f"lower bound {tail[0]}")
            _expect(_close(float(tail[1]), want["upper"]), f"upper bound {tail[1]}")
            _expect(tail[2] == want["fekete_ok"], f"fekete_ok {tail[2]}")

    return check


def _partition(text: str, m: int) -> tuple[int, ...]:
    _expect(text.startswith("(") and text.endswith(")"), f"not a partition: {text!r}")
    parts = tuple(int(x) for x in text[1:-1].split(",") if x)
    return parts + (0,) * (m - len(parts))


def check_pieri(want: list, m: int, fmt: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        if fmt == "json":
            items = list(_result(out, "pieri")["mults"].items())
        elif fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            _expect(table[0] == ["partition", "multiplicity"], f"CSV header {table[0]}")
            items = table[1:]
        else:
            items = [line.rsplit(": ", 1) for line in out.splitlines()]
        got = [(_partition(lam, m), int(mult)) for lam, mult in items]
        _expect(len(got) == len(want), f"{len(got)} summands, expected {len(want)}")
        for g, w in zip(got, want):
            _expect(g == w, f"summand {g}, expected {w}")

    return check


def check_torus(want: dict, fmt: str) -> Callable[[str], None]:
    bound = want["bound"]

    def check(out: str) -> None:
        if fmt == "json":
            result = _result(out, "torus")
            count, probability = result["count"], result["probability"]
            if bound is None:
                _expect(result["bound"] is None, "bound should be unavailable")
            else:
                inputs = result["bound_inputs"]
                got = (result["bound"], inputs["t"], inputs["v"], inputs["b"])
        else:
            lines = _lines(out, 3)
            count = lines[0].removeprefix("count = ")
            probability = lines[1].removeprefix("probability = ")
            if bound is None:
                _expect(lines[2].startswith("bound: unavailable ("), f"bound line {lines[2]!r}")
            else:
                match = re.fullmatch(r"bound = (\S+) \(t=(\S+), v=(\S+), b=(\S+)\)", lines[2])
                _expect(match is not None, f"bound line {lines[2]!r}")
                got = match.groups()
        _expect(
            int(count) == want["count"], f"count {_short(count)}, expected {_short(want['count'])}"
        )
        _expect(Fraction(probability) == want["probability"], f"probability {probability}")
        if bound is not None:
            _expect(_close(float(got[0]), bound["value"]), f"bound value {got[0]}")
            for name, text in zip("tvb", got[1:]):
                _expect(Fraction(text) == bound[name], f"bound input {name}={text}")

    return check


def check_lines(want: list[str]) -> Callable[[str], None]:
    def check(out: str) -> None:
        got = out.splitlines()
        _expect(got == want, f"printed {got[:3]}, expected {want[:3]}")

    return check


def _ladder_terms(display: str, p: int) -> tuple[int, ...]:
    coeffs = [0] * p
    for term in display.split(" + "):
        count, _, index = term.rpartition("*")
        _expect(index.startswith("V"), f"term {term!r}")
        i = int(index[1:])
        _expect(coeffs[i] == 0, f"V{i} printed twice")
        coeffs[i] = int(count) if count else 1
    return tuple(coeffs)


def check_fusion(p: int, m: int, n: int, oracle: bool, fmt: str) -> Callable[[str], None]:
    want = ref.ladder(p, m, n)

    def check(out: str) -> None:
        if fmt == "json":
            result = _result(out, "fusion")
            _expect(tuple(result["decomposition"]) == want, f"decomposition {result}")
            display = result["display"]
            if oracle:
                _expect(tuple(result["oracle"]) == want and result["agree"] is True, "oracle")
        else:
            display = _lines(out, 1)[0]
            if oracle:
                _expect(display.endswith(" | AGREE"), f"oracle verdict in {display!r}")
                display = display.removesuffix(" | AGREE")
        got = _ladder_terms(display, p)
        _expect(got == want, f"V{m} (x) V{n} printed {display!r}, expected {want}")

    return check


def check_markov(want: dict, power: int, fmt: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        if fmt == "json":
            result = _result(out, "markov")
            matrices = [
                _fractions(result[key]) for key in ("p_of_t", "p_of_t_power", "p_of_t_direct")
            ]
            multiplicative = result["multiplicative"] is True
            rate = result["decay_rate"]
        else:
            lines = _lines(out, 5)
            labels = ("P(T) = ", f"P(T)^{power} = ", f"P(T^{power}) = ")
            for line, label in zip(lines, labels):
                _expect(line.startswith(label), f"line {line[:20]!r}")
            matrices = [_matrix(line.split(" = ", 1)[1]) for line in lines[:3]]
            multiplicative = lines[3] == "multiplicative: ok"
            available = lines[4].startswith("decay_rate = ")
            rate = lines[4].removeprefix("decay_rate = ") if available else None
        for got, key in zip(matrices, ("p_of_t", "power", "direct")):
            _expect(got == want[key], f"matrix {key} differs")
        _expect(multiplicative, "multiplicativity check failed")
        expected = want["decay_rate"]
        _expect(
            (rate is None and expected is None) or Fraction(rate) == expected,
            f"decay rate {rate}, expected {expected}",
        )

    return check


def check_example(want: dict) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = _lines(out, 6)
        labels = ("[S] = ", "[S^2] = ", "P(S) = ", "P(S^2) = ", "P(S)^2 = ")
        for line, label, key in zip(lines, labels, ("s", "s2", "p_s", "p_s2", "p_s_sq")):
            _expect(line.startswith(label), f"line {line[:20]!r}")
            _expect(_matrix(line[len(label):]) == want[key], f"{label.strip(' =')} differs")
        _expect(
            lines[5] == "P(S^2) != P(S)^2: P is not multiplicative for this map",
            f"verdict {lines[5]!r}",
        )

    return check


# --- job families --------------------------------------------------------------


def _fmt_flag(fmt: str) -> list[str]:
    return [] if fmt == "text" else [f"--{fmt}"]


def ts_sl(m: int, max_k: int, fmt: str = "text") -> Job:
    argv = ["ts", "sl", "--m", str(m), "--max", str(max_k)] + _fmt_flag(fmt)
    want = ref.growth_reference(ref.rectangle_series(m, max_k), m, m)
    return Job(" ".join(argv), argv, check_ts(want, fmt))


def ts_modular(p: int, seed: str, step: int, max_k: int) -> Job:
    argv = ["ts", "modular", "--p", str(p), "--seed", seed, "--step", str(step)]
    argv += ["--max", str(max_k)]
    w = _seed_vector(p, seed)
    want = ref.growth_reference(ref.modular_series(w, step, max_k), step, ref.dimension(w))
    return Job(" ".join(argv), argv, check_ts(want, "text"))


def _seed_vector(p: int, seed: str) -> tuple[int, ...]:
    coeffs = [0] * p
    for term in seed.split("+"):
        count, _, index = term.rpartition("*")
        coeffs[int(index.removeprefix("V"))] += int(count) if count else 1
    return tuple(coeffs)


def torus(weights: tuple[int, ...], n: int, fmt: str = "text") -> Job:
    text = ",".join(map(str, weights))
    # A leading minus sign would read as an option, so such lists use --weights=.
    flag = [f"--weights={text}"] if weights[0] < 0 else ["--weights", text]
    argv = ["torus", *flag, "--n", str(n)] + _fmt_flag(fmt)
    return Job(" ".join(argv), argv, check_torus(ref.torus_reference(weights, n), fmt))


def torus_diagonal(m: int, n: int) -> Job:
    argv = ["torus", "--diagonal", "--m", str(m), "--n", str(n)]
    return Job(" ".join(argv), argv, check_lines([f"count = {ref.diagonal_reference(m, n)}"]))


def pieri(m: int, n: int, fmt: str = "text") -> Job:
    flags = {"text": [], "canonical": ["--canonical"], "csv": ["--csv"], "json": ["--json"]}
    argv = ["pieri", "--m", str(m), "--n", str(n)] + flags[fmt]
    want = ref.pieri_reference(m, n, canonical=fmt == "canonical")
    return Job(" ".join(argv), argv, check_pieri(want, m, fmt))


def fusion(p: int, m: int, n: int, oracle: bool = False, fmt: str = "text") -> Job:
    argv = ["fusion", "--p", str(p), str(m), str(n)]
    argv += (["--oracle"] if oracle else []) + _fmt_flag(fmt)
    return Job(" ".join(argv), argv, check_fusion(p, m, n, oracle, fmt))


def markov(p: int, seed: str, power: int, fmt: str = "text") -> Job:
    argv = ["markov", "--p", str(p), "--seed", seed, "--power", str(power)] + _fmt_flag(fmt)
    want = ref.markov_reference(_seed_vector(p, seed), power)
    return Job(" ".join(argv), argv, check_markov(want, power, fmt))


def markov_example() -> Job:
    argv = ["markov", "--p", "2", "--example"]
    return Job(" ".join(argv), argv, check_example(ref.ring_map_example()))


class Tables:
    """Writes the reference tables as files for the program to load."""

    def __init__(self, directory: Path):
        self.directory = directory

    def chartab(self, name: str, table: ref.Table, *rest: str, check, defect=None) -> Job:
        path = self.directory / f"{name}.tbl"
        if not path.exists():
            path.write_text(table.text(), encoding="utf-8")
        return Job(f"chartab {name}.tbl {' '.join(rest)}", ["chartab", str(path), *rest],
                   check, defect)

    def decompose(self, name: str, table: ref.Table, irrep: str, power: int, defect=None):
        mults = table.decompose(table.power(irrep, power))
        want = [f"{n}: {m}" for n, m in zip(table.names, mults)]
        return self.chartab(name, table, "decompose", "--irrep", irrep, "--power", str(power),
                            check=check_lines(want), defect=defect)

    def first_power(self, name: str, table: ref.Table, irrep: str, target: str):
        d = table.first_power(irrep, target, table.order)
        return self.chartab(name, table, "first-power", "--irrep", irrep, "--target", target,
                            check=check_lines([f"d = {d}"]))

    def regular_check(self, name: str, table: ref.Table, irrep: str):
        deg = table.degree(irrep)
        return self.chartab(name, table, "regular-check", "--irrep", irrep,
                            check=check_lines([f"OK: {irrep} (x) Regular = {deg} * Regular, TS={deg}"]))

    def min_regular(self, name: str, table: ref.Table, irrep: str):
        n = table.min_regular(irrep, table.order)
        return self.chartab(name, table, "min-regular", "--irrep", irrep,
                            check=check_lines([f"N = {n}"]))


def _arrangement(rng: random.Random, weights: tuple[int, ...]) -> tuple[int, ...]:
    """A seeded permutation, possibly negated: same DP support, same cost."""
    chosen = list(weights)
    rng.shuffle(chosen)
    sign = rng.choice((1, -1))
    return tuple(sign * k for k in chosen)


def series(rng: random.Random, tables: Tables) -> list[Job]:
    z4 = ref.z4_table()
    return [
        ts_sl(2, 300), ts_sl(3, 40), ts_sl(4, 15), ts_sl(5, 8),
        torus(_arrangement(rng, (3, -1, -1)), 1500),
        torus(_arrangement(rng, (2, -1)), 1500),
        ts_modular(53, rng.choice(("V2+V5", "V3+V4", "V1+V6")), 2, 200),
        ts_modular(101, "V1", 1, 400),
        tables.decompose("s4", ref.S4, "std", 40, defect=S4_ROUNDING),
        tables.decompose("s4", ref.S4, "std", 60, defect=S4_ROUNDING),
        tables.decompose("z4", z4, rng.choice(("chi1", "chi3")), 30),
        tables.min_regular("s4", ref.S4, rng.choice(("std", "stdsign"))),
        tables.first_power("s4", ref.S4, rng.choice(("std", "stdsign")), "sign"),
        # The documented commands of these kinds.
        ts_sl(2, 12), ts_sl(3, 6, "csv"), ts_sl(2, 6, "json"),
        ts_modular(3, "V1", 2, 6), ts_modular(2, "V1", 1, 3),
        fusion(3, 1, 1), fusion(7, 0, 4), fusion(5, 2, 3, fmt="json"),
        torus((2, -1), 3), torus((1, -1), 4), torus_diagonal(3, 2),
        torus((2, -1), 30, "json"),
        tables.decompose("s3", ref.S3, "std", 2),
        tables.first_power("s3", ref.S3, "std", "sign"),
        tables.regular_check("s3", ref.S3, "std"),
        tables.min_regular("s3", ref.S3, "std"),
    ]


# Pairs (irreducible, target) of S_10 whose first containing power is 4, so
# every choice runs the same number of full decompositions.
_S10_FIRST_POWER_4 = [("s9-1", f"s6-{rest}") for rest in ("4", "3-1", "2-2", "2-1-1", "1-1-1-1")]
_S10_FIRST_POWER_4 += [
    ("s2-1-1-1-1-1-1-1-1", t)
    for t in ("s7-3", "s7-2-1", "s7-1-1-1", "s6-4", "s6-3-1", "s6-2-2", "s6-2-1-1", "s6-1-1-1-1")
]


def structure(rng: random.Random, tables: Tables) -> list[Job]:
    s10 = ref.symmetric_table(10)
    z43 = ref.abelian_4_table(3)
    linear = rng.sample(z43.names[1:], 3)
    return [
        pieri(3, 120, "canonical"), pieri(4, 48, "csv"), pieri(5, 32, "json"), pieri(6, 24),
        torus(_arrangement(rng, (3, 1, -1, -2)), 500),
        torus(_arrangement(rng, (2, 1, 0, -1, -3)), 300),
        markov(31, "V1", 30), markov(13, "V1+V2", 24),
        tables.regular_check("s10", s10, rng.choice(s10.names)),
        tables.first_power("s10", s10, *rng.choice(_S10_FIRST_POWER_4)),
        tables.decompose("s10", s10, rng.choice(("s9-1", "s2-1-1-1-1-1-1-1-1")), 15),
        tables.regular_check("z4x3", z43, linear[0]),
        tables.decompose("z4x3", z43, linear[1], 5),
        tables.decompose("z4x3", z43, linear[2], 7),
        # The documented commands of these kinds.
        pieri(2, 4), pieri(2, 0), pieri(2, 4, "canonical"), pieri(3, 6, "csv"),
        pieri(2, 4, "json"),
        markov_example(), markov(3, "V1", 2), markov(5, "V1", 3, "json"),
    ]


def oracle(rng: random.Random, tables: Tables) -> list[Job]:
    jobs = [fusion(11, m, n, oracle=True) for m in range(11) for n in range(m, 11)]
    jobs += [fusion(7, m, n, oracle=True) for m in range(7) for n in range(7)]
    jobs.append(fusion(5, 3, 3, oracle=True))
    return jobs


WORKLOADS = {"series": series, "structure": structure, "oracle": oracle}


def build(workload: str, seed: int, directory: Path) -> list[Job]:
    """The workload's jobs for this seed, in seeded order; writes its tables."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, Tables(directory))
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"{workload} repeats a job")
    rng.shuffle(jobs)
    return jobs
