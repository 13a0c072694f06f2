"""End-to-end CLI behaviour: frozen text output, exit codes, JSON/CSV modes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repgrowth.cli as cli
from repgrowth import char_table
from repgrowth.modular_fusion import basis_vector
from repgrowth.partitions import canonicalize
from repgrowth.pieri import tensor_power_decomposition

S3_TEXT = """\
6 3
1 3 2
triv 1 1 1
sign 1 -1 1
std 2 0 -1
"""


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.tbl"
    path.write_text(S3_TEXT, encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pieri_text_output(capsys):
    code, out, err = run(["pieri", "--m", "2", "--n", "4"], capsys)
    assert (code, err) == (0, "")
    assert out == "(4): 1\n(3,1): 3\n(2,2): 2\n"


def test_pieri_degree_zero(capsys):
    code, out, _ = run(["pieri", "--m", "2", "--n", "0"], capsys)
    assert code == 0
    assert out == "(): 1\n"


def test_pieri_canonical_merges_classes(capsys):
    code, out, _ = run(["pieri", "--m", "2", "--n", "4", "--canonical"], capsys)
    assert code == 0
    assert out == "(4): 1\n(2): 3\n(): 2\n"


def test_pieri_canonical_labels_of_one_decomposition_are_distinct():
    # --canonical relabels without merging: partitions of one n never differ by c * (1, ..., 1).
    for m in range(1, 7):
        for n in range(21):
            shapes = tensor_power_decomposition(m, n).mults
            assert len({canonicalize(lam).canonical for lam in shapes}) == len(shapes), (m, n)


def test_pieri_csv_output(capsys):
    code, out, _ = run(["pieri", "--m", "2", "--n", "4", "--csv"], capsys)
    assert code == 0
    assert out == 'partition,multiplicity\n(4),1\n"(3,1)",3\n"(2,2)",2\n'


def test_pieri_json_output(capsys):
    code, out, _ = run(["pieri", "--m", "2", "--n", "4", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "pieri"
    assert payload["params"] == {"m": 2, "n": 4, "canonical": False}
    assert payload["result"]["mults"] == {"(4)": 1, "(3,1)": 3, "(2,2)": 2}
    # Round trip: parsing and re-dumping is stable.
    assert json.dumps(json.loads(out)) == json.dumps(payload)


def test_ts_sl_text_output(capsys):
    code, out, _ = run(["ts", "sl", "--m", "2", "--max", "4"], capsys)
    assert code == 0
    assert out.splitlines()[:4] == [
        "k=1 n=2 ts=1 root=1",
        "k=2 n=4 ts=2 root=1.189207115",
        "k=3 n=6 ts=5 root=1.30766048601",
        "k=4 n=8 ts=14 root=1.39080423506",
    ]
    assert out.splitlines()[4].startswith("lower=1.39080423506 upper=2 fekete_ok=true")


def test_ts_sl_csv_output(capsys):
    code, out, _ = run(["ts", "sl", "--m", "2", "--max", "2", "--csv"], capsys)
    assert code == 0
    assert out == "k,n,ts,nth_root\n1,2,1,1\n2,4,2,1.189207115\n"


def test_ts_modular_output(capsys):
    code, out, _ = run(
        ["ts", "modular", "--p", "3", "--seed", "V1", "--step", "2", "--max", "4"],
        capsys,
    )
    assert code == 0
    values = [line.split()[2] for line in out.splitlines()[:4]]
    assert values == ["ts=1", "ts=1", "ts=1", "ts=1"]
    code, out, _ = run(
        ["ts", "modular", "--p", "2", "--seed", "V1", "--step", "1", "--max", "3"],
        capsys,
    )
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()[:3]] == ["ts=0", "ts=0", "ts=0"]


def test_ts_json_round_trip(capsys):
    code, out, _ = run(["ts", "sl", "--m", "2", "--max", "6", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["values"] == [1, 2, 5, 14, 42, 132]
    assert payload["result"]["estimate"]["upper"] == 2.0
    assert json.loads(json.dumps(payload)) == payload


def test_fusion_output(capsys):
    code, out, _ = run(["fusion", "--p", "3", "1", "1"], capsys)
    assert (code, out) == (0, "V0 + V2\n")
    code, out, _ = run(["fusion", "--p", "5", "3", "3", "--oracle"], capsys)
    assert (code, out) == (0, "3*V4 + V0 | AGREE\n")
    code, out, _ = run(["fusion", "--p", "7", "0", "4"], capsys)
    assert (code, out) == (0, "V4\n")
    code, out, _ = run(["fusion", "--p", "2", "1", "1", "--oracle"], capsys)
    assert (code, out) == (0, "2*V1 | AGREE\n")


def test_fusion_oracle_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "jordan_oracle", lambda p, m, n: basis_vector(p, 0))
    code, out, _ = run(["fusion", "--p", "5", "3", "3", "--oracle"], capsys)
    assert code == 1
    assert out == "3*V4 + V0 != V0 | DISAGREE\n"


def test_markov_example_output(capsys):
    code, out, _ = run(["markov", "--p", "2", "--example"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "[S] = [[2,1],[0,1]]",
        "[S^2] = [[4,3],[0,1]]",
        "P(S) = [[1,1/3],[0,2/3]]",
        "P(S^2) = [[1,3/5],[0,2/5]]",
        "P(S)^2 = [[1,5/9],[0,4/9]]",
        "P(S^2) != P(S)^2: P is not multiplicative for this map",
    ]


def test_markov_seed_output(capsys):
    code, out, _ = run(["markov", "--p", "3", "--seed", "V1", "--power", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "P(T) = [[0,1/4,0],[1,0,0],[0,3/4,1]]",
        "P(T)^2 = [[1/4,0,0],[0,1/4,0],[3/4,3/4,1]]",
        "P(T^2) = [[1/4,0,0],[0,1/4,0],[3/4,3/4,1]]",
        "multiplicative: ok",
        "decay_rate = 1/4",
    ]


def test_markov_trivial_seed_is_identity(capsys):
    code, out, _ = run(["markov", "--p", "3", "--seed", "V0", "--power", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P(T) = [[1,0,0],[0,1,0],[0,0,1]]"
    assert lines[1] == "P(T)^5 = [[1,0,0],[0,1,0],[0,0,1]]"
    assert lines[3] == "multiplicative: ok"
    assert lines[4].startswith("decay_rate: unavailable")


def test_torus_output(capsys):
    code, out, _ = run(["torus", "--weights", "2,-1", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "count = 3",
        "probability = 3/8",
        "bound = 0.933358864312 (t=1, v=27/4, b=3/2)",
    ]
    code, out, _ = run(["torus", "--weights", "1,-1", "--n", "4"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "count = 6"
    assert "bound: unavailable" in out
    code, out, _ = run(["torus", "--diagonal", "--m", "3", "--n", "2"], capsys)
    assert (code, out) == (0, "count = 90\n")


def test_chartab_commands(capsys, s3_file):
    code, out, _ = run(
        ["chartab", s3_file, "decompose", "--irrep", "std", "--power", "2"], capsys
    )
    assert (code, out) == (0, "triv: 1\nsign: 1\nstd: 1\n")
    code, out, _ = run(
        ["chartab", s3_file, "first-power", "--irrep", "std", "--target", "sign"],
        capsys,
    )
    assert (code, out) == (0, "d = 2\n")
    code, out, _ = run(["chartab", s3_file, "regular-check", "--irrep", "std"], capsys)
    assert (code, out) == (0, "OK: std (x) Regular = 2 * Regular, TS=2\n")
    code, out, _ = run(["chartab", s3_file, "min-regular", "--irrep", "std"], capsys)
    assert (code, out) == (0, "N = 2\n")


def test_chartab_json(capsys, s3_file):
    code, out, _ = run(
        ["chartab", s3_file, "decompose", "--irrep", "std", "--power", "2", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["mults"] == {"triv": 1, "sign": 1, "std": 1}


def test_min_regular_failures_exit_1(capsys, monkeypatch, s3_file):
    argv = ["chartab", s3_file, "min-regular", "--irrep", "std"]
    code, out, _ = run(argv + ["--max", "1"], capsys)
    assert (code, out) == (1, "no power up to 1 contains the regular character\n")
    code, out, _ = run(argv + ["--max", "1", "--json"], capsys)
    assert code == 1
    assert out == (
        '{"command": "chartab", "params": {"table": "%s", "action": "min-regular", '
        '"irrep": "std", "max": 1}, "result": {"n": null}}\n' % s3_file
    )
    # Containment at N = 1 that fails at N = 2 is a failed check, not a crash.
    calls = []

    def fake_decompose(table, f):
        calls.append(f)
        return table.degrees if len(calls) == 1 else (0,) * len(table.degrees)

    monkeypatch.setattr(char_table, "decompose", fake_decompose)
    code, out, _ = run(argv, capsys)
    assert (code, out) == (1, "regular containment at N=1 fails at N+1 or N+2\n")


def test_usage_errors_exit_2(capsys, s3_file, tmp_path):
    cases = [
        ["fusion", "--p", "4", "1", "1"],
        ["fusion", "--p", "5", "5", "0"],
        ["pieri", "--m", "0", "--n", "3"],
        ["pieri", "--m", "2"],
        ["ts", "modular", "--p", "3", "--seed", "V9", "--max", "2"],
        ["ts", "modular", "--p", "3", "--seed", "junk", "--max", "2"],
        ["markov", "--p", "3"],
        ["markov", "--p", "3", "--example"],
        ["torus", "--n", "3"],
        ["torus", "--weights", "a,b", "--n", "3"],
        ["chartab", s3_file, "decompose", "--irrep", "nope"],
        ["chartab", str(tmp_path / "missing.tbl"), "decompose", "--irrep", "std"],
        ["nosuchcommand"],
        ["ts", "sl", "--m", "2", "--max", "0"],
        ["ts", "sl", "--m", "0", "--max", "3"],
        ["ts", "modular", "--p", "3", "--seed", "V1", "--step", "0", "--max", "2"],
        ["ts", "modular", "--p", "0", "--seed", "V1", "--max", "2"],
        ["pieri", "--m", "2", "--n", "-1"],
        ["markov", "--p", "3", "--seed", "V1", "--power", "0"],
        ["chartab", s3_file, "min-regular", "--irrep", "std", "--max", "0"],
        ["markov", "--p", "2", "--example", "--seed", "V1"],
        ["torus", "--diagonal", "--weights", "2,-1", "--m", "2", "--n", "1"],
        ["torus", "--diagonal", "--n", "2"],
        ["ts", "modular", "--p", "3", "--seed", "0*V1", "--max", "2"],
    ]
    for argv in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err, argv
    # Seed terms are [count*]V<index> in ASCII digits: "²" passes str.isdigit and
    # the Arabic-Indic "\u0661" (one) passes int(), but neither is a seed digit.
    for seed, term in (
        ("V²", "V²"), ("²*V1", "²*V1"), ("V\u0661", "V\u0661"), ("\u0661*V1", "\u0661*V1"),
        ("V1+", ""), ("V 1", "V 1"),
    ):
        argv = ["ts", "modular", "--p", "3", "--seed", seed, "--max", "3"]
        assert run(argv, capsys) == (2, "", f"error: malformed seed term {term!r}\n"), seed


def test_seed_terms_allow_spaces_and_leading_zeros(capsys):
    for spaced, plain in ((" 2 * V1 + V0 ", "2*V1+V0"), ("V01", "V1")):
        for command in (["ts", "modular", "--max", "4"], ["markov", "--power", "2"]):
            expected = run(command + ["--p", "3", "--seed", plain], capsys)
            assert expected[0] == 0 and expected[1]
            assert run(command + ["--p", "3", "--seed", spaced], capsys) == expected


def test_unexpected_errors_exit_3_without_traceback(capsys):
    # A dimension of 10**400 is a valid seed, but the growth estimate cannot
    # bracket it as a float.
    argv = ["ts", "modular", "--p", "3", "--seed", f"{10**400}*V1", "--max", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "error: OverflowError: int too large to convert to float\n"


def test_exit_codes_at_the_process_level(s3_file):
    # `python -m repgrowth.cli` turns the return value of main into the exit status.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    cases = [
        (["pieri", "--m", "2", "--n", "4"], 0),
        (["chartab", s3_file, "min-regular", "--irrep", "std", "--max", "1"], 1),
        (["fusion", "--p", "4", "1", "1"], 2),
        (["ts", "modular", "--p", "3", "--seed", f"{10**400}*V1", "--max", "1"], 3),
    ]
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "repgrowth.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == expected, argv
        assert "Traceback" not in proc.stderr, argv
        if expected >= 2:
            assert len(proc.stderr.splitlines()) == 1, argv
        if expected == 0:
            assert proc.stdout == "(4): 1\n(3,1): 3\n(2,2): 2\n"


def test_malformed_table_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.tbl"
    cases = [
        ("6 3\n1 3 2\ntriv 1 1 1\nsign 1 -1 1\nstd 2 0 zz\n", "line 5"),
        ("2 2\n1 1\ntriv 1 1\nsign 1 1/0\n", "line 4"),  # zero denominator
        ("2 2\n1 1\ntriv 1 1\nsign 1 1+1/0i\n", "line 4"),
    ]
    for text, line in cases:
        path.write_text(text)
        code = cli.main(["chartab", str(path), "decompose", "--irrep", "triv"])
        captured = capsys.readouterr()
        assert code == 2, text
        assert line in captured.err, text


HELP_COMMANDS = [
    [],
    ["pieri"],
    ["ts"],
    ["ts", "sl"],
    ["ts", "modular"],
    ["fusion"],
    ["markov"],
    ["torus"],
    ["chartab"],
    ["chartab", "TABLE", "decompose"],
    ["chartab", "TABLE", "first-power"],
    ["chartab", "TABLE", "regular-check"],
    ["chartab", "TABLE", "min-regular"],
]


@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=[" ".join(a) or "top" for a in HELP_COMMANDS])
def test_help_exits_zero(argv, capsys):
    assert cli.main(argv + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: repgrowth")


def test_documented_commands_are_deterministic(capsys, s3_file):
    commands = [
        ["pieri", "--m", "2", "--n", "4"],
        ["pieri", "--m", "2", "--n", "0"],
        ["pieri", "--m", "2", "--n", "4", "--canonical"],
        ["pieri", "--m", "2", "--n", "4", "--csv"],
        ["pieri", "--m", "2", "--n", "4", "--json"],
        ["ts", "sl", "--m", "2", "--max", "4"],
        ["ts", "sl", "--m", "2", "--max", "4", "--csv"],
        ["ts", "modular", "--p", "3", "--seed", "V1", "--step", "2", "--max", "4"],
        ["ts", "modular", "--p", "2", "--seed", "V1", "--step", "1", "--max", "3"],
        ["fusion", "--p", "5", "3", "3", "--oracle"],
        ["fusion", "--p", "3", "1", "1"],
        ["fusion", "--p", "7", "0", "4"],
        ["markov", "--p", "2", "--example"],
        ["markov", "--p", "3", "--seed", "V1", "--power", "2"],
        ["markov", "--p", "3", "--seed", "V0", "--power", "5"],
        ["torus", "--weights", "2,-1", "--n", "3"],
        ["torus", "--diagonal", "--m", "3", "--n", "2"],
        ["chartab", s3_file, "regular-check", "--irrep", "std"],
    ]
    for argv in commands:
        first_code, first_out, _ = run(argv, capsys)
        second_code, second_out, _ = run(argv, capsys)
        assert first_code == second_code == 0, argv
        assert first_out == second_out, argv


# Frozen stdout of the documented commands; every one exits 0.  TABLE stands
# for the s3 table file, in argv and in the expected output.
GOLDEN = [
    (["pieri", "--m", "2", "--n", "4"], "(4): 1\n(3,1): 3\n(2,2): 2\n"),
    (["pieri", "--m", "2", "--n", "0"], "(): 1\n"),
    (["pieri", "--m", "2", "--n", "4", "--canonical"], "(4): 1\n(2): 3\n(): 2\n"),
    (
        ["pieri", "--m", "2", "--n", "4", "--canonical", "--json"],
        '{"command": "pieri", "params": {"m": 2, "n": 4, "canonical": true}, '
        '"result": {"mults": {"(4)": 1, "(2)": 3, "()": 2}}}\n',
    ),
    (
        ["pieri", "--m", "3", "--n", "6", "--csv"],
        'partition,multiplicity\n(6),1\n"(5,1)",5\n"(4,2)",9\n"(4,1,1)",10\n'
        '"(3,3)",5\n"(3,2,1)",16\n"(2,2,2)",5\n',
    ),
    (
        ["pieri", "--m", "2", "--n", "4", "--json"],
        '{"command": "pieri", "params": {"m": 2, "n": 4, "canonical": false}, '
        '"result": {"mults": {"(4)": 1, "(3,1)": 3, "(2,2)": 2}}}\n',
    ),
    (
        ["ts", "sl", "--m", "2", "--max", "12"],
        "k=1 n=2 ts=1 root=1\n"
        "k=2 n=4 ts=2 root=1.189207115\n"
        "k=3 n=6 ts=5 root=1.30766048601\n"
        "k=4 n=8 ts=14 root=1.39080423506\n"
        "k=5 n=10 ts=42 root=1.45319846028\n"
        "k=6 n=12 ts=132 root=1.50215412343\n"
        "k=7 n=14 ts=429 root=1.54181641016\n"
        "k=8 n=16 ts=1430 root=1.57473870622\n"
        "k=9 n=18 ts=4862 root=1.60259230472\n"
        "k=10 n=20 ts=16796 root=1.6265233163\n"
        "k=11 n=22 ts=58786 root=1.64734733532\n"
        "k=12 n=24 ts=208012 root=1.66566253031\n"
        "lower=1.66566253031 upper=2 fekete_ok=true\n",
    ),
    (
        ["ts", "sl", "--m", "3", "--max", "6", "--csv"],
        "k,n,ts,nth_root\n1,3,1,1\n2,6,5,1.30766048601\n3,9,42,1.51482000641\n"
        "4,12,462,1.66745260274\n5,15,6006,1.78609966298\n6,18,87516,1.88174345612\n",
    ),
    (
        ["ts", "sl", "--m", "2", "--max", "6", "--json"],
        '{"command": "ts", "params": {"mode": "sl", "m": 2, "max": 6}, "result": '
        '{"step": 2, "dim_v": 2, "values": [1, 2, 5, 14, 42, 132], "nth_roots": '
        "[1.0, 1.189207115002721, 1.3076604860118306, 1.390804235062458, "
        '1.4531984602822678, 1.5021541234310556], "estimate": {"lower": '
        '1.5021541234310556, "upper": 2.0, "fekete_ok": true}}}\n',
    ),
    (
        ["ts", "modular", "--p", "3", "--seed", "V1", "--step", "2", "--max", "6"],
        "".join(f"k={k} n={2 * k} ts=1 root=1\n" for k in range(1, 7))
        + "lower=1 upper=2 fekete_ok=true\n",
    ),
    (
        ["ts", "modular", "--p", "2", "--seed", "V1", "--step", "1", "--max", "3"],
        "k=1 n=1 ts=0 root=0\nk=2 n=2 ts=0 root=0\nk=3 n=3 ts=0 root=0\n"
        "lower=0 upper=2 fekete_ok=true\n",
    ),
    (
        ["ts", "modular", "--p", "3", "--seed", "V0+2*V1", "--step", "2", "--max", "3", "--csv"],
        "k,n,ts,nth_root\n1,2,5,2.2360679775\n2,4,41,2.53043953444\n"
        "3,6,365,2.67330684711\n",
    ),
    (
        ["ts", "modular", "--p", "3", "--seed", "V0+2*V1", "--step", "2", "--max", "3", "--json"],
        '{"command": "ts", "params": {"mode": "modular", "p": 3, "seed": "V0+2*V1", '
        '"step": 2, "max": 3}, "result": {"step": 2, "dim_v": 5, "values": [5, 41, 365], '
        '"nth_roots": [2.23606797749979, 2.530439534435243, 2.6733068471118355], '
        '"estimate": {"lower": 2.6733068471118355, "upper": 5.0, "fekete_ok": true}}}\n',
    ),
    (["fusion", "--p", "3", "1", "1"], "V0 + V2\n"),
    (["fusion", "--p", "5", "3", "3", "--oracle"], "3*V4 + V0 | AGREE\n"),
    (["fusion", "--p", "7", "0", "4"], "V4\n"),
    (
        ["fusion", "--p", "5", "2", "3", "--json"],
        '{"command": "fusion", "params": {"p": 5, "m": 2, "n": 3, "oracle": false}, '
        '"result": {"decomposition": [0, 1, 0, 0, 2], "display": "2*V4 + V1"}}\n',
    ),
    (
        ["fusion", "--p", "5", "3", "3", "--oracle", "--json"],
        '{"command": "fusion", "params": {"p": 5, "m": 3, "n": 3, "oracle": true}, '
        '"result": {"decomposition": [1, 0, 0, 0, 3], "display": "3*V4 + V0", '
        '"oracle": [1, 0, 0, 0, 3], "agree": true}}\n',
    ),
    (
        ["markov", "--p", "2", "--example"],
        "[S] = [[2,1],[0,1]]\n"
        "[S^2] = [[4,3],[0,1]]\n"
        "P(S) = [[1,1/3],[0,2/3]]\n"
        "P(S^2) = [[1,3/5],[0,2/5]]\n"
        "P(S)^2 = [[1,5/9],[0,4/9]]\n"
        "P(S^2) != P(S)^2: P is not multiplicative for this map\n",
    ),
    (
        ["markov", "--p", "2", "--example", "--json"],
        '{"command": "markov", "params": {"p": 2, "example": true}, "result": '
        '{"s": [[2, 1], [0, 1]], "s_squared": [[4, 3], [0, 1]], '
        '"p_of_s": [["1", "1/3"], ["0", "2/3"]], '
        '"p_of_s_squared": [["1", "3/5"], ["0", "2/5"]], '
        '"p_of_s_power_2": [["1", "5/9"], ["0", "4/9"]], "multiplicative": false}}\n',
    ),
    (
        ["markov", "--p", "3", "--seed", "V1", "--power", "2"],
        "P(T) = [[0,1/4,0],[1,0,0],[0,3/4,1]]\n"
        "P(T)^2 = [[1/4,0,0],[0,1/4,0],[3/4,3/4,1]]\n"
        "P(T^2) = [[1/4,0,0],[0,1/4,0],[3/4,3/4,1]]\n"
        "multiplicative: ok\n"
        "decay_rate = 1/4\n",
    ),
    (
        ["markov", "--p", "5", "--seed", "V1", "--power", "3", "--json"],
        '{"command": "markov", "params": {"p": 5, "seed": "V1", "power": 3, '
        '"example": false}, "result": {"seed": [0, 1, 0, 0, 0], "power": 3, '
        '"p_of_t": [["0", "1/4", "0", "0", "0"], ["1", "0", "1/3", "0", "0"], '
        '["0", "3/4", "0", "3/8", "0"], ["0", "0", "2/3", "0", "0"], '
        '["0", "0", "0", "5/8", "1"]], '
        '"p_of_t_power": [["0", "1/8", "0", "1/32", "0"], ["1/2", "0", "1/4", "0", "0"], '
        '["0", "9/16", "0", "3/16", "0"], ["1/2", "0", "1/3", "0", "0"], '
        '["0", "5/16", "5/12", "25/32", "1"]], '
        '"p_of_t_direct": [["0", "1/8", "0", "1/32", "0"], ["1/2", "0", "1/4", "0", "0"], '
        '["0", "9/16", "0", "3/16", "0"], ["1/2", "0", "1/3", "0", "0"], '
        '["0", "5/16", "5/12", "25/32", "1"]], '
        '"multiplicative": true, "decay_rate": "11/16"}}\n',
    ),
    (
        ["markov", "--p", "3", "--seed", "V0", "--power", "5", "--json"],
        '{"command": "markov", "params": {"p": 3, "seed": "V0", "power": 5, '
        '"example": false}, "result": {"seed": [1, 0, 0], "power": 5, '
        '"p_of_t": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '"p_of_t_power": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '"p_of_t_direct": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '"multiplicative": true, "decay_rate": null}}\n',
    ),
    (
        ["torus", "--weights", "2,-1", "--n", "3"],
        "count = 3\nprobability = 3/8\nbound = 0.933358864312 (t=1, v=27/4, b=3/2)\n",
    ),
    (
        ["torus", "--weights", "1,-1", "--n", "4"],
        "count = 6\nprobability = 3/8\n"
        "bound: unavailable (weights (1, -1) sum to 0; the bound needs a positive sum)\n",
    ),
    (["torus", "--diagonal", "--m", "3", "--n", "2"], "count = 90\n"),
    (
        ["torus", "--weights", "2,-1", "--n", "30", "--json"],
        '{"command": "torus", "params": {"diagonal": false, "weights": [2, -1], "n": 30}, '
        '"result": {"count": 30045015, "probability": "30045015/1073741824", '
        '"bound": 0.5017490561548967, "bound_inputs": {"t": "10", "v": "135/2", "b": "3/2"}}}\n',
    ),
    (
        ["torus", "--weights", "1,-1", "--n", "4", "--json"],
        '{"command": "torus", "params": {"diagonal": false, "weights": [1, -1], "n": 4}, '
        '"result": {"count": 6, "probability": "3/8", "bound": null}}\n',
    ),
    (
        ["torus", "--diagonal", "--m", "3", "--n", "2", "--json"],
        '{"command": "torus", "params": {"diagonal": true, "m": 3, "n": 2}, '
        '"result": {"count": 90}}\n',
    ),
    (
        ["chartab", "TABLE", "decompose", "--irrep", "std", "--power", "2"],
        "triv: 1\nsign: 1\nstd: 1\n",
    ),
    (["chartab", "TABLE", "first-power", "--irrep", "std", "--target", "sign"], "d = 2\n"),
    (
        ["chartab", "TABLE", "first-power", "--irrep", "std", "--target", "sign", "--max", "1"],
        "no power up to 1 contains sign\n",
    ),
    (
        ["chartab", "TABLE", "regular-check", "--irrep", "std"],
        "OK: std (x) Regular = 2 * Regular, TS=2\n",
    ),
    (["chartab", "TABLE", "min-regular", "--irrep", "std"], "N = 2\n"),
    (
        ["chartab", "TABLE", "decompose", "--irrep", "std", "--power", "2", "--json"],
        '{"command": "chartab", "params": {"table": "TABLE", "action": "decompose", '
        '"irrep": "std", "power": 2}, "result": {"mults": {"triv": 1, "sign": 1, "std": 1}}}\n',
    ),
    (
        ["chartab", "TABLE", "first-power", "--irrep", "std", "--target", "sign", "--json"],
        '{"command": "chartab", "params": {"table": "TABLE", "action": "first-power", '
        '"irrep": "std", "target": "sign", "max": 6}, "result": {"d": 2}}\n',
    ),
    (
        ["chartab", "TABLE", "regular-check", "--irrep", "std", "--json"],
        '{"command": "chartab", "params": {"table": "TABLE", "action": "regular-check", '
        '"irrep": "std"}, "result": {"ok": true, "degree": 2}}\n',
    ),
    (
        ["chartab", "TABLE", "min-regular", "--irrep", "std", "--json"],
        '{"command": "chartab", "params": {"table": "TABLE", "action": "min-regular", '
        '"irrep": "std", "max": null}, "result": {"n": 2}}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(argv, expected, capsys, s3_file):
    argv = [s3_file if token == "TABLE" else token for token in argv]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (0, expected.replace("TABLE", s3_file))


def readme_examples():
    """(command, expected lines) for each `$ repgrowth` line in a fenced README block.

    The expected lines run to the next `$` line or the closing fence, less
    trailing blank lines.
    """
    examples, current, fenced = [], None, False
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ "):
            current = []
            examples.append((line.removeprefix("$ repgrowth "), current))
        elif current is not None:
            current.append(line)
    for _, lines in examples:
        while lines and not lines[-1]:
            lines.pop()
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("command, expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_examples(command, expected, capsys, s3_file):
    # A "..." line stands for any run of output lines.
    argv = [s3_file if token == "s3.tbl" else token for token in shlex.split(command)]
    code, out, _ = run(argv, capsys)
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected)
    assert code == 0
    assert re.fullmatch(pattern, out), out
