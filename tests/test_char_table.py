"""Character-table arithmetic on built-in groups and the text-file format."""

import cmath
import dataclasses
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth import char_table
from repgrowth.char_table import (
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
    min_power_containing_regular,
    regular_character,
    regular_tensor_check,
    root_of_unity,
    tensor_power_char,
)
from repgrowth.cli import main

S3_TEXT = """\
6 3
1 3 2
triv 1 1 1
sign 1 -1 1
std 2 0 -1
"""

Z4_TEXT = """\
# cyclic group of order 4; columns e, g, g^2, g^3
4 4
1 1 1 1
triv 1 1 1 1
i 1 0+1i -1 0-1i
m1 1 -1 1 -1
mi 1 0-1i -1 0+1i
"""

BUILTINS = ("z2", "z3", "z4", "s3", "s4", "d4")


def test_builtin_tables_validate_and_have_trivial():
    for name in BUILTINS:
        table = builtin_table(name)
        assert table.class_sizes[0] == 1
        assert sum(d**2 for d in table.degrees) == table.group_order
        assert table.irrep_names[table.trivial_index] == "triv"
    with pytest.raises(KeyError):
        builtin_table("q8")


def test_inner_product_orthonormality_s3():
    s3 = builtin_table("s3")
    for i, chi in enumerate(s3.irreps):
        for j, psi in enumerate(s3.irreps):
            assert inner_product(s3, chi, psi) == (1 if i == j else 0)


def test_decompose_examples():
    s3 = builtin_table("s3")
    std = s3.irreps[s3.irrep_index("std")]
    assert decompose(s3, tensor_power_char(std, 2)) == (1, 1, 1)
    assert decompose(s3, std) == (0, 0, 1)
    assert decompose(s3, regular_character(s3)) == (1, 1, 2)
    trivial = tensor_power_char(std, 0)
    assert decompose(s3, trivial) == (1, 0, 0)


def test_decompose_rejects_non_characters():
    s3 = builtin_table("s3")
    with pytest.raises(InvalidCharacterError):
        decompose(s3, ClassFunction((Fraction(1, 2), Fraction(0), Fraction(0))))
    with pytest.raises(InvalidCharacterError):
        # <f, sign> = -1 for f = sign * (-1)
        decompose(s3, ClassFunction((Fraction(-1), Fraction(1), Fraction(-1))))


def test_class_count_is_checked_against_the_table():
    s3 = builtin_table("s3")
    short, long = ClassFunction((1,)), ClassFunction((1, 1, 1, 1))
    std = s3.irreps[s3.irrep_index("std")]
    calls = [
        lambda: inner_product(s3, short, short),
        lambda: inner_product(s3, std, long),
        lambda: decompose(s3, short),
        lambda: is_faithful(s3, short),
        lambda: first_power_containing(s3, short, 0, 6),
        lambda: min_power_containing_regular(s3, long),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"expected 3 class values, got [14]$"):
            call()


def test_decompose_identities_across_builtins():
    for name in BUILTINS:
        table = builtin_table(name)
        # The regular character decomposes with multiplicity = degree.
        assert decompose(table, regular_character(table)) == table.degrees
        for index, chi in enumerate(table.irreps):
            d = table.degree(index)
            for power in range(4):
                f = tensor_power_char(chi, power)
                mults = decompose(table, f)
                # Degree bookkeeping: sum of mult * degree = deg(f).
                assert sum(m * di for m, di in zip(mults, table.degrees)) == d**power
                # Parseval: sum of squares = <f, f>.
                assert inner_product(table, f, f) == sum(m**2 for m in mults)


def test_is_faithful():
    s3 = builtin_table("s3")
    assert is_faithful(s3, s3.irreps[s3.irrep_index("std")])
    assert not is_faithful(s3, s3.irreps[s3.irrep_index("sign")])
    assert not is_faithful(s3, s3.irreps[s3.irrep_index("triv")])
    z3 = builtin_table("z3")
    assert is_faithful(z3, z3.irreps[1])
    d4 = builtin_table("d4")
    assert is_faithful(d4, d4.irreps[d4.irrep_index("two")])
    assert is_faithful(s3, regular_character(s3))


def test_first_power_containing_s3():
    s3 = builtin_table("s3")
    std = s3.irreps[s3.irrep_index("std")]
    answers = [
        first_power_containing(s3, std, target, 6) for target in range(3)
    ]
    assert answers == [2, 2, 1]
    with pytest.raises(ValueError):
        first_power_containing(s3, s3.irreps[0], 0, 6)  # not faithful


def test_first_power_containing_z3_and_not_found():
    z3 = builtin_table("z3")
    chi1 = z3.irreps[1]
    assert [first_power_containing(z3, chi1, t, 3) for t in range(3)] == [3, 1, 2]
    assert first_power_containing(z3, chi1, 0, 2) is None


def test_first_power_decomposes_once_then_reads_only_the_target(monkeypatch):
    # Every pairing of a class function with a row goes through _pair.
    s4 = builtin_table("s4")
    std, sign = s4.irrep_index("std"), s4.irrep_index("sign")
    calls = []
    original = char_table._pair
    monkeypatch.setattr(char_table, "_pair", lambda *args: calls.append(1) or original(*args))
    d = first_power_containing(s4, s4.irreps[std], sign, s4.group_order)
    assert d == 3 and len(calls) == len(s4.irreps) + d - 1
    not_a_character = ClassFunction((3, 1, -1, 0, 2))  # faithful; (f, triv) = 3/4
    with pytest.raises(InvalidCharacterError):
        first_power_containing(s4, not_a_character, sign, s4.group_order)


def test_first_power_bounded_by_group_order():
    for name in BUILTINS:
        table = builtin_table(name)
        for chi in table.irreps:
            if not is_faithful(table, chi):
                continue
            for target in range(len(table.irreps)):
                d = first_power_containing(table, chi, target, table.group_order)
                assert d is not None and 1 <= d <= table.group_order


def test_regular_tensor_check():
    s3 = builtin_table("s3")
    std = s3.irreps[s3.irrep_index("std")]
    assert regular_tensor_check(s3, std)
    assert decompose(s3, std * regular_character(s3)) == (2, 2, 4)
    for name in BUILTINS:
        table = builtin_table(name)
        for chi in table.irreps:
            assert regular_tensor_check(table, chi)
        assert regular_tensor_check(table, regular_character(table))


def test_min_power_containing_regular():
    s3 = builtin_table("s3")
    std = s3.irreps[s3.irrep_index("std")]
    assert min_power_containing_regular(s3, std) == 2
    z2 = builtin_table("z2")
    assert min_power_containing_regular(z2, z2.irreps[1]) == 1
    assert min_power_containing_regular(s3, regular_character(s3)) == 1
    z3 = builtin_table("z3")
    assert min_power_containing_regular(z3, z3.irreps[1]) == 2
    with pytest.raises(ValueError):
        min_power_containing_regular(s3, s3.irreps[0])
    with pytest.raises(LookupError):
        min_power_containing_regular(z3, z3.irreps[1], max_n=1)


def test_min_power_containing_regular_matches_fresh_powers():
    # The least N whose fresh power (1 + f)**N contains every irreducible degree times.
    for name in BUILTINS:
        table = builtin_table(name)
        for chi in table.irreps:
            if not is_faithful(table, chi):
                continue
            one_plus = ClassFunction(tuple(1 + v for v in chi.values))
            least = next(
                n
                for n in range(1, table.group_order + 1)
                if all(
                    m >= d
                    for m, d in zip(decompose(table, tensor_power_char(one_plus, n)), table.degrees)
                )
            )
            assert min_power_containing_regular(table, chi) == least


@pytest.mark.parametrize("power", [40, 60])
def test_decompose_large_rational_powers_are_exact(power):
    s4 = builtin_table("s4")
    f = tensor_power_char(s4.irreps[s4.irrep_index("std")], power)
    exact = [inner_product(s4, f, chi) for chi in s4.irreps]
    assert all(value.denominator == 1 for value in exact)
    assert decompose(s4, f) == tuple(int(value) for value in exact)
    # Closed form for the trivial multiplicity: (3^d + 6 + 9(-1)^d) / 24.
    assert decompose(s4, f)[0] == (3**power + 15) // 24


def test_min_power_containing_regular_checks_monotonicity(monkeypatch):
    s3 = builtin_table("s3")
    calls = []

    def fake_decompose(table, f):
        # Containment holds at N = 1 and fails at N = 2.
        calls.append(f)
        return table.degrees if len(calls) == 1 else (0,) * len(table.degrees)

    monkeypatch.setattr(char_table, "decompose", fake_decompose)
    with pytest.raises(ArithmeticError, match="N=1"):
        min_power_containing_regular(s3, s3.irreps[s3.irrep_index("std")])


def test_load_table_round_trips_s3():
    assert load_table(S3_TEXT) == builtin_table("s3")


def test_load_table_complex_values():
    table = load_table(Z4_TEXT)
    assert table.group_order == 4
    chi = table.irreps[table.irrep_index("i")]
    assert chi.values[1] ** 2 == -1
    assert chi.values[1].conjugate() == table.irreps[table.irrep_index("mi")].values[1]
    assert is_faithful(table, chi)
    assert decompose(table, tensor_power_char(chi, 2)) == (0, 0, 1, 0)


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("", 1),
        ("6\n", 1),
        ("6 x\n", 1),
        ("6 3\n", 1),
        ("6 3\n1 3\n", 2),
        ("6 3\n1 3 x\n", 2),
        ("6 3\n1 3 2\ntriv 1 1\n", 3),
        ("6 3\n1 3 2\ntriv 1 1 1\nsign 1 -1 1\nstd 2 0 zz\n", 5),
        ("6 3\n1 3 2\ntriv 1 1 1\nsign 1 -1 1\n", 4),
    ],
)
def test_load_table_reports_line_numbers(text, bad_line):
    with pytest.raises(TableParseError) as excinfo:
        load_table(text)
    assert excinfo.value.line == bad_line
    assert f"line {bad_line}:" in str(excinfo.value)


def test_table_validation_failures():
    # Sizes that do not sum to the order.
    with pytest.raises(InvalidCharacterError):
        load_table("7 3\n1 3 2\ntriv 1 1 1\nsign 1 -1 1\nstd 2 0 -1\n")
    # Non-orthogonal rows (duplicated character).
    with pytest.raises(InvalidCharacterError):
        load_table("6 3\n1 3 2\ntriv 1 1 1\nalso 1 1 1\nstd 2 0 -1\n")
    # First class must be the identity.
    with pytest.raises(InvalidCharacterError):
        load_table("6 3\n3 1 2\ntriv 1 1 1\nsign -1 1 1\nstd 0 2 -1\n")
    # Degrees must be positive integers.
    with pytest.raises(InvalidCharacterError):
        CharacterTable(
            2,
            (1, 1),
            ("a", "b"),
            (
                ClassFunction((Fraction(-1), Fraction(1))),
                ClassFunction((Fraction(1), Fraction(1))),
            ),
        )


_I = root_of_unity(4)
_NO_TRIVIAL = char_table._table(2, (1, 1), {"i": (1, _I), "mi": (1, -_I)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: char_table._table(1, (1, 0), {"a": (1, 1), "b": (1, 1)}),
         InvalidCharacterError, "class sizes (1, 0) not positive"),
        (lambda: char_table._table(2, (1, 1), {"a": (1, 1)}),
         InvalidCharacterError, "need exactly 2 named irreducibles"),
        (lambda: CharacterTable(
            2, (1, 1), ("a", "a"), (ClassFunction((1, 1)), ClassFunction((1, -1)))),
         InvalidCharacterError, "irreducible names must be distinct"),
        (lambda: char_table._table(2, (1, 1), {"a": (1, 1), "b": (1, -1, 1)}),
         InvalidCharacterError, "b has 3 values, not 2"),
        (lambda: char_table._table(2, (1, 1), {"a": (1, 1), "b": (2, 0)}),
         InvalidCharacterError, "squared degrees do not sum to the group order"),
        (lambda: regular_tensor_check(_NO_TRIVIAL, _NO_TRIVIAL.irreps[0]),
         InvalidCharacterError, "table has no trivial character"),
        (lambda: ClassFunction((1, 1)) * ClassFunction((1, 1, 1)),
         ValueError, "class counts differ"),
        (lambda: first_power_containing(
            builtin_table("s3"), builtin_table("s3").irreps[2], 3, 6),
         ValueError, "target index 3 out of range"),
        (lambda: regular_tensor_check(builtin_table("s3"), ClassFunction((0, 1, 1))),
         InvalidCharacterError, "degree 0 is not a positive integer"),
        (lambda: regular_tensor_check(builtin_table("s3"), ClassFunction((Fraction(1, 2), 0, 0))),
         InvalidCharacterError, "degree 1/2 is not a positive integer"),
        (lambda: load_table("0 3\n1 3 2\n"),
         TableParseError, "line 1: order 0 and class count 3 must be positive"),
        (lambda: load_table("# header next\n6 -1\n"),
         TableParseError, "line 2: order 6 and class count -1 must be positive"),
    ],
    ids=[
        "sizes-not-positive", "irreducible-count", "names-distinct", "value-count",
        "squared-degrees", "no-trivial", "class-counts", "target-range",
        "degree-zero", "degree-fraction", "order-zero", "class-count-negative",
    ],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_tensor_power_char_validates():
    s3 = builtin_table("s3")
    with pytest.raises(ValueError):
        tensor_power_char(s3.irreps[0], -1)


# --- Exact cyclotomic values ------------------------------------------------

I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _z4_one_plus_chi1_mults(d):
    """Multiplicities in (1 + chi1)**d on Z/4, summed in Gaussian integers."""
    powers = []
    for k in range(4):
        base, value = (1 + I_POWERS[k][0], I_POWERS[k][1]), (1, 0)
        for _ in range(d):
            value = _gauss_mul(value, base)
        powers.append(value)
    mults = []
    for j in range(4):
        re = sum(_gauss_mul(powers[k], I_POWERS[-j * k % 4])[0] for k in range(4))
        im = sum(_gauss_mul(powers[k], I_POWERS[-j * k % 4])[1] for k in range(4))
        assert im == 0 and re % 4 == 0
        mults.append(re // 4)
    return tuple(mults)


@pytest.mark.parametrize("source", ["builtin", "parsed"])
@pytest.mark.parametrize("power", [60, 200, 2000])
def test_decompose_large_cyclotomic_powers_are_exact(source, power):
    table = builtin_table("z4") if source == "builtin" else load_table(Z4_TEXT)
    f = ClassFunction(tuple(1 + v for v in table.irreps[1].values))
    mults = decompose(table, tensor_power_char(f, power))
    assert mults == _z4_one_plus_chi1_mults(power)
    # (1 + i)**d is real with value (-4)**(d/4) when 4 divides d.
    assert mults[0] == (2**power + 2 * (-4) ** (power // 4)) // 4


def _product_table_text(a_text, b_text):
    """The A x B table file, for A given with a+bi values and B with integer ones."""

    def parse(text):
        lines = [line.split() for line in text.splitlines() if line and line[0] != "#"]
        return int(lines[0][0]), lines[1], lines[2:]

    gauss = {"1": (1, 0), "-1": (-1, 0), "0+1i": (0, 1), "0-1i": (0, -1)}
    a_order, a_sizes, a_rows = parse(a_text)
    b_order, b_sizes, b_rows = parse(b_text)
    sizes = [int(x) * int(y) for x in a_sizes for y in b_sizes]
    lines = [f"{a_order * b_order} {len(sizes)}", " ".join(map(str, sizes))]
    for a_name, *a_values in a_rows:
        for b_name, *b_values in b_rows:
            values = [
                f"{gauss[x][0] * int(y)}{gauss[x][1] * int(y):+d}i"
                for x in a_values
                for y in b_values
            ]
            lines.append(" ".join([f"{a_name}_{b_name}"] + values))
    return "\n".join(lines) + "\n"


def test_cli_decomposes_cyclotomic_product_table_exactly(tmp_path, capsys):
    path = tmp_path / "z4xs3.tbl"
    path.write_text(_product_table_text(Z4_TEXT, S3_TEXT), encoding="utf-8")
    code = main(["chartab", str(path), "decompose", "--irrep", "i_std", "--power", "60"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    # i**60 = 1, so (i x std)**60 = triv x std**60.
    s3 = {"triv": (2**60 + 2) // 6, "sign": (2**60 + 2) // 6, "std": (2**61 - 2) // 6}
    expected = [
        f"{z}_{s}: {s3[s] if z == 'triv' else 0}"
        for z in ("triv", "i", "m1", "mi")
        for s in ("triv", "sign", "std")
    ]
    assert captured.out.splitlines() == expected


def _evaluate(value):
    """A complex approximation, the independent oracle for exact arithmetic."""
    if isinstance(value, char_table.Cyclotomic):
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * k / value.n)
            for k, c in enumerate(value.coeffs)
        )
    return complex(float(value))


@st.composite
def cyclotomics(draw, orders=range(1, 13)):
    """An element of Q(zeta_n), n <= 12, with its complex value computed directly."""
    n = draw(st.sampled_from(orders))
    denominator = draw(st.sampled_from((1, 2, 3)))
    numerators = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    coeffs = [Fraction(c, denominator) for c in numerators]
    value = sum((c * root_of_unity(n, k) for k, c in enumerate(coeffs)), 0)
    direct = sum(float(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(coeffs))
    return value, direct


DIVISORS_OF_12 = (1, 2, 3, 4, 6, 12)


@settings(deadline=None)
@given(cyclotomics(DIVISORS_OF_12), cyclotomics(DIVISORS_OF_12), cyclotomics(DIVISORS_OF_12))
def test_cyclotomic_ring_laws(xd, yd, zd):
    (x, _), (y, _), (z, _) = xd, yd, zd
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x - x == 0 and -x + x == 0 and 1 - x == -(x - 1)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x * x * x == x**3 and x**0 == 1


@settings(deadline=None)
@given(cyclotomics(), cyclotomics())
def test_cyclotomic_conjugation_and_complex_oracle(xd, yd):
    (x, x_direct), (y, y_direct) = xd, yd
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert abs(_evaluate(x) - x_direct) < 1e-9
    assert abs(_evaluate(x.conjugate()) - x_direct.conjugate()) < 1e-9
    assert abs(_evaluate(x + y) - (x_direct + y_direct)) < 1e-9
    assert abs(_evaluate(x * y) - x_direct * y_direct) < 1e-8


def test_root_of_unity_rejects_orders_below_one():
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            root_of_unity(n)


def test_cyclotomic_mixed_orders_and_degrees():
    assert root_of_unity(3) * root_of_unity(4) == root_of_unity(12, 7)
    assert root_of_unity(12) ** 4 == root_of_unity(3)
    assert hash(root_of_unity(12) ** 4) == hash(root_of_unity(3))
    assert root_of_unity(4) ** 2 == -1 and root_of_unity(6) ** 3 == -1
    for n in range(1, 31):
        assert root_of_unity(n) ** n == 1
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert len(char_table._cyclotomic_poly(n)) - 1 == phi
        # A rational result is a plain number, never a Cyclotomic.
        assert isinstance(sum(root_of_unity(n, k) for k in range(n)), (int, Fraction))


# --- Gram check and decompose against the pairwise inner product ------------


def _number_token(draw):
    numerator = draw(st.integers(-9, 9))
    if draw(st.booleans()):
        return f"{numerator}/{draw(st.integers(1, 6))}"
    return str(numerator)


@given(st.data())
def test_parse_value_reads_a_plus_bi_directly(data):
    real, imag = _number_token(data.draw), _number_token(data.draw)
    token = f"{real}{'' if imag[0] == '-' else '+'}{imag}i"
    parsed = char_table._parse_value(token, 1)
    a, b = (Fraction(p) if "/" in p else int(p) for p in (real, imag))
    expected = a + b * root_of_unity(4)
    assert parsed == expected and type(parsed) is type(expected)
    assert str(parsed) == str(expected)


def _with_value(table, row, column, value):
    """The table's rows with one value replaced, unvalidated."""
    rows = [list(chi.values) for chi in table.irreps]
    rows[row][column] = value
    return tuple(ClassFunction(tuple(values)) for values in rows)


def test_rejection_reports_the_pair_value_at_its_own_order():
    # The table's values reach order 12, but each message is reduced at the lcm of
    # the orders in its two rows; the strings are those of the pairwise sum.
    z4 = builtin_table("z4")
    cases = [
        (2, "rows triv, chi2 have inner product -1/4*z3^1"),
        (1, "rows triv, chi1 have inner product -1/4*z12^2 + 1/4*z12^3"),
    ]
    for row, message in cases:
        rows = _with_value(z4, row, 1, root_of_unity(3))
        with pytest.raises(InvalidCharacterError) as excinfo:
            CharacterTable(4, z4.class_sizes, z4.irrep_names, rows)
        assert str(excinfo.value) == message
    with pytest.raises(InvalidCharacterError) as excinfo:
        decompose(z4, ClassFunction((1, root_of_unity(3), 1, 1)))
    message = "multiplicity of triv is 3/4 + 1/4*z3^1, not a non-negative integer"
    assert str(excinfo.value) == message
    s4 = builtin_table("s4")
    with pytest.raises(InvalidCharacterError) as excinfo:
        decompose(s4, ClassFunction((3, 1, -1, 0, 2)))
    assert str(excinfo.value) == "multiplicity of triv is 3/4, not a non-negative integer"


PERTURBED_TABLES = [builtin_table(name) for name in ("z3", "z4", "s3", "s4", "d4")]
PERTURBED_TABLES.append(load_table(_product_table_text(Z4_TEXT, S3_TEXT)))
SHIFTS = (0, 1, -1, Fraction(1, 2), root_of_unity(3), root_of_unity(4), root_of_unity(4, 3))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_gram_check_agrees_with_the_pairwise_inner_products(data):
    table = data.draw(st.sampled_from(PERTURBED_TABLES))
    k = len(table.irreps)
    row, column = data.draw(st.integers(0, k - 1)), data.draw(st.integers(1, k - 1))
    if data.draw(st.booleans()):  # a value of another row, so the rows may still be orthonormal
        value = table.irreps[data.draw(st.integers(0, k - 1))].values[column]
    else:
        value = table.irreps[row].values[column] + data.draw(st.sampled_from(SHIFTS))
    _gram_check_matches_pairwise(table, _with_value(table, row, column, value))


def _pairwise_failure(table, rows):
    """The first pair i <= j whose inner product is not delta_ij, with its value, else None."""
    k = len(rows)
    for i in range(k):
        for j in range(i, k):
            got = inner_product(table, rows[i], rows[j])
            if got != (1 if i == j else 0):
                return i, j, got
    return None


def _gram_check_matches_pairwise(table, rows):
    """Build table's group with these rows: it fails exactly where the pairwise loop does,
    with that loop's message.  Returns the failing pair, or None."""
    failure = _pairwise_failure(table, rows)
    build = lambda: CharacterTable(table.group_order, table.class_sizes, table.irrep_names, rows)
    if failure is None:
        build()
        return None
    i, j, got = failure
    with pytest.raises(InvalidCharacterError) as excinfo:
        build()
    names = table.irrep_names
    assert str(excinfo.value) == f"rows {names[i]}, {names[j]} have inner product {got}"
    return i, j


def _z4_cubed():
    """(Z/4)^3: chi_x(g) = i^(x.g), rows and classes in the same order, identity first."""
    elements = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    rows = {
        "x" + "".join(map(str, x)): tuple(
            root_of_unity(4, sum(map(mul, x, g))) for g in elements
        )
        for x in elements
    }
    return char_table._table(64, (1,) * 64, rows)


def test_table_finds_terms_once_per_distinct_value(monkeypatch):
    # (Z/4)^3 has 4,096 values, and only 4 distinct ones: 1, i, -1 and -i.
    rows = _z4_cubed().irreps
    calls = []
    terms = char_table._terms

    def counting_terms(value, n):
        calls.append(value)
        return terms(value, n)

    monkeypatch.setattr(char_table, "_terms", counting_terms)
    table = CharacterTable(64, (1,) * 64, tuple(f"x{i}" for i in range(64)), rows)
    assert len(calls) == 4
    monkeypatch.undo()
    for chi, columns in zip(table.irreps, table._row_columns):
        assert columns == char_table._columns(chi.values, table._n)


def test_table_terms_agree_for_equal_values_of_different_types():
    # 1 and Fraction(1) share one key, so one's terms stand in for the other's.
    mixed = CharacterTable(
        6, (1, 3, 2), ("triv", "sign", "std"),
        tuple(ClassFunction(v) for v in ((1, Fraction(1), 1), (Fraction(1), -1, 1), (2, 0, -1))),
    )
    s3 = builtin_table("s3")
    std = ClassFunction((2, 0, -1))
    for d in range(6):
        assert decompose(mixed, tensor_power_char(std, d)) == decompose(s3, tensor_power_char(std, d))


def test_gram_check_matches_pairwise_on_sixty_four_classes():
    table = _z4_cubed()
    last = len(table.irreps) - 1
    cases = [  # (row, column, shift, the first failing pair)
        (0, 5, 1, (0, 0)),
        (last, 1, root_of_unity(4), (0, last)),  # row 0's mismatch sits in the top slot
        (17, last, Fraction(1, 3), (0, 17)),
        (last, last, -1, (0, last)),
    ]
    for row, column, shift, pair in cases:
        value = table.irreps[row].values[column] + shift
        assert _gram_check_matches_pairwise(table, _with_value(table, row, column, value)) == pair


def test_gram_check_matches_pairwise_at_order_105_and_with_fractions():
    # Phi_105 is the first cyclotomic polynomial whose remainders of x^r, r < n,
    # have a coefficient of size 2; the slot width allows for it.
    assert [n for n in range(1, 121) if char_table._remainder_bound(n) != 1] == [105]
    assert char_table._remainder_bound(105) == 2
    z105 = root_of_unity(105)
    z3 = builtin_table("z3")
    lifted = tuple(ClassFunction(tuple(v + z105 - z105 for v in chi.values)) for chi in z3.irreps)
    assert lcm(*(char_table._order(v) for chi in lifted for v in chi.values)) == 105
    assert _gram_check_matches_pairwise(z3, lifted) is None
    for name, row, column, shift in [
        ("z3", 1, 2, z105),
        ("s3", 2, 1, z105),
        ("s3", 1, 2, root_of_unity(105, 52)),
        ("s4", 3, 2, Fraction(1, 3)),
        ("d4", 4, 1, Fraction(-5, 7)),
        ("z4", 2, 3, Fraction(1, 2) * root_of_unity(4)),
    ]:
        table = builtin_table(name)
        value = table.irreps[row].values[column] + shift
        assert _gram_check_matches_pairwise(table, _with_value(table, row, column, value))


def test_gram_check_reads_large_pairings_in_their_own_slot():
    # Pairings far beyond |G| D^2, powers of two among them, stay inside their own slot.
    for name in ("z2", "s3"):
        table = builtin_table(name)
        last = len(table.irreps) - 1
        for bits in range(1, 64, 3):
            for shift in (2**bits, -(2**bits), Fraction(2**bits, 3)):
                value = table.irreps[last].values[1] + shift
                rows = _with_value(table, last, 1, value)
                assert _gram_check_matches_pairwise(table, rows) == (0, last)


def test_gram_check_pairs_each_row_once(monkeypatch):
    calls = []
    pair = char_table._pair
    monkeypatch.setattr(char_table, "_pair", lambda *args: calls.append(args) or pair(*args))
    product = _product_table_text(Z4_TEXT, S3_TEXT)
    trivial_group = lambda: CharacterTable(1, (1,), ("triv",), (ClassFunction((1,)),))
    for build in [lambda name=name: builtin_table(name) for name in BUILTINS] + [
        lambda: load_table(product),
        trivial_group,
    ]:
        calls.clear()
        table = build()
        assert len(calls) == len(table.irreps)


def test_load_table_parses_each_distinct_value_once(monkeypatch):
    tokens = []
    parse = char_table._parse_value
    monkeypatch.setattr(
        char_table, "_parse_value", lambda token, line: tokens.append(token) or parse(token, line)
    )
    assert load_table(Z4_TEXT).irreps == builtin_table("z4").irreps
    assert sorted(tokens) == sorted(["1", "0+1i", "-1", "0-1i"])


def test_inexact_class_function_values_are_refused_by_name():
    # The constructor refuses the float, so no route makes a class function that holds
    # one: not a product, not dataclasses.replace, and no entry point can be handed one.
    s3 = builtin_table("s3")

    def f():
        return ClassFunction((2.0, 0, -1))

    for call in (
        f,
        lambda: f() * s3.irreps[0],
        lambda: dataclasses.replace(s3.irreps[2], values=(2.0, 0, -1)),
        lambda: CharacterTable(6, (1, 3, 2), s3.irrep_names, s3.irreps[:2] + (f(),)),
        lambda: tensor_power_char(f(), 2),
        lambda: inner_product(s3, s3.irreps[0], f()),
        lambda: decompose(s3, f()),
        lambda: is_faithful(s3, f()),
        lambda: first_power_containing(s3, f(), 0, 4),
        lambda: regular_tensor_check(s3, f()),
        lambda: min_power_containing_regular(s3, f()),
    ):
        with pytest.raises(TypeError, match=r"^class-function value 2\.0 is neither"):
            call()


def test_decompose_matches_per_row_inner_products():
    # v + zeta_5 - zeta_5 is v held at order 5 * order(v): f's columns then live at a
    # multiple of the table's common order, and the rows' columns must follow.
    z5 = root_of_unity(5)
    for name in BUILTINS:
        table = builtin_table(name)
        for chi in table.irreps:
            one_plus = ClassFunction(tuple(1 + v for v in chi.values))
            lifted = ClassFunction(tuple(v + z5 - z5 for v in chi.values))
            for f in (chi, one_plus, lifted):
                for power in range(7):
                    g = tensor_power_char(f, power)
                    expected = tuple(inner_product(table, g, row) for row in table.irreps)
                    assert decompose(table, g) == expected
