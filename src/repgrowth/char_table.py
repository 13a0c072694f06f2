"""Complex character tables of finite groups, in exact arithmetic.

A rational value is an ``int`` or ``Fraction`` and an irrational one a
``Cyclotomic``, so rational tables run on Python's own numbers; ``ClassFunction``
refuses any other value, a float among them, with TypeError.  Multiplicities come
from the inner product (1/|G|) sum_c |c| f(c) conj(chi(c)); every check on a table
or a multiplicity is an exact equality.  A table keeps each row as its zeta_n-term
columns over the classes, built once, so pairings are column dot products.
Validation pairs each row once with all rows packed into one integer per
class and exponent, each row in its own fixed-width slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from numbers import Rational
from operator import index, mul

from ._exact import natural, power


def _divmod(num: list, den: tuple[int, ...]) -> tuple[list, list]:
    """Quotient and remainder of num by the monic den; coefficients constant term first."""
    num, deg = list(num), len(den) - 1
    quotient = [0] * (len(num) - deg)
    for top in range(len(num) - 1, deg - 1, -1):
        q = quotient[top - deg] = num[top]
        for j, d in enumerate(den):
            num[top - deg + j] -= q * d
    return quotient, num[:deg]


@cache
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first: x^n - 1 divided exactly by Phi_d for d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divmod(poly, _cyclotomic_poly(d))[0]
    return tuple(poly)


@dataclass(frozen=True, eq=False)
class Cyclotomic:
    """An irrational sum_k coeffs[k] * zeta_n**k, zeta_n = exp(2 pi i / n):
    ``coeffs`` is the unique remainder modulo Phi_n.  A rational result of
    arithmetic comes back as an ``int`` or ``Fraction``."""

    n: int
    coeffs: tuple

    def __add__(self, other):
        if not isinstance(other, (Rational, Cyclotomic)):
            return NotImplemented
        n = lcm(self.n, _order(other))
        dense = [0] * n
        for k, c in _terms(self, n) + _terms(other, n):
            dense[k] += c
        return _reduce(n, dense)

    def __mul__(self, other):
        if not isinstance(other, (Rational, Cyclotomic)):
            return NotImplemented
        n = lcm(self.n, _order(other))
        dense, right = [0] * n, _terms(other, n)
        for i, a in _terms(self, n):
            for j, b in right:
                dense[(i + j) % n] += a * b
        return _reduce(n, dense)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> Cyclotomic:
        return Cyclotomic(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, d: int):
        return power(self, d, mul, lambda: 1)

    def conjugate(self):
        gap = [0] * (self.n - len(self.coeffs))  # zeta**k -> zeta**(n - k)
        return _reduce(self.n, [self.coeffs[0], *gap, *self.coeffs[:0:-1]])

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self - other == 0  # the difference is rational only when it is 0
        return False if isinstance(other, Rational) else NotImplemented

    def __hash__(self) -> int:
        # The mean of the Galois conjugates is the same in every field holding the value:
        # mu(m)/phi(m) for zeta of order m, with -mu(m) the x^(phi(m)-1) coefficient of Phi_m.
        polys = (_cyclotomic_poly(self.n // gcd(self.n, k)) for k in range(len(self.coeffs)))
        return hash(sum(Fraction(-c * p[-2], len(p) - 1) for c, p in zip(self.coeffs, polys)))

    def __str__(self) -> str:
        terms = (f"{c}*z{self.n}^{k}" if k else str(c) for k, c in enumerate(self.coeffs) if c)
        return " + ".join(terms)


Scalar = int | Fraction | Cyclotomic


def _order(value: Scalar) -> int:
    return value.n if isinstance(value, Cyclotomic) else 1


def _terms(value: Scalar, n: int) -> list[tuple[int, Rational]]:
    """Nonzero (exponent of zeta_n, coefficient) pairs of value; its order divides n."""
    if isinstance(value, Cyclotomic):
        return [(k * n // value.n, c) for k, c in enumerate(value.coeffs) if c]
    return [(0, value)] if value else []


def _remainder_bound(n: int) -> int:
    """C_n, the largest |coefficient| of x^r mod Phi_n over r < n (1 for every n <= 120
    but 105, where it is 2); each remainder is x times the last, reduced once."""
    phi = _cyclotomic_poly(n)
    remainder, most = [1] + [0] * (len(phi) - 2), 1
    for _ in range(1, n):
        top = remainder[-1]  # the coefficient of x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1))
        remainder = [a - top * b for a, b in zip([0] + remainder[:-1], phi)]
        most = max(most, *map(abs, remainder))
    return most


def _reduce(n: int, dense: list) -> Scalar:
    """sum_k dense[k] * zeta_n**k, rational whenever its remainder mod Phi_n is."""
    coeffs = _divmod(dense, _cyclotomic_poly(n))[1]
    return Cyclotomic(n, tuple(coeffs)) if any(coeffs[1:]) else coeffs[0]


def root_of_unity(n: int, k: int = 1) -> Scalar:
    """zeta_n**k = exp(2 pi i k / n), exactly."""
    n, k = natural(n, "n", 1), index(k)
    return _reduce(n, [int(j == k % n) for j in range(n)])


class InvalidCharacterError(ValueError):
    """Raised when a class function fails to behave like a character."""


class TableParseError(ValueError):
    """A malformed character-table file; ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ClassFunction:
    """Values of a class function on the conjugacy classes, identity first.  Each value
    must be Rational or Cyclotomic: any other, a float among them, raises TypeError here,
    for a product or a ``dataclasses.replace`` too, so no caller checks values again."""

    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        for value in self.values:
            if not isinstance(value, (Rational, Cyclotomic)):
                raise TypeError(
                    f"class-function value {value!r} is neither Rational nor Cyclotomic"
                )

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if len(self.values) != len(other.values):
            raise ValueError("class counts differ")
        return ClassFunction(tuple(a * b for a, b in zip(self.values, other.values)))


def tensor_power_char(f: ClassFunction, d: int) -> ClassFunction:
    """Character of the d-th tensor power: pointwise d-th power.

    d = 0 gives the trivial (all-ones) character.
    """
    d = natural(d, "power")
    return ClassFunction(tuple(v**d for v in f.values))


def _integer(value: Scalar) -> int | None:
    if isinstance(value, Rational) and value.denominator == 1:
        return int(value)
    return None


@dataclass(frozen=True)
class CharacterTable:
    """A complete character table: class sizes plus one row per irreducible.

    Validated on construction: the identity class (size 1) comes first, class
    sizes sum to the group order, degrees are positive integers, the rows are
    orthonormal for the standard inner product, and squared degrees sum to
    the group order (so the listed irreducibles are all of them).  Orthonormality
    is the Gram check sum_c |c| chi_i(c) conj(chi_j(c)) = |G| delta_ij, exact, on
    the rows' zeta_n-term columns (n the lcm of all value orders), kept for decompose:
    row i is paired once with all rows, packed side by side in slots wide enough for
    any entry, so k pairings check all k(k+1)/2 entries.  The group order and class
    sizes are coerced with ``operator.index``: a float, even 6.0, raises TypeError.
    """

    group_order: int
    class_sizes: tuple[int, ...]
    irrep_names: tuple[str, ...]
    irreps: tuple[ClassFunction, ...]
    _n: int = field(init=False, repr=False, compare=False)
    _row_columns: tuple[dict[int, list], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_order", index(self.group_order))
        object.__setattr__(self, "class_sizes", tuple(map(index, self.class_sizes)))
        k = len(self.class_sizes)
        if k == 0 or self.class_sizes[0] != 1:
            raise InvalidCharacterError("first class must be the identity, size 1")
        if any(size < 1 for size in self.class_sizes):
            raise InvalidCharacterError(f"class sizes {self.class_sizes} not positive")
        if sum(self.class_sizes) != self.group_order:
            raise InvalidCharacterError(
                f"class sizes sum to {sum(self.class_sizes)}, not {self.group_order}"
            )
        if len(self.irreps) != k or len(self.irrep_names) != k:
            raise InvalidCharacterError(f"need exactly {k} named irreducibles")
        if len(set(self.irrep_names)) != k:
            raise InvalidCharacterError("irreducible names must be distinct")
        for name, chi in zip(self.irrep_names, self.irreps):
            if len(chi.values) != k:
                raise InvalidCharacterError(f"{name} has {len(chi.values)} values, not {k}")
            degree = _integer(chi.values[0])
            if degree is None or degree < 1:
                raise InvalidCharacterError(f"{name} has degree {chi.values[0]}")
        if sum(self.degree(i) ** 2 for i in range(k)) != self.group_order:
            raise InvalidCharacterError("squared degrees do not sum to the group order")
        # _order and _terms once per distinct value, keyed by representation: a table has
        # few ((Z/4)^3 has 4 among 4,096), and a Cyclotomic's own hash reduces mod Phi_n.
        distinct = {_key(v): v for chi in self.irreps for v in chi.values}
        n = lcm(*map(_order, distinct.values()))
        terms = {key: dict(_terms(v, n)) for key, v in distinct.items()}
        columns = tuple(_columns(chi.values, n, terms) for chi in self.irreps)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_row_columns", columns)
        # The Gram check, one pairing per row.  Row j's columns, times the lcm D of their
        # denominators, fill slot j (width bits) of one packed column set.  Pairing and
        # reduction mod Phi_n are Z-linear, so slot j of row i's reduced pairing holds
        # D^2 sum_c |c| chi_i(c) conj(chi_j(c)).  No slot exceeds C_n sum_c |c| l(c)^2, l(c)
        # the largest sum of |coefficients| of a row at c, nor can |G| D^2, and
        # 2**(width - 1) exceeds both, so the slots never carry into each other.
        scale = lcm(*(c.denominator for row in columns for col in row.values() for c in col))
        rows = [
            {e: [c.numerator * (scale // c.denominator) for c in col] for e, col in row.items()}
            for row in columns
        ]
        unit = self.group_order * scale**2
        l1 = [[sum(map(abs, cells)) for cells in zip(*row.values())] for row in rows]
        spread = sum(size * most**2 for size, most in zip(self.class_sizes, map(max, zip(*l1))))
        width = max(unit, _remainder_bound(n) * spread).bit_length() + 1
        packed: dict[int, list] = {}
        for j, row in enumerate(rows):
            for e, col in row.items():
                slots = packed.setdefault(e, [0] * k)
                for c, value in enumerate(col):
                    slots[c] += value << (width * j)
        phi = _cyclotomic_poly(n)
        for i, row in enumerate(rows):
            got = _divmod(_pair(_sized(row, self.class_sizes), packed, n), phi)[1]
            want = [unit << (width * i)] + [0] * (len(got) - 1)
            if got != want:
                # Each slot of got - want is below 2**width in absolute value, so the lowest
                # nonzero one holds the lowest set bit.  The slots below i conjugate pairings
                # already checked, so this is the first j >= i that fails.
                diffs = [a - b for a, b in zip(got, want) if a != b]
                j = min((d & -d).bit_length() - 1 for d in diffs) // width
                value = inner_product(self, self.irreps[i], self.irreps[j])
                raise InvalidCharacterError(
                    f"rows {self.irrep_names[i]}, {self.irrep_names[j]} "
                    f"have inner product {value}"
                )

    def degree(self, i: int) -> int:
        return _integer(self.irreps[i].values[0])  # validated integral

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(i) for i in range(len(self.irreps)))

    @property
    def trivial_index(self) -> int:
        for i, chi in enumerate(self.irreps):
            if all(v == 1 for v in chi.values):
                return i
        raise InvalidCharacterError("table has no trivial character")

    def irrep_index(self, name: str) -> int:
        try:
            return self.irrep_names.index(name)
        except ValueError:
            raise KeyError(
                f"no irreducible named {name!r}; have {', '.join(self.irrep_names)}"
            ) from None


def _key(value: Scalar):
    return (value.n, value.coeffs) if isinstance(value, Cyclotomic) else value


def _columns(values: tuple[Scalar, ...], n: int, terms: dict | None = None) -> dict[int, list]:
    """{e: the coefficient of zeta_n**e in each value}, for the exponents e in use; ``terms``,
    when given, holds each value's {e: coefficient} under its ``_key``."""
    found = [terms[_key(v)] for v in values] if terms else [dict(_terms(v, n)) for v in values]
    return {e: [t.get(e, 0) for t in found] for e in set().union(*found)}


def _sized(columns: dict[int, list], sizes: tuple[int, ...]) -> dict[int, list]:
    return {e: list(map(mul, column, sizes)) for e, column in columns.items()}


def _pair(sized: dict[int, list], columns: dict[int, list], n: int) -> list:
    """sum_c |c| f(c) conj(g(c)) on the powers of zeta_n, from f's sized columns and g's."""
    dense = [0] * n
    for e, left in sized.items():
        for d, right in columns.items():
            dense[(e - d) % n] += sum(map(mul, left, right))
    return dense


def _check_values(table: CharacterTable, *functions: ClassFunction) -> None:
    """Each function has one value per class of the table."""
    for h in functions:
        if len(h.values) != len(table.class_sizes):
            raise ValueError(f"expected {len(table.class_sizes)} class values, got {len(h.values)}")


def inner_product(table: CharacterTable, f: ClassFunction, g: ClassFunction) -> Scalar:
    """(1/|G|) sum over classes of |c| * f(c) * conj(g(c)), summed as coefficients on
    the powers of zeta_n (n the lcm of the orders of the values) and reduced once."""
    _check_values(table, f, g)
    n = lcm(*map(_order, f.values + g.values))
    dense = _pair(_sized(_columns(f.values, n), table.class_sizes), _columns(g.values, n), n)
    return _reduce(n, [Fraction(c, table.group_order) for c in dense])


def decompose(table: CharacterTable, f: ClassFunction) -> tuple[int, ...]:
    """Multiplicities of each irreducible in f, in table row order.

    Raises InvalidCharacterError when any inner product is not a non-negative
    integer: such an f is not a character of this group.
    """
    return _multiplicities(table, f, range(len(table.irreps)))


def _multiplicities(table: CharacterTable, f: ClassFunction, indices: range) -> tuple[int, ...]:
    """f's columns, built once, paired with the cached columns of each indexed row."""
    _check_values(table, f)
    n = lcm(table._n, *map(_order, f.values))
    sized, scale = _sized(_columns(f.values, n), table.class_sizes), n // table._n
    mults = []
    for index in indices:
        row = {e * scale: column for e, column in table._row_columns[index].items()}
        total = _integer(_reduce(n, _pair(sized, row, n)))
        if total is None or total < 0 or total % table.group_order:
            value = inner_product(table, f, table.irreps[index])
            raise InvalidCharacterError(
                f"multiplicity of {table.irrep_names[index]} is {value}, "
                "not a non-negative integer"
            )
        mults.append(total // table.group_order)
    return tuple(mults)


def is_faithful(table: CharacterTable, f: ClassFunction) -> bool:
    """Whether f takes the value f(identity) only on the identity class.

    For a character this says the underlying representation has trivial
    kernel, which is what makes tensor powers of f eventually contain
    every irreducible.
    """
    _check_values(table, f)
    return all(v != f.values[0] for v in f.values[1:])


def first_power_containing(
    table: CharacterTable, f: ClassFunction, target: int, max_d: int
) -> int | None:
    """Least d in 1..max_d with the target irreducible inside f**d, else None.

    Requires f faithful; a faithful character always succeeds for some
    d <= |G| (tested), but the search cap keeps the call total.
    """
    if not is_faithful(table, f):
        raise ValueError("character is not faithful")
    if not 0 <= target < len(table.irreps):
        raise ValueError(f"target index {target} out of range")
    max_d = natural(max_d, "max_d", 1)
    if decompose(table, f)[target]:  # checks that f is a character, hence every power
        return 1
    power = f
    for d in range(2, max_d + 1):
        power = power * f
        if _multiplicities(table, power, range(target, target + 1))[0]:
            return d
    return None


def regular_character(table: CharacterTable) -> ClassFunction:
    """|G| at the identity, 0 elsewhere."""
    return ClassFunction((table.group_order,) + (0,) * (len(table.class_sizes) - 1))


def regular_tensor_check(table: CharacterTable, f: ClassFunction) -> bool:
    """Verify V (x) Regular = deg(f) copies of Regular, via characters.

    Decomposes f * chi_regular and compares with deg(f) * (degrees vector);
    in particular the trivial multiplicity -- the trivial-summand count of
    V (x) Regular -- must equal deg(f).
    """
    degree = _integer(f.values[0])
    if degree is None or degree < 1:
        raise InvalidCharacterError(f"degree {f.values[0]} is not a positive integer")
    mults = decompose(table, f * regular_character(table))
    expected = tuple(degree * d for d in table.degrees)
    return mults == expected and mults[table.trivial_index] == degree


def min_power_containing_regular(
    table: CharacterTable, f: ClassFunction, max_n: int | None = None
) -> int:
    """Least N with (1 + f)**N containing the regular character, f faithful.

    "1 + f" is the character of Triv + V; containment means every irreducible
    multiplicity reaches its degree.  Once that holds for N it holds for all
    larger N (the check spot-verifies N+1 and N+2 and raises ArithmeticError
    if either fails).  Searches N = 1..max_n (default |G|) and raises
    LookupError if the cap is exceeded.
    """
    if not is_faithful(table, f):
        raise ValueError("character is not faithful")
    cap = natural(table.group_order if max_n is None else max_n, "max_n", 1)
    one_plus = ClassFunction(tuple(1 + v for v in f.values))

    def contains_regular(n: int) -> bool:
        mults = decompose(table, tensor_power_char(one_plus, n))
        return all(m >= d for m, d in zip(mults, table.degrees))

    for n in range(1, cap + 1):
        if contains_regular(n):
            if not (contains_regular(n + 1) and contains_regular(n + 2)):
                raise ArithmeticError(f"regular containment at N={n} fails at N+1 or N+2")
            return n
    raise LookupError(f"no power up to {cap} contains the regular character")


# --- Built-in tables -------------------------------------------------------


def _table(order: int, sizes: tuple[int, ...], rows: dict[str, tuple]) -> CharacterTable:
    return CharacterTable(
        group_order=order,
        class_sizes=sizes,
        irrep_names=tuple(rows),
        irreps=tuple(ClassFunction(values) for values in rows.values()),
    )


def builtin_table(name: str) -> CharacterTable:
    """Tables shipped with the library, for tests and callers: z2, z3, z4, s3, s4, d4."""
    key = name.lower()
    if key == "z2":
        return _table(2, (1, 1), {"triv": (1, 1), "sign": (1, -1)})
    if key in ("z3", "z4"):
        n = int(key[1:])
        rows = {
            "triv" if i == 0 else f"chi{i}": tuple(root_of_unity(n, i * j) for j in range(n))
            for i in range(n)
        }
        return _table(n, (1,) * n, rows)
    if key == "s3":
        # Classes: e (1), transpositions (3), 3-cycles (2).
        return _table(
            6,
            (1, 3, 2),
            {"triv": (1, 1, 1), "sign": (1, -1, 1), "std": (2, 0, -1)},
        )
    if key == "s4":
        # Classes: e (1), 2-cycles (6), 2+2-cycles (3), 3-cycles (8), 4-cycles (6).
        return _table(
            24,
            (1, 6, 3, 8, 6),
            {
                "triv": (1, 1, 1, 1, 1),
                "sign": (1, -1, 1, 1, -1),
                "two": (2, 0, 2, -1, 0),
                "std": (3, 1, -1, 0, -1),
                "stdsign": (3, -1, -1, 0, 1),
            },
        )
    if key == "d4":
        # Classes: e, r^2, {r, r^3}, reflections, diagonal reflections.
        return _table(
            8,
            (1, 1, 2, 2, 2),
            {
                "triv": (1, 1, 1, 1, 1),
                "rot": (1, 1, 1, -1, -1),
                "refl": (1, 1, -1, 1, -1),
                "diag": (1, 1, -1, -1, 1),
                "two": (2, -2, 0, 0, 0),
            },
        )
    raise KeyError(f"no built-in table named {name!r}")


# --- Text format -----------------------------------------------------------
#
#   <order> <class count k>
#   <k class sizes>
#   <name> <k values>        (one line per irreducible)
#
# Values are a, a+bi, or a-bi with a, b integers or fractions like -1/2 (the
# denominator nonzero); i is zeta_4.
# Blank lines and lines starting with '#' are skipped.

_VALUE_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/0*[1-9]\d*)?)(?:(?P<im>[+-]\d+(?:/0*[1-9]\d*)?)i)?$"
)


def _parse_value(token: str, line: int) -> Scalar:
    match = _VALUE_RE.match(token)
    if match is None:
        raise TableParseError(line, f"malformed value {token!r}")
    real, imag = (Fraction(p) if "/" in p else int(p) for p in match.groupdict("0").values())
    return Cyclotomic(4, (real, imag)) if imag else real  # 1 + x^2 = Phi_4: (a, b) is reduced


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise TableParseError(line, f"malformed {what} {token!r}") from None


def load_table(text: str) -> CharacterTable:
    """Parse a character table from its text form (strict; see format above).

    Syntactic problems raise TableParseError with the offending line number;
    the assembled table is then validated like any other CharacterTable.
    """
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise TableParseError(1, "empty table")
    number, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise TableParseError(number, f"header must be '<order> <classes>', got {header!r}")
    order = _parse_int(fields[0], number, "group order")
    k = _parse_int(fields[1], number, "class count")
    if order < 1 or k < 1:
        raise TableParseError(number, f"order {order} and class count {k} must be positive")
    if len(lines) < 2:
        raise TableParseError(number, "missing class-sizes line")
    number, sizes_line = lines[1]
    size_tokens = sizes_line.split()
    if len(size_tokens) != k:
        raise TableParseError(number, f"expected {k} class sizes, got {len(size_tokens)}")
    sizes = tuple(_parse_int(tok, number, "class size") for tok in size_tokens)
    names: list[str] = []
    rows: list[ClassFunction] = []
    parsed: dict[str, Scalar] = {}  # each distinct token once; every value is immutable
    for number, line in lines[2:]:
        tokens = line.split()
        if len(tokens) != k + 1:
            raise TableParseError(
                number, f"expected a name and {k} values, got {len(tokens)} fields"
            )
        names.append(tokens[0])
        for token in tokens[1:]:
            if token not in parsed:
                parsed[token] = _parse_value(token, number)
        rows.append(ClassFunction(tuple(map(parsed.__getitem__, tokens[1:]))))
    if len(rows) != k:
        raise TableParseError(
            lines[-1][0], f"expected {k} irreducible rows, got {len(rows)}"
        )
    return CharacterTable(order, sizes, tuple(names), tuple(rows))


def load_table_file(path: str) -> CharacterTable:
    with open(path, encoding="utf-8") as handle:
        return load_table(handle.read())
