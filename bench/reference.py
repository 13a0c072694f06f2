"""Exact reference answers, computed by the benchmark's own code.

Nothing here imports ``repgrowth``: every expected value comes from an
independent formula, so a job's output is checked against mathematics rather
than against a second run of the same library code.

* SL_m: hook-length counts of standard Young tableaux, with sum(mult * dim)
  = m**n as a self-check on every Pieri reference.
* Tori: the constant term of (sum_k t**k)**n by integer polynomial powering
  (Kronecker substitution: the polynomial is evaluated at a power of two and
  raised to the n-th power as one big integer).
* Z/pZ: the Clebsch-Gordan / projective ladder for V_m (x) V_n, with the
  dimension identity as a self-check; transition matrices from integer
  matrix powers.
* Character tables: (1/|G|) sum_c |c| chi(c)**d conj(psi(c)) in exact
  integer or Gaussian-integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import exp, factorial, gcd, log, prod

# --- SL_m ------------------------------------------------------------------


def syt_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of ``shape``: n! over the product of hook lengths."""
    rows = [r for r in shape if r > 0]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    hooks = prod(
        (row - j) + (cols[j] - i) - 1 for i, row in enumerate(rows) for j in range(row)
    )
    return factorial(sum(rows)) // hooks


def weyl_dim(parts: tuple[int, ...]) -> int:
    m = len(parts)
    num = prod(parts[i] - parts[j] + j - i for i in range(m) for j in range(i + 1, m))
    den = prod(j - i for i in range(m) for j in range(i + 1, m))
    return num // den


def partitions(n: int, m: int, largest: int | None = None):
    """Partitions of n into at most m parts, padded to length m, descending lex."""
    largest = n if largest is None else largest
    if m == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n, largest), -1, -1):
        if first * m < n:
            break
        for rest in partitions(n - first, m - 1, first):
            yield (first,) + rest


def pieri_reference(m: int, n: int, canonical: bool) -> list[tuple[tuple[int, ...], int]]:
    """(partition, multiplicity) pairs of V^(x)n for SL_m in printed order."""
    mults = [(lam, syt_count(lam)) for lam in partitions(n, m)]
    if sum(mult * weyl_dim(lam) for lam, mult in mults) != m**n:
        raise ArithmeticError(f"reference for m={m}, n={n} fails sum(mult*dim) = m**n")
    if not canonical:
        return mults
    merged: dict[tuple[int, ...], int] = {}
    for lam, mult in mults:
        key = tuple(x - lam[-1] for x in lam)
        merged[key] = merged.get(key, 0) + mult
    return sorted(merged.items(), reverse=True)


def rectangle_series(m: int, max_k: int) -> list[int]:
    """Trivial SL_m summands of V^(x)(m*k): SYT counts of the k^m rectangle."""
    return [syt_count((k,) * m) for k in range(1, max_k + 1)]


def _fekete(values: list[int]) -> bool:
    return all(
        values[l + k - 1] >= values[l - 1] * values[k - 1]
        for l in range(1, len(values) + 1)
        for k in range(1, len(values) + 1 - l)
    )


def growth_reference(values: list[int], step: int, dim_v: int) -> dict:
    """Roots, bracket and Fekete flag for a trivial-summand series."""
    roots = [exp(log(a) / (step * k)) if a > 0 else 0.0 for k, a in enumerate(values, 1)]
    return {
        "step": step,
        "values": values,
        "roots": roots,
        "lower": max(roots),
        "upper": float(dim_v),
        "fekete_ok": _fekete(values),
    }


# --- Tori ------------------------------------------------------------------


def zero_weight_reference(weights: tuple[int, ...], n: int) -> int:
    """Constant term of (sum_k t**k)**n by polynomial powering.

    Shift the exponents to start at 0, pass to u = t**g with g their gcd, and
    evaluate at u = 2**B with B wider than any coefficient (each is at most
    m**n), so one big-integer power holds every coefficient in its own slot.
    """
    low = min(weights)
    shifted = [k - low for k in weights]
    g = 0
    for e in shifted:
        g = gcd(g, e)
    target = -low * n
    if g == 0:
        return len(weights) ** n if target == 0 else 0
    if target % g:
        return 0
    width = (len(weights) ** n).bit_length() + 1
    base = sum(1 << (width * (e // g)) for e in shifted)
    return (base**n >> (width * (target // g))) & ((1 << width) - 1)


def bernstein_reference(weights: tuple[int, ...], n: int) -> dict | None:
    """Exact (t, v, b) and the bound exp(-t^2 / (2(v + b t / 3))); None if sum <= 0."""
    m, total = len(weights), sum(weights)
    if total <= 0:
        return None
    mean = Fraction(total, m)
    t = Fraction(n * total, m + 1)
    v = n * sum((mean - k) ** 2 for k in weights) / m
    b = max(mean - k for k in weights)
    denominator = 2 * (v + b * t / 3)
    value = (1.0 if t == 0 else 0.0) if denominator == 0 else exp(-float(t * t / denominator))
    return {"value": value, "t": t, "v": v, "b": b}


def torus_reference(weights: tuple[int, ...], n: int) -> dict:
    count = zero_weight_reference(weights, n)
    return {
        "count": count,
        "probability": Fraction(count, len(weights) ** n),
        "bound": bernstein_reference(weights, n),
    }


def diagonal_reference(m: int, n: int) -> int:
    """Balanced words: the multinomial (m*n)! / (n!)**m."""
    return factorial(m * n) // factorial(n) ** m


# --- Z/pZ in characteristic p -----------------------------------------------


@cache
def ladder(p: int, m: int, n: int) -> tuple[int, ...]:
    """V_m (x) V_n: Clebsch-Gordan ladder below p, projective copies above it."""
    coeffs = [0] * p
    if m + n <= p - 1:
        for j in range(abs(m - n), m + n + 1, 2):
            coeffs[j] += 1
    else:
        d = m + n - (p - 2)
        coeffs[p - 1] += d
        if m >= d and n >= d:
            for j, c in enumerate(ladder(p, m - d, n - d)):
                coeffs[j] += c
    if sum((j + 1) * c for j, c in enumerate(coeffs)) != (m + 1) * (n + 1):
        raise ArithmeticError(f"ladder for V{m} (x) V{n} at p={p} has the wrong dimension")
    return tuple(coeffs)


def tensor_matrix(w: tuple[int, ...]) -> list[list[int]]:
    """Integer matrix of "tensor by w": column j lists w (x) V_j."""
    p = len(w)
    columns = [[0] * p for _ in range(p)]
    for j in range(p):
        for i, wi in enumerate(w):
            if wi:
                for k, c in enumerate(ladder(p, i, j)):
                    columns[j][k] += wi * c
    return [[columns[j][i] for j in range(p)] for i in range(p)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matpow(a: list[list[int]], k: int) -> list[list[int]]:
    size = len(a)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    while k:
        if k & 1:
            result = matmul(result, a)
        k >>= 1
        if k:
            a = matmul(a, a)
    return result


def modular_series(w: tuple[int, ...], step: int, max_k: int) -> list[int]:
    """Multiplicity of V_0 in w^(x)(step*k), k = 1..max_k, by matrix-vector steps."""
    block = matpow(tensor_matrix(w), step)
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in block]
    current = [1] + [0] * (len(w) - 1)
    values = []
    for _ in range(max_k):
        current = [sum(x * current[j] for j, x in row) for row in sparse]
        values.append(current[0])
    return values


def dimension(w) -> int:
    return sum((i + 1) * c for i, c in enumerate(w))


def ratio_matrix(integer: list[list[int]], column_dims: list[int]) -> list[list[Fraction]]:
    """P of an integer map: entry (i, j) is (i+1) * S_ij / dim S(V_j)."""
    return [
        [Fraction((i + 1) * x, column_dims[j]) for j, x in enumerate(row)]
        for i, row in enumerate(integer)
    ]


def markov_reference(w: tuple[int, ...], power: int) -> dict:
    p = len(w)
    dim_w = dimension(w)
    step = tensor_matrix(w)
    powered = matpow(step, power)
    one = ratio_matrix(step, [dim_w * (j + 1) for j in range(p)])
    many = ratio_matrix(powered, [dim_w**power * (j + 1) for j in range(p)])
    block = matpow(step, p - 1)
    decay = ratio_matrix(block, [dim_w ** (p - 1) * (j + 1) for j in range(p)])
    if all(decay[p - 1][j] > 0 for j in range(p)):
        rate = max(sum((decay[i][j] for i in range(p - 1)), Fraction(0)) for j in range(p))
    else:
        rate = None
    # Tensor-by-w matrices multiply, so P(T)^k and P(T^k) are the same matrix.
    return {"p_of_t": one, "power": many, "direct": many, "decay_rate": rate}


def ring_map_example() -> dict:
    """The additive map S = [[2,1],[0,1]] on R(Z/2Z) and its transition matrices."""
    s = [[2, 1], [0, 1]]
    s2 = matmul(s, s)

    def p_of(matrix):
        return ratio_matrix(matrix, [dimension(col) for col in zip(*matrix)])

    p_s = p_of(s)
    p_s_sq = [
        [sum((p_s[i][k] * p_s[k][j] for k in range(2)), Fraction(0)) for j in range(2)]
        for i in range(2)
    ]
    return {"s": s, "s2": s2, "p_s": p_s, "p_s2": p_of(s2), "p_s_sq": p_s_sq}


# --- Character tables, in Gaussian integers ----------------------------------

Gauss = tuple[int, int]


def gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gpow(a: Gauss, d: int) -> Gauss:
    result = (1, 0)
    while d:
        if d & 1:
            result = gmul(result, a)
        d >>= 1
        if d:
            a = gmul(a, a)
    return result


class Table:
    """A character table with exact Gaussian-integer values, identity class first."""

    def __init__(self, sizes, names, rows):
        self.sizes = tuple(sizes)
        self.order = sum(self.sizes)
        self.names = tuple(names)
        self.rows = tuple(tuple(row) for row in rows)
        for i, chi in enumerate(self.rows):
            for j, psi in enumerate(self.rows):
                if self.inner(chi, psi) != int(i == j):
                    raise ArithmeticError(f"rows {names[i]}, {names[j]} are not orthonormal")

    def inner(self, f, g) -> int | None:
        """(1/|G|) sum |c| f(c) conj(g(c)) if it is an integer, else None."""
        re = im = 0
        for size, a, b in zip(self.sizes, f, g):
            re += size * (a[0] * b[0] + a[1] * b[1])
            im += size * (a[1] * b[0] - a[0] * b[1])
        if im or re % self.order:
            return None
        return re // self.order

    def decompose(self, f) -> list[int | None]:
        return [self.inner(f, psi) for psi in self.rows]

    def power(self, name: str, d: int):
        return [gpow(v, d) for v in self.rows[self.names.index(name)]]

    def degree(self, name: str) -> int:
        return self.rows[self.names.index(name)][0][0]

    def first_power(self, name: str, target: str, max_d: int) -> int | None:
        t = self.names.index(target)
        chi = self.rows[self.names.index(name)]
        f = chi
        for d in range(1, max_d + 1):
            mult = self.inner(f, self.rows[t])
            if mult is None:
                raise ArithmeticError(f"{name}**{d} is not a character")
            if mult >= 1:
                return d
            f = [gmul(a, b) for a, b in zip(f, chi)]
        return None

    def min_regular(self, name: str, cap: int) -> int | None:
        one_plus = [(1 + a, b) for a, b in self.rows[self.names.index(name)]]
        degrees = [row[0][0] for row in self.rows]
        f = one_plus
        for n in range(1, cap + 1):
            mults = self.decompose(f)
            if None in mults:
                raise ArithmeticError(f"(1+{name})**{n} is not a character")
            if all(m >= d for m, d in zip(mults, degrees)):
                return n
            f = [gmul(a, b) for a, b in zip(f, one_plus)]
        return None

    def text(self) -> str:
        """The table in repgrowth's file format; i is written 0+1i."""

        def token(v: Gauss) -> str:
            if v[1] == 0:
                return str(v[0])
            return f"{v[0]}{v[1]:+d}i"

        lines = [f"{self.order} {len(self.sizes)}", " ".join(map(str, self.sizes))]
        lines += [f"{name} {' '.join(map(token, row))}" for name, row in zip(self.names, self.rows)]
        return "\n".join(lines) + "\n"


def rational_table(sizes, rows: dict[str, tuple[int, ...]]) -> Table:
    return Table(sizes, rows, [[(v, 0) for v in row] for row in rows.values()])


S3 = rational_table((1, 3, 2), {"triv": (1, 1, 1), "sign": (1, -1, 1), "std": (2, 0, -1)})
S4 = rational_table(
    (1, 6, 3, 8, 6),
    {
        "triv": (1, 1, 1, 1, 1),
        "sign": (1, -1, 1, 1, -1),
        "two": (2, 0, 2, -1, 0),
        "std": (3, 1, -1, 0, -1),
        "stdsign": (3, -1, -1, 0, 1),
    },
)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def abelian_4_table(rank: int) -> Table:
    """(Z/4)^rank: chi_x(g) = i**(x.g); classes and irreps in lexicographic order."""
    elements = [()]
    for _ in range(rank):
        elements = [e + (a,) for e in elements for a in range(4)]
    names = ["triv" if not any(x) else "c" + "".join(map(str, x)) for x in elements]
    rows = [
        [_I_POWERS[sum(a * b for a, b in zip(x, g)) % 4] for g in elements] for x in elements
    ]
    return Table([1] * len(elements), names, rows)


def z4_table() -> Table:
    t = abelian_4_table(1)
    return Table(t.sizes, ["triv", "chi1", "chi2", "chi3"], t.rows)


@cache
def _mn(beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on beta-sets: remove a rim hook of length mu[0]."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    occupied = set(beta)
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in occupied:
            sign = -1 if sum(1 for x in beta if b - r < x < b) % 2 else 1
            moved = tuple(sorted((occupied - {b}) | {b - r}, reverse=True))
            total += sign * _mn(moved, rest)
    return total


def symmetric_table(n: int) -> Table:
    """S_n by Murnaghan-Nakayama; class (1^n) first, irreps in descending lex order."""
    shapes = list(partitions(n, n))
    types = shapes[::-1]  # (1^n) first
    sizes = []
    for mu in types:
        parts = [x for x in mu if x]
        z = prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))
        sizes.append(factorial(n) // z)
    names = ["s" + "-".join(str(x) for x in lam if x) for lam in shapes]
    rows = []
    for lam in shapes:
        beta = tuple(lam[i] + n - 1 - i for i in range(n))
        rows.append([(_mn(beta, tuple(x for x in mu if x)), 0) for mu in types])
    return Table(sizes, names, rows)
