"""Rules stated once for the whole library: bounded arguments, powers, unchecked values."""

import operator


def natural(value, name: str, least: int = 0) -> int:
    """``value`` as an int of at least ``least``; any float, even 2.0, raises TypeError."""
    value = operator.index(value)
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def power(base, n: int, product, one):
    """base**n by repeated squaring under ``product``; ``one()`` is called only for n = 0."""
    n = natural(n, "exponent")
    result = None
    while n:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return one() if result is None else result


def unchecked(cls, **fields):
    """A frozen dataclass instance built without ``__post_init__``: only for fields the
    library made itself and that already obey every check the constructor would make."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
