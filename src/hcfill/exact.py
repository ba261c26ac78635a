"""Scalar arithmetic shared by every module.

Voxel-model quantities (cell size, grid-ball radii, integer-exponent costs)
are `fractions.Fraction` and all comparisons on them are exact.  Anything
that passes through a non-integer exponent degrades to float and is compared
with the tolerance `TOL`.

`common_den` and `numerators` are the one place where rationals become
integers: numerators over the lcm of the values' denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from typing import Union

Scalar = Union[Fraction, float, int]

# Comparison tolerance for float-valued quantities (non-integer exponents,
# net-model distances).  Rational comparisons never use it.
TOL = 1e-9


def is_integral(m: Scalar) -> bool:
    if isinstance(m, int):
        return True
    if isinstance(m, Fraction):
        return m.denominator == 1
    return float(m).is_integer()


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion: a Fraction is returned as it is, ints, "p/q"
    strings and floats (via their binary expansion) become an equal
    Fraction."""
    return x if type(x) is Fraction else Fraction(x)


def common_den(values, *dens: int) -> int:
    """The lcm of `dens` and of the denominators of the rational (Fraction
    or int) values."""
    return lcm(*dens, *(x.denominator for x in values))


def numerators(values, den: int) -> tuple[int, ...]:
    """The integer n with Fraction(n, den) == x for each rational value x;
    `den` must be a multiple of every value's denominator."""
    return tuple(x.numerator * (den // x.denominator) for x in values)


def power(base: Scalar, m: Scalar) -> Scalar:
    """base**m, exact (Fraction) when the exponent is an integer and the
    base is rational, float otherwise."""
    if isinstance(base, (Fraction, int)) and is_integral(m):
        return Fraction(base) ** int(m)
    return float(base) ** float(m)


def root(x: Scalar, m: Scalar) -> float:
    """x**(1/m); always float (roots of rationals are rarely rational)."""
    xf = float(x)
    if xf == 0.0:
        return 0.0
    return xf ** (1.0 / float(m))


def parse_scalar(text: Scalar) -> Fraction:
    """Parse "p/q" strings, ints, finite floats and decimal strings to an
    exact Fraction, else raise ValueError.  Used by every JSON loader."""
    if isinstance(text, (Fraction, int)):
        return Fraction(text)
    if isinstance(text, float):
        if not isfinite(text):
            raise ValueError(f"not a finite number: {text!r}")
        return Fraction(text)
    s = str(text).strip()
    return Fraction(s)


def fmt_scalar(x: Scalar) -> Union[str, float, int]:
    """JSON-friendly form: Fractions as "p/q" strings (ints stay ints),
    floats as floats."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    return float(x)


def scalar_formatter():
    """A `fmt_scalar` that formats each distinct object once, for lists
    that share their scalars (grid-ball coordinates, dual prices).  It holds
    every object it formatted, so no id it keys on is reused."""
    seen = {}

    def fmt(x):
        hit = seen.get(id(x))
        if hit is None:
            hit = seen[id(x)] = (x, fmt_scalar(x))
        return hit[1]

    return fmt
