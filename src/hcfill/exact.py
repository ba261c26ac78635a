"""Scalar arithmetic shared by every module.

Voxel-model quantities (cell size, grid-ball radii, integer-exponent costs)
are `fractions.Fraction` and all comparisons on them are exact.  Anything
that passes through a non-integer exponent degrades to float and is compared
with the tolerance `TOL`.

`common_den` and `numerators` are the one place where rationals become
integers: numerators over the lcm of the values' denominators.
`finite_number`, `nonneg_float` and `nonneg_int` refuse, with `InputError`,
an argument that is not a finite number, a float >= 0 or an int >= 0.
`InequalityCheck` is the verdict record of one certified inequality.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, isfinite, lcm, log
from typing import Union

from .errors import InputError

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
    base is rational, float otherwise: there a base or a power beyond the
    float range is an input error."""
    if isinstance(base, (Fraction, int)) and is_integral(m):
        return Fraction(base) ** int(m)
    try:
        return float(base) ** float(m)
    except OverflowError:
        raise InputError(f"a power at m = {m} is beyond the float range") from None


def root(x: Scalar, m: Scalar) -> float:
    """x**(1/m); always float (roots of rationals are rarely rational).  A
    rational x outside the float range (its float overflows, or is 0.0 while
    x is not) takes the root from the logs of its numerator and
    denominator."""
    try:
        xf = float(x)
    except OverflowError:
        xf = None
    if xf is None or xf == 0.0 and x != 0:
        x = as_fraction(x)
        return exp((log(x.numerator) - log(x.denominator)) / float(m))
    if xf == 0.0:
        return 0.0
    return xf ** (1.0 / float(m))


def root_ratio(a: Scalar, b: Scalar, m: Scalar, what: str) -> float:
    """a / b^(1/m) as a float, for rationals a >= 0 and b > 0 and an
    integer m >= 1: float(a) / root(b, m), or root(a^m / b, m) when a is
    beyond the float range or b's root below it.  A ratio beyond the float
    range is an input error that names `what`."""
    try:
        return float(a) / root(b, m)
    except (OverflowError, ZeroDivisionError):
        pass
    try:
        return root(as_fraction(a) ** int(m) / as_fraction(b), m)
    except OverflowError:
        raise InputError(f"{what} is beyond the float range") from None


def floor_power(base: Fraction, e: Fraction, what: str) -> Fraction:
    """floor(base^e) for a rational base >= 0 and e = p/q >= 0: the integer
    q-th root of floor(base^p), by Newton steps on integers from above,
    which is floor(base^e) exactly.  An e whose denominator exceeds 64 is
    an input error that names `what` as beyond the float range, the only
    place this is asked for."""
    p, q = e.numerator, e.denominator
    if q > 64:
        raise InputError(f"{what} is beyond the float range at this exponent")
    a = math.floor(base ** p)
    if a < 2:
        return Fraction(a)
    x = 1 << -(-a.bit_length() // q)  # above a^(1/q)
    while (y := ((q - 1) * x + a // x ** (q - 1)) // q) < x:
        x = y
    return Fraction(x)


def finite_number(x, what: str) -> Fraction:
    """x as an exact Fraction: an int, a Fraction or a finite float; a bool,
    any other type, NaN and an infinity are input errors."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)) \
            or isinstance(x, float) and not isfinite(x):
        raise InputError(f"{what} must be a finite number, got {x!r}")
    return as_fraction(x)


def nonneg_float(x, what: str) -> float:
    """x as a float when it is a `finite_number` >= 0 whose float is finite
    (a Fraction or int can overflow it), else an input error."""
    try:
        value = float(finite_number(x, what))
    except OverflowError:
        raise InputError(f"{what} is beyond the float range") from None
    if value < 0:
        raise InputError(f"{what} must be >= 0, got {value!r}")
    return value


def nonneg_int(x, what: str) -> int:
    """x when it is an int >= 0 and not a bool, else an input error."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise InputError(f"{what} must be a non-negative int, got {x!r}")
    return x


def parse_scalar(text: Scalar) -> Fraction:
    """Parse "p/q" strings, ints, finite floats and decimal strings to an
    exact Fraction, else raise ValueError (a bool too, which is not read as
    1 or 0).  Used by every JSON loader."""
    if isinstance(text, bool):
        raise ValueError(f"not a number: {text!r}")
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
    floats as floats.  A rational with more decimal digits than the
    interpreter writes (`sys.get_int_max_str_digits`) is an input error."""
    try:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                return f"{x.numerator}/{x.denominator}"
            x = x.numerator
        if isinstance(x, int):
            if x.bit_length() > 2126:  # may pass 640 digits, the least limit there is
                str(x)
            return x
    except ValueError:
        raise InputError(f"a reported number has more than {sys.get_int_max_str_digits()} "
                         "decimal digits, the interpreter's limit for int-to-string "
                         "conversion") from None
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


@dataclass(frozen=True)
class InequalityCheck:
    """One certified inequality of a report: its two sides, the verdict and
    a note; an advisory check is reported but never fails its report."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    note: str = ""
    advisory: bool = False  # recorded for the report, never a failure

    @classmethod
    def le(cls, name: str, lhs: float, rhs: float, slack: float = 0.0,
           note: str = "", advisory: bool = False) -> "InequalityCheck":
        """The upper-bound check lhs <= rhs, passed within `slack`."""
        return cls(name, lhs, rhs, lhs <= rhs + slack, note, advisory)

    def to_dict(self) -> dict:
        d = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}
        if self.note:
            d["note"] = self.note
        if self.advisory:
            d["advisory"] = True
        return d
