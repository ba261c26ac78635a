import math
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfill.errors import InputError
from hcfill.exact import (common_den, floor_power, fmt_scalar, numerators, parse_scalar, root,
                          root_ratio)

rationals = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-200, 200), st.sampled_from([1, 2, 3, 4, 6, 7, 8, 12, 30])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(rationals, max_size=12), st.lists(st.integers(1, 40), max_size=3),
       st.integers(1, 6))
def test_numerators_over_the_common_den_are_the_values(values, dens, extra):
    """`common_den` is the lcm of the denominators (and of the extra
    denominators); over it, or over any multiple of it, each numerator n
    gives Fraction(n, den) == x."""
    den = common_den(values, *dens)
    assert den == reduce(math.lcm, [Fraction(x).denominator for x in values] + dens, 1)
    for d in (den, den * extra):
        nums = numerators(values, d)
        assert all(type(n) is int for n in nums)
        assert [Fraction(n, d) for n in nums] == [Fraction(x) for x in values]



@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_parse_scalar_refuses_non_finite_floats(x):
    """A ValueError, as for malformed text, which every loader reports as
    an input error; `Fraction(inf)` would raise OverflowError."""
    with pytest.raises(ValueError, match="not a finite number"):
        parse_scalar(x)
    assert parse_scalar(1e308) == Fraction(1e308)


@pytest.mark.parametrize("x, m", [
    (Fraction(3, 7), 4),
    (Fraction(22, 7), 600),
    (Fraction(5), 3),
    (Fraction(1, 9), 2),
])
@pytest.mark.parametrize("side", ["above", "below"])
def test_root_beyond_the_float_range_scales_the_float_path(x, m, side):
    """(x s^m)^(1/m) = x^(1/m) s: a rational whose float overflows past
    1e308, or underflows to 0.0, takes its root from logs, and matches the
    float path's root of the scaled-down x times s."""
    scale = Fraction(10) ** ((400 // m + 1) * (1 if side == "above" else -1))
    big = x * scale ** m
    assert big > 1e308 if side == "above" else float(big) == 0.0
    assert math.isclose(root(big, m), root(x, m) * float(scale), rel_tol=1e-12)


def test_root_in_the_float_range_is_the_float_power():
    for x, m in [(Fraction(3, 7), 4), (16 * Fraction(4) ** 200, 200), (0, 3), (2.5, 2)]:
        assert root(x, m) == (float(x) ** (1.0 / m) if x else 0.0)


def test_fmt_scalar_beyond_the_digit_limit_is_an_input_error():
    """A rational the interpreter will not write in decimal is refused with
    a message naming the active limit; one just inside it prints."""
    limit = sys.get_int_max_str_digits()
    inside = 10 ** (limit - 1)
    assert fmt_scalar(Fraction(inside)) == inside
    assert fmt_scalar(Fraction(1, inside)) == f"1/{inside}"
    for x in (10 ** limit, Fraction(10 ** limit), Fraction(1, 10 ** limit), Fraction(10 ** limit, 3)):
        with pytest.raises(InputError, match=f"more than {limit} decimal digits"):
            fmt_scalar(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.builds(Fraction, st.integers(0, 10 ** 40), st.integers(1, 10 ** 6)),
       st.integers(0, 9), st.integers(1, 8))
def test_floor_power_is_the_floor(base, p, q):
    """g = floor(base^(p/q)) exactly: g^q <= base^p < (g + 1)^q."""
    e = Fraction(p, q)
    got = floor_power(base, e, "x")
    assert got.denominator == 1
    g = got.numerator
    assert Fraction(g) ** e.denominator <= base ** e.numerator < Fraction(g + 1) ** e.denominator


def test_floor_power_refuses_an_exponent_of_large_denominator():
    with pytest.raises(InputError, match="the bound is beyond the float range"):
        floor_power(Fraction(10) ** 400, Fraction(0.3), "the bound")


@pytest.mark.parametrize("a, b, m, want", [
    (Fraction(1, 8), Fraction(1, 4), 2, 0.25),
    (Fraction(10) ** 400, Fraction(10) ** 400, 1, 1.0),
    (Fraction(10) ** 400, Fraction(10) ** 800, 2, 1.0),
    (Fraction(1, 10 ** 100), Fraction(1, 10 ** 800), 2, 1e300),
])
def test_root_ratio_beyond_the_float_range(a, b, m, want):
    """a / b^(1/m): the float path inside the range, and the root of
    a^m / b where a's float overflows or b's root underflows."""
    assert math.isclose(root_ratio(a, b, m, "c"), want, rel_tol=1e-12)


def test_root_ratio_beyond_the_float_range_is_an_input_error():
    with pytest.raises(InputError, match="^c is beyond the float range$"):
        root_ratio(Fraction(10) ** 800, Fraction(1), 2, "c")
