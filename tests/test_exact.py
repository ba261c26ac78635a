import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfill.exact import common_den, numerators, parse_scalar

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
