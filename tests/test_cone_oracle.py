"""`hcfill.cone.cone_covering`, which works on integer numerators over one
denominator, against the Fraction implementation it replaced, kept below
verbatim as the oracle: the same certificate fields, value and type, the
same balls, and the same error for a zero radius, a ball outside the
ambient ball and an over-cap count; and its closed-form progression sums
against the term-by-term sums."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcfill import cone
from hcfill.cone import cone_covering
from hcfill.errors import InputError, VerificationError
from hcfill.exact import TOL, Scalar, as_fraction, fmt_scalar, is_integral, power
from hcfill.space import Ball, Covering, linf


# ---------------------------------------------------------------------------
# oracle: the Fraction implementation

@dataclass(frozen=True)
class OracleCertificate:
    """The certificate as it kept its input balls, with the Fraction
    construction of its balls that the integer frame replaced."""

    apex: tuple
    ambient_radius: Scalar
    m: Scalar
    variant: str
    input_cost: Scalar  # sum r_i^(m-1) of the input covering
    cost: Scalar
    bound: Scalar
    per_input_counts: tuple[int, ...]
    input_balls: tuple[Ball, ...] = field(repr=False)

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        mf = as_fraction(self.m)
        balls: list[Ball] = []
        for src, n_balls in zip(self.input_balls, self.per_input_counts):
            r = as_fraction(src.radius)
            q = tuple(as_fraction(x) for x in src.center)
            d = as_fraction(linf(q, self.apex))
            step = r / mf
            direction = None if d == 0 else tuple((a - b) / d for a, b in zip(self.apex, q))
            for j in range(n_balls):
                u = step * j
                center = q if direction is None else tuple(
                    qc + dc * u for qc, dc in zip(q, direction)
                )
                if self.variant == "standard":
                    radius = (1 + 1 / mf) * r
                else:
                    # section of the cone in this ball's slab has parameter at
                    # most t_j = 1 - max(0, j-1)*step/d; radius t_j*r + step
                    # covers it
                    t_j = 1 if j <= 1 else 1 - (j - 1) * step / d
                    radius = t_j * r + step
                balls.append(Ball(center, radius))
        return tuple(balls)


def oracle_cone_covering(
    input_cover: Covering,
    apex,
    R: Scalar,
    m: Scalar,
    variant: str = "standard",
) -> OracleCertificate:
    """Cover the cone over the input covering's region from `apex`.

    The input covering carries dimension m-1 costs; the output covers the
    cone at dimension m.  Every input ball must satisfy d(q_i, apex) + r_i
    <= R; every input radius must be positive.  Emitted centers lie on the
    segments from the input centers to the apex.
    """
    if variant not in ("standard", "improved"):
        raise InputError(f"unknown cone variant {variant!r}")
    if float(m) < 1.0:
        raise InputError("cone covering needs m >= 1")
    apex = tuple(as_fraction(x) for x in apex)
    mf = as_fraction(m)
    Rf = as_fraction(R)

    # per input: the radius progression (a, b, ball count)
    runs: list[tuple[Fraction, Fraction, int]] = []
    for i, src in enumerate(input_cover.balls):
        r = as_fraction(src.radius)
        if r <= 0:
            raise InputError("cone covering needs positive input radii")
        d = as_fraction(linf(tuple(as_fraction(x) for x in src.center), apex))
        if d + r > Rf:
            raise InputError(
                f"input ball {i} is not inside the ambient ball of radius {R}"
            )
        n_balls = max(1, ceil(mf * d / r)) if d > 0 else 1
        shrink = r * r / (mf * d) if variant == "improved" and n_balls > 2 else Fraction(0)
        runs.append(((1 + 1 / mf) * r, shrink, n_balls))
    counts = tuple(n for _, _, n in runs)

    exponent = mf - 1
    input_cost = sum(power(as_fraction(b.radius), exponent) for b in input_cover.balls)
    cost = oracle_progression_cost(runs, mf)
    factor = power(1 + 1 / mf, mf)
    lead = mf if variant == "standard" else 2
    bound = lead * factor * Rf * input_cost if not isinstance(factor, float) else \
        float(lead) * factor * float(Rf) * float(input_cost)

    if isinstance(cost, Fraction) and isinstance(bound, Fraction):
        violated = cost > bound
    else:
        violated = float(cost) > float(bound) + TOL * max(1.0, abs(float(bound)))
    if violated:
        raise VerificationError(
            "cone covering exceeded its certified bound",
            {"cost": fmt_scalar(cost), "bound": fmt_scalar(bound), "variant": variant},
        )
    for i, src in enumerate(input_cover.balls):
        if counts[i] > ceil(mf * Rf / as_fraction(src.radius)):
            raise VerificationError(
                "cone covering emitted more balls than its per-input cap",
                {"input": i, "count": counts[i]},
            )
    return OracleCertificate(
        apex, Rf, m, variant, input_cost, cost, bound, counts,
        input_balls=tuple(input_cover.balls),
    )


def oracle_progression_cost(runs, mf: Fraction) -> Scalar:
    """sum of radius^m over every output ball, where input i's radii are
    a, a, a-b, a-2b, ... (n balls): the value of summing `power(radius, m)`
    ball by ball.  At integer m the radii are integers over one common
    denominator and the sum is one Fraction; otherwise one flat float sum
    over the same radii in the same order, so that rounding cannot move."""
    if not runs:
        return 0
    denom = math.lcm(*(x.denominator for a, b, _ in runs for x in (a, b)))
    units = [(a.numerator * (denom // a.denominator), b.numerator * (denom // b.denominator), n)
             for a, b, n in runs]
    if is_integral(mf):
        k = int(mf)
        total = sum(top ** k + sum((top - j * drop) ** k for j in range(n - 1))
                    for top, drop, n in units)
        return Fraction(total, denom ** k)
    e = float(mf)
    total = 0
    for top, drop, n in units:
        for j in range(n):
            total += ((top - max(0, j - 1) * drop) / denom) ** e
    return total




# ---------------------------------------------------------------------------
# strategies

MS = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))


def outcome(fn, *args):
    try:
        cert = fn(*args)
    except (InputError, VerificationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "report", None))
    fields = (cert.apex, cert.ambient_radius, cert.m, cert.variant, cert.input_cost,
              cert.cost, cert.bound, cert.per_input_counts)
    return ("ok", fields, tuple(type(x) for x in fields))


@st.composite
def cones(draw):
    """Input balls with Fraction or float centres around a Fraction apex,
    an ambient radius at, above or (sometimes) below their reach, m and a
    variant; now and then one radius is zero."""
    n = draw(st.integers(1, 3))
    fraction = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 8, 12)))
    floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    apex = draw(st.tuples(*[fraction] * n))
    balls = []
    for _ in range(draw(st.integers(0, 4))):
        centre = draw(st.tuples(*[st.one_of(fraction, floats)] * n))
        radius = draw(st.builds(Fraction, st.integers(1, 24), st.sampled_from((4, 7, 16))))
        balls.append(Ball(centre, radius))
    if balls and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(balls) - 1))
        balls[i] = Ball(balls[i].center, Fraction(0))
    reach = max((as_fraction(linf(tuple(map(as_fraction, b.center)), apex)) + b.radius
                 for b in balls), default=Fraction(1))
    R = reach + draw(st.sampled_from((0, 0, Fraction(1, 3), 2, Fraction(-1, 5))))
    cover = Covering(tuple(balls), frozenset(), 1)
    return cover, apex, R, draw(st.sampled_from(MS)), draw(st.sampled_from(("standard", "improved")))


# ---------------------------------------------------------------------------
# the integer implementation against the oracle

@settings(deadline=None, derandomize=True, max_examples=300)
@given(cones())
@example((Covering((Ball((Fraction(2), Fraction(0)), Fraction(1)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(1), 2, "standard"))  # outside
@example((Covering((Ball((Fraction(0), Fraction(0)), Fraction(0)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(1), 2, "improved"))  # zero radius
@example((Covering((Ball((0.5, 0.25), Fraction(1, 4)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(3, 4), Fraction(5, 2), "improved"))
def test_cone_covering_matches_the_fraction_oracle(case):
    assert outcome(cone_covering, *case) == outcome(oracle_cone_covering, *case)


def _balls(cert):
    """The certificate's balls with the types of their parts."""
    return [(b, tuple(map(type, b.center)), type(b.radius)) for b in cert.balls]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(cones())
@example((Covering((Ball((Fraction(1, 3), Fraction(-2)), Fraction(1, 4)),
                    Ball((0.75, -1.5), Fraction(3, 7))), frozenset(), 1),
          (Fraction(1, 3), Fraction(-2)), Fraction(3), 2, "improved"))  # d = 0, a float centre
@example((Covering((Ball((0.5, 0.25), Fraction(1, 16)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(3, 4), 3, "improved"))  # a long progression
def test_cone_balls_match_the_fraction_oracle(case):
    """Every ball, in provenance order, at every m of MS and both
    variants: the frame's integers give the balls the Fraction
    construction gave from the input balls, Fractions both."""
    cover, apex, R, _, _ = case
    for m in MS:
        for variant in ("standard", "improved"):
            args = (cover, apex, R, m, variant)
            try:
                want = oracle_cone_covering(*args)
            except (InputError, VerificationError):
                continue
            assert _balls(cone_covering(*args)) == _balls(want)


def test_an_over_cap_count_raises_the_same_error(monkeypatch):
    """d + r <= R gives ceil(m d / r) <= ceil(m R / r), so no valid input
    exceeds a cap.  Raise the first ball count by hand in both, with the
    cost check passed, and both must refuse it alike."""
    cover = Covering((Ball((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 8)),
                      Ball((Fraction(-1, 4), Fraction(0)), Fraction(1, 4))), frozenset(), 1)
    case = (cover, (Fraction(0), Fraction(0)), Fraction(1), 2, "improved")

    def first_raised(count):
        calls = []

        def patched(*args):
            calls.append(args)
            return count(*args) + (10**6 if len(calls) == 1 else 0)
        return patched

    monkeypatch.setattr(cone, "_ceil_div", first_raised(cone._ceil_div))
    monkeypatch.setattr(cone, "_progression_cost", lambda *args: Fraction(0))
    monkeypatch.setitem(globals(), "ceil", first_raised(math.ceil))
    monkeypatch.setitem(globals(), "oracle_progression_cost", lambda *args: Fraction(0))
    got = outcome(cone_covering, *case)
    assert got[0] == "VerificationError"
    assert got[1] == "cone covering emitted more balls than its per-input cap"
    assert got == outcome(oracle_cone_covering, *case)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.integers(-10**6, 10**6), st.integers(-10**4, 10**4), st.integers(0, 500),
       st.integers(0, 7))
@example(5, 0, 0, 0)
@example(0, 3, 1, 0)
def test_power_sum_matches_the_term_by_term_sum(top, drop, count, k):
    assert cone._power_sum(top, drop, count, k) == sum(
        (top - j * drop) ** k for j in range(count))


# ---------------------------------------------------------------------------
# the shared integer core against its Fraction adapter

def numbers(fn, *args):
    """(input_cost, cost, bound, counts) with their types, or the error."""
    try:
        got = fn(*args)
    except (InputError, VerificationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "report", None))
    return ("ok", got, tuple(type(x) for x in got))


def certificate_numbers(*case):
    cert = cone_covering(*case)
    return cert.input_cost, cert.cost, cert.bound, cert.per_input_counts


def core_numbers(cover, apex, R, m, variant):
    """`cone.cone_cost` on the cover's radii and apex distances as
    numerators over one denominator."""
    apex = tuple(map(as_fraction, apex))
    balls = [(as_fraction(b.radius), tuple(map(as_fraction, b.center))) for b in cover.balls]
    den = math.lcm(as_fraction(R).denominator,
                   *(x.denominator for r, c in balls for x in (r, *c, *apex)))
    inputs = [(int(r * den), int(as_fraction(linf(c, apex)) * den)) for r, c in balls]
    return cone.cone_cost(inputs, den, R, m, variant)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(cones())
@example((Covering((Ball((Fraction(2), Fraction(0)), Fraction(1)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(1), 2, "standard"))  # outside
@example((Covering((Ball((Fraction(0), Fraction(0)), Fraction(0)),), frozenset(), 1),
          (Fraction(0), Fraction(0)), Fraction(1), 2, "improved"))  # zero radius
def test_cone_cost_matches_cone_covering(case):
    """The same numbers and errors at every m of MS and both variants."""
    cover, apex, R, _, _ = case
    for m in MS:
        for variant in ("standard", "improved"):
            args = (cover, apex, R, m, variant)
            assert numbers(core_numbers, *args) == numbers(certificate_numbers, *args)
