"""Cone coverings: from a covering of a set Y inside B(p, R), an explicit
covering of the cone over Y with apex p, with certified m-cost.

For an input ball (q_i, r_i) the segment [q_i, p] is seeded with centers
spaced r_i/m apart.  The standard variant uses the uniform radius
(1+1/m)*r_i, giving at most ceil(m*R/r_i) balls per input and total cost at
most m*(1+1/m)^m * R * C, where C is the input covering's (m-1)-cost.  The
improved variant shrinks each radius proportionally to the cone section it
guards (the section of the cone at parameter t has radius t*r_i), which cuts
the constant to 2*(1+1/m)^m.  Along one segment the radii form the
progression a, a, a-b, a-2b, ... with a = (1+1/m) r_i and b = r_i^2/(m d_i)
(d_i = d(q_i, p)), so the certificate's cost comes from that progression:
at integer m a closed-form integer sum of m-th powers over one common
denominator, the same Fraction as summing the balls' costs, and the bound
is decided against it by cross-multiplying integers.  Radii, centres, apex
and R share one denominator too, the lcm of their denominators, so
containment, ball counts and per-input caps are integer tests; `cone_cost`
does all of that on integer inputs, and `cone_covering` is its adapter: it
reads the input balls through their covering maker's `frame`, straight
off the integers of `GridBalls` half-cell keys.  The certificate keeps that
integer frame and builds its balls, with per-ball provenance, from it on
first access; `cone_coverage_check` proves exactly that they cover the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InputError, VerificationError
from .exact import TOL, Scalar, as_fraction, finite_number, fmt_scalar, numerators, power
from .space import Ball, Covering


@dataclass(frozen=True)
class ConeCertificate:
    """A certified cone covering.  `cost`, `bound` and `per_input_counts`
    come from each input's radius progression; `frame` holds its numerators
    over den, (den, apex, input centres, input radii).  `balls` is built
    from it on first access, and `provenance` gives (input index, step j)
    per output ball."""

    apex: tuple
    ambient_radius: Scalar
    m: Scalar
    variant: str
    input_cost: Scalar  # sum r_i^(m-1) of the input covering
    cost: Scalar
    bound: Scalar
    per_input_counts: tuple[int, ...]
    frame: tuple = field(repr=False)

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        """Ball j of input (c, r), d from the apex a (0 read as 1), m = p/q:
        centre (c p d + (a - c) j r q) / (p d den), radius ((p + q) r d -
        drop_j) / (p d den), drop_j = (j - 1) q r^2 from j = 2 in the
        improved variant, else 0: the progression `_progression_cost` sums."""
        den, apex, centres, radii = self.frame
        p, q = as_fraction(self.m).as_integer_ratio()
        balls: list[Ball] = []
        for c, r, n_balls in zip(centres, radii, self.per_input_counts):
            d = max(abs(x - a) for x, a in zip(c, apex)) or 1
            scale, top = p * d * den, (p + q) * r * d
            for j in range(n_balls):
                drop = (j - 1) * q * r * r if j > 1 and self.variant == "improved" else 0
                centre = tuple(Fraction(x * p * d + (a - x) * j * r * q, scale)
                               for x, a in zip(c, apex))
                balls.append(Ball(centre, Fraction(top - drop, scale)))
        return tuple(balls)

    @property
    def provenance(self) -> tuple:
        return tuple((i, j) for i, n in enumerate(self.per_input_counts) for j in range(n))

    def to_dict(self) -> dict:
        return {
            "apex": [fmt_scalar(x) for x in self.apex],
            "ambient_radius": fmt_scalar(self.ambient_radius),
            "m": fmt_scalar(self.m),
            "variant": self.variant,
            "input_cost": fmt_scalar(self.input_cost),
            "cost": fmt_scalar(self.cost),
            "bound": fmt_scalar(self.bound),
            "balls": [
                {**b.to_dict(), "input": prov[0], "step": prov[1]}
                for b, prov in zip(self.balls, self.provenance)
            ],
        }


def cone_covering(
    input_cover: Covering,
    apex,
    R: Scalar,
    m: Scalar,
    variant: str = "standard",
) -> ConeCertificate:
    """Cover the cone over the input covering's region from `apex`.

    The input covering carries dimension m-1 costs; the output covers the
    cone at dimension m.  Every input ball must satisfy d(q_i, apex) + r_i
    <= R; every input radius must be positive.  Emitted centers lie on the
    segments from the input centers to the apex.  The input balls enter the
    integer frame through their maker's `frame`, so a covering keyed on
    `GridBalls` half-cell integers builds no `Ball` and no Fraction per ball.
    An m, R or apex coordinate that is not a finite number, or m < 1, is an
    `InputError`.
    """
    if variant not in ("standard", "improved"):
        raise InputError(f"unknown cone variant {variant!r}")
    if finite_number(m, "cone exponent") < 1:
        raise InputError("cone covering needs m >= 1")
    apex = tuple(finite_number(x, "apex coordinate") for x in apex)
    Rf = finite_number(R, "cone radius R")
    # Radii, centres, apex and R as integer numerators over one denominator.
    den, centre_nums, radii_num = input_cover.make.frame(
        input_cover.keys, Rf.denominator, *(x.denominator for x in apex))
    apex_num = numerators(apex, den)

    def inputs():  # lazily: each ball's dimension, then (in cone_cost) radius and reach
        for center, r in zip(centre_nums, radii_num):
            if len(center) != len(apex):
                raise InputError("dimension mismatch")
            yield r, max(abs(x - a) for x, a in zip(center, apex_num))

    input_cost, cost, bound, counts = cone_cost(inputs(), den, R, m, variant)
    return ConeCertificate(
        apex, Rf, m, variant, input_cost, cost, bound, counts,
        (den, apex_num, centre_nums, radii_num),
    )


def cone_cost(inputs, den: int, R: Scalar, m: Scalar, variant: str):
    """`cone_covering`'s certificate numbers on integers: `inputs` gives
    per input ball (r, d), its radius and its distance to the apex as
    numerators over `den`, and `den` is a multiple of R's denominator.
    Returns (input_cost, cost, bound, per-input ball counts), with every
    check of `cone_covering` but the apex's dimension: positive radii,
    d + r <= R, the cost within its bound and the per-input caps.  At
    integer m = p the bound `lead (1+1/m)^m R input_cost` is the integer
    `lead (p+1)^p R S` over `(p den)^p`, S the inputs' sum of r^(p-1), so
    `cost > bound` is decided by cross-multiplying integers, and the input
    cost, the cost and the bound are one Fraction each."""
    mf = as_fraction(m)
    Rf = as_fraction(R)
    R_num = Rf.numerator * (den // Rf.denominator)
    p, q = mf.numerator, mf.denominator
    runs = []  # per input: (radius, distance to the apex, ball count)
    for i, (r, d) in enumerate(inputs):
        if r <= 0:
            raise InputError("cone covering needs positive input radii")
        if d + r > R_num:
            raise InputError(
                f"input ball {i} is not inside the ambient ball of radius {R}"
            )
        runs.append((r, d, max(1, _ceil_div(p * d, q * r))))  # ceil(m d / r)
    counts = tuple(n for _, _, n in runs)

    cost = _progression_cost(runs, p, q, den, variant == "improved")
    if q == 1:
        S = sum(r ** (p - 1) for r, _, _ in runs)
        input_cost = Fraction(S, den ** (p - 1)) if runs else 0
        # lead m or 2, (1+1/m)^m = (p+1)^p / p^p, R = R_num / den
        over = (p if variant == "standard" else 2) * (p + 1) ** p * R_num * S
        under = (p * den) ** p
        bound = Fraction(over, under)
        violated = cost.numerator * under > over * cost.denominator
    else:
        exponent = (p - q) / q
        input_cost = sum((r / den) ** exponent for r, _, _ in runs)
        bound = (float(mf) if variant == "standard" else 2.0) * _cone_factor(mf) \
            * float(Rf) * float(input_cost)
        violated = float(cost) > bound + TOL * max(1.0, abs(bound))
    if violated:
        raise VerificationError(
            "cone covering exceeded its certified bound",
            {"cost": fmt_scalar(cost), "bound": fmt_scalar(bound), "variant": variant},
        )
    for i, (r, _, n_balls) in enumerate(runs):
        if n_balls > _ceil_div(p * R_num, q * r):  # ceil(m R / r)
            raise VerificationError(
                "cone covering emitted more balls than its per-input cap",
                {"input": i, "count": n_balls},
            )
    return input_cost, cost, bound, counts


@lru_cache(maxsize=16)
def _cone_factor(m: Fraction) -> float:
    """(1 + 1/m)^m, the factor of the cone covering's bound at non-integer
    m, a float."""
    return power(1 + 1 / m, m)


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for integers, b > 0."""
    return -(-a // b)


def _progression_cost(runs, p: int, q: int, den: int, improved: bool) -> Scalar:
    """sum of radius^m over every output ball, m = p/q, where the input
    (r, d, n) over `den` gives the radii a, a, a-b, a-2b, ... (n balls) with
    a = (1+1/m) r and, in the improved variant when n > 2, b = r^2/(m d),
    else b = 0: the value of summing `power(radius, m)` ball by ball.  Over
    the common denominator p * M * den, with M the lcm of the shrinking
    inputs' d, a = (p+q) r M and b = q r^2 M / d are integers.  At integer m
    the sum is one Fraction; otherwise one flat float sum over the same
    radii in the same order, so that rounding cannot move."""
    if not runs:
        return 0
    shrinks = [improved and n > 2 for _, _, n in runs]
    M = math.lcm(*(d for (_, d, _), s in zip(runs, shrinks) if s))
    denom = p * M * den
    units = [((p + q) * r * M, q * r * r * (M // d) if s else 0, n)
             for (r, d, n), s in zip(runs, shrinks)]
    if q == 1:
        total = sum(top ** p + _power_sum(top, drop, n - 1, p) for top, drop, n in units)
        return Fraction(total, denom ** p)
    e = p / q
    total = 0
    for top, drop, n in units:
        for j in range(n):
            total += ((top - max(0, j - 1) * drop) / denom) ** e
    return total


def _power_sum(top: int, drop: int, count: int, k: int) -> int:
    """sum of (top - j drop)^k over j = 0 .. count-1: the binomial expansion
    of each term over the power sums `_index_sums(count, k)`."""
    if not drop:
        return count * top ** k
    return sum(math.comb(k, i) * top ** (k - i) * (-drop) ** i * s
               for i, s in enumerate(_index_sums(count, k)))


@lru_cache(maxsize=256)
def _index_sums(count: int, k: int) -> tuple:
    """S_i = sum of j^i over j = 0 .. count-1 for i = 0 .. k, in O(k^2)
    integer steps from count^(i+1) = sum over t <= i of C(i+1, t) S_t, once
    per (count, k)."""
    sums = []
    for i in range(k + 1):
        rest = sum(math.comb(i + 1, t) * s for t, s in enumerate(sums))
        sums.append((count ** (i + 1) - rest) // (i + 1))
    return tuple(sums)


def cone_coverage_check(cert: ConeCertificate, input_cover: Covering) -> dict:
    """Section s in [0, 1] of input ball B(q, r) is the l_inf ball
    B(apex + s(q - apex), s*r).  An output ball (c, rho) holds it exactly
    when |apex_k + s(q_k - apex_k) - c_k| + s*r <= rho on every axis: 2n
    linear inequalities in s, so each ball holds one closed interval of
    sections, with rational ends.  Coverage is proved when the intervals of
    each input's own balls (by provenance) cover [0, 1].  The test is
    sufficient, not necessary: a section that two balls cover only together
    is reported uncovered.  Returns {"inputs": k, "uncovered": [{"input",
    "from", "to"}, ...]}, the s-ranges that no single own ball holds."""
    inputs = input_cover.balls
    held = [[] for _ in inputs]
    for ball, (i, _) in zip(cert.balls, cert.provenance):
        span = _held_sections(cert.apex, inputs[i], ball)
        if span is not None:
            held[i].append(span)
    uncovered = []
    for i, spans in enumerate(held):
        end = Fraction(0)  # every section in [0, end] is held
        for lo, hi in sorted(spans):
            if lo > end:
                uncovered.append({"input": i, "from": end, "to": lo})
            end = max(end, hi)
        if end < 1:
            uncovered.append({"input": i, "from": end, "to": Fraction(1)})
    return {"inputs": len(inputs), "uncovered": uncovered}


def _held_sections(apex, src: Ball, ball: Ball):
    """The closed interval [lo, hi] of s in [0, 1] whose cone section of
    `src` lies inside `ball`, or None when there is none."""
    r = as_fraction(src.radius)
    rho = as_fraction(ball.radius)
    lo, hi = Fraction(0), Fraction(1)
    for a, q, c in zip(apex, src.center, ball.center):
        offset = a - as_fraction(c)
        slope = as_fraction(q) - a
        # +-(offset + s*slope) + s*r <= rho, each as alpha + beta*s <= rho
        for alpha, beta in ((offset, slope + r), (-offset, r - slope)):
            if beta > 0:
                hi = min(hi, (rho - alpha) / beta)
            elif beta < 0:
                lo = max(lo, (rho - alpha) / beta)
            elif alpha > rho:
                return None
    return (lo, hi) if lo <= hi else None

