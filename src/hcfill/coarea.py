"""Level-set slicing through a covering: per-ball value intervals, the exact
majorant integral and the best-slice selection.

For a Lipschitz function f on a covered set U, each covering ball B_i pins f
to an interval of width at most 2*Lip*r_i.  Integrating the step function
R -> sum of r_i^(m-1) over balls whose interval contains R therefore costs at
most 2*Lip*(covering cost in dimension m), and some slice level R realizes
cost at most 2*Lip/(R2-R1) times the covering cost.  The integral is a finite
sum over interval lengths; no quadrature is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .exact import TOL, Scalar, as_fraction, common_den, fmt_scalar, numerators, power
from .space import Covering, ElementBits, VoxelSpace, bit_indices, linf

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# function descriptors

@dataclass(frozen=True)
class DistanceToPoint:
    point: tuple
    lip = Fraction(1)  # a distance function is 1-Lipschitz

    def cell_interval(self, space: VoxelSpace, cell):
        d = linf(space.cell_center(cell), self.point)
        h = space.delta * _HALF
        return (max(Fraction(0), as_fraction(d) - h), as_fraction(d) + h)


@dataclass(frozen=True)
class DistanceToSet:
    cells: frozenset
    lip = Fraction(1)  # a distance function is 1-Lipschitz

    def __post_init__(self):
        if not self.cells:
            raise InputError("the distance to an empty set is undefined: dist-set needs a cell")

    def cell_interval(self, space: VoxelSpace, cell):
        c = space.cell_center(cell)
        d = min(as_fraction(linf(c, space.cell_center(t))) for t in self.cells)
        h = space.delta * _HALF
        return (max(Fraction(0), d - h), d + h)


@dataclass(frozen=True)
class ExplicitValues:
    values: dict
    lip: Scalar

    def cell_interval(self, space, cell):
        try:
            v = self.values[cell]
        except KeyError:
            raise InputError(f"function undefined on element {cell}")
        return (v, v)

    def validate(self, space: VoxelSpace, domain):
        """The declared Lipschitz constant must hold on every pair."""
        missing = set(domain) - set(self.values)
        if missing:
            raise InputError(f"function undefined on {len(missing)} elements")
        elems = sorted(domain)
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                d = float(linf(space.cell_center(a), space.cell_center(b)))
                if abs(float(self.values[a]) - float(self.values[b])) > float(self.lip) * d + TOL:
                    raise InputError(
                        f"declared Lipschitz constant {self.lip} violated on pair {a}, {b}"
                    )


FunctionDescriptor = DistanceToPoint | DistanceToSet | ExplicitValues


# ---------------------------------------------------------------------------
# slice profiles

@dataclass(frozen=True)
class SliceProfile:
    descriptor: FunctionDescriptor
    cover: Covering
    intervals: tuple  # per covering ball: (a_i, b_i) over covered elements, None if none
    range: tuple  # (R1, R2)
    cell_intervals: dict

    def level_set(self, level) -> frozenset:
        """Elements whose value interval contains the level (conservative:
        never misses a continuum crossing)."""
        return frozenset(
            c for c, (a, b) in self.cell_intervals.items() if a <= level <= b
        )

    def to_dict(self) -> dict:
        return {
            "range": [fmt_scalar(x) for x in self.range],
            "intervals": [None if interval is None else [fmt_scalar(x) for x in interval]
                          for interval in self.intervals],
        }


def slice_profile(
    space: VoxelSpace,
    domain,
    descriptor: FunctionDescriptor,
    cover: Covering,
    rng: tuple | None = None,
) -> SliceProfile:
    """Per-ball min/max of the function over covered elements: the domain
    cells whose centres a ball holds, occupied or not.  A ball that holds
    none gets the interval None, which reports as JSON null.

    Raises if a ball's interval exceeds the 2*Lip*r_i width that the slicing
    argument rests on (cannot happen for grid-ball covers).
    """
    domain = frozenset(domain)
    if isinstance(descriptor, ExplicitValues):
        descriptor.validate(space, domain)
    cell_ints = {c: descriptor.cell_interval(space, c) for c in domain}
    bits = ElementBits(space, sorted(domain))

    intervals = []
    for ball in cover.balls:
        mask = bits.ball(ball)
        if not mask:
            intervals.append(None)
            continue
        spans = [cell_ints[bits.elements[i]] for i in bit_indices(mask)]
        a = min(lo for lo, _ in spans)
        b = max(hi for _, hi in spans)
        width_ok = float(b - a) <= 2.0 * float(descriptor.lip) * float(ball.radius) + TOL
        if not width_ok:
            raise InputError(
                "covering ball pins the function to an interval wider than "
                "2*Lip*r; is the declared Lipschitz constant right?"
            )
        intervals.append((a, b))
    if rng is None:
        if not cell_ints:
            raise InputError("an empty domain has no value range: give the range")
        lo = min(v[0] for v in cell_ints.values())
        hi = max(v[1] for v in cell_ints.values())
        rng = (lo, hi)
    return SliceProfile(descriptor, cover, tuple(intervals), tuple(rng), cell_ints)


def coarea_integral(profile: SliceProfile, m: Scalar) -> Scalar:
    """Exact value of the majorant integral: sum over balls of
    r_i^(m-1) * |interval_i clipped to the range|."""
    r1, r2 = profile.range
    total = None
    for ball, interval in zip(profile.cover.balls, profile.intervals):
        if interval is None:
            continue
        lo, hi = max(interval[0], r1), min(interval[1], r2)
        if hi <= lo:
            continue
        term = power(ball.radius, as_fraction(m) - 1) * (hi - lo)
        total = term if total is None else total + term
    return total if total is not None else Fraction(0)


def slice_sweep(r1: int, r2: int, spans):
    """The integer core of `best_slice`: (level, cost) of the level in
    [r1, r2] minimizing the summed weight of the intervals that contain it,
    ties to the smallest level.  `spans` holds (a, b, w) for an interval
    [a, b] of weight w.  Levels and weights are integer numerators, the
    levels over twice a common denominator of their values, so that every
    level is even and every midpoint an integer.

    The sum is a step function with breakpoints at interval ends, so it is
    evaluated at r1, r2, every end inside [r1, r2] and every midpoint between
    consecutive ones.  One sweep over these levels in increasing order keeps
    the sum: a weight is added once its interval opens at or below the level
    and taken off once the interval closes below it.
    """
    points = sorted({r1, r2}.union(
        v for a, b, _ in spans for v in (a, b) if r1 <= v <= r2))
    levels = [points[0]]
    for a, b in zip(points, points[1:]):
        levels += ((a + b) // 2, b)
    opens = sorted((a, w) for a, _, w in spans)
    closes = sorted((b, w) for _, b, w in spans)
    i = j = cost = 0
    best_r = best_cost = None
    for r in levels:
        while i < len(opens) and opens[i][0] <= r:
            cost += opens[i][1]
            i += 1
        while j < len(closes) and closes[j][0] < r:
            cost -= closes[j][1]
            j += 1
        if best_cost is None or cost < best_cost:
            best_r, best_cost = r, cost
    return best_r, best_cost


def best_slice(profile: SliceProfile, m: Scalar):
    """Level R in the profile range minimizing the slice majorant
    sum over balls with interval containing R of r_i^(m-1), ties to the
    smallest R, as Fractions: `slice_sweep` on the range and the interval
    ends over twice their common denominator, and on the weights over
    theirs (a float weight is taken at its exact binary value)."""
    r1, r2 = profile.range
    if not r2 > r1:
        raise InputError("degenerate slice range")
    exponent = as_fraction(m) - 1
    kept = [(ball, interval) for ball, interval in zip(profile.cover.balls, profile.intervals)
            if interval is not None]
    levels = [as_fraction(v) for v in (r1, r2, *(v for _, iv in kept for v in iv))]
    weights = [as_fraction(power(ball.radius, exponent)) for ball, _ in kept]
    den = 2 * common_den(levels)
    wden = common_den(weights)
    n1, n2, *ends = numerators(levels, den)
    spans = zip(ends[::2], ends[1::2], numerators(weights, wden))
    level, cost = slice_sweep(n1, n2, list(spans))
    return Fraction(level, den), Fraction(cost, wden)
