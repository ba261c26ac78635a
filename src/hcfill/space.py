"""Finite metric models, balls, ball families and coverings.

Two space models:

* VoxelSpace -- a set of occupied cells of an axis grid in l_inf^n with cell
  side `delta`.  A cell is identified with its center point.  All geometry
  on voxel spaces is exact: cell centers, grid balls, the cells a ball holds
  and l_inf distances work on the integer numerators and denominators of
  the Fraction coordinates and build one normalised Fraction per returned
  value.  Grid balls (axis cubes with grid-aligned corners, radius
  k*delta/2) are the canonical covering objects.  `PointKeys` is the one
  integer frame for l_inf distances from a rational point to cell centres,
  which lie on the half-cell lattice, and for the cells within a radius of
  it (`PointKeys.ranges`); `PointKeys.lattice` reads it off a lattice
  point's half-cell integers.  `GridBalls` makes, bounds and formats balls
  from integer keys on that lattice.
* NetSpace -- a finite point list with an explicit metric (l_inf, l2, l1 or a
  validated distance matrix) and a declared net scale `eps_net`.  Net answers
  elsewhere are always brackets; comparisons use the float tolerance.

A `Ball` refuses, with `InputError`, a negative radius and a NaN or
infinite radius or centre coordinate.

Which elements a ball contains: a voxel ball holds the listed cells whose
centres it holds, occupied or not; a net ball the listed points within its
radius.  The bits of an ordered element list answer, one route per kind of
ball: `ElementBits.ball` for a `Ball`, `bits.box(GridBalls.ranges(key))`
for a grid ball held as its key (solver blocks, width covers,
decomposition Q) and `bits.box(PointKeys(space, p).ranges(r))` for a point
and a radius.  `ball_members` is `ElementBits.ball` over every element of
the space, as a set.
`ElementBits.net_rows` sorts each net centre's distances, so that the
members of every ball around it are a prefix.  `vitali_select` picks
disjoint balls, largest first, whose tripled balls cover an element list.

`Covering` is the one covering type, and the only code that knows a
covering's report layout: ball keys and their maker (`key_balls` or
`GridBalls`), with the cost and the report read off the keys.  A maker's
`frame` gives its keys' balls as integer numerators over one denominator,
read straight off `GridBalls` keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, isfinite, lcm

from .errors import InputError
from .exact import (
    TOL,
    Scalar,
    as_fraction,
    common_den,
    finite_number,
    fmt_scalar,
    is_integral,
    numerators,
    parse_scalar,
    power,
    scalar_formatter,
)

Cell = tuple[int, ...]
Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# spaces

@dataclass(frozen=True)
class VoxelSpace:
    n: int
    delta: Fraction
    cells: frozenset[Cell]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"ambient dimension must be an int >= 1, got {self.n!r}")
        # the lattice geometry reads delta's numerator and denominator
        object.__setattr__(self, "delta", finite_number(self.delta, "delta"))
        if self.delta <= 0:
            raise InputError("delta must be positive")
        for c in self.cells:
            if len(c) != self.n:
                raise InputError(f"cell {c} does not have {self.n} coordinates")

    def require_nonempty(self):
        if not self.cells:
            raise InputError("operation requires a non-empty voxel set")

    def bbox(self) -> tuple[tuple[int, int], ...]:
        self.require_nonempty()
        return tuple(
            (min(c[i] for c in self.cells), max(c[i] for c in self.cells))
            for i in range(self.n)
        )

    def cell_center(self, cell: Cell) -> Point:
        dn, dd = self.delta.numerator, 2 * self.delta.denominator
        return tuple(Fraction(dn * (2 * coord + 1), dd) for coord in cell)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))


@dataclass(frozen=True)
class NetSpace:
    metric: str  # "linf" | "l2" | "l1" | "matrix"
    points: tuple[tuple[float, ...], ...]
    eps_net: float = 0.0
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.metric not in ("linf", "l2", "l1", "matrix"):
            raise InputError(f"unknown metric {self.metric!r}")
        if finite_number(self.eps_net, "eps_net") < 0:
            raise InputError("eps_net must be >= 0")
        if self.metric == "matrix":
            validate_metric_matrix(self.matrix, len(self.points))
        elif len({len(p) for p in self.points}) > 1:
            raise InputError("net points must all have the same number of coordinates")

    def require_nonempty(self):
        if not self.points:
            raise InputError("operation requires a non-empty net")


Space = VoxelSpace | NetSpace


def validate_metric_matrix(matrix, count: int):
    if matrix is None:
        raise InputError("matrix metric requires a distance matrix")
    if len(matrix) != count or any(len(row) != count for row in matrix):
        raise InputError("distance matrix must be square and match the point count")
    for i in range(count):
        if abs(matrix[i][i]) > TOL:
            raise InputError("distance matrix diagonal must be zero")
        for j in range(count):
            if matrix[i][j] < -TOL:
                raise InputError("distances must be non-negative")
            if abs(matrix[i][j] - matrix[j][i]) > TOL:
                raise InputError("distance matrix must be symmetric")
    for i, j, k in itertools.permutations(range(count), 3):
        if matrix[i][j] > matrix[i][k] + matrix[k][j] + TOL:
            raise InputError(
                f"triangle inequality violated on points ({i},{j},{k})"
            )


# ---------------------------------------------------------------------------
# elementary geometry

def linf(a, b) -> Scalar:
    """max |x - y| over the coordinates.  On Fraction points the largest
    gap is found by cross-multiplying numerators and is built as one
    Fraction; other points (floats, ints, mixed) take the plain expression
    and its type."""
    if len(a) != len(b):
        raise InputError("dimension mismatch")
    # a[0] first, so that float net points leave after one test
    if a and type(a[0]) is Fraction and all(type(x) is Fraction for x in (*a, *b)):
        num, den = 0, 1
        for x, y in zip(a, b):
            xd, yd = x.denominator, y.denominator
            gap, d = abs(x.numerator * yd - y.numerator * xd), xd * yd
            if gap * den > num * d:
                num, den = gap, d
        return Fraction(num, den)
    return max(abs(x - y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# balls

@dataclass(frozen=True, order=True)
class Ball:
    center: Point
    radius: Scalar

    def __post_init__(self):
        # chained comparisons, which NaN fails
        if not (0 <= self.radius < inf and all(-inf < c < inf for c in self.center)):
            raise InputError(f"a ball needs a finite centre and a finite radius >= 0, "
                             f"got {self.center!r}, {self.radius!r}")

    def key(self):
        return (self.center, self.radius)

    def to_dict(self) -> dict:
        return ball_dict(self.center, self.radius)

    @staticmethod
    def from_dict(d: dict) -> "Ball":
        try:
            center = tuple(parse_scalar(c) for c in d["center"])
            radius = parse_scalar(d["radius"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"a ball needs a numeric center and radius: {d!r}") from None
        return Ball(center, radius)


def ball_dict(center, radius, fmt=fmt_scalar) -> dict:
    """The report form of a ball, each scalar passed through `fmt`."""
    return {"center": [fmt(c) for c in center], "radius": fmt(radius)}


def grid_ball(space: VoxelSpace, anchor: Cell, k: int) -> Ball:
    """The axis cube spanning cells anchor .. anchor+k-1 in each coordinate:
    an l_inf ball of radius k*delta/2 at a half-integer grid point."""
    if k < 1:
        raise InputError("grid ball size must be >= 1")
    dn, dd = space.delta.numerator, 2 * space.delta.denominator
    center = tuple(Fraction(dn * (2 * a + k), dd) for a in anchor)
    return Ball(center, Fraction(dn * k, dd))


class PointKeys:
    """Integer l_inf distances from a rational point p to the voxel cell
    centres, which lie on the half-cell lattice: the distance to the centre
    of cell c is `key(c) * unit`.  Half a cell is `half` (L) keys, the
    centre of c lies at (2 c_i + 1) L keys on axis i and p at `at[i]`.  For
    delta = dn/dd and p = P/D over the common denominator D, p_i is
    2 dd P_i / (dn D) half cells, and L, the lcm of those ratios' reduced
    denominators, is dn D over the gcd g of dn D and every 2 dd P_i.
    Float coordinates convert exactly."""

    def __init__(self, space: VoxelSpace, p):
        dn, dd = space.delta.numerator, space.delta.denominator
        p = [as_fraction(x) for x in p]
        den = common_den(p)
        doubled = [2 * dd * x for x in numerators(p, den)]
        g = gcd(dn * den, *doubled)
        self.half = dn * den // g
        self.unit = Fraction(dn, 2 * dd * self.half)
        self.at = [x // g for x in doubled]

    @classmethod
    def lattice(cls, unit: Fraction, h) -> PointKeys:
        """The keys of the point delta/2 * h on the half-cell lattice, with
        `unit` delta/2: one key is half a cell (L = 1) and the point lies at
        h, as `PointKeys(space, p)` finds for that point, read off the
        integers."""
        keys = cls.__new__(cls)
        keys.half, keys.unit, keys.at = 1, unit, list(h)
        return keys

    def key(self, cell: Cell) -> int:
        return max(abs((2 * c + 1) * self.half - a) for c, a in zip(cell, self.at))

    def keys(self, cells) -> list[tuple[int, Cell]]:
        """(key, cell) of every cell, nearest first, ties by cell."""
        return sorted((self.key(c), c) for c in cells)

    def farthest(self, lo, hi) -> int:
        """The largest key over the box of cells with lo[i] <= c_i <= hi[i]:
        on each axis the farthest coordinate is lo[i] or hi[i]."""
        L = self.half
        return max(max(abs((2 * a + 1) * L - x), abs((2 * b + 1) * L - x))
                   for a, b, x in zip(lo, hi, self.at))

    def ranges(self, r) -> list[tuple[int, int]]:
        """Per axis, the cells whose centres lie within r of p: with K =
        floor(r), -((K + L - at_i) // 2L) .. (at_i + K - L) // 2L."""
        K, L = self.floor(r), self.half
        return [(-((K + L - a) // (2 * L)), (a + K - L) // (2 * L)) for a in self.at]

    def floor(self, x) -> int:
        """floor(x / unit) for a Fraction, int or float x, on integers: a
        distance d = k * unit is at most x iff k <= floor(x)."""
        a, b = x.as_integer_ratio()
        return a * self.unit.denominator // (b * self.unit.numerator)


class GridBalls:
    """The maker of balls from half-cell keys (h_1..h_n, k): centre
    delta/2 * h and radius delta/2 * k, one Fraction per distinct part,
    formatted once per distinct part.  `grid_ball(space, a, k)` has the key
    (2 a_1 + k, ..., 2 a_n + k, k), and integer keys sort like ball keys.
    Makers of one delta are equal: they make equal balls of equal keys."""

    def __init__(self, delta: Fraction):
        self._num, self._den = delta.numerator, 2 * delta.denominator
        self._parts = {}

    def __eq__(self, other):
        return isinstance(other, GridBalls) and (self._num, self._den) == (other._num, other._den)

    def __hash__(self):
        return hash((self._num, self._den))

    def part(self, x) -> Fraction:
        value = self._parts.get(x)
        if value is None:
            value = self._parts[x] = Fraction(self._num * x, self._den)
        return value

    def __call__(self, key) -> Ball:
        return Ball(tuple(map(self.part, key[:-1])), self.part(key[-1]))

    def radius(self, key) -> Fraction:
        return self.part(key[-1])

    def frame(self, keys, *dens) -> tuple:
        """(den, centres, radii): the keys' balls as integer numerators over
        den, the lcm of `dens` and of the balls' parts' denominators, read
        off the keys.  A part is dn x / D, delta/2 = dn/D, and with G the
        gcd of every key integer the parts' denominators have the lcm
        D / g, g = gcd(D, dn G), so part x is x dn (den g / D) / g."""
        g = gcd(self._den, self._num * gcd(*(x for key in keys for x in key)))
        base = self._den // g
        den = lcm(base, *dens)
        scale = self._num * (den // base)
        return (den, tuple(tuple(scale * h // g for h in key[:-1]) for key in keys),
                tuple(scale * key[-1] // g for key in keys))

    @staticmethod
    def ranges(key) -> list[tuple[int, int]]:
        """Per axis, the cells whose centres the key's ball holds:
        |2 c + 1 - h| <= k, i.e. (h - k) // 2 <= c <= (h + k - 1) // 2,
        which is the centre's `PointKeys.ranges` at the radius for either
        parity of h - k."""
        k = key[-1]
        return [((h - k) // 2, (h + k - 1) // 2) for h in key[:-1]]

    def dicts(self, keys) -> list:
        """The report forms of the keys' balls in ball order."""
        texts = {}

        def fmt(x):
            text = texts.get(x)
            if text is None:
                text = texts[x] = fmt_scalar(self.part(x))
            return text

        return [ball_dict(key[:-1], key[-1], fmt) for key in sorted(keys)]


class _KeyBalls:
    """The maker of balls keyed by `Ball.key()`, (centre, radius)."""

    def __call__(self, key) -> Ball:
        return Ball(*key)

    @staticmethod
    def radius(key) -> Scalar:
        return key[1]

    @staticmethod
    def frame(keys, *dens) -> tuple:
        """(den, centres, radii): the balls as integer numerators over den,
        the lcm of `dens` and of their radii's and coordinates' denominators
        (floats convert exactly)."""
        radii = [as_fraction(r) for _, r in keys]
        centres = [tuple(map(as_fraction, c)) for c, _ in keys]
        den = common_den(itertools.chain(radii, *centres), *dens)
        return den, tuple(numerators(c, den) for c in centres), numerators(radii, den)

    @staticmethod
    def dicts(keys) -> list:
        """The report forms of the keys' balls in ball order, each distinct
        scalar object formatted once."""
        fmt = scalar_formatter()
        return [ball_dict(*key, fmt) for key in sorted(keys)]


key_balls = _KeyBalls()


class ElementBits:
    """Bit positions for an ordered list of a space's elements (voxel cells,
    occupied or not, or net point indices); `ball` gives the bits of the
    listed elements a ball holds.  On voxels, per-axis prefix masks:
    below[i][v] holds the cells whose coordinate i is less than lo[i] + v,
    so the cells of an axis box are the AND over axes of one slab
    below[i][b + 1] ^ below[i][a] each.  On nets `ball` scans the listed
    indices of net points."""

    def __init__(self, space: Space, elements):
        self.space = space
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.full = (1 << len(self.elements)) - 1
        if isinstance(space, NetSpace):
            points = range(len(space.points))
            self._net = [(e, 1 << i) for i, e in enumerate(self.elements) if e in points]
            return
        n = space.n
        if any(len(c) != n for c in self.elements):
            raise InputError(f"element list holds a cell without {n} coordinates")
        bits = [1 << idx for idx in range(len(self.elements))]
        self.lo, self.hi, self.below = [0] * n, [-1] * n, [[0]] * n
        for i, column in enumerate(zip(*self.elements)):  # one coordinate axis at a time
            lo = self.lo[i] = min(column)
            self.hi[i] = max(column)
            rows = [0] * (self.hi[i] - lo + 1)
            for bit, x in zip(bits, column):
                rows[x - lo] |= bit
            prefix = [0]
            for row in rows:
                prefix.append(prefix[-1] | row)
            self.below[i] = prefix

    def ball(self, ball: Ball) -> int:
        """The listed elements inside the closed ball: on voxels the cells
        whose centres it holds, occupied or not."""
        space = self.space
        if isinstance(space, VoxelSpace):
            if len(ball.center) != space.n:
                raise InputError("ball dimension does not match the space")
            return self.box(PointKeys(space, ball.center).ranges(ball.radius))
        center = net_center(ball.center, space)
        limit = float(ball.radius) + TOL
        mask = 0
        for e, bit in self._net:
            if net_dist(center, e, space) <= limit:
                mask |= bit
        return mask

    def members(self, mask: int) -> frozenset:
        """The listed elements whose bits are set in the mask."""
        return frozenset(self.elements[i] for i in bit_indices(mask))

    def net_rows(self, centers) -> list[list[tuple[float, int]]]:
        """Per `net_center` result, (distance, bit) of every listed net
        point from it, nearest first: the members of the ball of radius r
        there are the prefix of the row within r + TOL.  Distances are
        `net_dist`'s.  On a coordinate net the metric's float expression
        gives one value in either order of its arguments, so a centre at a
        listed point's coordinates, as every net point's own centre is,
        meets a point at the distance already measured from that point's
        own centre: each unordered pair of points is measured once.  A
        matrix net reads its table, which is symmetric only within TOL."""
        space = self.space
        if space.metric == "matrix":
            return [sorted((space.matrix[c][e], bit) for e, bit in self._net) for c in centers]
        measure = _NET_METRICS[space.metric]
        points = [tuple(map(float, p)) for p in space.points]
        own = {p: i for i, p in enumerate(points)}
        listed = [points[e] for e, _ in self._net]
        bits = [bit for _, bit in self._net]
        place = {e: q for q, (e, _) in enumerate(self._net)}
        measured = [None] * len(points)  # a point's own row of distances, in list order
        rows = []
        for center in centers:
            i = own.get(center)
            if i is None:
                dists = [measure(center, p) for p in listed]
            elif (dists := measured[i]) is None:
                q = place.get(i)
                dists = measured[i] = [
                    measure(center, p) if q is None or (done := measured[e]) is None else done[q]
                    for (e, _), p in zip(self._net, listed)]
            rows.append(sorted(zip(dists, bits)))
        return rows

    def slab(self, i: int, a: int, b: int) -> int:
        """The cells with a <= coordinate i <= b."""
        a, b = max(a, self.lo[i]), min(b, self.hi[i])
        if a > b:
            return 0
        prefix = self.below[i]
        return prefix[b - self.lo[i] + 1] ^ prefix[a - self.lo[i]]

    def box(self, ranges) -> int:
        """The cells inside an axis box given as one (a, b) range per axis."""
        mask = self.full
        for i, (a, b) in enumerate(ranges):
            mask &= self.slab(i, a, b)
            if not mask:
                break
        return mask


def bit_indices(mask: int):
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vitali_select(candidates, bits: ElementBits):
    """Greedy disjoint selection by decreasing radius; verifies exactly that
    the selected balls are pairwise disjoint and their tripled concentric
    balls cover every cell listed in the voxel `bits`: the union of their
    box masks is `bits.full`.  The candidates are ball keys (centre,
    radius), framed by `key_balls.frame` as numerators over one denominator
    (floats convert exactly), so disjointness is an integer test."""
    n = len(candidates[0][0]) if candidates else 0
    if any(len(p) != n for p, _ in candidates):
        raise InputError("dimension mismatch")
    _, ps, rs = key_balls.frame(candidates)
    order = sorted(range(len(candidates)), key=lambda i: (-rs[i], ps[i]))
    selected: list[int] = []
    for i in order:
        p_i, r_i = ps[i], rs[i]
        if all(max(abs(a - b) for a, b in zip(p_i, ps[j])) > r_i + rs[j] for j in selected):
            selected.append(i)
    if selected and n != bits.space.n:
        raise InputError("ball dimension does not match the space")
    covered = 0
    for j in selected:
        p, r = candidates[j]
        covered |= bits.box(PointKeys(bits.space, p).ranges(3 * as_fraction(r)))
    if covered != bits.full:
        raise InputError("candidate balls do not cover the target even tripled")
    return selected


def ball_members(ball: Ball, space: Space) -> frozenset:
    """Cells (voxel) or point indices (net) within the closed ball:
    `ElementBits.ball` over every element of the space."""
    bits = ElementBits(space, space.cells if isinstance(space, VoxelSpace)
                       else range(len(space.points)))
    return bits.members(bits.ball(ball))


def net_center(center, space: NetSpace):
    """A net ball center as `net_dist` takes it: float coordinates, or the
    point index wrapped in a matrix-net center's 1-tuple."""
    if space.metric == "matrix":
        return int(center[0])
    return tuple(float(c) for c in center)


def net_dist(center, idx: int, space: NetSpace) -> float:
    """Distance from a `net_center` result to net point idx."""
    if space.metric == "matrix":
        return space.matrix[center][idx]
    return _NET_METRICS[space.metric](center, space.points[idx])


def _l1(a, b) -> float:
    return sum(abs(x - y) for x, y in zip(a, b))


def _l2(a, b) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


# float x - y equals x - float(y) for an int or Fraction y, so these give
# one value on float centres whether a point's coordinates are floated first
_NET_METRICS = {"linf": linf, "l1": _l1, "l2": _l2}


def space_radius(space: VoxelSpace) -> Fraction:
    """Radius of the smallest enclosing l_inf ball of the occupied region
    (cells taken as closed cubes)."""
    space.require_nonempty()
    return max((hi - lo + 1) for lo, hi in space.bbox()) * space.delta / 2


def space_diameter(space: VoxelSpace) -> Fraction:
    return 2 * space_radius(space)


# ---------------------------------------------------------------------------
# ball families

@dataclass(frozen=True)
class AllGridBalls:
    """Every grid ball; `stride` restricts anchors and sizes to multiples of
    a base step (the rescaled family used by the scaling law)."""
    stride: int = 1

    kind = "all-grid"


@dataclass(frozen=True)
class CentersIn:
    points: tuple[Point, ...]

    kind = "centers-in"

    def __post_init__(self):
        if not self.points:
            raise InputError("CentersIn family requires a non-empty center set")


@dataclass(frozen=True)
class FixedFamily:
    balls: tuple[Ball, ...]

    kind = "fixed"

    def __post_init__(self):
        if not self.balls:
            raise InputError("Fixed family requires at least one ball")


@dataclass(frozen=True)
class RadiusCapped:
    limit: Scalar

    kind = "radius-capped"

    def __post_init__(self):
        if finite_number(self.limit, "radius cap") <= 0:
            raise InputError("radius cap must be positive")


@dataclass(frozen=True)
class FamilyIntersection:
    parts: tuple

    kind = "intersection"


BallFamily = AllGridBalls | CentersIn | FixedFamily | RadiusCapped | FamilyIntersection


def intersect_families(a: BallFamily, b: BallFamily) -> BallFamily:
    parts = []
    for f in (a, b):
        parts.extend(f.parts if isinstance(f, FamilyIntersection) else (f,))
    return FamilyIntersection(tuple(parts))


def family_label(family: BallFamily) -> str:
    if isinstance(family, FamilyIntersection):
        return " & ".join(family_label(p) for p in family.parts)
    if isinstance(family, AllGridBalls) and family.stride != 1:
        return f"all-grid/stride={family.stride}"
    if isinstance(family, RadiusCapped):
        return f"radius<={fmt_scalar(family.limit)}"
    if isinstance(family, FixedFamily):
        return f"fixed[{len(family.balls)}]"
    if isinstance(family, CentersIn):
        return f"centers-in[{len(family.points)}]"
    return family.kind


# ---------------------------------------------------------------------------
# coverings

@dataclass(frozen=True, init=False)
class Covering:
    """A covering of `target` at exponent m: its balls' keys, in the cover's
    order, and their maker, `key_balls` for `Ball.key()` keys or a
    `GridBalls`.  `cost` and `to_dict` read the keys; `balls` are built on
    first read.  `Covering(balls, target, m)` keys the balls and keeps
    them; `Covering.keyed(make, keys, target, m)` builds no ball.  Equality
    compares makers, keys, targets and m."""

    make: object = field(repr=False)
    keys: tuple
    target: frozenset
    m: Scalar

    def __init__(self, balls, target, m):
        balls = tuple(balls)
        self.__dict__.update(make=key_balls, keys=tuple(b.key() for b in balls),
                             target=target, m=m, balls=balls)

    @classmethod
    def keyed(cls, make, keys, target, m) -> Covering:
        cover = cls.__new__(cls)
        cover.__dict__.update(make=make, keys=tuple(keys), target=target, m=m)
        return cover

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        return tuple(map(self.make, self.keys))

    @cached_property
    def cost(self) -> Scalar:
        return cover_cost([self.make.radius(key) for key in self.keys], self.m)

    def validate(self, space: Space) -> None:
        """Exact coverage check: every target element inside some ball, by
        `ElementBits.ball`.  A voxel ball covers the target cells whose
        centres it holds, occupied or not, as the solvers cover them; a net
        ball its points within the radius."""
        bits = ElementBits(space, self.target)
        covered = 0
        for b in self.balls:
            covered |= bits.ball(b)
        missing = (bits.full & ~covered).bit_count()
        if missing:
            raise InputError(f"covering misses {missing} target elements")

    def to_dict(self) -> dict:
        """The report: the balls in sorted order (a key orders like its
        ball), each distinct scalar formatted once, and the sorted target."""
        return {
            "m": fmt_scalar(self.m),
            "cost": fmt_scalar(self.cost),
            "balls": self.make.dicts(self.keys),
            "target": sorted(list(t) if isinstance(t, tuple) else t for t in self.target),
        }


def cover_cost(radii, m: Scalar) -> Scalar:
    """sum(power(r, m)) over a list of a cover's radii, in its order.  When
    it is exact (every radius rational, m integral) each distinct radius
    object is raised once and times its count, which is the same Fraction;
    else the radii are summed one by one, left to right, as floats round."""
    groups = {}  # id of a radius object -> [radius, count]
    for r in radii:
        group = groups.get(id(r))
        if group is None:
            groups[id(r)] = [r, 1]
        else:
            group[1] += 1
    if is_integral(m) and all(isinstance(r, (Fraction, int)) for r, _ in groups.values()):
        total = 0
        for r, count in groups.values():
            value = power(r, m)
            total += value if count == 1 else value * count
        return total
    return sum(power(r, m) for r in radii)


# ---------------------------------------------------------------------------
# serialization

def space_to_dict(space: Space) -> dict:
    if isinstance(space, VoxelSpace):
        return {
            "variant": "voxel",
            "n": space.n,
            "delta": fmt_scalar(space.delta),
            "cells": sorted(list(c) for c in space.cells),
        }
    d = {
        "variant": "net",
        "metric": space.metric,
        "points": [list(p) for p in space.points],
        "eps_net": space.eps_net,
    }
    if space.matrix is not None:
        d["matrix"] = [list(r) for r in space.matrix]
    return d


def _integer(x) -> int:
    """x as an exact int: a bool or a value with a fractional part raises
    ValueError instead of being truncated by int()."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"not an integer: {x!r}")
    value = int(x)
    if not isinstance(x, str) and value != x:
        raise ValueError(f"not an integer: {x!r}")
    return value


def _finite(x) -> float:
    """float(x), a ValueError when x is a bool or that is infinite or NaN."""
    if isinstance(x, bool) or not isfinite(value := float(x)):
        raise ValueError(f"not a finite number: {x!r}")
    return value


def _numbers(row, convert, where: str) -> tuple:
    """The row's entries through `convert` (_integer, _finite or
    parse_scalar), an InputError naming `where` when the row is a string or
    one entry is not a number."""
    try:
        if isinstance(row, str):
            raise TypeError(row)
        return tuple(convert(x) for x in row)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"{where}: not a row of numbers: {row!r}") from None


def _cells(rows, where: str) -> frozenset:
    """Voxel cells, each row through `_numbers(row, _integer, where)`: a
    fractional coordinate is refused, not truncated."""
    return frozenset(_numbers(c, _integer, where) for c in rows)


_REQUIRED = object()


def _field(d: dict, name: str, convert, default=_REQUIRED, what="space document"):
    """d[name], or the default when the document has none, through
    `convert`; an InputError naming `what` and the field when a required
    one is missing or the value does not convert."""
    if name not in d:
        if default is _REQUIRED:
            raise InputError(f"{what} lacks the {name!r} field")
        return default
    try:
        return convert(d[name])
    except InputError:
        raise
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"{what} field {name!r}: not a valid value: "
                         f"{d[name]!r}") from None


def space_from_dict(d: dict) -> Space:
    try:
        variant = d["variant"]
    except (KeyError, TypeError):
        raise InputError("space document must carry a 'variant' field")
    if variant == "voxel":
        return VoxelSpace(
            _field(d, "n", _integer),
            _field(d, "delta", parse_scalar),
            _field(d, "cells", lambda cells: _cells(cells, "voxel cell")),
        )
    if variant == "net":
        return NetSpace(
            d.get("metric", "linf"),
            _field(d, "points", lambda points: tuple(
                _numbers(p, _finite, "net point") for p in points)),
            _field(d, "eps_net", _finite, 0.0),
            _field(d, "matrix", lambda rows: tuple(
                _numbers(r, _finite, "distance matrix row") for r in rows), None),
        )
    raise InputError(f"unknown space variant {variant!r}")


def load_space(path: str) -> Space:
    import csv

    if str(path).endswith(".csv"):
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        points = tuple(_numbers(row, _finite, f"{path}: net point") for row in rows)
        return NetSpace("linf", points)
    return space_from_dict(load_json(path))


def load_json(path: str):
    """The JSON document in `path`; an InputError when it does not parse."""
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None


def load_matrix_net(path: str, eps_net: float = 0.0) -> NetSpace:
    """Square CSV of pairwise distances -> matrix-metric net."""
    import csv

    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    matrix = tuple(_numbers(row, _finite, f"{path}: distance matrix row") for row in rows)
    points = tuple((float(i),) for i in range(len(matrix)))
    return NetSpace("matrix", points, eps_net, matrix)


def save_space(space: Space, path: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(space_to_dict(space), fh, sort_keys=True)
        fh.write("\n")
