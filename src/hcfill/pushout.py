"""Cubical-grid deformation: face-wise radial projection from a well-chosen
interior point, iterated down the skeleta, with content and displacement
accounting; plus the voxel isoperimetric checkers (projection counts and the
coordinate-cube equality case).

All face geometry is exact rational arithmetic: a face of the grid Q(R) is a
per-coordinate list of either a fixed grid value or a free unit interval,
and a `Face` holds only that list, its grid and its dimension; its centre,
bounds and containment are read on integer frames (`_free_bounds`).
Projections, point covers, the average-point search and the swept cones'
costs (`cone.cone_cost`) work on integer numerators over one denominator
(`_frame`, `exact.numerators`).  `skeleton_descend` converts each
point once to an integer frame (numerators, den) and carries it across
faces and levels: carrier faces come from integer floor division by R, and
a face's centre, free bounds, sample options and containment test are
integers over the face's denominator.  Fractions are built only for the
report: the chosen points, the costs, the displacement and the final points.
The sorted order of a face's sample options depends only on its free-axis
count and the candidate count, so it is computed once (`_option_order`) and
each face builds its options in that order, one at a time, up to the first
it can stop at.

Inputs are refused with InputError before any face work: a grid whose n is
not an int >= 1 or whose R is not a finite positive number; an m, floor or
coordinate that is not a finite int, Fraction or float (bools and strings
included); a candidate count that is not an int >= 0; points of the wrong
dimension; and, in `point_cover`, points of mixed dimensions or a negative
exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm, prod

from .cone import cone_cost
from .content import DEFAULT_NODE_BUDGET, exact_content
from .errors import InputError, PushoutPreconditionError, VerificationError
from .exact import (Scalar, as_fraction, finite_number, fmt_scalar, is_integral,
                    nonneg_int, numerators, power, root)
from .space import Ball, VoxelSpace

DEFAULT_CANDIDATES = 64
# skeleton_descend's ceiling on a k-face's projection cost ratio is
# RATIO_CEILING_BASE * 2^k
RATIO_CEILING_BASE = 10.0


def _point(p) -> tuple:
    return tuple(finite_number(c, "point coordinate") for c in p)


def _frame(point) -> tuple:
    """A rational point as its integer frame (numerators, den), den the lcm
    of its coordinates' denominators."""
    den = lcm(*(c.denominator for c in point))
    return numerators(point, den), den


def _rescale(frame, den: int) -> tuple:
    """A frame's numerators over `den`, a multiple of its denominator."""
    nums, d = frame
    scale = den // d
    return tuple(c * scale for c in nums)


def _check_inputs(m, candidates, floor) -> tuple:
    """(m, floor) as Fractions, once m, the candidate count and the floor
    pass their checks."""
    mf = finite_number(m, "m")
    nonneg_int(candidates, "candidate count")
    return mf, finite_number(floor, "floor")


# ---------------------------------------------------------------------------
# grid and faces

def _check_dimension(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"grid dimension must be an int >= 1, got {n!r}")


@dataclass(frozen=True)
class CubicalGrid:
    n: int
    R: Fraction

    def __post_init__(self):
        _check_dimension(self.n)
        object.__setattr__(self, "R", finite_number(self.R, "grid cell size"))
        if self.R <= 0:
            raise InputError("grid cell size must be positive")

    def carrier_face(self, point) -> "Face":
        """The unique face whose relative interior contains the point."""
        coords = []
        for x in point:
            q = as_fraction(x) / self.R
            if q.denominator == 1:
                coords.append(("fixed", int(q)))
            else:
                coords.append(("free", q.numerator // q.denominator))
        return Face(self, tuple(coords))


def _carrier(frame, R: Fraction) -> tuple:
    """`carrier_face`'s coords for a point given as an integer frame: x / R
    by integer floor division per coordinate, fixed where it is exact."""
    nums, den = frame
    unit = den * R.numerator
    coords = []
    for c in nums:
        a, rest = divmod(c * R.denominator, unit)
        coords.append(("free" if rest else "fixed", a))
    return tuple(coords)


@dataclass(frozen=True)
class Face:
    grid: CubicalGrid
    coords: tuple  # per axis: ("fixed", a) or ("free", a)

    @property
    def dim(self) -> int:
        return sum(1 for kind, _ in self.coords if kind == "free")


def _free_bounds(face: Face, den: int) -> list:
    """(axis, lo, hi) per free axis of the face, as numerators over `den`."""
    (unit,) = numerators((face.grid.R,), den)
    return [(axis, unit * a, unit * (a + 1))
            for axis, (kind, a) in enumerate(face.coords) if kind == "free"]


def _project(free, p: tuple, x: tuple):
    """Radial projection on integer points over one denominator d: returns
    (y, s) with the boundary point's coordinates y_i / (d * s), or (p, 0)
    when the ray p -> x leaves no free axis.  p must be strictly interior
    and x in the face."""
    tn = td = 0  # the exit parameter t = tn / td, set once an axis is hit
    for axis, lo, hi in free:
        pc, xc = p[axis], x[axis]
        if xc > pc:
            num, run = hi - pc, xc - pc
        elif xc < pc:
            num, run = pc - lo, pc - xc
        else:
            continue
        if not td or num * td < tn * run:
            tn, td = num, run
    if not td:
        return p, 0
    g = gcd(tn, td)
    tn, td = tn // g, td // g
    return tuple(pc * td + tn * (xc - pc) for pc, xc in zip(p, x)), td


# ---------------------------------------------------------------------------
# point-set cover estimates (greedy upper bounds)

def point_cover(points, exponent: Scalar, floor: Scalar = 0):
    """Greedy covering of a finite point set by balls centered at the points,
    radii drawn from the pairwise-distance set floored at `floor`.

    Returns (cost, balls).  With floor 0 and separated points the cost is 0:
    a bare finite point set has vanishing content.  Points of mixed
    dimensions and a negative exponent are input errors.
    """
    e = finite_number(exponent, "cover exponent")
    if e < 0:
        raise InputError(f"cover exponent must be >= 0, got {exponent!r}")
    pts = sorted(_point(p) for p in points)
    if len({len(p) for p in pts}) > 1:
        raise InputError("points need one common dimension")
    cost, den, chosen = _frame_cover([_frame(p) for p in pts], e, finite_number(floor, "floor"))
    return cost, [Ball(pts[i], Fraction(r, den)) for i, r in chosen]


def _frame_cover(frames, exponent: Fraction, floor: Fraction):
    """`point_cover` on integer frames, without its balls: (cost, den,
    chosen), with (index into the sorted points, radius numerator) per
    chosen ball over den, the lcm of the frames' and the floor's
    denominators."""
    den = lcm(floor.denominator, *(d for _, d in frames))
    price, unit = _pricer(exponent)(den)
    total, chosen = _greedy_cover(sorted(_rescale(f, den) for f in frames),
                                  floor.numerator * (den // floor.denominator), price)
    return Fraction(total, unit), den, chosen


def _greedy_cover(pts: list, floor: int, price, limit=None):
    """The greedy of `point_cover` on sorted integer points, with the radius
    floor as a numerator over the points' denominator: (total, [(centre,
    radius)]) with centre indices and radius numerators, and the total of
    `price` over the chosen radii.  With `limit` = (a, b) it returns None
    as soon as the running total exceeds a / b.

    Each round takes the (centre, radius) of least price per covered point,
    ties going to the smaller centre, then the smaller radius: options are
    scanned in that order and only a strictly cheaper one replaces the best.
    Each centre's points are sorted by distance once, so a radius's member
    count is a prefix count.
    """
    n = len(pts)
    dist = [[max(floor, max(abs(a - b) for a, b in zip(p, q))) for q in pts]
            for p in pts]
    by_dist = [sorted(range(n), key=row.__getitem__) for row in dist]
    alive = [True] * n
    left = n
    total = 0
    chosen = []
    while left:
        best = None  # (price, count, centre, radius)
        for i in range(n):
            if not alive[i]:
                continue
            row = dist[i]
            radii = [row[j] for j in by_dist[i] if alive[j]]
            for count, r in enumerate(radii, 1):
                if count < len(radii) and radii[count] == r:
                    continue  # a larger count at this radius follows
                cost = price(r)
                if best is None or cost * best[1] < best[0] * count:
                    best = (cost, count, i, r)
        cost, _, i, r = best
        total += cost
        if limit is not None and total * limit[1] > limit[0]:
            return None
        chosen.append((i, r))
        row = dist[i]
        for j in range(n):
            if alive[j] and row[j] <= r:
                alive[j] = False
                left -= 1
    return total, chosen


def _pricer(exponent: Scalar):
    """den -> (price, unit): the exact cost power(r / den, exponent) of a
    radius numerator r is price(r) / unit.  At a non-negative integer
    exponent e that is the integer r^e over den^e; otherwise price gives
    the float power made exact, over 1."""
    if is_integral(exponent) and exponent >= 0:
        e = int(exponent)
        return lambda den: (lambda r: r ** e, den ** e)
    return lambda den: (lambda r: as_fraction(power(Fraction(r, den), exponent)), 1)


# ---------------------------------------------------------------------------
# average-point selection

def average_point(
    face: Face,
    points,
    m: Scalar,
    candidates: int = DEFAULT_CANDIDATES,
    c0: Scalar | None = None,
    floor: Scalar = 0,
):
    """Interior projection point minimizing the greedy (m-1)-cost of the
    projected set over a deterministic candidate sample; among equal costs
    the smaller point (as a coordinate tuple) wins.

    The precondition: the point set's (m-1)-cost must not exceed
    c0(k) * R^(m-1) (k = face dimension); raises PushoutPreconditionError
    otherwise.  Returns (p, ratio, before_cost, after_cost).
    """
    mf, floor = _check_inputs(m, candidates, floor)
    frames = []
    for x in points:
        x = _point(x)
        if len(x) != len(face.coords):
            raise InputError("points need n coordinates")
        frames.append(_frame(x))
    k = face.dim
    if k == 0:
        raise InputError("cannot project inside a vertex")
    if mf < 1:
        raise InputError("average point needs m >= 1")
    c0 = Fraction(1, 4) ** k if c0 is None else finite_number(c0, "c0")
    exponent = mf - 1
    den, p, ratio, before, after, _, _ = _average_point(
        face, frames, exponent, candidates, _cap(c0, face.grid.R, exponent), floor)
    return tuple(Fraction(c, den) for c in p), ratio, Fraction(*before), Fraction(*after)


def _cap(c0: Fraction, R: Fraction, exponent: Fraction) -> tuple:
    """The precondition's cap c0 * R^exponent, and float(cap) + 1e-12, the
    float that a face's own cover cost must not exceed."""
    scale = power(R, exponent)
    cap = float(c0) * scale if isinstance(scale, float) else c0 * scale
    return cap, float(cap) + 1e-12


def _average_point(face: Face, frames: list, exponent: Fraction, candidates: int,
                   cap: tuple, floor: Fraction):
    """`average_point` on checked inputs: the points as integer frames, the
    cover exponent m - 1 and the precondition's `_cap`.  Returns (den, p,
    ratio, before, after, balls, moves): p and the balls of the points' own
    greedy cover as (centre, radius) numerators over den, the face's integer
    frame; before and after as (total, unit), each cost total / unit; and
    per point in input order its radial projection from p and the l_inf
    length of that move, as frames."""
    k = face.dim
    R = face.grid.R
    # Options, points, floor, centre and bounds as numerators over one
    # denominator, the face's integer frame; every option is strictly
    # interior (the samples sit in [1/10, 9/10) of each free axis), so only
    # options equal to an input point are inadmissible.
    weyl_den = R.denominator * 10 * _WEYL_DEN
    den = lcm(floor.denominator, weyl_den, *(d for _, d in frames))
    floor_num = floor.numerator * (den // floor.denominator)
    step = R.numerator * (den // weyl_den)  # R / (10 * _WEYL_DEN)
    xs = [_rescale(f, den) for f in frames]
    costs = _pricer(exponent)
    price, unit = costs(den)
    own = sorted(xs)
    total, chosen = _greedy_cover(own, floor_num, price)
    own_cost = (total, unit)
    before = float(total / unit)
    if before > cap[1]:
        raise PushoutPreconditionError(
            "face content too large for a safe pushout",
            {"face_dim": k, "content": fmt_scalar(Fraction(*own_cost)),
             "cap": fmt_scalar(cap[0])},
        )

    free = _free_bounds(face, den)
    side = R.numerator * (den // R.denominator)  # R
    bounds = [(side * a, side * (a + 1) if kind == "free" else side * a)
              for kind, a in face.coords]
    taken = set(xs)
    options = (p for p in _options([lo for lo, _ in bounds], free, step, candidates)
               if p not in taken)
    first = next(options, None)
    if first is None:
        raise InputError("no admissible projection point found")
    if not all(lo <= c <= hi for x in xs for (lo, hi), c in zip(bounds, x)):
        raise InputError("point to project must lie in the face")

    # The least (cost, option) wins, so the options go in increasing order
    # and only a strictly cheaper one replaces the best; each option's cost
    # is total / unit, and a greedy stops once it is above the best so far.
    # Every ball of a cover has radius at least the floor, so at an integer
    # exponent, where price(r) = r^e rises with r, no option of a non-empty
    # set costs less than floor^e = least[0] / least[1]: once the best costs
    # that, the scan is over.
    least = (floor_num ** int(exponent), den ** int(exponent)) \
        if is_integral(exponent) and xs else None
    best = None  # (total, unit, option, projections)
    for p in itertools.chain((first,), options):
        hits = [_project(free, p, x) for x in xs]
        scale = lcm(*(s for _, s in hits))
        projected = sorted(tuple(c * (scale // s) for c in y) for y, s in hits)
        price, unit = costs(den * scale)
        limit = None if best is None else (best[0] * unit, best[1])
        cover = _greedy_cover(projected, floor_num * scale, price, limit)
        if cover is not None and (best is None or cover[0] * best[1] < best[0] * unit):
            best = (cover[0], unit, p, hits)
            if least is not None and best[0] * least[1] == least[0] * best[1]:
                break
    after_total, after_unit, p, hits = best
    after = float(after_total / after_unit)
    ratio = after / before if before > 0 else (0.0 if after == 0 else float("inf"))
    moves = [(_reduced(y, den * s), (max(abs(c - xc * s) for c, xc in zip(y, x)), den * s))
             for (y, s), x in zip(hits, xs)]
    balls = [(own[i], r) for i, r in chosen]
    return den, p, ratio, own_cost, (after_total, after_unit), balls, moves


def _reduced(nums: tuple, den: int) -> tuple:
    """The frame (nums, den) in lowest terms."""
    g = gcd(den, *nums)
    return (tuple(c // g for c in nums), den // g) if g > 1 else (nums, den)


def _options(base: list, free: list, step: int, candidates: int):
    """A face's sample options in increasing order, built one at a time:
    `base` with each free axis (axis, lo, hi) set to lo + step * (_WEYL_DEN
    + 8 f), over the `_option_order` vectors f."""
    for fs in _option_order(len(free), candidates):
        coord = list(base)
        for (axis, lo, _), f in zip(free, fs):
            coord[axis] = lo + step * (_WEYL_DEN + 8 * f)
        yield tuple(coord)


@lru_cache(maxsize=64)
def _option_order(axes: int, candidates: int) -> tuple:
    """The Weyl fractions f of a face's sample options, one per free axis,
    in the options' increasing order.  An option's free coordinate is
    lo + R * (1/10 + 8/10 * f / _WEYL_DEN): the centre has f = _WEYL_DEN / 2
    on every axis, and sample j = 1 .. candidates has f = j * _WEYL[axis]
    mod _WEYL_DEN (a deterministic low-discrepancy Weyl sequence per axis).
    The options of a face share their fixed coordinates and their free ones
    rise with f, so they sort as these vectors do: the order depends only on
    the free-axis count and the candidate count."""
    samples = [tuple(j * _WEYL[ai % len(_WEYL)] % _WEYL_DEN for ai in range(axes))
               for j in range(1, candidates + 1)]
    return tuple(sorted([(_WEYL_DEN // 2,) * axes, *samples]))


_WEYL = (26861, 15823, 7559, 20011, 11213, 30011, 17389)
_WEYL_DEN = 2**16


# ---------------------------------------------------------------------------
# skeleton descent

@dataclass(frozen=True)
class FaceStep:
    face: Face
    chosen_point: tuple
    ratio: float
    cone_cost: Scalar
    moved: int


@dataclass(frozen=True)
class DeformationTrace:
    grid: CubicalGrid
    m: Scalar
    initial: tuple
    final: tuple
    levels: tuple  # (k, tuple[FaceStep, ...]) per level
    max_displacement: Scalar
    trace_content: Scalar
    checks: dict

    def to_dict(self) -> dict:
        return {
            "grid_R": fmt_scalar(self.grid.R),
            "m": fmt_scalar(self.m),
            "points": len(self.initial),
            "levels": [
                {
                    "k": k,
                    "faces": [
                        {
                            "dim": fs.face.dim,
                            "p": [fmt_scalar(c) for c in fs.chosen_point],
                            "ratio": fs.ratio,
                            "cone_cost": fmt_scalar(fs.cone_cost),
                            "moved": fs.moved,
                        }
                        for fs in steps
                    ],
                }
                for k, steps in self.levels
            ],
            "max_displacement": fmt_scalar(self.max_displacement),
            "trace_content": fmt_scalar(self.trace_content),
            "checks": self.checks,
        }


def skeleton_descend(
    points,
    grid: CubicalGrid,
    m: Scalar,
    candidates: int = DEFAULT_CANDIDATES,
    floor: Scalar = 0,
) -> DeformationTrace:
    """Push a finite point set into the (ceil(m)-2)-skeleton of the grid.

    Level k handles points whose carrier face has dimension exactly k, for k
    from n down to ceil(m)-1; each level's moves stay within one face, so a
    point travels at most (n - ceil(m) + 2) * R in total.  When ceil(m) - 2
    >= n no level runs: every point is already in the skeleton, and stays.
    The swept cone of each face projection is covered explicitly and its
    m-cost accumulated.
    On a k-dimensional face the projection point is `average_point`'s at its
    default c0(k) = 4^-k, and a projection cost ratio above
    RATIO_CEILING_BASE * 2^k = 10 * 2^k raises VerificationError.  Points
    stay integer frames from their conversion to their final Fractions; the
    final checks take carrier faces again, from those Fractions.
    """
    mf, floor = _check_inputs(m, candidates, floor)
    target_dim = ceil(mf) - 2
    if target_dim < 0:
        raise InputError("descent target skeleton has negative dimension")
    initial = tuple(_point(p) for p in points)
    if any(len(p) != grid.n for p in initial):
        raise InputError("points need n coordinates")
    start = [_frame(p) for p in initial]
    current = list(start)
    displacement = [(0, 1)] * len(current)  # per point, as a frame
    levels = []
    trace_content = Fraction(0)
    exponent = mf - 1
    before_total = _frame_cover(current, exponent, floor)[0]

    for k in range(grid.n, target_dim, -1):
        by_face: dict = {}
        for idx, frame in enumerate(current):
            coords = _carrier(frame, grid.R)
            if sum(kind == "free" for kind, _ in coords) == k:
                by_face.setdefault(coords, []).append(idx)
        cap = _cap(Fraction(1, 4) ** k, grid.R, exponent)
        limit = RATIO_CEILING_BASE * 2.0**k
        steps = []
        for coords in sorted(by_face):
            idxs = by_face[coords]
            face = Face(grid, coords)
            den, p, ratio, _, _, balls, moves = _average_point(
                face, [current[i] for i in idxs], exponent, candidates, cap, floor)
            if ratio > limit:
                raise VerificationError(
                    "projection cost ratio above its ceiling",
                    {"face_dim": k, "ratio": ratio, "ceiling": limit},
                )
            cost = _swept_cone_cost(den, p, balls, mf)
            trace_content += as_fraction(cost)
            for i, (new, (moved, d)) in zip(idxs, moves):
                total, total_den = displacement[i]
                displacement[i] = (total * d + moved * total_den, total_den * d)
                current[i] = new
            steps.append(FaceStep(face, tuple(Fraction(c, den) for c in p), ratio, cost,
                                  len(idxs)))
        levels.append((k, tuple(steps)))

    final = tuple(x if now is was else tuple(Fraction(c, now[1]) for c in now[0])
                  for x, now, was in zip(initial, current, start))
    max_disp = max((Fraction(*d) for d in displacement), default=Fraction(0))
    level_count = max(0, grid.n - target_dim)
    checks = {
        "final_in_skeleton": all(
            grid.carrier_face(pt).dim <= target_dim for pt in final
        ),
        "boundary_points_fixed": all(
            initial[i] == final[i]
            for i in range(len(initial))
            if grid.carrier_face(initial[i]).dim <= target_dim
        ),
        "displacement_bound": fmt_scalar(level_count * grid.R),
        "displacement_ok": max_disp <= level_count * grid.R,
        "trace_vs_input": {
            "trace_content": fmt_scalar(trace_content),
            "input_content": fmt_scalar(before_total),
            "measured_const": (
                float(trace_content) / (float(grid.R) * float(before_total))
                if float(before_total) > 0 else 0.0
            ),
        },
    }
    if not checks["final_in_skeleton"] or not checks["displacement_ok"]:
        raise VerificationError("skeleton descent violated its trace conditions", checks)
    return DeformationTrace(
        grid, m, initial, final, tuple(levels), max_disp, trace_content, checks
    )


def _swept_cone_cost(den: int, p: tuple, balls: list, m: Fraction):
    """m-cost certificate for the cone swept between the points and their
    projections: `cone_cost` of the improved cone covering from the chosen
    point p over the points' own greedy cover, with den, p and the balls as
    `_average_point` returns them and R the cover's largest reach
    d(centre, p) + radius.

    Zero-radius cover balls correspond to bare points whose sweep is a
    segment, of zero m-cost for m > 1; only positive radii get coned.
    """
    inputs = [(r, max(abs(x - c) for x, c in zip(centre, p))) for centre, r in balls if r > 0]
    if not inputs:
        return Fraction(0)
    reach = max(d + r for r, d in inputs)
    return cone_cost(inputs, den, Fraction(reach, den), m, "improved")[1]


def grid_R_for_content(hc: Scalar, m: Scalar, n: int, delta: Scalar = 0) -> Scalar:
    """Grid size R = c2(n) * hc^(1/(m-1)) + delta, with c2(n) = 4n, for a
    finite content hc >= 0, a finite m > 1, an int n >= 1 and a finite
    delta >= 0."""
    _check_dimension(n)
    if finite_number(m, "m") <= 1:
        raise InputError(f"grid size needs m > 1, got {m!r}")
    content = finite_number(hc, "content")
    if content < 0:
        raise InputError("content must be non-negative")
    if (delta := finite_number(delta, "delta")) < 0:
        raise InputError("delta must be non-negative")
    if content == 0:
        return delta
    return float(4 * n) * root(hc, as_fraction(m) - 1) + float(delta)


# ---------------------------------------------------------------------------
# voxel isoperimetry checkers

def boundary_cells(space: VoxelSpace) -> frozenset:
    """Cells with at least one unoccupied face-neighbor."""
    if not isinstance(space, VoxelSpace):
        raise InputError("boundary_cells needs the voxel model")
    out = []
    for c in space.cells:
        for axis in range(space.n):
            for step in (-1, 1):
                nb = tuple(x + (step if i == axis else 0) for i, x in enumerate(c))
                if nb not in space.cells:
                    out.append(c)
                    break
            else:
                continue
            break
    return frozenset(out)


def loomis_whitney_check(space: VoxelSpace, *,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Projection-count inequality N^(n-1) <= prod N_j and the content chain
    HC_n <= N r^n <= (prod N_j)^(1/(n-1)) r^n <= HC_(n-1)(boundary)^(n/(n-1)),
    everything exact; both contents are solved within `node_budget` nodes."""
    if not isinstance(space, VoxelSpace):
        raise InputError("loomis_whitney_check needs the voxel model")
    space.require_nonempty()
    n = space.n
    if n < 2:
        raise InputError("projection counts need ambient dimension >= 2")
    cells = space.cells
    projections = []
    for j in range(n):
        projections.append({c[:j] + c[j + 1:] for c in cells})
    counts = [len(u) for u in projections]

    bbox = space.bbox()
    hull = 0
    for c in itertools.product(*(range(lo, hi + 1) for lo, hi in bbox)):
        if all(c[:j] + c[j + 1:] in projections[j] for j in range(n)):
            hull += 1

    lw_ok = hull ** (n - 1) <= prod(counts)
    if not lw_ok:
        raise VerificationError(
            "projection-count inequality failed",
            {"N": hull, "N_j": counts},
        )

    r = space.delta / 2
    hc_n = exact_content(space, None, n, node_budget=node_budget)
    boundary = boundary_cells(space)
    hc_b = exact_content(space, boundary, n - 1, node_budget=node_budget)

    nr_n = hull * power(r, n)
    chain = {
        "content_le_hull": hc_n.value <= nr_n,
        "hull_le_projections": hull ** (n - 1) <= prod(counts),
        # per-projection floor: N_j r^(n-1) <= boundary content
        "projections_le_boundary": all(
            cnt * power(r, n - 1) <= hc_b.value for cnt in counts
        ),
        "content_le_boundary_power": power(hc_n.value, n - 1) <= power(hc_b.value, n),
    }
    ok = all(chain.values())
    report = {
        "n": n,
        "cells": len(cells),
        "N": hull,
        "N_j": counts,
        "r": fmt_scalar(r),
        "content_n": fmt_scalar(hc_n.value),
        "boundary_cells": len(boundary),
        "content_boundary": fmt_scalar(hc_b.value),
        "hull_cost": fmt_scalar(nr_n),
        "checks": chain,
        "ok": ok,
    }
    if not ok:
        raise VerificationError("isoperimetric content chain failed", report)
    return report


def cube_equality_check(n: int, delta: Fraction = Fraction(1, 8)) -> dict:
    """Exact contents of a coordinate cube of int(1/delta) cells a side and
    its boundary shell; verifies boundary^(n/(n-1)) equals the cube content
    (cross-powers, exact).  n must be at least 2, where the exponent
    n/(n-1) exists, and 0 < delta <= 1, so that the cube has a cell."""
    from .shapes import make_cube, make_shell

    if n < 2:
        raise InputError(f"cube equality needs dimension n >= 2, got {n}")
    delta = as_fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    if delta > 1:  # int(1/delta) would be 0 cells a side
        raise InputError(f"cube equality needs delta <= 1, got delta = {fmt_scalar(delta)}")
    side_cells = int(1 / delta)
    cube = make_cube(n, side_cells, delta)
    hc_n = exact_content(cube, None, n)
    shell = make_shell(n, side_cells, delta)
    hc_b = exact_content(shell, None, n - 1)
    side = side_cells * delta
    expected = power(side / 2, n)
    equal = power(hc_b.value, n) == power(hc_n.value, n - 1)
    report = {
        "n": n,
        "delta": fmt_scalar(delta),
        "side": fmt_scalar(side),
        "content_cube": fmt_scalar(hc_n.value),
        "content_boundary": fmt_scalar(hc_b.value),
        "expected_cube": fmt_scalar(expected),
        "cube_matches": hc_n.value == expected,
        "equality": equal,
        "ok": equal and hc_n.value == expected,
    }
    if not report["ok"]:
        raise VerificationError("coordinate-cube equality failed", report)
    return report

