"""Cubical-grid deformation: face-wise radial projection from a well-chosen
interior point, iterated down the skeleta, with content and displacement
accounting; plus the voxel isoperimetric checkers (projection counts and the
coordinate-cube equality case).

All face geometry is exact rational arithmetic: a face of the grid Q(R) is a
per-coordinate list of either a fixed grid value or a free unit interval.
Projections, point covers, the average-point search and the swept cones'
costs (`cone.cone_cost`) work on integer numerators over one denominator
(`exact.common_den`, `exact.numerators`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm, prod

from .cone import cone_cost
from .content import DEFAULT_NODE_BUDGET, exact_content
from .errors import InputError, PushoutPreconditionError, VerificationError
from .exact import (Scalar, as_fraction, common_den, fmt_scalar, is_integral, numerators, power,
                    root)
from .space import Ball, VoxelSpace

DEFAULT_CANDIDATES = 64
# skeleton_descend's ceiling on a k-face's projection cost ratio is
# RATIO_CEILING_BASE * 2^k
RATIO_CEILING_BASE = 10.0


# ---------------------------------------------------------------------------
# grid and faces

@dataclass(frozen=True)
class CubicalGrid:
    n: int
    R: Fraction

    def __post_init__(self):
        object.__setattr__(self, "R", as_fraction(self.R))
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


@dataclass(frozen=True)
class Face:
    grid: CubicalGrid
    coords: tuple  # per axis: ("fixed", a) or ("free", a)

    @property
    def dim(self) -> int:
        return sum(1 for kind, _ in self.coords if kind == "free")

    def center(self):
        R = self.grid.R
        return tuple(
            R * a if kind == "fixed" else R * a + R / 2
            for kind, a in self.coords
        )

    def bounds(self):
        R = self.grid.R
        return tuple(
            (R * a, R * a) if kind == "fixed" else (R * a, R * (a + 1))
            for kind, a in self.coords
        )

    def contains(self, point) -> bool:
        for (lo, hi), x in zip(self.bounds(), point):
            if not lo <= as_fraction(x) <= hi:
                return False
        return True

    def strictly_interior(self, point) -> bool:
        for (kind, a), (lo, hi), x in zip(self.coords, self.bounds(), point):
            x = as_fraction(x)
            if kind == "fixed":
                if x != lo:
                    return False
            elif not lo < x < hi:
                return False
        return True


def radial_project(face: Face, p, x):
    """Boundary point of the face on the ray p -> x; exact rational."""
    p = tuple(as_fraction(c) for c in p)
    x = tuple(as_fraction(c) for c in x)
    if not face.strictly_interior(p):
        raise InputError("projection point must be strictly interior to the face")
    if not face.contains(x):
        raise InputError("point to project must lie in the face")
    if x == p:
        raise InputError("radial projection undefined at the projection point")
    den = common_den((*p, *x), face.grid.R.denominator)
    y, scale = _project(_free_bounds(face, den), numerators(p, den), numerators(x, den))
    if not scale:
        raise InputError("radial projection undefined at the projection point")
    return tuple(Fraction(c, den * scale) for c in y)


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
    a bare finite point set has vanishing content.
    """
    pts = sorted(tuple(as_fraction(c) for c in p) for p in points)
    floor = as_fraction(floor)
    den = common_den(itertools.chain(*pts), floor.denominator)
    price, unit = _pricer(exponent)(den)
    total, chosen = _greedy_cover([numerators(p, den) for p in pts],
                                  numerators((floor,), den)[0], price)
    return Fraction(total, unit), [Ball(pts[i], Fraction(r, den)) for i, r in chosen]


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
    return _average_point(face, points, m, candidates, c0, floor)[:4]


def _average_point(face: Face, points, m: Scalar, candidates: int,
                   c0: Scalar | None, floor: Scalar):
    """`average_point`'s (p, ratio, before, after), then what the descent
    reuses: the common denominator of the face's integer frame, p and the
    balls of the points' own greedy cover as (centre, radius) numerators
    over it, and per point in input order its radial projection from p and
    the l_inf length of that move."""
    pts = [tuple(as_fraction(c) for c in p) for p in points]
    k = face.dim
    if k == 0:
        raise InputError("cannot project inside a vertex")
    if as_fraction(m) < 1:
        raise InputError("average point needs m >= 1")
    if candidates < 0:
        raise InputError("candidate count must be non-negative")
    exponent = as_fraction(m) - 1
    R = face.grid.R
    # Options, points and floor as numerators over one denominator, the
    # face's integer frame; every option is strictly interior (the samples
    # sit in [1/10, 9/10) of each free axis), so only options equal to an
    # input point are inadmissible.
    floor = as_fraction(floor)
    weyl_den = R.denominator * 10 * _WEYL_DEN
    den = common_den(itertools.chain(*pts), floor.denominator, weyl_den)
    floor_num, step = numerators((floor, R / (10 * _WEYL_DEN)), den)
    xs = [numerators(x, den) for x in pts]
    costs = _pricer(exponent)
    price, unit = costs(den)
    own = sorted(xs)
    total, chosen = _greedy_cover(own, floor_num, price)
    before = Fraction(total, unit)
    c0 = as_fraction(c0) if c0 is not None else Fraction(1, 4) ** k
    cap = c0 * power(R, exponent) if not isinstance(power(R, exponent), float) \
        else float(c0) * power(R, exponent)
    if float(before) > float(cap) + 1e-12:
        raise PushoutPreconditionError(
            "face content too large for a safe pushout",
            {"face_dim": k, "content": fmt_scalar(before), "cap": fmt_scalar(cap)},
        )

    free = _free_bounds(face, den)
    centre = numerators(face.center(), den)
    options = [centre]
    # deterministic low-discrepancy interior sample (Weyl sequence per axis):
    # lo + R * (1/10 + 8/10 * frac / _WEYL_DEN)
    for j in range(1, candidates + 1):
        coord = list(centre)
        for ai, (axis, lo, _) in enumerate(free):
            frac_part = (j * _WEYL[ai % len(_WEYL)]) % _WEYL_DEN
            coord[axis] = lo + step * (_WEYL_DEN + 8 * frac_part)
        options.append(tuple(coord))
    taken = set(xs)
    options = sorted(p for p in options if p not in taken)
    if not options:
        raise InputError("no admissible projection point found")
    if not all(face.contains(x) for x in pts):
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
    for p in options:
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
    total, unit, p, hits = best
    after = Fraction(total, unit)
    moves = [(tuple(Fraction(c, den * s) for c in y),
              Fraction(max(abs(c - xc * s) for c, xc in zip(y, x)), den * s))
             for (y, s), x in zip(hits, xs)]
    ratio = float(after) / float(before) if float(before) > 0 else (
        0.0 if float(after) == 0 else float("inf")
    )
    balls = [(own[i], r) for i, r in chosen]
    return (tuple(Fraction(c, den) for c in p), ratio, before, after,
            (den, p, balls), moves)


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
    point travels at most (n - ceil(m) + 2) * R in total.  The swept cone of
    each face projection is covered explicitly and its m-cost accumulated.
    On a k-dimensional face the projection point is `average_point`'s at its
    default c0(k) = 4^-k, and a projection cost ratio above
    RATIO_CEILING_BASE * 2^k = 10 * 2^k raises VerificationError.
    """
    m_ceil = ceil(float(m))
    target_dim = m_ceil - 2
    if target_dim < 0:
        raise InputError("descent target skeleton has negative dimension")
    current = [tuple(as_fraction(c) for c in p) for p in points]
    if any(len(p) != grid.n for p in current):
        raise InputError("points need n coordinates")
    displacement = [Fraction(0)] * len(current)
    initial = tuple(current)
    levels = []
    trace_content = Fraction(0)
    exponent = as_fraction(m) - 1
    before_total, _ = point_cover(current, exponent, floor)

    for k in range(grid.n, m_ceil - 2, -1):
        by_face: dict = {}
        for idx, pt in enumerate(current):
            face = grid.carrier_face(pt)
            if face.dim == k:
                by_face.setdefault(face, []).append(idx)
        steps = []
        for face in sorted(by_face, key=lambda f: f.coords):
            idxs = by_face[face]
            p, ratio, _, _, frame, moves = _average_point(
                face, [current[i] for i in idxs], m, candidates, None, floor)
            limit = RATIO_CEILING_BASE * 2.0**k
            if ratio > limit:
                raise VerificationError(
                    "projection cost ratio above its ceiling",
                    {"face_dim": k, "ratio": ratio, "ceiling": limit},
                )
            cost = _swept_cone_cost(frame, m)
            trace_content += as_fraction(cost)
            for i, (new, moved) in zip(idxs, moves):
                displacement[i] += moved
                current[i] = new
            steps.append(FaceStep(face, p, ratio, cost, len(idxs)))
        levels.append((k, tuple(steps)))

    final = tuple(current)
    max_disp = max(displacement) if displacement else Fraction(0)
    level_count = grid.n - (m_ceil - 1) + 1
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


def _swept_cone_cost(frame, m):
    """m-cost certificate for the cone swept between the points and their
    projections: `cone_cost` of the improved cone covering from the chosen
    point p over the points' own greedy cover, with `frame` = (den, p,
    balls) as `_average_point` returns it and R the cover's largest reach
    d(centre, p) + radius.

    Zero-radius cover balls correspond to bare points whose sweep is a
    segment, of zero m-cost for m > 1; only positive radii get coned.
    """
    den, p, balls = frame
    inputs = [(r, max(abs(x - c) for x, c in zip(centre, p))) for centre, r in balls if r > 0]
    if not inputs:
        return Fraction(0)
    reach = max(d + r for r, d in inputs)
    return cone_cost(inputs, den, Fraction(reach, den), m, "improved")[1]


def grid_R_for_content(hc: Scalar, m: Scalar, n: int, delta: Scalar = 0) -> Scalar:
    """Grid size R = c2(n) * hc^(1/(m-1)) + delta, with c2(n) = 4n."""
    if float(hc) < 0:
        raise InputError("content must be non-negative")
    if float(hc) == 0:
        return as_fraction(delta)
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
    (cross-powers, exact)."""
    from .shapes import make_cube, make_shell

    delta = as_fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
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

