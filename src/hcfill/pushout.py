"""Cubical-grid deformation: face-wise radial projection from a well-chosen
interior point, iterated down the skeleta, with content and displacement
accounting; plus the voxel isoperimetric checkers (projection counts and the
coordinate-cube equality case).

All face geometry is exact rational arithmetic: a face of the grid Q(R) is a
per-coordinate list of either a fixed grid value or a free unit interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .content import exact_content
from .errors import InputError, PushoutPreconditionError, VerificationError
from .exact import Scalar, as_fraction, fmt_scalar, is_integral, power, root
from .space import Covering, VoxelSpace, Ball, linf

DEFAULT_CANDIDATES = 64


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
    den = _common_den((p, x), face.grid.R.denominator)
    y, scale = _project(_free_bounds(face, den), _scaled(p, den), _scaled(x, den))
    if not scale:
        raise InputError("radial projection undefined at the projection point")
    return tuple(Fraction(c, den * scale) for c in y)


# Integer geometry: rational points are kept as integer numerators over one
# common denominator, so projections and distances need no Fraction.

def _common_den(points, *dens) -> int:
    return lcm(*dens, *(c.denominator for pt in points for c in pt))


def _scaled(point, den: int) -> tuple:
    """Integer numerators of a rational point over `den` (a multiple of
    every coordinate's denominator)."""
    return tuple(c.numerator * (den // c.denominator) for c in point)


def _free_bounds(face: Face, den: int) -> list:
    """(axis, lo, hi) per free axis of the face, as numerators over `den`."""
    R = face.grid.R
    unit = R.numerator * (den // R.denominator)
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
    den = _common_den(pts, floor.denominator)
    total, chosen = _greedy_cover([_scaled(p, den) for p in pts],
                                  floor.numerator * (den // floor.denominator),
                                  exponent, den)
    return total, [Ball(pts[i], Fraction(r, den)) for i, r in chosen]


def _greedy_cover(pts: list, floor: int, exponent: Scalar, den: int):
    """The greedy of `point_cover` on sorted integer points over `den`, with
    the radius floor as a numerator over `den`: (cost, [(centre, radius)])
    with centre indices and radius numerators.

    Each round takes the (centre, radius) of least cost per covered point,
    ties going to the smaller centre, then the smaller radius: options are
    scanned in that order and only a strictly cheaper one replaces the best.
    Each centre's points are sorted by distance once, so a radius's member
    count is a prefix count.
    """
    n = len(pts)
    dist = [[max(floor, max(abs(a - b) for a, b in zip(p, q))) for q in pts]
            for p in pts]
    by_dist = [sorted(range(n), key=row.__getitem__) for row in dist]
    price = _pricer(exponent, den)
    alive = [True] * n
    left = n
    total = Fraction(0)
    chosen = []
    while left:
        best = None  # (cost numerator, cost denominator * count, centre, radius)
        for i in range(n):
            if not alive[i]:
                continue
            row = dist[i]
            radii = [row[j] for j in by_dist[i] if alive[j]]
            for count, r in enumerate(radii, 1):
                if count < len(radii) and radii[count] == r:
                    continue  # a larger count at this radius follows
                num, d = price(r)
                d *= count
                if best is None or num * best[1] < best[0] * d:
                    best = (num, d, i, r)
        _, _, i, r = best
        chosen.append((i, r))
        total += Fraction(*price(r))
        row = dist[i]
        for j in range(n):
            if alive[j] and row[j] <= r:
                alive[j] = False
                left -= 1
    return total, chosen


def _pricer(exponent: Scalar, den: int):
    """r -> (numerator, denominator) of the exact cost power(r / den,
    exponent): pure integers at non-negative integer exponents, otherwise
    the float power made exact."""
    if is_integral(exponent) and exponent >= 0:
        e = int(exponent)
        scale = den ** e
        return lambda r: (r ** e, scale)
    return lambda r: as_fraction(power(Fraction(r, den), exponent)).as_integer_ratio()


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
    projected set over a deterministic candidate sample.

    The precondition: the point set's (m-1)-cost must not exceed
    c0(k) * R^(m-1) (k = face dimension); raises PushoutPreconditionError
    otherwise.  Returns (p, ratio, before_cost, after_cost).
    """
    pts = [tuple(as_fraction(c) for c in p) for p in points]
    k = face.dim
    if k == 0:
        raise InputError("cannot project inside a vertex")
    if as_fraction(m) < 1:
        raise InputError("average point needs m >= 1")
    if candidates < 0:
        raise InputError("candidate count must be non-negative")
    exponent = as_fraction(m) - 1
    before, _ = point_cover(pts, exponent, floor)
    R = face.grid.R
    c0 = as_fraction(c0) if c0 is not None else Fraction(1, 4) ** k
    cap = c0 * power(R, exponent) if not isinstance(power(R, exponent), float) \
        else float(c0) * power(R, exponent)
    if float(before) > float(cap) + 1e-12:
        raise PushoutPreconditionError(
            "face content too large for a safe pushout",
            {"face_dim": k, "content": fmt_scalar(before), "cap": fmt_scalar(cap)},
        )

    # Options and points as numerators over one denominator; every option
    # is strictly interior (the samples sit in [1/10, 9/10) of each free
    # axis), so only options equal to an input point are inadmissible.
    floor = as_fraction(floor)
    weyl_den = R.denominator * 10 * _WEYL_DEN
    den = _common_den(pts, floor.denominator, weyl_den)
    free = _free_bounds(face, den)
    step = R.numerator * (den // weyl_den)  # R / (10 * _WEYL_DEN)
    centre = _scaled(face.center(), den)
    options = [centre]
    # deterministic low-discrepancy interior sample (Weyl sequence per axis):
    # lo + R * (1/10 + 8/10 * frac / _WEYL_DEN)
    for j in range(1, candidates + 1):
        coord = list(centre)
        for ai, (axis, lo, _) in enumerate(free):
            frac_part = (j * _WEYL[ai % len(_WEYL)]) % _WEYL_DEN
            coord[axis] = lo + step * (_WEYL_DEN + 8 * frac_part)
        options.append(tuple(coord))
    xs = [_scaled(x, den) for x in pts]
    taken = set(xs)
    options = [p for p in options if p not in taken]
    if not options:
        raise InputError("no admissible projection point found")
    if not all(face.contains(x) for x in pts):
        raise InputError("point to project must lie in the face")

    floor_num = floor.numerator * (den // floor.denominator)
    best = None
    for p in options:
        hits = [_project(free, p, x) for x in xs]
        scale = lcm(*(s for _, s in hits))
        projected = sorted(tuple(c * (scale // s) for c in y) for y, s in hits)
        after, _ = _greedy_cover(projected, floor_num * scale, exponent, den * scale)
        if best is None or (after, p) < best:
            best = (after, p)
    after, p = best
    p = tuple(Fraction(c, den) for c in p)
    ratio = float(after) / float(before) if float(before) > 0 else (
        0.0 if float(after) == 0 else float("inf")
    )
    return p, ratio, before, after


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
    c0_base: Fraction = Fraction(1, 4),
    ratio_ceiling_base: float = 10.0,
    floor: Scalar = 0,
) -> DeformationTrace:
    """Push a finite point set into the (ceil(m)-2)-skeleton of the grid.

    Level k handles points whose carrier face has dimension exactly k, for k
    from n down to ceil(m)-1; each level's moves stay within one face, so a
    point travels at most (n - ceil(m) + 2) * R in total.  The swept cone of
    each face projection is covered explicitly and its m-cost accumulated.
    """
    from math import ceil as _ceil

    m_ceil = _ceil(float(m))
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
            pts = [current[i] for i in idxs]
            p, ratio, before, after = average_point(
                face, pts, m, candidates, c0=c0_base ** k, floor=floor,
            )
            limit = ratio_ceiling_base * 2.0**k
            if ratio > limit:
                raise VerificationError(
                    "projection cost ratio above the configured ceiling",
                    {"face_dim": k, "ratio": ratio, "ceiling": limit},
                )
            cone_cost = _swept_cone_cost(p, pts, m, exponent, floor)
            trace_content += as_fraction(cone_cost)
            for i in idxs:
                new = radial_project(face, p, current[i])
                displacement[i] += as_fraction(linf(new, current[i]))
                current[i] = new
            steps.append(FaceStep(face, p, ratio, cone_cost, len(idxs)))
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


def _swept_cone_cost(p, pts, m, exponent, floor):
    """m-cost certificate for the cone swept between the points and their
    projections, via the explicit cone covering from the chosen point.

    Zero-radius cover balls correspond to bare points whose sweep is a
    segment, of zero m-cost for m > 1; only positive radii get coned.
    """
    from .cone import cone_covering

    _, balls = point_cover(pts, exponent, floor)
    balls = [b for b in balls if b.radius > 0]
    if not balls:
        return Fraction(0)
    reach = max(as_fraction(linf(b.center, p)) + as_fraction(b.radius) for b in balls)
    if reach == 0:
        return Fraction(0)
    cover = Covering(tuple(balls), frozenset(range(len(balls))), exponent)
    cert = cone_covering(cover, p, reach, m, "improved")
    return cert.cost


def grid_R_for_content(hc: Scalar, m: Scalar, n: int, c2: Scalar | None = None,
                       delta: Scalar = 0) -> Scalar:
    """Grid size R = c2(n) * hc^(1/(m-1)) + delta (default c2(n) = 4n)."""
    if float(hc) < 0:
        raise InputError("content must be non-negative")
    c2 = as_fraction(c2) if c2 is not None else Fraction(4 * n)
    if float(hc) == 0:
        return as_fraction(delta)
    return float(c2) * root(hc, as_fraction(m) - 1) + float(delta)


# ---------------------------------------------------------------------------
# voxel isoperimetry checkers

def boundary_cells(space: VoxelSpace) -> frozenset:
    """Cells with at least one unoccupied face-neighbor."""
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


def loomis_whitney_check(space: VoxelSpace) -> dict:
    """Projection-count inequality N^(n-1) <= prod N_j and the content chain
    HC_n <= N r^n <= (prod N_j)^(1/(n-1)) r^n <= HC_(n-1)(boundary)^(n/(n-1)),
    everything exact."""
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
    import itertools as _it

    for c in _it.product(*(range(lo, hi + 1) for lo, hi in bbox)):
        if all(c[:j] + c[j + 1:] in projections[j] for j in range(n)):
            hull += 1

    lw_ok = hull ** (n - 1) <= _prod(counts)
    if not lw_ok:
        raise VerificationError(
            "projection-count inequality failed",
            {"N": hull, "N_j": counts},
        )

    r = space.delta / 2
    hc_n = exact_content(space, None, n)
    boundary = boundary_cells(space)
    hc_b = exact_content(space, boundary, n - 1)

    nr_n = hull * power(r, n)
    chain = {
        "content_le_hull": hc_n.value <= nr_n,
        "hull_le_projections": hull ** (n - 1) <= _prod(counts),
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


def cube_equality_check(n: int, delta: Fraction = Fraction(1, 8),
                        side_cells: int | None = None) -> dict:
    """Exact contents of a coordinate cube and its boundary shell; verifies
    boundary^(n/(n-1)) equals the cube content (cross-powers, exact)."""
    from .shapes import make_cube, make_shell

    delta = as_fraction(delta)
    if side_cells is None:
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


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out
