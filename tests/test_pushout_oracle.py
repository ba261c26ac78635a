"""The integer projection and greedy-cover kernels of `hcfill.pushout`
against the Fraction implementations they replaced, kept below verbatim as
the oracle; `skeleton_descend` against the descent built face by face from
the public `average_point` and `point_cover` and from `oracle_radial_project`;
and pinned digests of skeleton descents."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from math import ceil, lcm

from hcfill.cone import cone_covering
from hcfill.errors import InputError, PushoutPreconditionError, VerificationError
from hcfill.exact import Scalar, as_fraction, fmt_scalar, numerators, power
from hcfill.pushout import (
    DEFAULT_CANDIDATES,
    RATIO_CEILING_BASE,
    _WEYL,
    _WEYL_DEN,
    _free_bounds,
    _project,
    CubicalGrid,
    DeformationTrace,
    Face,
    FaceStep,
    average_point,
    point_cover,
    skeleton_descend,
)
from hcfill.space import Ball, Covering, linf
from oracles import face_bounds, face_center, face_contains, face_strictly_interior


# ---------------------------------------------------------------------------
# oracle: the Fraction implementations

def oracle_radial_project(face: Face, p, x):
    """Boundary point of the face on the ray p -> x; exact rational."""
    p = tuple(as_fraction(c) for c in p)
    x = tuple(as_fraction(c) for c in x)
    if not face_strictly_interior(face, p):
        raise InputError("projection point must be strictly interior to the face")
    if not face_contains(face, x):
        raise InputError("point to project must lie in the face")
    if x == p:
        raise InputError("radial projection undefined at the projection point")
    t_hit = None
    for (kind, _), (lo, hi), pc, xc in zip(face.coords, face_bounds(face), p, x):
        if kind == "fixed" or xc == pc:
            continue
        t = (hi - pc) / (xc - pc) if xc > pc else (lo - pc) / (xc - pc)
        if t_hit is None or t < t_hit:
            t_hit = t
    if t_hit is None:
        raise InputError("radial projection undefined at the projection point")
    return tuple(pc + t_hit * (xc - pc) for pc, xc in zip(p, x))


def oracle_point_cover(points, exponent: Scalar, floor: Scalar = 0):
    """Greedy covering of a finite point set by balls centered at the points,
    radii drawn from the pairwise-distance set floored at `floor`.

    Returns (cost, balls).  With floor 0 and separated points the cost is 0:
    a bare finite point set has vanishing content.
    """
    pts = sorted(tuple(as_fraction(c) for c in p) for p in points)
    if not pts:
        return Fraction(0), []
    floor = as_fraction(floor)
    remaining = set(range(len(pts)))
    chosen = []
    total = Fraction(0)
    while remaining:
        best = None
        for i in sorted(remaining):
            dists = sorted({max(floor, as_fraction(linf(pts[i], pts[j])))
                            for j in remaining})
            for r in dists:
                members = [j for j in remaining if linf(pts[i], pts[j]) <= r]
                cost = power(r, exponent)
                key = (as_fraction(cost) / len(members), pts[i], r)
                if best is None or key < best[0]:
                    best = (key, i, r, members, cost)
        _, i, r, members, cost = best
        chosen.append(Ball(pts[i], r))
        total += as_fraction(cost)
        remaining -= set(members)
    return total, chosen


def oracle_average_point(
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
    exponent = as_fraction(m) - 1
    before, _ = oracle_point_cover(pts, exponent, floor)
    R = face.grid.R
    c0 = as_fraction(c0) if c0 is not None else Fraction(1, 4) ** k
    cap = c0 * power(R, exponent) if not isinstance(power(R, exponent), float) \
        else float(c0) * power(R, exponent)
    if float(before) > float(cap) + 1e-12:
        raise PushoutPreconditionError(
            "face content too large for a safe pushout",
            {"face_dim": k, "content": fmt_scalar(before), "cap": fmt_scalar(cap)},
        )

    taken = set(pts)
    options = [face_center(face)]
    free_axes = [i for i, (kind, _) in enumerate(face.coords) if kind == "free"]
    bounds = face_bounds(face)
    # deterministic low-discrepancy interior sample (Weyl sequence per axis)
    for j in range(1, candidates + 1):
        coord = list(face_center(face))
        for ai, axis in enumerate(free_axes):
            lo, hi = bounds[axis]
            frac_part = (j * _WEYL[ai % len(_WEYL)]) % _WEYL_DEN
            u = Fraction(1, 10) + Fraction(8, 10) * Fraction(frac_part, _WEYL_DEN)
            coord[axis] = lo + (hi - lo) * u
        options.append(tuple(coord))

    best = None
    for p in options:
        if p in taken or not face_strictly_interior(face, p):
            continue
        projected = [oracle_radial_project(face, p, x) for x in pts]
        after, _ = oracle_point_cover(projected, exponent, floor)
        key = (after, p)
        if best is None or key < best[0]:
            best = (key, p, after)
    if best is None:
        raise InputError("no admissible projection point found")
    _, p, after = best
    ratio = float(after) / float(before) if float(before) > 0 else (
        0.0 if float(after) == 0 else float("inf")
    )
    return p, ratio, before, after


def oracle_skeleton_descend(points, grid, m, candidates=DEFAULT_CANDIDATES, floor=0):
    """The descent with its cover and projections recomputed per face by
    the public functions: `average_point`, then `point_cover` again for
    the swept cone, and `oracle_radial_project` per point."""
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
            pts = [current[i] for i in idxs]
            p, ratio, before, after = average_point(face, pts, m, candidates, floor=floor)
            limit = RATIO_CEILING_BASE * 2.0**k
            if ratio > limit:
                raise VerificationError(
                    "projection cost ratio above its ceiling",
                    {"face_dim": k, "ratio": ratio, "ceiling": limit},
                )
            cone_cost = oracle_swept_cone_cost(p, pts, m, exponent, floor)
            trace_content += as_fraction(cone_cost)
            for i in idxs:
                new = oracle_radial_project(face, p, current[i])
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


def oracle_swept_cone_cost(p, pts, m, exponent, floor, cover=point_cover):
    _, balls = cover(pts, exponent, floor)
    balls = [b for b in balls if b.radius > 0]
    if not balls:
        return Fraction(0)
    reach = max(as_fraction(linf(b.center, p)) + as_fraction(b.radius) for b in balls)
    if reach == 0:
        return Fraction(0)
    cover = Covering(tuple(balls), frozenset(range(len(balls))), exponent)
    cert = cone_covering(cover, p, reach, m, "improved")
    return cert.cost


def fraction_skeleton_descend(points, grid, m, candidates=DEFAULT_CANDIDATES, floor=0):
    """The descent in Fractions throughout: carrier faces from
    `grid.carrier_face`, and per face `oracle_average_point`,
    `oracle_radial_project` per point and the swept cone over
    `oracle_point_cover`'s balls."""
    m_ceil = ceil(float(m))
    target_dim = m_ceil - 2
    current = [tuple(as_fraction(c) for c in p) for p in points]
    initial = tuple(current)
    displacement = [Fraction(0)] * len(current)
    levels = []
    trace_content = Fraction(0)
    exponent = as_fraction(m) - 1
    before_total, _ = oracle_point_cover(current, exponent, floor)
    for k in range(grid.n, m_ceil - 2, -1):
        by_face: dict = {}
        for idx, pt in enumerate(current):
            face = grid.carrier_face(pt)
            if face.dim == k:
                by_face.setdefault(face, []).append(idx)
        steps = []
        for face in sorted(by_face, key=lambda f: f.coords):
            pts = [current[i] for i in by_face[face]]
            p, ratio, _, _ = oracle_average_point(face, pts, m, candidates, floor=floor)
            limit = RATIO_CEILING_BASE * 2.0**k
            if ratio > limit:
                raise VerificationError(
                    "projection cost ratio above its ceiling",
                    {"face_dim": k, "ratio": ratio, "ceiling": limit},
                )
            cone_cost = oracle_swept_cone_cost(p, pts, m, exponent, floor, oracle_point_cover)
            trace_content += as_fraction(cone_cost)
            for i in by_face[face]:
                new = oracle_radial_project(face, p, current[i])
                displacement[i] += as_fraction(linf(new, current[i]))
                current[i] = new
            steps.append(FaceStep(face, p, ratio, cone_cost, len(pts)))
        levels.append((k, tuple(steps)))
    final = tuple(current)
    max_disp = max(displacement) if displacement else Fraction(0)
    level_count = grid.n - (m_ceil - 1) + 1
    checks = {
        "final_in_skeleton": all(grid.carrier_face(pt).dim <= target_dim for pt in final),
        "boundary_points_fixed": all(
            initial[i] == final[i] for i in range(len(initial))
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
    return DeformationTrace(grid, m, initial, final, tuple(levels), max_disp,
                            trace_content, checks)


# ---------------------------------------------------------------------------
# strategies

GRID_SIZES = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3))
DENS = (1, 2, 3, 4, 5, 7, 8, 12, 16)
FLOORS = (Fraction(0), Fraction(1, 256), Fraction(1, 7), Fraction(1, 3))
EXPONENTS = (0, 1, 2, Fraction(1, 2), Fraction(3, 2))


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except (InputError, PushoutPreconditionError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "report", None))


@st.composite
def faces(draw):
    n = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("free", "fixed")), min_size=n, max_size=n)
                 .filter(lambda ks: "free" in ks))
    base = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return Face(CubicalGrid(n, draw(st.sampled_from(GRID_SIZES))), tuple(zip(kinds, base)))


@st.composite
def face_points(draw, face, strict=False):
    """A point of the face (strictly interior if `strict`), mixed denominators."""
    coords = []
    for (kind, _), (lo, hi) in zip(face.coords, face_bounds(face)):
        if kind == "fixed":
            coords.append(lo)
            continue
        den = draw(st.sampled_from(DENS[1:] if strict else DENS))
        num = draw(st.integers(1, den - 1) if strict else st.integers(0, den))
        coords.append(lo + (hi - lo) * Fraction(num, den))
    return tuple(coords)


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(DENS))
    pts = draw(st.lists(st.tuples(*[coord] * n), max_size=6))
    if pts and draw(st.booleans()):
        pts.append(pts[draw(st.integers(0, len(pts) - 1))])  # a duplicate point
    return pts


@st.composite
def face_point_sets(draw):
    face = draw(faces())
    pts = draw(st.lists(face_points(face), min_size=1, max_size=5))
    if pts and draw(st.booleans()):
        pts.append(pts[0])
    return face, pts


# ---------------------------------------------------------------------------
# integer kernels against the oracle

@settings(deadline=None, derandomize=True, max_examples=200)
@given(point_sets(), st.sampled_from(EXPONENTS), st.sampled_from(FLOORS))
def test_point_cover_matches_fraction_oracle(pts, exponent, floor):
    cost, balls = point_cover(pts, exponent, floor)
    want_cost, want_balls = oracle_point_cover(pts, exponent, floor)
    assert type(cost) is Fraction and cost == want_cost
    assert balls == want_balls


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.data())
def test_radial_project_matches_fraction_oracle(data):
    """`_project` on a face's `_free_bounds` frame, from a strictly interior
    p to a point x of the face: scale 0 exactly where the oracle finds the
    projection undefined (x = p)."""
    face = data.draw(faces())
    p = data.draw(face_points(face, strict=True))
    x = data.draw(st.one_of(st.just(p), face_points(face)))
    den = lcm(face.grid.R.denominator, *(c.denominator for c in (*p, *x)))
    y, scale = _project(_free_bounds(face, den), numerators(p, den), numerators(x, den))
    want = outcome(oracle_radial_project, face, p, x)
    if scale:
        assert want == ("ok", tuple(Fraction(c, den * scale) for c in y))
    else:
        assert want[0] == "InputError"


@settings(deadline=None, derandomize=True, max_examples=120)
@given(face_point_sets(), st.sampled_from((2, 3, Fraction(3, 2), Fraction(5, 2))),
       st.integers(0, 20), st.sampled_from((None, Fraction(1))), st.sampled_from(FLOORS))
@example((Face(CubicalGrid(2, Fraction(1)), (("free", 0), ("fixed", 0))),
          [(Fraction(1, 16), Fraction(0)), (Fraction(1, 32), Fraction(0))]),
         2, 20, None, Fraction(1, 256))  # both points project onto (0, 0) from every option
def test_average_point_matches_fraction_oracle(face_pts, m, candidates, c0, floor):
    face, pts = face_pts
    got = outcome(average_point, face, pts, m, candidates, c0=c0, floor=floor)
    assert got == outcome(oracle_average_point, face, pts, m, candidates, c0=c0,
                          floor=floor)


@st.composite
def descents(draw):
    """Points on a grid of mixed cell sizes (some on faces of every
    dimension, some repeated), m, candidate count and floor."""
    n = draw(st.integers(1, 3))
    grid = CubicalGrid(n, draw(st.sampled_from(GRID_SIZES)))
    den = draw(st.sampled_from((2, 4, 7, 12, 16)))
    coord = st.integers(0, 2 * den).map(lambda j: grid.R * Fraction(j, den))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=5))
    if draw(st.booleans()):
        pts.append(pts[-1])
    m = draw(st.sampled_from((2, 3, Fraction(3, 2), Fraction(5, 2))))
    return pts, grid, m, draw(st.integers(0, 20)), draw(st.sampled_from(FLOORS))


def descent_outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs).to_dict())
    except (InputError, VerificationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "report", None))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(descents())
@example(([(Fraction(1, 8), Fraction(1, 8))], CubicalGrid(2, Fraction(1, 2)), 3, 4,
          Fraction(1, 3)))  # a face over its content cap
@example(([(Fraction(1, 8),)], CubicalGrid(2, Fraction(1)), 2, 4, Fraction(0)))
def test_skeleton_descend_matches_the_per_face_descent(case):
    pts, grid, m, candidates, floor = case
    got = descent_outcome(skeleton_descend, pts, grid, m, candidates=candidates,
                          floor=floor)
    assert got == descent_outcome(oracle_skeleton_descend, pts, grid, m,
                                  candidates=candidates, floor=floor)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(descents())
@example(([(Fraction(1, 8), Fraction(3, 16)), (Fraction(5, 16), Fraction(1, 4)),
           (Fraction(1, 2), Fraction(5, 8)), (Fraction(3, 4), Fraction(1, 8)),
           (Fraction(7, 8), Fraction(13, 16)), (Fraction(3, 8), Fraction(15, 16))],
          CubicalGrid(2, Fraction(1)), 2, 16, Fraction(1, 256)))  # multi-point faces
def test_skeleton_descend_matches_the_fraction_descent(case):
    """The descent on integer frames gives the report and the final points
    of the descent done in Fractions throughout."""
    pts, grid, m, candidates, floor = case

    def run(descend):
        try:
            trace = descend(pts, grid, m, candidates, floor)
        except (InputError, VerificationError) as exc:
            return (type(exc).__name__, str(exc), getattr(exc, "report", None))
        return ("ok", trace.to_dict(), trace.final, trace.max_displacement)

    got = run(skeleton_descend)
    assert got == run(fraction_skeleton_descend)
    if got[0] == "ok":
        assert all(type(c) is Fraction for p in got[2] for c in p)


# ---------------------------------------------------------------------------
# pinned descents: sha256 of the sorted-key JSON of `to_dict()`

PINNED = [  # (seed, n, m, R, floor, candidates, points, coordinate denominator, sha256)
    (1, 2, Fraction(2), Fraction(1), Fraction(1, 256), 16, 3, 16,
     "bf88b0c3268553fed0b3b188a8287242f1bb021537e3da50e73294ba0b8a1179"),
    (2, 2, Fraction(3, 2), Fraction(1, 2), Fraction(0), 16, 4, 12,
     "0333429d848aa117602aa6f32058b99433eec8ccd2044bbc3ecc21feaee86e7f"),
    (3, 3, Fraction(5, 2), Fraction(1), Fraction(1, 256), 16, 4, 16,
     "9884cc4d82f45c9b966f4b5c5d9ba85af2afb834cf7be257475d0d41a8d24864"),
    (4, 2, Fraction(2), Fraction(3, 4), Fraction(1, 256), 64, 5, 12,
     "8ca3be9311530048cead5cb01326ffef52179d9a4592f542f26d7d316df76165"),
    (5, 3, Fraction(3), Fraction(1, 2), Fraction(0), 16, 3, 7,
     "01607a5f7b927d8ac7ef7ac534211870b5dfac7ffa6b217ea0c8ed4562f8fff4"),
    (6, 2, Fraction(3), Fraction(1), Fraction(0), 64, 3, 16,
     "9fa15b3c050131949cbf4d822b3b7c707a39808e4a86602510f1bc5475b06868"),
    (7, 3, Fraction(2), Fraction(3, 4), Fraction(1, 256), 16, 5, 16,
     "6c43c796585071515818b6fa984875f3294dd597eecb7856e1f4607b94ec41e4"),
    (8, 2, Fraction(5, 2), Fraction(1, 2), Fraction(1, 256), 64, 4, 32,
     "eca1630af3a8a02e6ee185749fe08614eb9e33bdb53ae9d06eb609a3d2412525"),
]


@pytest.mark.parametrize("seed,n,m,R,floor,candidates,count,den,digest", PINNED)
def test_descent_digests_pinned(seed, n, m, R, floor, candidates, count, den, digest):
    rng = random.Random(seed)
    pts = [tuple(Fraction(rng.randrange(0, 2 * den + 1), den) for _ in range(n))
           for _ in range(count)]
    trace = skeleton_descend(pts, CubicalGrid(n, R), m, candidates=candidates,
                             floor=floor)
    text = json.dumps(trace.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
