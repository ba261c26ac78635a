import random
from fractions import Fraction
from math import lcm

import pytest

from hcfill import pushout
from hcfill.errors import InputError, PushoutPreconditionError
from hcfill.exact import numerators
from hcfill.pushout import (
    CubicalGrid,
    average_point,
    boundary_cells,
    cube_equality_check,
    grid_R_for_content,
    loomis_whitney_check,
    point_cover,
    skeleton_descend,
)
from hcfill.shapes import make_box, make_cube, make_l_hexomino
from oracles import face_bounds, face_center


UNIT = CubicalGrid(2, Fraction(1))


def _face_of(point, grid=UNIT):
    return grid.carrier_face(point)


def _radial_project(face, p, x):
    """The boundary point of the face on the ray p -> x, from `_project` on
    the face's `_free_bounds` frame."""
    den = lcm(face.grid.R.denominator, *(c.denominator for c in (*p, *x)))
    y, scale = pushout._project(pushout._free_bounds(face, den), numerators(p, den),
                                numerators(x, den))
    return tuple(Fraction(c, den * scale) for c in y)


def test_radial_projection_examples():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    assert _radial_project(f, p, (Fraction(3, 4), Fraction(1, 2))) == (1, Fraction(1, 2))
    assert _radial_project(f, p, (Fraction(5, 8), Fraction(3, 4))) == (Fraction(3, 4), 1)


def test_radial_projection_identity_on_boundary():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    x = (Fraction(1), Fraction(1, 3))
    assert _radial_project(f, p, x) == x
    # idempotence
    assert _radial_project(f, p, _radial_project(f, p, x)) == x


def test_radial_projection_symmetry():
    # conjugating by the coordinate swap of the square commutes with the map
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(30):
        x = (Fraction(rng.randrange(1, 16), 16), Fraction(rng.randrange(1, 16), 16))
        if x == p:
            continue
        direct = _radial_project(f, p, x)
        swapped = _radial_project(f, p, (x[1], x[0]))
        assert (direct[1], direct[0]) == swapped


def test_point_cover_zero_floor_is_free():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 2))]
    cost, balls = point_cover(pts, 1, 0)
    assert cost == 0  # bare points carry no content
    cost2, _ = point_cover(pts, 1, Fraction(1, 8))
    assert cost2 > 0


def test_average_point_boundary_set_is_free():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [(Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(2, 3))]
    p, ratio, before, after = average_point(f, pts, 2, candidates=8)
    # boundary points are fixed by the projection
    assert after <= before or before == 0


def test_average_point_single_interior_point():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [(Fraction(1, 3), Fraction(1, 3))]
    p, ratio, before, after = average_point(f, pts, 2, candidates=8,
                                            floor=Fraction(1, 16))
    assert p not in pts
    assert after <= before  # a single point projects to a single point


@pytest.mark.parametrize("m,candidates,calls", [
    (2, 16, 2), (2, 64, 2), (Fraction(5, 2), 16, 18), (Fraction(5, 2), 64, 66),
])
def test_average_point_stops_at_the_floor_price(monkeypatch, m, candidates, calls):
    """A single point projects to a single point, whose cover is one ball
    at the floor: every option costs the floor's price.  At an integer
    exponent the scan stops at the first option, so the face makes two
    greedy covers, its own and that option's; at m = 5/2 the price is a
    float power and every admissible option is priced."""
    greedy = pushout._greedy_cover
    seen = []

    def counted(*args):
        seen.append(args)
        return greedy(*args)

    monkeypatch.setattr(pushout, "_greedy_cover", counted)
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [(Fraction(3, 4), Fraction(1, 3))]
    _, _, before, after = average_point(f, pts, m, candidates, floor=Fraction(1, 256))
    assert len(seen) == calls
    assert before == after


def test_average_point_ratio_distribution():
    rng = random.Random(9)
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    ratios = []
    for trial in range(10):
        pts = [
            (Fraction(rng.randrange(1, 31), 32), Fraction(rng.randrange(1, 31), 32))
            for _ in range(6)
        ]
        pts = list(dict.fromkeys(pts))
        p, ratio, before, after = average_point(f, pts, 2, candidates=16,
                                                c0=Fraction(1), floor=Fraction(1, 64))
        ratios.append(ratio)
    assert all(r <= 10 * 2**2 for r in ratios)  # ratio ceiling at k=2


def test_average_point_precondition():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [(Fraction(i, 8), Fraction(j, 8)) for i in range(1, 8) for j in range(1, 8)]
    with pytest.raises(PushoutPreconditionError):
        average_point(f, pts, 2, candidates=4, c0=Fraction(1, 10**6),
                      floor=Fraction(1, 4))


def test_descend_noop_when_already_low():
    g = CubicalGrid(2, Fraction(1))
    pts = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(3))]  # vertices
    tr = skeleton_descend(pts, g, 2, candidates=4)
    assert tr.final == tr.initial
    assert tr.max_displacement == 0
    assert tr.trace_content == 0


@pytest.mark.parametrize("m", [4, Fraction(9, 2), 5])
def test_descend_above_the_ambient_dimension_leaves_points_unmoved(m):
    """At ceil(m) - 2 >= n every point already lies in the target skeleton:
    no level runs, nothing moves, and every check holds at a displacement
    bound of 0."""
    pts = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(3, 5), Fraction(1, 2))]
    tr = skeleton_descend(pts, UNIT, m, candidates=4)
    assert tr.final == tr.initial
    assert tr.levels == ()
    assert tr.max_displacement == 0
    assert tr.trace_content == 0
    assert tr.checks["displacement_bound"] == 0
    assert all(tr.checks[name] for name in
               ("final_in_skeleton", "boundary_points_fixed", "displacement_ok"))


def test_descend_moves_into_skeleton():
    g = CubicalGrid(2, Fraction(1))
    pts = [
        (Fraction(1, 3), Fraction(2, 7)),
        (Fraction(3, 5), Fraction(1, 2)),
        (Fraction(9, 7), Fraction(1, 5)),
    ]
    tr = skeleton_descend(pts, g, 2, candidates=8)
    assert tr.checks["final_in_skeleton"]
    assert tr.checks["boundary_points_fixed"]
    for pt in tr.final:
        assert g.carrier_face(pt).dim == 0
    # each level moves a point at most R in sup norm
    levels = g.n - (2 - 1) + 1
    assert tr.max_displacement <= levels * g.R


def test_descend_displacement_bound_3d():
    g = CubicalGrid(3, Fraction(1, 2))
    rng = random.Random(11)
    pts = []
    for _ in range(5):
        pts.append(tuple(Fraction(rng.randrange(1, 15), 16) for _ in range(3)))
    tr = skeleton_descend(pts, g, 3, candidates=8)
    assert tr.checks["final_in_skeleton"]
    for pt in tr.final:
        assert g.carrier_face(pt).dim <= 1
    assert tr.max_displacement <= (3 - 2 + 1) * g.R


def test_descend_per_level_moves_stay_in_face():
    g = CubicalGrid(2, Fraction(1))
    pts = [(Fraction(1, 3), Fraction(2, 7))]
    tr = skeleton_descend(pts, g, 2, candidates=4)
    for k, steps in tr.levels:
        for step in steps:
            for coord, (lo, hi) in zip(step.chosen_point, face_bounds(step.face)):
                assert lo <= coord <= hi


@pytest.mark.parametrize("pts", [
    [(Fraction(1, 3), Fraction(2, 7), Fraction(1, 2))],
    [(Fraction(1, 3),), (Fraction(3, 5),)],
])
def test_descend_rejects_wrong_point_dimension(pts):
    with pytest.raises(InputError, match="points need n coordinates"):
        skeleton_descend(pts, CubicalGrid(2, Fraction(1)), 2, candidates=4)


def test_grid_size_stored_as_fraction():
    g = CubicalGrid(2, 0.5)
    assert g.R == Fraction(1, 2) and isinstance(g.R, Fraction)
    pts = [(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 8), Fraction(1, 7))]
    tr = skeleton_descend(pts, g, 2, candidates=4)
    assert tr.to_dict() == skeleton_descend(
        pts, CubicalGrid(2, Fraction(1, 2)), 2, candidates=4).to_dict()
    with pytest.raises(InputError):
        CubicalGrid(2, 0.0)


def test_average_point_input_checks():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [(Fraction(1, 3), Fraction(1, 3))]
    with pytest.raises(InputError, match="m >= 1"):
        average_point(f, pts, Fraction(1, 2), candidates=4)
    with pytest.raises(InputError, match="non-negative"):
        average_point(f, pts, 2, candidates=-1)
    # m = 1 (exponent 0) is admissible
    average_point(f, pts, 1, candidates=4, c0=Fraction(1))


def test_average_point_error_precedence():
    # an outside point is reported only once some option is admissible
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    pts = [face_center(f), (Fraction(2), Fraction(1, 2))]
    with pytest.raises(InputError, match="no admissible projection point"):
        average_point(f, pts, 2, candidates=0, c0=Fraction(10**6))
    with pytest.raises(InputError, match="must lie in the face"):
        average_point(f, pts, 2, candidates=1, c0=Fraction(10**6))


def test_grid_R_examples():
    assert grid_R_for_content(0, 2, 3, delta=Fraction(1, 8)) == Fraction(1, 8)
    assert grid_R_for_content(1, 2, 1) == pytest.approx(4.0)
    assert grid_R_for_content(0.25, 3, 2) == pytest.approx(8 * 0.5)


@pytest.mark.parametrize("hc, m, n", [
    (float("nan"), 2, 2), (float("inf"), 2, 2), (1, 1, 2), (1, 0, 2), (1, float("nan"), 2),
    (1, 2, -1), (1, 2, 0), (1, 2, True),
])
def test_grid_R_refuses_a_content_exponent_or_dimension_out_of_range(hc, m, n):
    """A NaN or infinite content came back as the grid size, m = 0 gave 8.0
    and n = -1 a grid size of -4.0; m = 1 raised ZeroDivisionError and
    m = NaN ValueError."""
    with pytest.raises(InputError):
        grid_R_for_content(hc, m, n)


def test_lw_single_voxel():
    s = make_cube(2, 1, Fraction(1, 4))
    rep = loomis_whitney_check(s)
    assert rep["N"] == 1 and rep["N_j"] == [1, 1]
    assert rep["ok"]


def test_lw_rectangle_tight():
    s = make_box(2, (3, 5), Fraction(1, 8))
    rep = loomis_whitney_check(s)
    assert rep["N"] == 15
    assert sorted(rep["N_j"]) == [3, 5]
    assert rep["N"] ** 1 == rep["N_j"][0] * rep["N_j"][1] // 1 or rep["ok"]
    assert rep["ok"]


def test_lw_l_hexomino_counts():
    rep = loomis_whitney_check(make_l_hexomino())
    # oracle by hand: cells (0,0..4) and (1,0); projections have 5 rows and
    # 2 columns, the cylinder hull is the full 2x5 box
    assert rep["N"] == 10
    assert sorted(rep["N_j"]) == [2, 5]
    assert rep["N"] ** 1 <= 10
    assert rep["ok"]


def test_lw_random_blobs_exact(small_blobs):
    for s in small_blobs:
        rep = loomis_whitney_check(s)
        assert rep["N"] ** (s.n - 1) <= _prod(rep["N_j"])
        assert rep["ok"]


def test_lw_boundary_cells():
    s = make_cube(2, 3, Fraction(1, 4))
    b = boundary_cells(s)
    assert (1, 1) not in b
    assert len(b) == 8


def test_isoperimetry_checks_refuse_nets_and_bad_delta():
    from hcfill.space import NetSpace

    net = NetSpace("linf", ((0.0, 0.0), (1.0, 0.0)))
    for check in (boundary_cells, loomis_whitney_check):
        with pytest.raises(InputError, match="needs the voxel model"):
            check(net)
    for delta in (Fraction(0), Fraction(-1, 8)):
        with pytest.raises(InputError, match="delta must be positive"):
            cube_equality_check(2, delta)


def test_cube_equality_exact():
    for n in (2, 3):
        rep = cube_equality_check(n)
        assert rep["ok"]
    rep2 = cube_equality_check(2, Fraction(1, 4))  # unit cube of 4 x 4 cells
    assert rep2["ok"]
    assert Fraction(rep2["content_cube"]) == Fraction(1, 4)  # (1/2)^2


def _prod(vals):
    out = 1
    for v in vals:
        out *= v
    return out


@pytest.mark.parametrize("n,R", [
    (True, 1), (2.5, 1), ("2", 1), (0, 1), (-1, 1),
    (2, float("inf")), (2, float("nan")), (2, "1"), (2, True),
])
def test_grid_refuses_bad_dimension_and_cell_size(n, R):
    with pytest.raises(InputError, match="grid (dimension|cell size)"):
        CubicalGrid(n, R)


_FACE = CubicalGrid(2, Fraction(1)).carrier_face((Fraction(3, 4), Fraction(1, 2)))
_PTS = [(Fraction(1, 3), Fraction(1, 3))]


@pytest.mark.parametrize("kwargs,match", [
    ({"m": float("nan")}, "m must be a finite number"),
    ({"m": float("inf")}, "m must be a finite number"),
    ({"m": "2"}, "m must be a finite number"),
    ({"m": True}, "m must be a finite number"),
    ({"candidates": 2.5}, "candidate count"),
    ({"candidates": True}, "candidate count"),
    ({"floor": float("nan")}, "floor must be a finite number"),
    ({"floor": float("-inf")}, "floor must be a finite number"),
    ({"points": [(float("inf"), Fraction(1, 3))]}, "point coordinate"),
    ({"points": [(Fraction(1, 3), float("nan"))]}, "point coordinate"),
    ({"points": [(Fraction(1, 3),)]}, "points need n coordinates"),
])
def test_descent_and_average_point_refuse_bad_inputs(kwargs, match):
    """Each bad input is an InputError before any face work, in both the
    descent and the per-face search."""
    args = {"points": _PTS, "m": 2, "candidates": 4, "floor": Fraction(1, 256), **kwargs}
    with pytest.raises(InputError, match=match):
        average_point(_FACE, args["points"], args["m"], args["candidates"],
                      floor=args["floor"])
    if kwargs.get("points") == [(Fraction(1, 3),)]:
        return  # the descent's dimension check is test_descend_rejects_wrong_point_dimension
    with pytest.raises(InputError, match=match):
        skeleton_descend(args["points"], UNIT, args["m"], args["candidates"],
                         floor=args["floor"])


@pytest.mark.parametrize("points,exponent,match", [
    ([(Fraction(1, 3), Fraction(1, 5)), (Fraction(0),)], 1, "one common dimension"),
    ([(Fraction(0),), (Fraction(1, 2), Fraction(1, 2))], 2, "one common dimension"),
    ([(Fraction(1, 3), Fraction(1, 5))], -1, "exponent must be >= 0"),
    ([(Fraction(1, 3),), (Fraction(1, 2),)], Fraction(-1, 2), "exponent must be >= 0"),
    ([(Fraction(1, 3),)], float("nan"), "exponent must be a finite number"),
])
def test_point_cover_refuses_mixed_dimensions_and_negative_exponents(points, exponent, match):
    with pytest.raises(InputError, match=match):
        point_cover(points, exponent, Fraction(1, 2))


@pytest.mark.parametrize("axes", [1, 2, 3, 4])
@pytest.mark.parametrize("candidates", [0, 1, 16, 64])
def test_cached_option_order_is_the_eager_sort(axes, candidates):
    """The options built lazily in the cached order are the face's centre
    and Weyl samples, built as Fractions and sorted."""
    grid = CubicalGrid(axes + 1, Fraction(2, 3))
    face = pushout.Face(grid, (("free", -1), ("fixed", 2), *(("free", a) for a in range(axes - 1))))
    eager = [face_center(face)]
    free_axes = [i for i, (kind, _) in enumerate(face.coords) if kind == "free"]
    bounds = face_bounds(face)
    for j in range(1, candidates + 1):
        coord = list(face_center(face))
        for ai, axis in enumerate(free_axes):
            lo, hi = bounds[axis]
            f = (j * pushout._WEYL[ai % len(pushout._WEYL)]) % pushout._WEYL_DEN
            coord[axis] = lo + (hi - lo) * (Fraction(1, 10) + Fraction(8, 10) * Fraction(f, pushout._WEYL_DEN))
        eager.append(tuple(coord))
    den = grid.R.denominator * 10 * pushout._WEYL_DEN
    step = grid.R.numerator * (den // (10 * pushout._WEYL_DEN * grid.R.denominator))
    base = [grid.R.numerator * (den // grid.R.denominator) * a for _, a in face.coords]
    lazy = pushout._options(base, pushout._free_bounds(face, den), step, candidates)
    assert [tuple(Fraction(c, den) for c in p) for p in lazy] == sorted(eager)
