import random
from fractions import Fraction

import pytest

from hcfill.errors import InputError, PushoutPreconditionError
from hcfill.pushout import (
    CubicalGrid,
    average_point,
    boundary_cells,
    cube_equality_check,
    grid_R_for_content,
    loomis_whitney_check,
    point_cover,
    radial_project,
    skeleton_descend,
)
from hcfill.shapes import make_box, make_cube, make_l_hexomino


UNIT = CubicalGrid(2, Fraction(1))


def _face_of(point, grid=UNIT):
    return grid.carrier_face(point)


def test_radial_projection_examples():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    assert radial_project(f, p, (Fraction(3, 4), Fraction(1, 2))) == (1, Fraction(1, 2))
    assert radial_project(f, p, (Fraction(5, 8), Fraction(3, 4))) == (Fraction(3, 4), 1)


def test_radial_projection_identity_on_boundary():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    x = (Fraction(1), Fraction(1, 3))
    assert radial_project(f, p, x) == x
    # idempotence
    assert radial_project(f, p, radial_project(f, p, x)) == x


def test_radial_projection_symmetry():
    # conjugating by the coordinate swap of the square commutes with the map
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(30):
        x = (Fraction(rng.randrange(1, 16), 16), Fraction(rng.randrange(1, 16), 16))
        if x == p:
            continue
        direct = radial_project(f, p, x)
        swapped = radial_project(f, p, (x[1], x[0]))
        assert (direct[1], direct[0]) == swapped


def test_radial_projection_errors():
    f = _face_of((Fraction(3, 4), Fraction(1, 2)))
    p = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(InputError):
        radial_project(f, p, p)
    with pytest.raises(InputError):
        radial_project(f, (Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2)))


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
    assert all(r <= 10 * 2**2 for r in ratios)  # configured ceiling at k=2


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
            for coord, (lo, hi) in zip(step.chosen_point, step.face.bounds()):
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
    pts = [f.center(), (Fraction(2), Fraction(1, 2))]
    with pytest.raises(InputError, match="no admissible projection point"):
        average_point(f, pts, 2, candidates=0, c0=Fraction(10**6))
    with pytest.raises(InputError, match="must lie in the face"):
        average_point(f, pts, 2, candidates=1, c0=Fraction(10**6))


def test_grid_R_examples():
    assert grid_R_for_content(0, 2, 3, delta=Fraction(1, 8)) == Fraction(1, 8)
    assert grid_R_for_content(1, 2, 3, c2=4) == pytest.approx(4.0)
    assert grid_R_for_content(0.25, 3, 2) == pytest.approx(8 * 0.5)


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


def test_cube_equality_exact():
    for n in (2, 3):
        rep = cube_equality_check(n)
        assert rep["ok"]
    rep2 = cube_equality_check(2, Fraction(1, 8), side_cells=16)  # side 2 cube
    assert rep2["ok"]
    assert Fraction(rep2["content_cube"]) == 1  # (2/2)^2


def _prod(vals):
    out = 1
    for v in vals:
        out *= v
    return out
