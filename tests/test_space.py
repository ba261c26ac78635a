import itertools
import random
import re
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcfill.errors import InputError
from hcfill.exact import as_fraction, power
from hcfill.shapes import make_box, make_cube
from hcfill.space import (
    Ball,
    Covering,
    ElementBits,
    GridBalls,
    NetSpace,
    PointKeys,
    RadiusCapped,
    VoxelSpace,
    ball_members,
    bit_indices,
    grid_ball,
    key_balls,
    linf,
    load_space,
    save_space,
    space_diameter,
    space_from_dict,
    space_radius,
    space_to_dict,
)
from hcfill.content import exact_content
from hcfill.pushout import grid_R_for_content
from hcfill.width import width_bound
from oracles import members_oracle, net_point_dist


@pytest.mark.parametrize("metric", ["linf", "l1", "l2"])
def test_net_points_need_one_coordinate_count(metric):
    # zip would truncate an l1 or l2 distance between points of unequal length
    points = ((0.0, 0.0), (1.0,), (5.0, 5.0))
    message = "same number of coordinates"
    with pytest.raises(InputError, match=message):
        NetSpace(metric, points)
    with pytest.raises(InputError, match=message):
        space_from_dict({"variant": "net", "metric": metric, "points": points})


@pytest.mark.parametrize("doc, message", [
    ({"variant": "net", "points": [[True, 0], [0, 0], [3, 1]], "eps_net": False},
     "net point: not a row of numbers"),
    ({"variant": "net", "points": [[0, 0], [3, 1]], "eps_net": False},
     "field 'eps_net': not a valid value"),
    ({"variant": "net", "metric": "matrix", "points": [[0], [1]],
      "matrix": [[0, True], [True, 0]]}, "distance matrix row: not a row of numbers"),
])
def test_net_documents_refuse_booleans(doc, message):
    """A JSON `true` or `false` in a net document loaded as 1.0 or 0.0."""
    with pytest.raises(InputError, match=message):
        space_from_dict(doc)


@pytest.mark.parametrize("build", [
    lambda: NetSpace("linf", ((0.0, 0.0),), float("nan")),
    lambda: NetSpace("linf", ((0.0, 0.0),), float("inf")),
    lambda: RadiusCapped(float("nan")),
    lambda: RadiusCapped(float("inf")),
    lambda: VoxelSpace(2, float("nan"), frozenset({(0, 0)})),
    lambda: VoxelSpace(2, float("inf"), frozenset({(0, 0)})),
    lambda: VoxelSpace(2.5, Fraction(1, 2), frozenset()),
    lambda: VoxelSpace(True, Fraction(1, 2), frozenset()),
    lambda: grid_R_for_content(1, 3, 2, delta=float("nan")),
    lambda: grid_R_for_content(1, 3, 2, delta=float("inf")),
    lambda: grid_R_for_content(1, 3, 2, delta=-1),
], ids=["eps_net-nan", "eps_net-inf", "cap-nan", "cap-inf", "delta-nan", "delta-inf",
        "n-2.5", "n-True", "grid-delta-nan", "grid-delta-inf", "grid-delta-negative"])
def test_spaces_families_and_grid_sizes_refuse_non_finite_numbers(build):
    """NaN and infinite net scales and radius caps were accepted, and the
    content solver then raised ValueError or OverflowError on the cap; a
    NaN or infinite delta raised them at once, n = 2.5 was accepted, and
    the grid size came back NaN, infinite or 7.0 for a delta of NaN, inf
    or -1."""
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize("center, radius", [
    ((Fraction(1, 2), Fraction(1, 2)), float("nan")),
    ((Fraction(1, 2), Fraction(1, 2)), float("inf")),
    ((Fraction(1, 2), float("nan")), Fraction(1, 4)),
    ((float("-inf"), Fraction(1, 2)), Fraction(1, 4)),
    ((Fraction(1, 2), Fraction(1, 2)), Fraction(-1, 4)),
])
def test_ball_refuses_a_non_finite_centre_or_radius(center, radius):
    """A NaN radius used to be accepted; the solvers, `Covering.validate`
    and `ball_members` then raised ValueError on it (OverflowError at inf)."""
    with pytest.raises(InputError, match="a finite centre and a finite radius >= 0"):
        Ball(center, radius)


def test_ball_members_grid():
    s = make_cube(2, 2, Fraction(1, 2))
    full = grid_ball(s, (0, 0), 2)
    assert ball_members(full, s) == frozenset(s.cells)
    point = Ball(s.cell_center((0, 0)), Fraction(0))
    assert ball_members(point, s) == frozenset({(0, 0)})
    far = Ball((Fraction(50), Fraction(50)), Fraction(1, 4))
    assert ball_members(far, s) == frozenset()


def test_membership_matches_distance():
    rng = random.Random(1)
    s = make_cube(2, 5, Fraction(1, 8))
    for _ in range(50):
        center = (Fraction(rng.randrange(0, 40), 64), Fraction(rng.randrange(0, 40), 64))
        radius = Fraction(rng.randrange(0, 30), 64)
        members = ball_members(Ball(center, radius), s)
        for cell in s.cells:
            inside = linf(s.cell_center(cell), center) <= radius
            assert (cell in members) == inside


def test_metric_matrix_validation():
    good = ((0.0, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0))
    NetSpace("matrix", ((0.0,), (1.0,), (2.0,)), 0.0, good)
    rng = random.Random(7)
    rejected = 0
    for _ in range(40):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        mat = [[max(abs(a - c), abs(b - d)) for c, d in pts] for a, b in pts]
        i, j = rng.sample(range(4), 2)
        mat[i][j] = mat[j][i] = mat[i][j] * 4 + 1.0  # break the triangle
        with pytest.raises(InputError):
            NetSpace("matrix", tuple((float(k),) for k in range(4)), 0.0,
                     tuple(tuple(r) for r in mat))
        rejected += 1
    assert rejected == 40


def test_space_serialization_roundtrip(tmp_path):
    s = make_cube(2, 3, Fraction(1, 8))
    path = tmp_path / "s.json"
    save_space(s, path)
    loaded = load_space(str(path))
    assert loaded == s
    assert space_from_dict(space_to_dict(s)) == s

    net = NetSpace("l2", ((0.0, 0.0), (1.0, 1.0)), 0.1)
    assert space_from_dict(space_to_dict(net)) == net


def test_load_net_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,2\n")
    net = load_space(str(path))
    assert isinstance(net, NetSpace) and len(net.points) == 2


def test_radius_and_diameter():
    s = make_box(2, (4, 2), Fraction(1, 4))
    assert space_radius(s) == Fraction(1, 2)  # 4 cells * (1/4) / 2
    assert space_diameter(s) == 1
    single = make_cube(2, 1, Fraction(1, 8))
    assert space_radius(single) == Fraction(1, 16)


def test_grid_ball_is_cell_block():
    s = make_cube(3, 4, Fraction(1, 4))
    b = grid_ball(s, (1, 0, 2), 2)
    members = ball_members(b, s)
    expected = frozenset(itertools.product((1, 2), (0, 1), (2, 3)))
    assert members == expected


def test_covering_validate_rejects_cells_of_another_dimension():
    s = make_cube(2, 2, Fraction(1, 2))
    cover = Covering((grid_ball(s, (0, 0), 2),), frozenset(s.cells | {(0,)}), 1)
    with pytest.raises(InputError, match="without 2 coordinates"):
        cover.validate(s)


def test_covering_validate_covers_unoccupied_target_cells_by_their_centres():
    """Three unit balls cover the cells 0, 1 and 2 of a space that occupies
    only 0 and 1, as the solvers cover a target's unoccupied cells; a target
    cell no ball's centre range holds is still missed."""
    space = VoxelSpace(2, Fraction(1), frozenset({(0, 0), (1, 0)}))
    target = frozenset({(0, 0), (1, 0), (2, 0)})
    res = exact_content(space, target, 1)
    assert len(res.witness.balls) == 3
    res.witness.validate(space)
    res.witness.validate(VoxelSpace(2, Fraction(1), frozenset()))
    short = Covering(res.witness.balls[:2], target, 1)
    with pytest.raises(InputError, match="misses 1 target"):
        short.validate(space)


def test_keyed_covering_matches_the_ball_list_covering():
    """A keyed covering builds its balls only when read, and its cost,
    report and balls are those of the covering by its balls."""
    space = make_box(2, (3, 2), Fraction(1, 3))
    make = GridBalls(space.delta)
    keys = [(5, 3, 1), (2, 2, 2), (5, 1, 1), (5, 3, 1)]
    keyed = Covering.keyed(make, keys, frozenset(space.cells), Fraction(3, 2))
    assert "balls" not in keyed.__dict__
    plain = Covering(tuple(map(make, keys)), keyed.target, keyed.m)
    assert (keyed.cost, keyed.to_dict()) == (plain.cost, plain.to_dict())
    assert keyed.balls == plain.balls
    assert keyed == Covering.keyed(GridBalls(space.delta), keys, plain.target, plain.m)
    assert keyed != Covering.keyed(GridBalls(space.delta / 2), keys, plain.target, plain.m)
    keyed.validate(space)


def test_covering_cost_is_not_an_init_parameter():
    s = make_cube(2, 2, Fraction(1, 2))
    with pytest.raises(TypeError):
        Covering((grid_ball(s, (0, 0), 2),), frozenset(s.cells), 2, cost=99)


def _covering_cases():
    """Ball lists whose radii share objects, or do not, or repeat."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    a, b, c = 0.1, 0.7, 0.3
    shared = [Ball((Fraction(i), Fraction(0)), half) for i in range(3)]
    return {
        "shared": shared + [Ball((Fraction(9), Fraction(1)), third)] * 2,
        "unshared": [Ball((Fraction(i), Fraction(i)), Fraction(i + 1, 3)) for i in range(4)]
        + [Ball((Fraction(0), Fraction(5)), Fraction(1, 3))],
        "int": [Ball((0, 0), 1), Ball((2, 0), 2), Ball((4, 0), 1), Ball((4, 4), Fraction(1))],
        "duplicates": [shared[0], shared[0], shared[1], shared[0]],
        # grouped, 0.1 and 0.3 would round differently at both exponents
        "float": [Ball((0.0, 0.0), r) for r in (a, a, b, c, c)],
        "empty": [],
    }


@pytest.mark.parametrize("m", [2, Fraction(3, 2)])
@pytest.mark.parametrize("case", sorted(_covering_cases()))
def test_covering_cost_and_report_match_the_per_ball_reference(case, m):
    balls = _covering_cases()[case]
    cover = Covering(tuple(balls), frozenset(), m)
    want = sum(power(b.radius, m) for b in balls)
    assert cover.cost == want and type(cover.cost) is type(want)
    if isinstance(want, float):
        assert cover.cost.hex() == want.hex()
    assert cover.to_dict()["balls"] == [b.to_dict() for b in sorted(balls)]


@st.composite
def element_lists(draw):
    """A space, an ordered element list and balls.  Voxel lists may name
    unoccupied cells and take off-grid Fraction centers; nets come under
    every metric (the matrix one from l_inf distances), with off-point
    centers on coordinate metrics and an index the net does not have.
    Radii may be 0."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        box = {1: 8, 2: 5, 3: 3}[n]
        coords = list(itertools.product(range(-1, box), repeat=n))
        cells = draw(st.sets(st.sampled_from(coords), min_size=1))
        delta = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1)]))
        space = VoxelSpace(n, delta, frozenset(cells))
        elements = draw(st.lists(st.sampled_from(coords), unique=True))
        coord = st.fractions(-2, box + 2, max_denominator=8).map(lambda x: x * delta)
        center = st.tuples(*[coord] * n)
        radius = st.fractions(0, box, max_denominator=8).map(lambda x: x * delta)
    else:
        count = draw(st.integers(1, 6))
        points = tuple(draw(st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda p: (p[0] / 2, p[1] / 4)),
            min_size=count, max_size=count)))
        metric = draw(st.sampled_from(["linf", "l2", "l1", "matrix"]))
        if metric == "matrix":
            matrix = tuple(tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points)
                           for p in points)
            space = NetSpace("matrix", tuple((float(i),) for i in range(count)), 0.0, matrix)
            center = st.integers(0, count - 1).map(lambda i: (Fraction(i),))
        else:
            space = NetSpace(metric, points)
            center = st.one_of(
                st.integers(0, count - 1).map(lambda i: points[i]),
                st.tuples(*[st.fractions(-1, 4, max_denominator=8)] * 2),
            )
        elements = draw(st.lists(st.integers(0, count + 1), unique=True))
        dists = sorted({net_point_dist(space, i, j) for i in range(count) for j in range(count)})
        radius = st.one_of(st.sampled_from(dists), st.floats(0, 4))
    balls = draw(st.lists(st.builds(Ball, center, radius), min_size=1, max_size=4))
    return space, elements, balls


@settings(max_examples=150, deadline=None)
@given(element_lists())
def test_element_bits_ball_matches_ball_members(case):
    """`ElementBits.ball`, `ball_members` and `Covering.validate` against
    the membership oracle: a voxel ball holds the listed cells whose
    centres it holds, occupied or not, as the solvers cover them."""
    space, elements, balls = case
    bits = ElementBits(space, elements)
    everything = space.cells if isinstance(space, VoxelSpace) else range(len(space.points))
    covered = set()
    for ball in balls:
        inside = members_oracle(ball, space, elements)
        assert {elements[i] for i in bit_indices(bits.ball(ball))} == inside
        assert bits.members(bits.ball(ball)) == inside
        assert ball_members(ball, space) == members_oracle(ball, space, everything)
        covered |= inside
    cover = Covering(tuple(balls), frozenset(elements), 1)
    missing = len(set(elements) - covered)
    if missing:
        with pytest.raises(InputError, match=f"misses {missing} target"):
            cover.validate(space)
    else:
        cover.validate(space)


# ---------------------------------------------------------------------------
# the lattice primitives against the Fraction expressions they replaced

DELTAS = [Fraction(1, 8), Fraction(1, 3), Fraction(3, 7), Fraction(2)]


def _ranges_oracle(ball, space):
    r = Fraction(ball.radius)
    ranges = []
    for x in ball.center:
        lo = (x - r) / space.delta - Fraction(1, 2)
        hi = (x + r) / space.delta - Fraction(1, 2)
        ranges.append((ceil(lo), floor(hi)))
    return ranges


def _center_oracle(space, cell):
    return tuple(space.delta * (c + Fraction(1, 2)) for c in cell)


def _grid_ball_oracle(space, anchor, k):
    half = Fraction(k, 2)
    return Ball(tuple(space.delta * (a + half) for a in anchor), space.delta * half)


def _linf_oracle(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


_fractions = st.fractions(-6, 6, max_denominator=24)
_floats = st.floats(-6, 6, allow_nan=False, allow_infinity=False)
_scalars = st.one_of(_fractions, st.integers(-6, 6), _floats)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.sampled_from(DELTAS), st.tuples(*[_scalars] * n),
    st.one_of(st.just(0), st.fractions(0, 4, max_denominator=24), st.floats(0, 4)))))
def test_ball_cell_ranges_match_the_fraction_expression(case):
    """The cells a ball holds, `PointKeys(space, centre).ranges(radius)`:
    Fraction, int and float centres, negative coordinates, r = 0 and radii
    off the delta/2 lattice.  The oracle is the expression evaluated
    exactly.  On a float centre it was evaluated in floats, which can only
    differ where the exact bound is within rounding of an integer."""
    delta, center, radius = case
    space = VoxelSpace(len(center), delta, frozenset())
    ball = Ball(center, radius)
    exact = Ball(tuple(Fraction(x) for x in center), radius)
    got = PointKeys(space, center).ranges(radius)
    assert got == _ranges_oracle(exact, space)
    r = Fraction(radius)
    for x, bounds, was in zip(exact.center, got, _ranges_oracle(ball, space)):
        for value, g, w in zip(((x - r) / delta - Fraction(1, 2),
                                (x + r) / delta - Fraction(1, 2)), bounds, was):
            assert g == w or abs(value - round(value)) < 1e-9


def _ranges_numerator_oracle(ball, space):
    """The cells a ball holds as they were found before `PointKeys`: per axis
    ceil((2(x - r) - delta) / (2 delta)) .. floor((2(x + r) - delta) /
    (2 delta)) by floor division of numerators over 2 dn xd rd."""
    r = as_fraction(ball.radius)
    rn, rd = r.numerator, r.denominator
    dn, dd = space.delta.numerator, space.delta.denominator
    ranges = []
    for x in ball.center:
        x = as_fraction(x)
        xd = x.denominator
        den = 2 * dn * xd * rd
        mid = 2 * dd * x.numerator * rd - dn * xd * rd
        reach = 2 * dd * rn * xd
        ranges.append((-((reach - mid) // den), (mid + reach) // den))
    return ranges


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.sampled_from(DELTAS), st.tuples(*[_scalars] * n),
    st.one_of(st.just(0), st.fractions(0, 4, max_denominator=24), st.floats(0, 4)))))
@example((Fraction(1, 3), (0.5, Fraction(-7, 6)), Fraction(1, 3)))  # centre and sphere on the lattice
@example((Fraction(1, 3), (Fraction(-5, 7),), Fraction(2, 5)))  # off the lattice
def test_ball_cell_ranges_match_the_numerator_formula(case):
    """`PointKeys.ranges` on the centre's frame against the numerator
    formula it replaced: float, int and off-lattice centres, negative
    coordinates, r = 0 and float radii."""
    delta, center, radius = case
    space = VoxelSpace(len(center), delta, frozenset())
    ball = Ball(center, radius)
    assert PointKeys(space, center).ranges(radius) == _ranges_numerator_oracle(ball, space)


def test_a_float_centre_is_measured_exactly():
    """(0.5 - 1/3) / (1/3) - 1/2 is 0, so cell 0 (centre 1/6, at distance
    1/3 = r) is in the closed ball; float arithmetic would put the lower
    bound at 1.1e-16 and round it up to 1."""
    space = VoxelSpace(1, Fraction(1, 3), frozenset({(0,), (1,)}))
    ball = Ball((0.5,), Fraction(1, 3))
    assert PointKeys(space, ball.center).ranges(ball.radius) == [(0, 2)]
    assert ball_members(ball, space) == frozenset({(0,), (1,)})


@pytest.mark.parametrize("delta", [0.25, 2, Fraction(3, 7)])
def test_voxel_delta_is_held_as_an_exact_fraction(delta):
    space = VoxelSpace(1, delta, frozenset({(0,), (3,)}))
    assert type(space.delta) is Fraction and space.delta == Fraction(delta)
    assert space.cell_center((3,)) == (Fraction(delta) * Fraction(7, 2),)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DELTAS), st.lists(st.integers(-9, 9), min_size=1, max_size=3),
       st.integers(1, 5))
def test_cell_center_and_grid_ball_match_the_fraction_expression(delta, cell, k):
    space = VoxelSpace(len(cell), delta, frozenset())
    cell = tuple(cell)
    center = space.cell_center(cell)
    assert center == _center_oracle(space, cell)
    ball = grid_ball(space, cell, k)
    assert ball == _grid_ball_oracle(space, cell, k)
    assert all(type(x) is Fraction for x in (*center, *ball.center, ball.radius))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.tuples(*[_scalars] * n), st.tuples(*[_scalars] * n))))
def test_linf_matches_the_plain_expression(points):
    """Fraction points give an equal Fraction; float, int or mixed points
    give a bit-identical value of the same type."""
    a, b = points
    got, want = linf(a, b), _linf_oracle(a, b)
    assert got == want
    if all(type(x) is Fraction for x in (*a, *b)):
        assert type(got) is Fraction
    else:
        assert type(got) is type(want)
        if isinstance(want, float):
            assert got.hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.tuples(*[_fractions] * n)] * 2)))
def test_linf_on_fraction_points_is_a_fraction(points):
    got = linf(*points)
    assert got == _linf_oracle(*points) and type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_point_keys_match_fraction_distances(n, data):
    """At points on the half-cell lattice and off it, over negative cells
    and at delta = p/q: each cell's key times the unit is the l_inf
    distance from p to its centre, `keys` sorts by (key, cell), `farthest`
    over the cells' bounding box is the largest key, L keys make half a cell
    and `floor(x)` is x // unit for Fraction, int and float x.  At a lattice
    point delta/2 * h, `PointKeys.lattice` reads the same frame off h."""
    delta = data.draw(st.sampled_from(DELTAS))
    cells = data.draw(st.sets(st.tuples(*[st.integers(-6, 6)] * n), min_size=1, max_size=12))
    space = VoxelSpace(n, delta, frozenset(cells))
    halves = data.draw(st.tuples(*[st.integers(-14, 14)] * n))
    lattice = tuple(k * delta / 2 for k in halves)
    off = data.draw(st.tuples(*[_fractions] * n))
    p = data.draw(st.sampled_from((lattice, tuple(x + d for x, d in zip(lattice, off)))))
    frame = PointKeys(space, p)
    keys = frame.keys(cells)
    assert keys == sorted(keys) and sorted(c for _, c in keys) == sorted(cells)
    assert all(k * frame.unit == linf(space.cell_center(c), p) for k, c in keys)
    lo, hi = zip(*space.bbox())
    assert frame.farthest(lo, hi) == keys[-1][0]
    assert frame.half * frame.unit == delta / 2
    x = data.draw(_scalars)
    assert frame.floor(x) == as_fraction(x) // frame.unit
    if p == lattice:
        read = PointKeys.lattice(delta / 2, halves)
        assert (read.half, read.unit, read.at) == (frame.half, frame.unit, frame.at)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DELTAS),
       st.integers(1, 3).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(-20, 20)] * n, st.integers(1, 9)), max_size=5)),
       st.lists(st.integers(1, 30), max_size=3))
def test_grid_frame_matches_the_frame_of_its_balls(delta, keys, dens):
    """`GridBalls.frame` reads the keys' integers into the frame that
    `key_balls.frame` builds from the balls they make: the same denominator,
    the lcm of `dens` and the parts' reduced denominators, and the same
    centre and radius numerators."""
    make = GridBalls(delta)
    assert make.frame(keys, *dens) == key_balls.frame([make(k).key() for k in keys], *dens)


def test_linf_of_empty_points_raises_as_before():
    with pytest.raises(ValueError) as want:
        _linf_oracle((), ())
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        linf((), ())
    with pytest.raises(InputError, match="dimension mismatch"):
        linf((Fraction(1),), ())


@pytest.mark.parametrize("x", [3, -2, 0.1, 2.5, "3/7", "-5/2", "0.25"])
def test_as_fraction_converts_exactly(x):
    got = as_fraction(x)
    assert type(got) is Fraction and got == Fraction(x)


def test_as_fraction_returns_a_fraction_itself():
    x = Fraction(5, 12)
    assert as_fraction(x) is x


@pytest.mark.parametrize("space", [
    make_box(2, (4, 3), Fraction(1, 3)),
    VoxelSpace(3, Fraction(3, 7), frozenset({(-2, 0, 1), (0, -1, 1), (1, 1, -3), (0, 0, 0)})),
])
def test_width_bound_tiling_is_in_ball_order(space):
    """The one-cell tiling is built in cell order, which is its Ball order."""
    tiling = width_bound(space, 1).covering.balls
    assert tiling == tuple(sorted(tiling))
    assert tiling == tuple(grid_ball(space, c, 1) for c in sorted(space.cells))
