import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcfill.width
from hcfill.errors import InputError, UncoverableError
from hcfill.exact import as_fraction, fmt_scalar
from hcfill.shapes import (
    make_box,
    make_cube,
    make_dumbbell,
    make_ring,
    make_strip,
    make_strip_with_bulbs,
    random_blob,
    translate,
)
from hcfill.space import (
    Ball,
    Covering,
    GridBalls,
    NetSpace,
    PointKeys,
    VoxelSpace,
    ball_members,
    grid_ball,
    space_diameter,
    space_radius,
)
from hcfill.width import (
    NerveComplex,
    fiber_bound,
    nerve,
    width_bound,
)
from oracles import net_point_dist


def test_nerve_disjoint_balls():
    s = make_cube(2, 4, Fraction(1, 4))
    b1 = grid_ball(s, (0, 0), 2)
    b2 = grid_ball(s, (2, 2), 2)
    target = frozenset(ball_members(b1, s) | ball_members(b2, s))
    nv = nerve(Covering((b1, b2), target, 1), s)
    assert nv.dimension == 0
    assert set(nv.simplices) == {(0,), (1,)}


def test_nerve_overlapping_balls():
    s = make_cube(2, 4, Fraction(1, 4))
    b1 = grid_ball(s, (0, 0), 3)
    b2 = grid_ball(s, (1, 1), 3)
    target = frozenset(ball_members(b1, s) | ball_members(b2, s))
    nv = nerve(Covering((b1, b2), target, 1), s)
    assert nv.dimension == 1
    assert (0, 1) in nv.simplices


def test_nerve_dimension_equals_multiplicity(small_blobs):
    from hcfill.content import greedy_content

    for s in small_blobs[:6]:
        cover = greedy_content(s, None, 1).witness
        nv = nerve(cover, s)
        members = [ball_members(b, s) for b in cover.balls]
        mult = max(
            sum(1 for ms in members if c in ms) for c in s.cells
        )
        assert nv.dimension == mult - 1


def test_nerve_rejects_non_cover():
    s = make_cube(2, 4, Fraction(1, 4))
    b = grid_ball(s, (0, 0), 2)
    with pytest.raises(Exception):
        nerve(Covering((b,), frozenset(s.cells), 1), s)


def test_single_ball_bound_is_diameter():
    s = make_cube(2, 4, Fraction(1, 4))
    big = grid_ball(s, (0, 0), 4)
    nv = nerve(Covering((big,), frozenset(s.cells), 1), s)
    assert fiber_bound(nv) == 2 * big.radius


def test_strip_width_small():
    s = make_strip(32, 2, Fraction(1, 16))
    w = width_bound(s, 1, budget=120, seed=0)
    assert not w.trivial
    assert w.bound <= 2 * s.delta  # a 2x2 disjoint tiling achieves this
    # the certificate re-verifies
    nv = nerve(w.covering, s)
    assert nv.dimension <= 0
    assert fiber_bound(nv) == w.bound


def test_width_certificates_reverify(small_blobs):
    for s in small_blobs[:4]:
        w = width_bound(s, 2, budget=60, seed=0)
        nv = nerve(w.covering, s)
        assert nv.dimension <= 1
        assert fiber_bound(nv) == w.bound
        assert w.bound <= space_diameter(s)


def test_budget_monotonicity():
    s = make_dumbbell()
    small = width_bound(s, 2, budget=40, seed=0)
    large = width_bound(s, 2, budget=160, seed=0)
    assert large.bound <= small.bound


def test_determinism_under_seed():
    s = make_dumbbell()
    a = width_bound(s, 2, budget=80, seed=5)
    b = width_bound(s, 2, budget=80, seed=5)
    assert a.bound == b.bound
    assert a.covering.balls == b.covering.balls


def test_width_index_validation():
    s = make_cube(2, 2, Fraction(1, 4))
    with pytest.raises(InputError):
        width_bound(s, 0)


def test_figure_fixture_width_far_below_diameter():
    s = make_strip_with_bulbs()
    w = width_bound(s, 2, budget=150, seed=0)
    diam = space_diameter(s)
    assert float(w.bound) * 4 <= float(diam)
    assert w.c_measured > 0


def test_zero_budget_falls_back_to_the_diameter():
    for s in (make_cube(2, 4, Fraction(1, 4)), make_dumbbell()):
        w = width_bound(s, 2, budget=0)
        assert w.trivial
        assert w.bound == space_diameter(s)
        nv = nerve(w.covering, s)
        assert nv.dimension == 0
        assert fiber_bound(nv) == w.bound


def test_width_bound_passes_node_budget(monkeypatch):
    seen = []
    real = hcfill.width.exact_content

    def recording(*args, **kwargs):
        seen.append(kwargs["node_budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(hcfill.width, "exact_content", recording)
    width_bound(make_cube(2, 2, Fraction(1, 8)), 2, budget=5, node_budget=321)
    assert seen == [321]


def negative_thirds_blob():
    """A delta = 1/3 blob at negative coordinates."""
    return translate(random_blob(12, 2, 20, 6, Fraction(1, 3)), (-9, -4))


# Reports of width_bound, pinned as the first 16 hex digits of the sha256 of
# their sorted-key JSON; any change to the reported covering or the report
# layout shows here.
PINNED_REPORTS = [
    (make_dumbbell, (), 2, 200, 0, "c15e85ace9aed29a"),
    (make_ring, (8, Fraction(1, 8)), 2, 150, 3, "a33a4859df9e637e"),
    (make_strip, (32, 2, Fraction(1, 16)), 1, 120, 0, "4603a3454b1675c6"),
    (random_blob, (5, 2, 24, 6), 2, 160, 7, "f6d2bbb761274e8e"),
    (random_blob, (9, 3, 40, 5), 2, 120, 1, "b6b395b4ffbdba48"),
    (negative_thirds_blob, (), 2, 150, 4, "4bf14fb82b449121"),
    (negative_thirds_blob, (), 2, 0, 0, "c59bb631e2d78d73"),
    (make_box, (2, (3, 5)), 1, 0, 0, "47eb7cb6347aa38e"),
]


@pytest.mark.parametrize("make, args, m, budget, seed, digest", PINNED_REPORTS)
def test_width_reports_pinned(make, args, m, budget, seed, digest):
    r = width_bound(make(*args), m, budget=budget, seed=seed)
    text = json.dumps(r.to_dict(), sort_keys=True, default=fmt_scalar)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_negative_budget_is_input_error():
    with pytest.raises(InputError, match="budget"):
        width_bound(make_cube(2, 2, Fraction(1, 4)), 1, budget=-3)


@pytest.mark.parametrize("m", [True, False, "2", None, Fraction(3, 2), 2.5])
def test_width_index_must_be_an_integer_not_a_bool(m):
    with pytest.raises(InputError, match="width index"):
        width_bound(make_cube(2, 2, Fraction(1, 4)), m)


@pytest.mark.parametrize("budget", ["5", True, False, 0.5, 1.0, None])
def test_width_budget_must_be_an_int_not_a_bool(budget):
    with pytest.raises(InputError, match="budget"):
        width_bound(make_cube(2, 2, Fraction(1, 4)), 1, budget=budget)


def test_width_bound_builds_balls_only_when_read(monkeypatch):
    """The cover stays half-cell keys: neither `width_bound` nor its report
    nor its covering's cost or report builds a `Ball`, the first read of
    the covering's `balls` builds one per key, and a second read and the
    nerve's vertex balls build none."""
    space = negative_thirds_blob()
    built = []
    real = Ball.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    for budget in (0, 5):
        built.clear()
        w = width_bound(space, 2, budget=budget)
        w.to_dict()
        w.covering.to_dict()
        assert w.covering.cost == sum(w.covering.make.radius(key) for key in w.covering.keys)
        assert built == []
        balls = w.covering.balls
        assert len(built) == len(balls) == len(w.covering.keys) == \
            (1 if budget == 0 else len(space.cells))
        assert w.covering.balls is balls
        assert w.nerve.vertex_balls is balls
        assert w.nerve is w.nerve
        assert len(built) == len(balls)


@st.composite
def voxel_sets(draw):
    """Voxel sets at negative and positive coordinates, delta 1/3, 1/8 or
    1, in boxes of odd or even extent per axis, and half-cell keys around
    them."""
    n = draw(st.integers(1, 3))
    extents = draw(st.tuples(*[st.integers(1, {1: 7, 2: 5, 3: 3}[n])] * n))
    shift = draw(st.tuples(*[st.integers(-6, 2)] * n))
    coords = sorted(tuple(x + o for x, o in zip(c, shift))
                    for c in itertools.product(*map(range, extents)))
    cells = draw(st.sets(st.sampled_from(coords), min_size=1))
    delta = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 8), Fraction(1)]))
    keys = draw(st.lists(st.tuples(*[st.integers(-16, 12)] * n, st.integers(1, 9)), max_size=4))
    return VoxelSpace(n, delta, frozenset(cells)), keys


@settings(max_examples=200, deadline=None)
@given(voxel_sets(), st.integers(1, 3), st.sampled_from([0, 0, 1, 60, 2000]))
def test_width_report_matches_the_ball_oracles(case, m, budget):
    """Each report equals, to the JSON byte, the one rebuilt from its
    covering's balls by `nerve`, `fiber_bound` and a covering by those
    balls, the `Ball`-list path; the cover is the bounding box's ball at
    budget 0 and the one-cell tiling else, and every key's cell ranges are
    its ball centre's `PointKeys.ranges` at its radius."""
    space, keys = case
    w = width_bound(space, m, budget, node_budget=20)
    got = json.dumps(w.to_dict(), sort_keys=True, default=fmt_scalar)
    cover = w.covering
    nv = nerve(cover, space)
    assert fiber_bound(nv) == w.bound
    want = {"m": fmt_scalar(m), "bound": fmt_scalar(fiber_bound(nv)),
            "c_measured": w.c_measured, "content": fmt_scalar(w.content),
            "trivial": budget == 0, "nerve": nv.to_dict(),
            "covering": Covering(cover.balls, cover.target, cover.m).to_dict()}
    assert got == json.dumps(want, sort_keys=True, default=fmt_scalar)
    if budget == 0:
        center = tuple(space.delta * Fraction(lo + hi + 1, 2) for lo, hi in space.bbox())
        assert cover.balls == (Ball(center, space_radius(space)),)
    else:
        assert cover.balls == tuple(grid_ball(space, c, 1) for c in space.sorted_cells())
    make = GridBalls(space.delta)
    for key in (*cover.keys, *keys):
        ball = make(key)
        assert GridBalls.ranges(key) == PointKeys(space, ball.center).ranges(ball.radius)


# ---------------------------------------------------------------------------
# mask nerve and extent fiber bound against the set-based originals

def oracle_nerve(cover, space):
    """Owners per element from ball_members sets; maximality by set
    inclusion."""
    members = [ball_members(b, space) for b in cover.balls]
    covered = set()
    for ms in members:
        covered |= ms
    missing = set(cover.target) - covered
    if missing:
        raise UncoverableError(f"covering misses {len(missing)} elements")
    simplices = set()
    multiplicity = 0
    for element in sorted(cover.target):
        owners = tuple(i for i, ms in enumerate(members) if element in ms)
        multiplicity = max(multiplicity, len(owners))
        simplices.add(owners)
    maximal = [
        s for s in simplices
        if not any(s != t and set(s) <= set(t) for t in simplices)
    ]
    return NerveComplex(tuple(cover.balls), tuple(sorted(maximal)), multiplicity)


def oracle_union_diameter(balls):
    n = len(balls[0].center)
    worst = Fraction(0)
    for i in range(n):
        lo = min(as_fraction(b.center[i]) - as_fraction(b.radius) for b in balls)
        hi = max(as_fraction(b.center[i]) + as_fraction(b.radius) for b in balls)
        worst = max(worst, hi - lo)
    return worst


def oracle_fiber_bound(nv):
    worst = Fraction(0)
    for simplex in nv.simplices:
        worst = max(worst, oracle_union_diameter([nv.vertex_balls[i] for i in simplex]))
    return worst


def assert_nerves_agree(covers, space):
    """Each cover gives the oracle's nerve and fiber bound, or its error."""
    for cover in covers:
        try:
            want = oracle_nerve(cover, space)
        except UncoverableError as exc:
            with pytest.raises(UncoverableError, match=str(exc)):
                nerve(cover, space)
            continue
        got = nerve(cover, space)
        assert got == want
        assert fiber_bound(got) == oracle_fiber_bound(want)


def merged_ball(a, b):
    """The cube ball around two balls' boxes: centre the box's midpoint,
    radius half its largest side."""
    lo = [min(x - a.radius, y - b.radius) for x, y in zip(a.center, b.center)]
    hi = [max(x + a.radius, y + b.radius) for x, y in zip(a.center, b.center)]
    return Ball(tuple((x + y) / 2 for x, y in zip(lo, hi)),
                max(y - x for x, y in zip(lo, hi)) / 2)


@st.composite
def voxel_covers(draw, grid_sized=False):
    """A voxel set (negative coordinates allowed) and covers of it: grid
    balls, merged boxes of two grid balls, balls of either kind shifted by
    delta per axis, balls with quarter-delta centres and radii, balls that
    miss the space, and targets that hold cells outside the space.

    With `grid_sized` the balls are only the first three kinds, every one
    of radius at least delta/2, and each target is a set of cells the balls
    cover whenever they cover any."""
    n = draw(st.integers(1, 3))
    box = draw(st.integers(1, {1: 8, 2: 5, 3: 3}[n]))
    shift = draw(st.tuples(*[st.integers(-4, 2)] * n))
    coords = sorted(tuple(x + o for x, o in zip(c, shift))
                    for c in itertools.product(range(box), repeat=n))
    cells = draw(st.sets(st.sampled_from(coords), min_size=1))
    delta = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1)]))
    space = VoxelSpace(n, delta, frozenset(cells))
    quarter = st.integers(-4 * box - 8, 4 * box + 8).map(
        lambda q: delta * Fraction(q, 4) + delta * shift[0])
    anchor = st.tuples(*[st.integers(-box - 6, box + 2)] * n)
    grid = st.builds(lambda a, k: grid_ball(space, a, k), anchor, st.integers(1, box + 1))
    merged = st.builds(merged_ball, grid, grid)
    shifted = st.builds(lambda b, s: Ball(tuple(c + o * delta for c, o in zip(b.center, s)),
                                          b.radius),
                        st.one_of(grid, merged), st.tuples(*[st.sampled_from((-1, 0, 1))] * n))
    ball = st.one_of(grid, merged, shifted)
    if not grid_sized:
        ball = st.one_of(ball, st.builds(lambda c, q: Ball(tuple(c), delta * Fraction(q, 4)),
                                         st.lists(quarter, min_size=n, max_size=n),
                                         st.integers(0, 4 * box)))
    covers = []
    for _ in range(draw(st.integers(1, 4))):
        balls = tuple(draw(st.lists(ball, min_size=1, max_size=6)))
        covered = sorted(set().union(*(ball_members(b, space) for b in balls)))
        if covered and (grid_sized or draw(st.booleans())):
            target = set(draw(st.sets(st.sampled_from(covered), min_size=1)))
        else:
            target = set(draw(st.sets(st.sampled_from(coords), min_size=1)))
        if not grid_sized and draw(st.integers(0, 4)) == 0:
            target.add(tuple(x - box - 20 for x in coords[0]))  # outside the space
        covers.append(Covering(balls, frozenset(target), 1))
    return space, covers


@settings(max_examples=300, deadline=None)
@given(voxel_covers())
def test_mask_nerve_matches_set_nerve_on_voxels(case):
    space, covers = case
    assert_nerves_agree(covers, space)


@settings(max_examples=150, deadline=None)
@given(voxel_covers(grid_sized=True), st.integers(1, 3), st.integers(1, 10**4),
       st.integers(0, 2**31 - 1))
def test_no_cover_by_grid_sized_balls_beats_the_one_cell_tiling(case, m, budget, seed):
    """Every ball here has radius at least delta/2, so every covering they
    make, at any multiplicity, has fiber bound at least delta; `width_bound`
    at any positive budget and seed reports delta, with the one-cell
    tiling."""
    space, covers = case
    for cover in covers:
        try:
            nv = nerve(cover, space)
        except UncoverableError:
            continue
        assert fiber_bound(nv) >= space.delta
    w = width_bound(space, m, budget, seed, node_budget=20)
    assert (w.bound, w.nerve.multiplicity, w.trivial) == (space.delta, 1, False)
    assert w.nerve.vertex_balls == tuple(sorted(grid_ball(space, c, 1) for c in space.cells))


@st.composite
def net_covers(draw):
    """Nets under each metric (the matrix one from l_inf distances), balls
    centred at net points with radii from the distance set, and targets
    that may name points the net does not have."""
    count = draw(st.integers(1, 7))
    points = tuple(draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda p: (p[0] / 2, p[1] / 4)),
        min_size=count, max_size=count)))
    metric = draw(st.sampled_from(["linf", "l2", "l1", "matrix"]))
    if metric == "matrix":
        matrix = tuple(tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points)
                       for p in points)
        space = NetSpace("matrix", tuple((float(i),) for i in range(count)), 0.0, matrix)
    else:
        space = NetSpace(metric, points)
    centers = st.integers(0, count - 1).map(lambda i: space.points[i])
    radius = st.sampled_from(sorted({net_point_dist(space, i, j) for i in range(count)
                                     for j in range(count)}))
    ball = st.builds(Ball, centers, radius)
    covers = []
    for _ in range(draw(st.integers(1, 4))):
        balls = tuple(draw(st.lists(ball, min_size=1, max_size=5)))
        target = set(draw(st.sets(st.integers(0, count - 1), min_size=1)))
        if draw(st.integers(0, 4)) == 0:
            target.add(count + draw(st.integers(0, 2)))  # not a point of the net
        covers.append(Covering(balls, frozenset(target), 1))
    return space, covers


@settings(max_examples=200, deadline=None)
@given(net_covers())
def test_mask_nerve_matches_set_nerve_on_nets(case):
    space, covers = case
    assert_nerves_agree(covers, space)


# `fiber_bound` as it was written before it put every vertex ball over one
# denominator at once: a per-ball integer box over the ball's own lcm, then
# every box rescaled to the lcm of those.  Kept verbatim as the oracle.

def _oracle_ball_box(ball):
    r = as_fraction(ball.radius)
    center = [as_fraction(c) for c in ball.center]
    den = math.lcm(r.denominator, *(c.denominator for c in center))
    rn = r.numerator * (den // r.denominator)
    cn = [c.numerator * (den // c.denominator) for c in center]
    return den, tuple(c - rn for c in cn), tuple(c + rn for c in cn)


def _oracle_common_den(boxes):
    den = math.lcm(*(d for d, _, _ in boxes))
    out = []
    for d, lo, hi in boxes:
        if d != den:
            f = den // d
            lo, hi = tuple(x * f for x in lo), tuple(x * f for x in hi)
        out.append((lo, hi))
    return den, out


def oracle_fiber_bound(nerve_complex):
    den, bounds = _oracle_common_den([_oracle_ball_box(b) for b in nerve_complex.vertex_balls])
    axes = list(zip(zip(*(lo for lo, _ in bounds)), zip(*(hi for _, hi in bounds))))
    worst = 0
    for simplex in nerve_complex.simplices:
        for lo, hi in axes:
            d = max(map(hi.__getitem__, simplex)) - min(map(lo.__getitem__, simplex))
            if d > worst:
                worst = d
    return Fraction(worst, den)


@st.composite
def vertex_complexes(draw):
    """Balls with centre coordinates over mixed denominators and radii that
    are Fractions, ints or floats, and random simplices over them."""
    n = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 8, 12]))
    radius = st.one_of(
        st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 2, 4, 7, 9])),
        st.integers(0, 5),
        st.floats(0.0, 8.0),
    )
    balls = tuple(draw(st.lists(st.builds(Ball, st.tuples(*[coord] * n), radius),
                                min_size=1, max_size=7)))
    index = st.integers(0, len(balls) - 1)
    simplices = tuple(tuple(sorted(s)) for s in draw(st.lists(
        st.sets(index, min_size=1, max_size=4), min_size=1, max_size=6)))
    return NerveComplex(balls, simplices, max(map(len, simplices)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vertex_complexes())
def test_fiber_bound_matches_the_per_ball_box_oracle(nerve_complex):
    got = fiber_bound(nerve_complex)
    assert type(got) is Fraction
    assert got == oracle_fiber_bound(nerve_complex)
