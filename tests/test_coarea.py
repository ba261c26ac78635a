import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcfill.coarea import (
    DistanceToPoint,
    DistanceToSet,
    ExplicitValues,
    SliceProfile,
    best_slice,
    coarea_integral,
    slice_profile,
    slice_sweep,
)
from hcfill.content import exact_content, greedy_content
from hcfill.errors import InputError
from hcfill.exact import as_fraction, common_den, numerators, power
from hcfill.shapes import make_cube, make_line, random_blob
from hcfill.space import Ball, Covering, VoxelSpace, grid_ball


def _cover_of(space, m=1):
    return greedy_content(space, None, m).witness


def test_constant_function_gives_degenerate_intervals():
    s = make_cube(2, 3, Fraction(1, 4))
    cover = _cover_of(s)
    values = {c: Fraction(1, 3) for c in s.cells}
    profile = slice_profile(s, s.cells, ExplicitValues(values, Fraction(1)), cover)
    for interval in profile.intervals:
        if interval is not None:
            assert interval[0] == interval[1] == Fraction(1, 3)
    assert coarea_integral(profile, 2) == 0


def test_line_single_ball_full_range():
    s = make_line(4, Fraction(1, 4))  # cells (0..3, 0)
    big = grid_ball(s, (0, -1), 4)  # 4-block containing the line
    cover = Covering((big,), frozenset(s.cells), 1)
    f = DistanceToPoint(s.cell_center((0, 0)))
    profile = slice_profile(s, s.cells, f, cover)
    (a, b) = profile.intervals[0]
    assert a == 0  # the left end's own cell reaches value 0
    assert b == Fraction(3, 4) + Fraction(1, 8)  # right end plus half a cell
    assert b - a <= 2 * big.radius


def test_profile_scan_oracle_8x8():
    s = make_cube(2, 8, Fraction(1, 8))
    cover = _cover_of(s, 2)
    f = DistanceToPoint(s.cell_center((0, 0)))
    profile = slice_profile(s, s.cells, f, cover, rng=(Fraction(0), Fraction(1)))
    from hcfill.space import ball_members, linf

    half = s.delta / 2
    for ball, interval in zip(cover.balls, profile.intervals):
        members = ball_members(ball, s)
        if not members:
            assert interval is None
            continue
        dists = [linf(s.cell_center(c), f.point) for c in members]
        lo = max(Fraction(0), min(dists) - half)
        hi = max(dists) + half
        assert interval == (lo, hi)


def test_a_ball_on_an_unoccupied_domain_cell_pins_its_interval():
    """A cover that validates on a domain cell the space does not occupy:
    its ball holds that cell, so its interval is the cell's.  The ball once
    got no interval while `level_set` still returned the cell, and the
    slice majorant there read 0."""
    space = VoxelSpace(1, Fraction(1), frozenset({(0,), (1,)}))
    domain = space.cells | {(5,)}
    far = Ball((Fraction(11, 2),), Fraction(1, 2))
    cover = Covering((Ball((Fraction(1),), Fraction(1)), far), domain, 2)
    cover.validate(space)
    f = DistanceToPoint((Fraction(0),))
    profile = slice_profile(space, domain, f, cover)
    assert profile.intervals == ((0, 2), (5, 6))
    assert profile.level_set(5) == {(5,)}
    at_five = slice_profile(space, domain, f, cover, (Fraction(5), Fraction(6)))
    assert best_slice(at_five, 2) == (5, Fraction(1, 2))


def test_a_ball_holding_no_domain_cell_reports_a_null_interval():
    """The extra ball at (3, 3) of radius 1/16 holds no cell centre of the
    8x8 square: its interval is None, `coarea_integral` and `best_slice`
    skip it, and the report writes it as JSON null (it raised TypeError)."""
    s = make_cube(2, 8)
    big = Ball((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2))
    cover = Covering((big, Ball((Fraction(3), Fraction(3)), Fraction(1, 16))), s.cells, 2)
    profile = slice_profile(s, s.cells, DistanceToPoint((Fraction(0), Fraction(0))), cover)
    assert profile.intervals == ((0, 1), None)
    assert json.loads(json.dumps(profile.to_dict()))["intervals"] == [[0, 1], None]
    assert coarea_integral(profile, 2) == Fraction(1, 2)
    assert best_slice(profile, 2) == (0, Fraction(1, 2))


def test_integral_bounded_by_cover_cost_batch():
    rng = random.Random(4)
    for seed in range(20):
        s = random_blob(seed, 2, 8, 5)
        cover = _cover_of(s, 2)
        anchor = rng.choice(s.sorted_cells())
        f = DistanceToPoint(s.cell_center(anchor))
        profile = slice_profile(s, s.cells, f, cover)
        integral = coarea_integral(profile, 2)
        assert integral <= 2 * Fraction(1) * cover.cost  # Lip = 1, exact


def test_per_ball_interval_width():
    for seed in range(10):
        s = random_blob(seed + 50, 2, 9, 5)
        cover = _cover_of(s, 1)
        f = DistanceToSet(frozenset([s.sorted_cells()[0]]))
        profile = slice_profile(s, s.cells, f, cover)
        for ball, interval in zip(cover.balls, profile.intervals):
            if interval is not None:
                assert interval[1] - interval[0] <= 2 * ball.radius


def test_best_slice_prefers_gap():
    s = make_line(8, Fraction(1, 8))
    b1 = grid_ball(s, (0, 0), 2)
    b2 = grid_ball(s, (6, 0), 2)
    domain = frozenset({(0, 0), (1, 0), (6, 0), (7, 0)})
    cover = Covering((b1, b2), domain, 1)
    f = DistanceToPoint(s.cell_center((0, 0)))
    profile = slice_profile(s, domain, f, cover)
    r, cost = best_slice(profile, 2)
    # the two interval clusters are far apart; the best level sits in the gap
    assert cost == 0


def test_best_slice_mean_value_property():
    for seed in range(12):
        s = random_blob(seed + 200, 2, 8, 5)
        cover = _cover_of(s, 2)
        f = DistanceToPoint(s.cell_center(s.sorted_cells()[0]))
        profile = slice_profile(s, s.cells, f, cover)
        r1, r2 = profile.range
        if not r2 > r1:
            continue
        integral = coarea_integral(profile, 2)
        _, cost = best_slice(profile, 2)
        assert cost <= integral / (r2 - r1)


def test_slice_cost_dominates_independent_content():
    for seed in range(8):
        s = random_blob(seed + 300, 2, 9, 5)
        cover = exact_content(s, None, 2).witness
        f = DistanceToPoint(s.cell_center(s.sorted_cells()[0]))
        profile = slice_profile(s, s.cells, f, cover)
        r, cost = best_slice(profile, 2)
        cells = profile.level_set(r)
        if not cells:
            assert cost == 0
            continue
        from hcfill.space import FixedFamily

        independent = exact_content(s, cells, 1, FixedFamily(cover.balls)).value
        assert float(independent) <= float(cost) + 1e-12


# `best_slice` as it stood before the sweep, kept verbatim as an oracle: it
# sums every ball's weight afresh at every candidate level.

def _oracle_best_slice(profile: SliceProfile, m):
    r1, r2 = profile.range
    if not r2 > r1:
        raise InputError("degenerate slice range")
    points = {as_fraction(r1), as_fraction(r2)}
    for interval in profile.intervals:
        if interval is None:
            continue
        for v in interval:
            v = as_fraction(v)
            if r1 <= v <= r2:
                points.add(v)
    sorted_pts = sorted(points)
    candidates = list(sorted_pts)
    for a, b in zip(sorted_pts, sorted_pts[1:]):
        candidates.append((a + b) / 2)
    candidates.sort()

    exponent = as_fraction(m) - 1
    weights = [
        None if interval is None else as_fraction(power(ball.radius, exponent))
        for ball, interval in zip(profile.cover.balls, profile.intervals)
    ]
    best_r = None
    best_cost = None
    for r in candidates:
        cost = Fraction(0)
        for weight, interval in zip(weights, profile.intervals):
            if interval is not None and interval[0] <= r <= interval[1]:
                cost += weight
        if best_cost is None or cost < best_cost or (cost == best_cost and r < best_r):
            best_r, best_cost = r, cost
    return best_r, best_cost


def _profile(spans, rng):
    """A profile over balls of the given radii and value intervals (None for
    a ball that covers nothing) on the range rng."""
    balls = tuple(Ball((Fraction(i), Fraction(0)), r) for i, (r, _) in enumerate(spans))
    cover = Covering(balls, frozenset(), 2)
    return SliceProfile(DistanceToPoint((Fraction(0), Fraction(0))), cover,
                        tuple(iv for _, iv in spans), rng, {})


# Levels on a quarter grid, so that endpoints often meet each other and r1
# or r2; a few radii, so that many levels cost the same.
_LEVEL = st.integers(0, 14).map(lambda k: Fraction(k, 4))
_INTERVAL = st.one_of(
    st.none(), st.tuples(_LEVEL, _LEVEL).map(lambda ab: tuple(sorted(ab))))
_SPAN = st.tuples(st.sampled_from((Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))),
                  _INTERVAL)


@st.composite
def _profiles(draw):
    r1, r2 = sorted(draw(st.lists(_LEVEL, min_size=2, max_size=2, unique=True)))
    spans = draw(st.lists(_SPAN, max_size=8))
    if spans and draw(st.booleans()):
        # chain the intervals end to start, so that neighbours touch
        at = r1
        chained = []
        for radius, _ in spans:
            step = draw(st.integers(0, 3))
            chained.append((radius, (at, at + Fraction(step, 4))))
            at += Fraction(step, 4)
        spans = chained
    return _profile(spans, (r1, r2))


@settings(max_examples=300, deadline=None)
@given(profile=_profiles(), m=st.sampled_from((2, Fraction(3, 2), 3)))
@example(profile=_profile([], (Fraction(0), Fraction(1))), m=2)
@example(  # two equal minima: the smaller level wins
    profile=_profile([(Fraction(1, 4), (Fraction(0), Fraction(1, 2))),
                      (Fraction(1, 4), (Fraction(1, 2), Fraction(1)))],
                     (Fraction(0), Fraction(1))),
    m=2,
)
def test_best_slice_matches_the_double_loop(profile, m):
    got = best_slice(profile, m)
    want = _oracle_best_slice(profile, m)
    assert got == want
    assert all(type(a) is type(b) for a, b in zip(got, want))


# The integer core on integer levels k, handed over as 2k so that every
# midpoint is an integer, and on the oracle's own weights over their common
# denominator.  Levels run past the range on both sides, intervals may touch
# end to start, and few radii make many levels cost the same.
_KEY = st.integers(-3, 12)
_SWEEP_RADII = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))


@st.composite
def _sweeps(draw):
    r1, r2 = sorted(draw(st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True)))
    radii = draw(st.lists(st.sampled_from(_SWEEP_RADII), max_size=8))
    if draw(st.booleans()):
        ends = [tuple(sorted(draw(st.tuples(_KEY, _KEY)))) for _ in radii]
    else:
        at = draw(_KEY)
        ends = []
        for _ in radii:
            step = draw(st.integers(0, 3))
            ends.append((at, at + step))
            at += step
    return r1, r2, list(zip(radii, ends))


def _sweep_profile(r1, r2, spans):
    return _profile([(r, (Fraction(a), Fraction(b))) for r, (a, b) in spans],
                    (Fraction(r1), Fraction(r2)))


@settings(max_examples=300, deadline=None)
@given(sweep=_sweeps(), m=st.sampled_from((2, Fraction(3, 2), 3)))
@example(sweep=(0, 4, []), m=2)
@example(  # two equal minima: the smaller level wins
    sweep=(0, 4, [(Fraction(1, 4), (0, 2)), (Fraction(1, 4), (2, 4))]), m=2)
@example(  # intervals wholly below and above the range
    sweep=(2, 5, [(Fraction(1, 8), (-3, 1)), (Fraction(3, 8), (6, 9))]), m=Fraction(3, 2))
def test_slice_sweep_matches_the_double_loop(sweep, m):
    r1, r2, spans = sweep
    weights = [as_fraction(power(r, as_fraction(m) - 1)) for r, _ in spans]
    wden = common_den(weights)
    got = slice_sweep(2 * r1, 2 * r2, [
        (2 * a, 2 * b, w) for (_, (a, b)), w in zip(spans, numerators(weights, wden))])
    assert all(type(x) is int for x in got)
    want = _oracle_best_slice(_sweep_profile(r1, r2, spans), m)
    assert (Fraction(got[0], 2), Fraction(got[1], wden)) == want


@pytest.mark.parametrize("spans, rng", [
    ([], (Fraction(0), Fraction(1))),
    ([(Fraction(1, 4), None)] * 3, (Fraction(3, 8), Fraction(9, 16))),
    ([], (1, 2)),
    ([(Fraction(1, 8), None)], (0.25, 0.75)),
])
def test_best_slice_without_intervals_takes_the_range_start(spans, rng):
    """No ball meets the domain (an empty annulus): every level costs 0, so
    the smallest, r1, is the slice."""
    profile = _profile(spans, rng)
    got = best_slice(profile, 2)
    assert got == _oracle_best_slice(profile, 2) == (as_fraction(rng[0]), 0)
    assert [type(x) for x in got] == [Fraction, Fraction]


def test_uniform_intervals_sum_everything():
    s = make_cube(2, 2, Fraction(1, 2))
    full = grid_ball(s, (0, 0), 2)
    cover = Covering((full, full), frozenset(s.cells), 1)
    values = {c: Fraction(1, 2) for c in s.cells}
    profile = slice_profile(
        s, s.cells, ExplicitValues(values, Fraction(1)), cover,
        rng=(Fraction(0), Fraction(1)),
    )
    r, cost = best_slice(profile, 2)
    assert r == Fraction(1, 2) or cost == 0


def test_declared_lipschitz_validated():
    s = make_line(3, Fraction(1, 4))
    values = {(0, 0): Fraction(0), (1, 0): Fraction(5), (2, 0): Fraction(0)}
    cover = _cover_of(s)
    with pytest.raises(InputError):
        slice_profile(s, s.cells, ExplicitValues(values, Fraction(1)), cover)


def test_degenerate_range_rejected():
    s = make_cube(2, 2, Fraction(1, 2))
    cover = _cover_of(s)
    values = {c: Fraction(1) for c in s.cells}
    profile = slice_profile(s, s.cells, ExplicitValues(values, Fraction(1)), cover,
                            rng=(Fraction(1), Fraction(1)))
    with pytest.raises(InputError):
        best_slice(profile, 2)


def test_empty_domain_needs_a_range_and_empty_set_is_refused():
    """An empty domain has no value range to take, and the distance to an
    empty set is undefined: both are input errors, not bare `min` errors.
    Given a range, the empty domain's profile meets no ball."""
    s = make_line(3, Fraction(1, 4))
    cover = _cover_of(s)
    with pytest.raises(InputError, match="empty domain"):
        slice_profile(s, frozenset(), DistanceToPoint((Fraction(0), Fraction(0))), cover)
    profile = slice_profile(s, frozenset(), DistanceToPoint((Fraction(0), Fraction(0))), cover,
                            rng=(Fraction(0), Fraction(1)))
    assert set(profile.intervals) == {None} and profile.range == (Fraction(0), Fraction(1))
    with pytest.raises(InputError, match="empty set"):
        DistanceToSet(frozenset())


def test_function_undefined_raises():
    s = make_line(3, Fraction(1, 4))
    cover = _cover_of(s)
    with pytest.raises(InputError):
        slice_profile(s, s.cells, ExplicitValues({(0, 0): Fraction(0)}, Fraction(1)), cover)
