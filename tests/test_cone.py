import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfill.cone import blend_point, cone_coverage_check, cone_covering, cone_map_image
from hcfill.errors import InputError, VerificationError
from hcfill.exact import power
from hcfill.shapes import make_cube, make_line
from hcfill.space import Ball, Covering, linf


def test_half_radius_example():
    # one input ball of radius 1/2 inside the unit ball: at most 4 output
    # balls of radius 3/4, certified against 2 * (3/2)^2 * 1 * (1/2)
    cover = Covering(
        (Ball((Fraction(1, 4), Fraction(0)), Fraction(1, 2)),), frozenset([(0, 0)]), 1
    )
    cert = cone_covering(cover, (0, 0), 1, 2, "standard")
    assert cert.per_input_counts[0] <= 4
    assert all(b.radius == Fraction(3, 4) for b in cert.balls)
    assert cert.bound == 2 * Fraction(3, 2) ** 2 * 1 * Fraction(1, 2)
    assert cert.cost <= cert.bound
    assert cone_coverage_check(cert, cover, 2000, seed=1)["misses"] == 0


def test_single_ball_filling_ambient():
    cover = Covering((Ball((Fraction(0), Fraction(0)), Fraction(1)),),
                     frozenset([(0, 0)]), 1)
    cert = cone_covering(cover, (0, 0), 1, 2, "standard")
    assert len(cert.balls) <= 2  # apex coincides with the center
    assert cert.cost <= 2 * Fraction(3, 2) ** 2


def test_improved_cheaper_than_standard():
    rng = random.Random(7)
    for _ in range(30):
        balls = []
        for _ in range(rng.randrange(1, 4)):
            r = Fraction(rng.randrange(2, 10), 40)
            d = Fraction(rng.randrange(0, 20), 40)
            balls.append(Ball((d, Fraction(0)), r))
        R = max(linf(b.center, (0, 0)) + b.radius for b in balls) + Fraction(1, 40)
        cover = Covering(tuple(balls), frozenset([(0, 0)]), 1)
        std = cone_covering(cover, (0, 0), R, 2, "standard")
        imp = cone_covering(cover, (0, 0), R, 2, "improved")
        assert imp.cost <= std.cost
        assert imp.bound == 2 * Fraction(3, 2) ** 2 * R * std.input_cost
        assert imp.cost <= imp.bound


def test_random_inputs_certified_and_covering():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.choice((2, 3))
        balls = []
        for _ in range(rng.randrange(1, 4)):
            r = Fraction(rng.randrange(1, 8), 32)
            center = tuple(Fraction(rng.randrange(-10, 10), 32) for _ in range(n))
            balls.append(Ball(center, r))
        apex = tuple(Fraction(0) for _ in range(n))
        R = max(linf(b.center, apex) + b.radius for b in balls)
        cover = Covering(tuple(balls), frozenset(), 1)
        m = rng.choice((2, Fraction(5, 2), 3))
        variant = rng.choice(("standard", "improved"))
        cert = cone_covering(cover, apex, R, m, variant)
        assert float(cert.cost) <= float(cert.bound) + 1e-9
        report = cone_coverage_check(cert, cover, 800, seed=trial)
        assert report["misses"] == 0


def test_rejects_ball_outside_ambient():
    cover = Covering((Ball((Fraction(2), Fraction(0)), Fraction(1)),),
                     frozenset(), 1)
    with pytest.raises(InputError):
        cone_covering(cover, (0, 0), 1, 2)


def test_rejects_zero_radius():
    cover = Covering((Ball((Fraction(0), Fraction(0)), Fraction(0)),),
                     frozenset(), 1)
    with pytest.raises(InputError):
        cone_covering(cover, (0, 0), 1, 2)


def test_blend_map_fixed_points_and_apex():
    # phi(0) = 1: points of the target stay; distance >= r collapses to apex
    x = (Fraction(1, 2), Fraction(1, 2))
    apex = (Fraction(0), Fraction(0))
    assert blend_point(x, apex, 0, Fraction(1, 4)) == x
    assert blend_point(x, apex, Fraction(1, 2), Fraction(1, 4)) == apex
    mid = blend_point(x, apex, Fraction(1, 8), Fraction(1, 4))
    assert mid == (Fraction(1, 4), Fraction(1, 4))  # phi = 1/2 blend


def test_cone_map_image_collapses_far_cells():
    s = make_line(8, Fraction(1, 4))
    target = [(0, 0)]
    image = cone_map_image(s, target, s.cell_center((0, 0)), Fraction(1, 2))
    # cells at distance >= 1/2 from the target all land on the target cell
    assert (0, 0) in image.cells
    assert len(image.cells) < len(s.cells)
    far_total = sum(
        1 for c in s.cells if float(linf(s.cell_center(c), s.cell_center((0, 0)))) >= 0.5
    )
    assert far_total > 0


def test_cone_map_identity_on_target():
    s = make_cube(2, 3, Fraction(1, 4))
    image = cone_map_image(s, list(s.cells), s.cell_center((1, 1)), Fraction(1, 4))
    assert image.cells == s.cells  # every cell is its own target: phi = 1


def test_image_inside_certificate_balls():
    s = make_line(6, Fraction(1, 4))
    target = [(0, 0), (1, 0)]
    apex = s.cell_center((0, 0))
    r = Fraction(1, 2)
    image = cone_map_image(s, target, apex, r)
    grown = [(0, 0), (1, 0), (2, 0)]  # cells within r of the target
    cover_balls = tuple(Ball(s.cell_center(c), s.delta) for c in grown)
    cover = Covering(cover_balls, frozenset(grown), 1)
    R = max(linf(b.center, apex) + b.radius for b in cover_balls)
    cert = cone_covering(cover, apex, R, 2, "standard")
    from hcfill.space import ball_members

    covered = set()
    for b in cert.balls:
        covered |= ball_members(b, image)
    assert covered == image.cells


def test_output_centers_on_segments():
    cover = Covering(
        (Ball((Fraction(1, 2), Fraction(1, 4)), Fraction(1, 8)),), frozenset(), 1
    )
    apex = (Fraction(0), Fraction(0))
    cert = cone_covering(cover, apex, 1, 3, "standard")
    q = cover.balls[0].center
    for ball in cert.balls:
        # center = q + t*(apex - q) with one consistent t in [0, 1]
        ts = set()
        for c, qc, ac in zip(ball.center, q, apex):
            if ac != qc:
                ts.add(Fraction(c - qc, ac - qc))
            else:
                assert c == qc
        assert len(ts) == 1
        t = ts.pop()
        assert 0 <= t <= 1


_M_VALUES = (1, Fraction(3, 2), 2, Fraction(5, 2), 3)


@st.composite
def _cones(draw):
    n = draw(st.integers(1, 3))
    coord = st.fractions(-2, 2, max_denominator=48)
    apex = tuple(draw(coord) for _ in range(n))
    balls = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.fractions(Fraction(1, 16), 1, max_denominator=48).filter(lambda x: x > 0))
        center = apex if draw(st.booleans()) else tuple(draw(coord) for _ in range(n))
        balls.append(Ball(center, r))
    slack = draw(st.fractions(0, 1, max_denominator=7))
    R = max((linf(b.center, apex) + b.radius for b in balls), default=Fraction(1)) + slack
    m = draw(st.sampled_from(_M_VALUES))
    variant = draw(st.sampled_from(("standard", "improved")))
    return Covering(tuple(balls), frozenset(), 1), apex, R, m, variant


@settings(max_examples=150, deadline=None)
@given(_cones())
def test_cost_from_radius_progression_equals_ball_sum(case):
    cover, apex, R, m, variant = case
    cert = cone_covering(cover, apex, R, m, variant)
    assert len(cert.balls) == sum(cert.per_input_counts)
    assert len(cert.provenance) == len(cert.balls)
    ball_sum = sum(power(b.radius, m) for b in cert.balls)
    assert type(cert.cost) is type(ball_sum)
    assert cert.cost == ball_sum
    assert repr(cert.cost) == repr(ball_sum)


def test_checks_run_before_any_ball_is_built(monkeypatch):
    import hcfill.cone as cone

    def no_balls(*args):
        raise AssertionError("a cone ball was built")

    monkeypatch.setattr(cone, "Ball", no_balls)
    q = (Fraction(1, 2), Fraction(1, 3))
    cover = Covering((Ball(q, Fraction(1, 8)),), frozenset(), 1)
    apex = (Fraction(0), Fraction(0))
    cert = cone_covering(cover, apex, 1, 2, "improved")  # no ball built yet
    assert cert.cost <= cert.bound
    with pytest.raises(AssertionError, match="cone ball was built"):
        cert.balls
    # an input outside the ambient ball, then a cost over the bound
    with pytest.raises(InputError):
        cone_covering(cover, apex, Fraction(1, 2), 2, "improved")
    monkeypatch.setattr(cone, "_progression_cost", lambda runs, mf: cert.bound + 1)
    with pytest.raises(VerificationError, match="exceeded its certified bound"):
        cone_covering(cover, apex, 1, 2, "improved")
