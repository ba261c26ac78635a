import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfill.cone import cone_coverage_check, cone_covering
from hcfill.decomposition import decompose, improvement_step
from hcfill.errors import InputError, VerificationError
from hcfill.exact import TOL, power
from hcfill.shapes import make_line, make_ring
from hcfill.space import Ball, Covering, ElementBits, VoxelSpace, linf


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
    assert cone_coverage_check(cert, cover) == {"inputs": 1, "uncovered": []}


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
    for _ in range(15):
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
        assert cone_coverage_check(cert, cover)["uncovered"] == []


def test_rejects_ball_outside_ambient():
    cover = Covering((Ball((Fraction(2), Fraction(0)), Fraction(1)),),
                     frozenset(), 1)
    with pytest.raises(InputError):
        cone_covering(cover, (0, 0), 1, 2)


@pytest.mark.parametrize("apex, R, m", [
    ((0, 0), 1, "2"),
    ((0, 0), 1, True),
    ((0, 0), 1, Fraction(1, 2)),
    ((0, 0), 1, math.inf),
    ((0, 0), 1, math.nan),
    ((0, 0), math.inf, 2),
    ((0, 0), math.nan, 2),
    ((0, math.inf), 1, 2),
    ((math.nan, 0), 1, 2),
])
def test_cone_covering_refuses_a_non_finite_or_small_m_r_or_apex(apex, R, m):
    """m = "2" and m = True were accepted, and an infinite or NaN m, R or
    apex coordinate raised OverflowError or ValueError."""
    cover = Covering((Ball((Fraction(1, 2), Fraction(0)), Fraction(1, 4)),), frozenset(), 1)
    with pytest.raises(InputError):
        cone_covering(cover, apex, R, m)


def test_rejects_zero_radius():
    cover = Covering((Ball((Fraction(0), Fraction(0)), Fraction(0)),),
                     frozenset(), 1)
    with pytest.raises(InputError):
        cone_covering(cover, (0, 0), 1, 2)


def _blend_image(space, target_cells, apex, r):
    """The cells that hold the images of the cell centres under the blend
    map x -> phi x + (1 - phi) apex, phi = max(0, 1 - d(x, target) / r)."""
    target = [space.cell_center(c) for c in target_cells]
    cells = set()
    for cell in space.cells:
        x = space.cell_center(cell)
        phi = max(Fraction(0), 1 - min(linf(x, t) for t in target) / r)
        image = (phi * a + (1 - phi) * b for a, b in zip(x, apex))
        cells.add(tuple(math.floor(c / space.delta) for c in image))
    return VoxelSpace(space.n, space.delta, frozenset(cells))


def test_image_inside_certificate_balls():
    s = make_line(6, Fraction(1, 4))
    target = [(0, 0), (1, 0)]
    apex = s.cell_center((0, 0))
    r = Fraction(1, 2)
    image = _blend_image(s, target, apex, r)
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
    monkeypatch.setattr(cone, "_progression_cost", lambda *args: cert.bound + 1)
    with pytest.raises(VerificationError, match="exceeded its certified bound"):
        cone_covering(cover, apex, 1, 2, "improved")


def _sampled_misses(cert, input_cover, samples, seed):
    """Independent oracle for `cone_coverage_check`: draw points x in the
    input balls and blend parameters t in [0, 1], and count the points
    t*x + (1-t)*apex that lie in no output ball (in floats, with slack TOL).
    The ball on x's own segment at t is tried first, then every ball."""
    inputs = input_cover.balls
    if not inputs:
        return 0
    rng = random.Random(seed)
    apex = tuple(float(x) for x in cert.apex)
    index = {prov: k for k, prov in enumerate(cert.provenance)}
    out = [(tuple(float(x) for x in b.center), float(b.radius)) for b in cert.balls]

    def holds(k, z):
        center, radius = out[k]
        return max(abs(a - b) for a, b in zip(z, center)) <= radius + TOL

    misses = 0
    for s in range(samples):
        i = s % len(inputs)
        q = tuple(float(x) for x in inputs[i].center)
        r = float(inputs[i].radius)
        x = tuple(qc + r * (2 * rng.random() - 1) for qc in q)
        t = rng.random()
        z = tuple(t * xc + (1 - t) * ac for xc, ac in zip(x, apex))
        d = max(abs(a - b) for a, b in zip(q, apex))
        j = round((1 - t) * d * float(cert.m) / r)
        near = [index[i, g] for g in (j, j - 1, j + 1) if (i, g) in index]
        if not any(holds(k, z) for k in near) and \
                not any(holds(k, z) for k in range(len(out))):
            misses += 1
    return misses


def _edited(cert, keep, shrink=None):
    """`cert` restricted to the output balls at the indices in `keep`, with
    the radius of ball `shrink` (if given) scaled by 1/2."""
    balls = [Ball(b.center, b.radius / 2) if k == shrink else b
             for k, b in enumerate(cert.balls)]
    return SimpleNamespace(apex=cert.apex, m=cert.m,
                           balls=tuple(balls[k] for k in keep),
                           provenance=tuple(cert.provenance[k] for k in keep))


@st.composite
def _coverage_cases(draw):
    cover, apex, R, m, variant = draw(_cones())
    cert = cone_covering(cover, apex, R, m, variant)
    count = len(cert.balls)
    edit = draw(st.sampled_from(("none", "drop", "shrink"))) if count else "none"
    k = draw(st.integers(0, count - 1)) if count else None
    keep = [j for j in range(count) if not (edit == "drop" and j == k)]
    return cover, _edited(cert, keep, k if edit == "shrink" else None), edit != "none"


@settings(max_examples=150, deadline=None)
@given(_coverage_cases())
def test_exact_coverage_agrees_with_the_sampler(case):
    cover, cert, edited = case
    verdict = cone_coverage_check(cert, cover)
    assert verdict["inputs"] == len(cover.balls)
    # every section of an unedited certificate lies in a single ball
    assert edited or verdict["uncovered"] == []
    if not verdict["uncovered"]:
        assert _sampled_misses(cert, cover, 300, seed=0) == 0
    for gap in verdict["uncovered"]:
        assert 0 <= gap["from"] < gap["to"] <= 1
        i, s = gap["input"], (gap["from"] + gap["to"]) / 2
        src = cover.balls[i]
        section = tuple(a + s * (q - a) for a, q in zip(cert.apex, src.center))
        for ball, (owner, _) in zip(cert.balls, cert.provenance):
            if owner == i:
                assert linf(section, ball.center) + s * src.radius > ball.radius


def _pinned_cover():
    # input B((1, 0), 1/8), apex 0, R = 9/8, m = 2: 16 output balls
    return Covering((Ball((Fraction(1), Fraction(0)), Fraction(1, 8)),), frozenset(), 1)


def test_improved_cone_without_its_last_ball_misses_the_apex_end():
    cover = _pinned_cover()
    cert = cone_covering(cover, (0, 0), Fraction(9, 8), 2, "improved")
    assert len(cert.balls) == 16
    assert cone_coverage_check(cert, cover)["uncovered"] == []
    cut = _edited(cert, range(15))
    assert cone_coverage_check(cut, cover)["uncovered"] == [
        {"input": 0, "from": 0, "to": Fraction(5, 112)}]
    assert _sampled_misses(cut, cover, 10_000, seed=0) == 402


def test_sections_held_only_by_two_balls_together_are_reported():
    # without balls 6-8, balls 5 and 9 still cover s in (5/9, 4/7), but only
    # together: the exact test is sufficient, not necessary
    cover = _pinned_cover()
    cert = cone_covering(cover, (0, 0), Fraction(9, 8), 2, "standard")
    assert len(cert.balls) == 16
    cut = _edited(cert, [k for k in range(16) if k not in (6, 7, 8)])
    assert cone_coverage_check(cut, cover)["uncovered"] == [
        {"input": 0, "from": Fraction(5, 9), "to": Fraction(4, 7)}]
    assert _sampled_misses(cut, cover, 10_000, seed=0) == 0


@pytest.mark.parametrize("variant", ["standard", "improved"])
def test_cone_covering_builds_balls_only_when_read(monkeypatch, variant):
    """Neither `cone_covering` nor reading its cost, bound, per-input counts
    and provenance builds a `Ball`; the report builds one per output ball,
    and a second read builds none."""
    cover = Covering((Ball((Fraction(1), Fraction(0)), Fraction(1, 8)),
                      Ball((0.25, -0.5), Fraction(1, 4)),
                      Ball((Fraction(0), Fraction(0)), Fraction(1, 3))), frozenset(), 1)
    built = []
    real = Ball.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    cert = cone_covering(cover, (0, 0), Fraction(9, 8), 2, variant)
    assert cert.cost <= cert.bound
    assert len(cert.provenance) == sum(cert.per_input_counts) > len(cover.balls)
    assert built == []
    report = cert.to_dict()
    assert len(built) == len(report["balls"]) == sum(cert.per_input_counts)
    assert cert.balls is cert.balls
    assert len(built) == sum(cert.per_input_counts)


def test_decompose_builds_no_ball_and_a_step_only_its_cone_inputs(monkeypatch):
    """`decompose` works on its Q's half-cell keys: neither it nor its report
    builds a `Ball` or asks `ElementBits.ball` for a mask.  An improvement
    step reads its 60 cone inputs' keys straight into the cone's integer
    frame, so it builds no `Ball` either, and no mask."""
    built, masks = [], []
    real_init, real_mask = Ball.__post_init__, ElementBits.ball

    def counting(self):
        built.append(self)
        real_init(self)

    def counting_mask(bits, ball):
        masks.append(ball)
        return real_mask(bits, ball)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    monkeypatch.setattr(ElementBits, "ball", counting_mask)
    s = make_ring(16)
    d = decompose(s, None, 2)
    assert len(d.to_dict()["q_balls"]) == 60
    assert built == [] and masks == []
    step = improvement_step(s, None, 2)
    inputs = sum(len(cert.per_input_counts) for cert in step.cone_certificates)
    assert inputs == 60
    assert built == [] and masks == []
