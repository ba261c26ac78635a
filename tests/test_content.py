import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from hcfill.content import (
    exact_content,
    generate_candidates,
    greedy_content,
    volume_lower_bound,
)
from hcfill.errors import InputError, UncoverableError, VerificationError
from hcfill.exact import fmt_scalar
from hcfill.shapes import (
    make_box,
    make_cube,
    make_dumbbell,
    make_strip_with_bulbs,
    random_blob,
    random_subset,
    scale_replicate,
)
from hcfill.space import (
    AllGridBalls,
    Ball,
    CentersIn,
    FixedFamily,
    NetSpace,
    RadiusCapped,
    VoxelSpace,
    grid_ball,
    intersect_families,
)


def brute_force_optimum(space, target, m, family=AllGridBalls()):
    """Independent oracle: exhaustive DFS over the candidate set with only
    incumbent pruning."""
    rows, index, _ = generate_candidates(space, frozenset(target), m, family)
    full = (1 << len(index)) - 1
    best = [None]

    def rec(covered, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if covered == full:
            best[0] = cost
            return
        low = (full ^ covered) & -(full ^ covered)
        e = low.bit_length() - 1
        for ball_cost, _, mask in rows:
            if mask >> e & 1:
                rec(covered | mask, cost + ball_cost)

    rec(0, Fraction(0) if not isinstance(rows[0][0], float) else 0.0)
    return best[0]


def test_unit_square_contents():
    s = make_cube(2, 4, Fraction(1, 4))
    assert exact_content(s, None, 1).value == Fraction(1, 2)
    assert exact_content(s, None, 2).value == Fraction(1, 4)


def test_single_cell_any_m():
    s = make_cube(2, 1, Fraction(1, 8))
    for m in (1, 2, 3):
        assert exact_content(s, None, m).value == Fraction(1, 16) ** m
    res = exact_content(s, None, Fraction(5, 2))
    assert res.value == pytest.approx(float(Fraction(1, 16)) ** 2.5)
    assert not res.exact_arithmetic


def test_rectangle_value_pinned_by_brute_force():
    s = make_box(2, (8, 4), Fraction(1, 4))
    res = exact_content(s, None, 1)
    assert res.optimal
    assert res.value == brute_force_optimum(s, s.cells, 1)
    assert res.value == Fraction(1)  # frozen from the exhaustive search
    assert Fraction(1, 2) <= res.value <= Fraction(1)


def test_solver_matches_oracle_on_random_blobs(small_blobs):
    for s in small_blobs[:8]:
        res = exact_content(s, None, 1)
        assert res.optimal
        assert res.value == brute_force_optimum(s, s.cells, 1)


def test_greedy_upper_bounds_exact(small_blobs):
    for s in small_blobs[:6]:
        g = greedy_content(s, None, 1)
        e = exact_content(s, None, 1)
        assert g.value_upper >= e.value
        assert not g.optimal


def test_witness_is_verified_cover():
    s = random_blob(5, 2, 10, 5)
    res = exact_content(s, None, 1)
    res.witness.validate(s)
    assert res.witness.cost == res.value_upper


def test_volume_lower_bound_values():
    for n in (2, 3):
        s = make_cube(n, 8, Fraction(1, 8))
        for m in range(1, n + 1):
            assert volume_lower_bound(s, None, m) == Fraction(1, 2**m)
    half = make_box(2, (8, 4), Fraction(1, 8))  # half of the unit square
    assert volume_lower_bound(half, None, 1) == pytest.approx(0.5**0.5 / 2)
    # above the dimension: cells * (delta/2)^m, the optimum of unit balls
    two = VoxelSpace(1, Fraction(1), frozenset({(0,), (1,)}))
    assert volume_lower_bound(two, None, 2) == Fraction(1, 2) == exact_content(two, None, 2).value
    square = make_cube(2, 4, 1)
    assert volume_lower_bound(square, None, 3) == 2 == exact_content(square, None, 3).value


def test_lower_certificate_is_dual_feasible():
    s = random_blob(3, 2, 8, 4)
    res = exact_content(s, None, 1)
    rows, index, _ = generate_candidates(s, frozenset(s.cells), 1, AllGridBalls())
    duals = [Fraction(d) for d in res.certificate["duals"]]
    assert sum(duals) <= res.value
    for cost, _, mask in rows:
        total = sum(duals[i] for i in range(len(index)) if mask >> i & 1)
        assert total <= cost


def test_bracket_soundness_small_instances(small_blobs):
    # exhaustive optimum over <= 12 candidates must sit inside every bracket
    for s in small_blobs[:5]:
        target = random_subset(s, seed=hash(s.cells) % 997, keep=0.6)
        rows, index, _ = generate_candidates(s, target, 1, AllGridBalls())
        if len(rows) > 12:
            continue
        full = (1 << len(index)) - 1
        best = None
        for picks in itertools.chain.from_iterable(
            itertools.combinations(range(len(rows)), k)
            for k in range(1, len(rows) + 1)
        ):
            mask = 0
            cost = Fraction(0)
            for i in picks:
                mask |= rows[i][2]
                cost += rows[i][0]
            if mask == full and (best is None or cost < best):
                best = cost
        res = exact_content(s, target, 1)
        assert res.value_lower <= best <= res.value_upper


def _self_similar(base, digits, levels):
    """The level-`levels` cells of the self-similar set with base-`base`
    digits from `digits` on the unit square: a cell's coordinates are
    sum d_j * base^j over one digit d_j per level."""
    cells = frozenset(
        tuple(sum(d[i] * base ** j for j, d in enumerate(ds)) for i in range(2))
        for ds in itertools.product(digits, repeat=levels))
    return VoxelSpace(2, Fraction(1, base ** levels), cells)


@pytest.mark.parametrize("base, digits, levels", [
    (4, ((0, 0), (0, 3), (3, 0), (3, 3)), 4),  # four corners, 256 cells
    (3, ((0, 0), (2, 0), (1, 2)), 5),  # three maps, 243 cells
])
def test_sparse_self_similar_sets_close_at_the_root(base, digits, levels):
    """Sparse cell sets spread over their whole square, where most blocks
    hold at most their dominance limit: the one ball round the square, of
    radius 1/2, is the m = 1 optimum, and the root's bracket closes."""
    space = _self_similar(base, digits, levels)
    assert len(space.cells) == len(digits) ** levels
    res = exact_content(space, None, 1, node_budget=1)
    assert (res.value_lower, res.value_upper) == (Fraction(1, 2), Fraction(1, 2))
    assert res.optimal and res.certificate["nodes"] == 1


def test_budget_exhaustion_returns_bracket():
    from hcfill.shapes import make_l_hexomino

    s = make_l_hexomino()
    optimum = exact_content(s, None, 1).value  # needs real branching
    res = exact_content(s, None, 1, node_budget=2)
    assert not res.optimal
    assert res.value_lower <= optimum <= res.value_upper
    assert res.certificate["kind"] == "bracket"


@pytest.mark.parametrize("budget", [None, -5, 2.5, 0, True])
def test_exact_content_refuses_a_bad_node_budget(budget):
    with pytest.raises(InputError, match="node_budget"):
        exact_content(make_cube(1, 2), None, 1, node_budget=budget)


@pytest.mark.parametrize("solver", [exact_content, greedy_content, volume_lower_bound])
@pytest.mark.parametrize("m", [-1, Fraction(-1, 2), -0.5, True, False, "2", None,
                               float("nan"), float("inf"), float("-inf")])
def test_content_refuses_an_exponent_that_is_not_a_finite_m_at_least_0(solver, m):
    """At m < 0 a larger ball can cost less, so the grid's size cut-off
    would certify a false optimum: on the 2x2 square, 8 where one ball of
    radius 1 costs 1.  `volume_lower_bound` gave 4.0 at m = -1 on the 4x4
    square, a "lower bound" on a content the solvers refuse to define, and
    raised ValueError at NaN."""
    with pytest.raises(InputError, match="finite m >= 0"):
        solver(make_cube(2, 2), None, m)


@pytest.mark.parametrize("m", [0, Fraction(0), 0.0])
def test_content_at_m_0_counts_balls(m):
    res = exact_content(make_cube(2, 2), None, m)
    assert res.optimal and res.value == 1 and len(res.witness.balls) == 1


def test_subadditivity_and_monotonicity(small_blobs):
    rng = random.Random(0)
    for s in small_blobs[:8]:
        cells = s.sorted_cells()
        cut = rng.randrange(1, len(cells))
        a, b = frozenset(cells[:cut]), frozenset(cells[cut:])
        va = exact_content(s, a, 1).value
        vb = exact_content(s, b, 1).value
        vu = exact_content(s, a | b, 1).value
        assert vu <= va + vb
        assert va <= vu or a == frozenset(cells)  # monotone in the target
        sub = random_subset(s, seed=cut, keep=0.5)
        assert exact_content(s, sub, 1).value <= exact_content(s, None, 1).value


def test_rescaling_with_rescaled_family():
    for lam in (2, 3):
        s = random_blob(9, 2, 6, 4)
        scaled = scale_replicate(s, lam)
        base = exact_content(s, None, 2).value
        scaled_value = exact_content(scaled, None, 2, AllGridBalls(stride=lam)).value
        assert scaled_value == lam**2 * base
        # the unconstrained family can only do better
        assert exact_content(scaled, None, 2).value <= scaled_value


def test_dimension_comparison(small_blobs):
    # HC_k^(1/k) >= HC_m^(1/m) for m > k, cross-powered to stay rational
    for s in small_blobs[:8]:
        v1 = exact_content(s, None, 1).value
        v2 = exact_content(s, None, 2).value
        assert v1**2 >= v2


def test_family_restriction_monotonicity():
    s = random_blob(2, 2, 8, 4)
    base = exact_content(s, None, 1)
    q = base.witness.balls
    tilde = exact_content(s, None, 1, FixedFamily(q)).value
    centers = CentersIn(tuple(b.center for b in q))
    via_centers = exact_content(s, None, 1, centers).value
    assert tilde >= via_centers  # fixed radii are a subfamily of free radii
    capped = intersect_families(AllGridBalls(), RadiusCapped(Fraction(1, 8)))
    assert exact_content(s, None, 1, capped).value >= base.value


def test_fixed_family_uncoverable():
    s = make_cube(2, 3, Fraction(1, 4))
    lonely = FixedFamily((grid_ball(s, (0, 0), 1),))
    with pytest.raises(UncoverableError):
        exact_content(s, None, 1, lonely)


@pytest.mark.parametrize("solver", [exact_content, greedy_content])
@pytest.mark.parametrize("family, value", [
    (FixedFamily((Ball((Fraction(3, 2), Fraction(1, 2)), Fraction(3, 2)),)), Fraction(3, 2)),
    (CentersIn(((Fraction(3, 2), Fraction(1, 2)),)), Fraction(1)),
])
def test_fixed_and_centres_in_balls_cover_unoccupied_target_cells(solver, family, value):
    """Like grid balls, a family's voxel ball covers the target cells whose
    centres it holds, occupied or not: the target's cell (2, 0) is not
    occupied, and the witness validates."""
    space = VoxelSpace(2, 1, frozenset({(0, 0), (1, 0)}))
    target = {(0, 0), (1, 0), (2, 0)}
    res = solver(space, target, 1, family)
    assert res.value_upper == value
    res.witness.validate(space)
    assert exact_content(space, target, 1).value == Fraction(3, 2)


@pytest.mark.parametrize("solver", [exact_content, greedy_content])
def test_no_candidate_raises_uncoverable(solver):
    # no ball of the family meets the target, so there is nothing to price
    s = make_cube(2, 3, Fraction(1, 4))
    below_unit = intersect_families(AllGridBalls(), RadiusCapped(Fraction(1, 16)))
    far = FixedFamily((grid_ball(s, (10, 10), 1), grid_ball(s, (-5, 0), 2)))
    for family in (below_unit, far):
        assert generate_candidates(s, frozenset(s.cells), 1, family)[0] == []
        with pytest.raises(UncoverableError):
            solver(s, None, 1, family)


@pytest.mark.parametrize("solver", [exact_content, greedy_content])
@pytest.mark.parametrize("target, named", [({0, 5}, "[5]"), ({-1}, "[-1]"), ({0.5, 2}, "[0.5]")])
def test_net_target_naming_a_non_point_is_an_input_error(solver, target, named):
    """Not the family's failure to cover: the indices that name no point of
    the net are reported.  A voxel target may still hold unoccupied cells."""
    net = NetSpace("l2", ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(InputError, match="not points") as exc:
        solver(net, target, 1)
    assert not isinstance(exc.value, UncoverableError)
    assert str(exc.value).endswith(named)
    square = make_cube(2, 2)
    assert solver(square, {(0, 0), (5, 5)}, 1).witness.target == {(0, 0), (5, 5)}


def test_radius_cap_limits_candidates():
    s = make_cube(2, 4, Fraction(1, 4))
    capped = intersect_families(AllGridBalls(), RadiusCapped(Fraction(1, 8)))
    res = exact_content(s, None, 1, capped)
    assert all(b.radius <= Fraction(1, 8) for b in res.witness.balls)
    assert res.value == 16 * Fraction(1, 8)


def test_net_bracket():
    net = NetSpace("linf", ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), eps_net=0.25)
    res = exact_content(net, None, 1)
    assert not res.optimal
    assert res.value_lower <= res.value_upper
    assert res.value_upper > 0
    tight = NetSpace("linf", ((0.0, 0.0), (1.0, 0.0)), eps_net=0.0)
    res = exact_content(tight, None, 1)
    assert res.value_upper == pytest.approx(1.0)
    assert res.value_lower == pytest.approx(1.0)


def test_centers_in_rejects_empty():
    with pytest.raises(InputError):
        CentersIn(())


# Reports, pinned as the first 16 hex digits of the sha256 of their
# sorted-key JSON.  exact_content: voxel searches on Fraction costs that
# close, run out of budget or close at the root, float costs on a voxel set
# at m = 3/2 and on an l2 net, a CentersIn family on a blob, and a fixed
# family mixing Fraction and float radii.  greedy_content: the 8^3 cube at
# m = 1 (1,296 candidates), an l1 net, and a 300-cell 2-D blob at m = 1
# (2,524 candidates, past the dominance pass).
def _seeded_net(seed, metric, count, side):
    """`count` distinct points of the integer square [0, side]^2 as floats,
    drawn from a `random.Random(seed)` as the benchmark's nets are."""
    rng = random.Random(seed)
    points = {}
    while len(points) < count:
        points[(float(rng.randrange(side + 1)), float(rng.randrange(side + 1)))] = None
    return NetSpace(metric, tuple(points))


def _net25():
    return _seeded_net(5, "l2", 25, 16)


def _net_l1():
    return _seeded_net(13, "l1", 22, 11)


def _blob_centers():
    s = random_blob(11, 2, 24, 6)
    points = [s.cell_center(c) for c in sorted(s.cells)[::3]]
    points += [(Fraction(1, 3), Fraction(2, 5)), (Fraction(5, 8), Fraction(1, 8))]
    return s, CentersIn(tuple(points))


def _mixed_fixed():
    s = random_blob(4, 2, 18, 5)
    balls = []
    for i, c in enumerate(sorted(s.cells)):
        ball = grid_ball(s, c, 1 + i % 3)
        balls.append(Ball(ball.center, float(ball.radius)) if i % 2 else ball)
    return s, FixedFamily(tuple(balls))


PINNED_REPORTS = [
    (lambda: make_dumbbell(6, 8), 1, 1000, "c65771dbecc8321e"),
    (lambda: random_blob(3, 3, 80, 6, Fraction(1, 8)), 2, None, "06aa4bd611192813"),
    (lambda: random_blob(77, 2, 40, 10, Fraction(1, 8)), 1, None, "e305abbcaad4b581"),
    (lambda: make_dumbbell(6, 8), Fraction(3, 2), 100, "9dbfa3b7e445d82a"),
    (_net25, Fraction(3, 2), 1500, "309f86785ab4f083"),
    (lambda: make_cube(3, 8), 3, None, "4e9e11b08733cf10"),
    # 4,633 candidates, above the dominance pass's cap: a search over the whole list
    (lambda: random_blob(1, 2, 400, 30), 1, 20, "dfc0a5f118d8cadc"),
]


def _digest(report):
    text = json.dumps(report.to_dict(), sort_keys=True, default=fmt_scalar)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, m, budget, digest", PINNED_REPORTS)
def test_exact_content_reports_pinned(make, m, budget, digest):
    kwargs = {} if budget is None else {"node_budget": budget}
    assert _digest(exact_content(make(), None, m, **kwargs)) == digest


@pytest.mark.parametrize("lower, upper, optimal, fault", [
    (Fraction(3), Fraction(2), False, "content bracket is inverted"),
    (Fraction(1), Fraction(2), True, "optimal result must have a degenerate bracket"),
])
def test_a_faulty_bracket_is_a_verification_failure(lower, upper, optimal, fault):
    """Solver faults, not input: the CLI exits 2 on them, with both ends."""
    res = exact_content(make_cube(2, 2), None, 1)
    with pytest.raises(VerificationError, match=fault) as err:
        dataclasses.replace(res, value_lower=lower, value_upper=upper, optimal=optimal)
    assert err.value.report == {"value_lower": fmt_scalar(lower), "value_upper": fmt_scalar(upper),
                                "optimal": optimal}


def test_strip_with_bulbs_search_report_pinned():
    """A deep search: 1,277 nodes at budget 10, most children pruned by
    their parent's prices before any exact bound."""
    res = exact_content(make_strip_with_bulbs(), None, 1, node_budget=10)
    assert (res.value_lower, res.value_upper) == \
        (Fraction(67708831, 62162100), 2)
    assert res.certificate["nodes"] == 1277
    assert _digest(res) == "405d8e3c6a33aa56"


@pytest.mark.parametrize("seed, metric, count, side, m, digest", [
    (0, "l2", 25, 16, Fraction(3, 2),
     "fb93ea9f382b5057d8e116b67fea5be98c9e5d3c2fb4b47f936d81f0e0dc8a1f"),
    (1, "l2", 25, 16, Fraction(3, 2),
     "c491856590e200055f85f54d4b05bc404f070c282d2a19118e333004f47a9c80"),
    (2, "l2", 25, 16, Fraction(3, 2),
     "72e5c6abb5fd9fe414a5a24f21aee0fdb7a1287ccd71b88ff8ff91bbc0e3bf99"),
    (3, "l2", 25, 16, Fraction(3, 2),
     "7a307ea9acdffb9a160f847bf688fecc72f404db23225b0b7f9564f83ec3edd8"),
    (4, "l1", 20, 12, 1, "71c1e655937dbd99318096d62b6770734cdf0dc32c491d4f30a70b9044a3fe07"),
    (5, "linf", 20, 12, 1, "27548eac33be57e6fcab8926e2350a597900489caf10d921a88fcaebd1d87c4e"),
])
def test_seeded_net_reports_pinned(seed, metric, count, side, m, digest):
    """Whole sha256 of net searches at a 1,500-node budget: float costs on
    the l2 nets, which run out of budget, and Fraction costs at m = 1."""
    res = exact_content(_seeded_net(seed, metric, count, side), None, m, node_budget=1500)
    text = json.dumps(res.to_dict(), sort_keys=True, default=fmt_scalar)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("make, m, digest", [
    (_blob_centers, 1, "c75459932e84bd08"),
    (_mixed_fixed, 1, "fc94b371aef83e2d"),
    (_mixed_fixed, 2, "2790fa76780172e4"),
])
def test_exact_content_family_reports_pinned(make, m, digest):
    space, family = make()
    assert _digest(exact_content(space, None, m, family)) == digest


@pytest.mark.parametrize("make, m, digest", [
    (lambda: make_cube(3, 8), 1, "3f557f03bbdb6fd6"),
    (_net_l1, 1, "07be3d2f8983fbaa"),
    (_net_l1, Fraction(3, 2), "91aa9629efb91a55"),
    (lambda: random_blob(7, 2, 300, 24), 1, "c10e95cbe7fdfdbb"),
])
def test_greedy_content_reports_pinned(make, m, digest):
    assert _digest(greedy_content(make(), None, m)) == digest


def _net8():
    rng = random.Random(8)
    points = {}
    while len(points) < 8:
        points[(float(rng.randrange(40)), float(rng.randrange(40)))] = None
    return NetSpace("l2", tuple(points)), AllGridBalls()


def _grid_blob():
    return random_blob(5, 3, 60, 6), AllGridBalls()


@pytest.mark.parametrize("make", [_net8, _blob_centers, _mixed_fixed, _grid_blob])
def test_exact_content_builds_only_the_witness_balls(make, monkeypatch):
    """Candidates stay (cost, key, mask) records and the witness a keyed
    covering: on a net, a centres-in family, a fixed family and all grid
    balls, neither solver nor its report nor the witness's cost or report
    builds a ball until the witness's `balls` are read, which builds one
    per witness ball, and a second read builds none.  Every `Ball` built
    anywhere is counted."""
    space, family = make()
    built = []
    real = Ball.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    for solver in (exact_content, greedy_content):
        built.clear()
        res = solver(space, None, 2, family)
        res.to_dict()
        assert res.witness.to_dict()["cost"] == fmt_scalar(res.witness.cost)
        assert built == []
        balls = res.witness.balls
        assert len(built) == len(balls) == len(res.witness.keys) > 1
        assert set(built) == set(balls)
        assert res.witness.balls is balls
        assert len(built) == len(balls)
