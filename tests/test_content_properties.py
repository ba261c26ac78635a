"""Property tests: grid and net candidate generation, the dominance pass,
the greedy cover and the branch and bound's ratio bound against direct
oracles, its float price sum against the dict sum it replaced, the
inherited price floor against the exact bound, the branch and bound
against its loop without that floor, its branch pick against the
per-element minimum, the solvers' reports against the pipeline that prunes
dominated balls before it, and the greedy lower bound on nets, the
exact_content bracket (with its cheapest-first child order at every node
budget) and the volume lower bound on small voxel targets against an
exhaustive optimum, and every report's witness section, written from
candidate keys, against the report of its built witness."""

import itertools
import json
import math
import random
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcfill import content
from hcfill.content import (
    DEFAULT_NODE_BUDGET,
    _branch_and_bound,
    _branch_element,
    _fan_masks,
    _fixed_candidates,
    _greedy_cover,
    _holders,
    _net_centers,
    _point_candidates,
    _RatioBound,
    _voxel_grid_candidates,
    exact_content,
    generate_candidates,
    greedy_content,
    volume_lower_bound,
)
from hcfill.errors import UncoverableError
from hcfill.exact import fmt_scalar, is_integral, power
from hcfill.shapes import make_cube, make_dumbbell, make_strip_with_bulbs
from hcfill.space import (
    AllGridBalls,
    Ball,
    CentersIn,
    Covering,
    ElementBits,
    FixedFamily,
    NetSpace,
    RadiusCapped,
    VoxelSpace,
    ball_members,
    bit_indices,
    grid_ball,
    intersect_families,
    net_center,
    net_dist,
)
from oracles import net_point_dist, ratio_sum

MS = [1, 2, 3, Fraction(2), Fraction(3, 2), Fraction(1, 2), 0.5, 1.5, 2.0]
BOX = {1: 9, 2: 6, 3: 4}


@st.composite
def voxel_instances(draw, max_target=None):
    """A shifted voxel set, a non-empty target in it (of at most max_target
    cells), m, stride and radius cap."""
    n = draw(st.integers(1, 3))
    box = draw(st.integers(1, BOX[n]))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
    coords = [tuple(x + s for x, s in zip(c, shift))
              for c in itertools.product(range(box), repeat=n)]
    cells = draw(st.sets(st.sampled_from(coords), min_size=1))
    target = draw(st.sets(st.sampled_from(sorted(cells)), min_size=1, max_size=max_target))
    delta = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1)]))
    m = draw(st.sampled_from(MS))
    stride = draw(st.sampled_from([1, 2]))
    cap = draw(st.one_of(
        st.none(), st.integers(1, 2 * box).map(lambda j: delta * Fraction(j, 2))))
    return VoxelSpace(n, delta, frozenset(cells)), frozenset(target), m, stride, cap


def oracle_grid_candidates(space, target, m, stride, cap):
    """Every anchor of every block size up to the first at which one block
    holds the whole target, members from ball_members, and the per-block
    dominance test (cost k^m >= cell count, stride 1, k > 1)."""
    cells = sorted(target)
    index = {c: i for i, c in enumerate(cells)}
    lo = [min(c[i] for c in cells) for i in range(space.n)]
    hi = [max(c[i] for c in cells) for i in range(space.n)]
    out = []
    whole = False
    for k in itertools.count(stride, stride):
        radius = space.delta * Fraction(k, 2)
        if whole or cap is not None and radius > cap:
            break
        ranges = []
        for i in range(space.n):
            a_lo = lo[i] - k + 1
            a_lo += (-a_lo) % stride
            ranges.append(range(a_lo, hi[i] + 1, stride))
        for anchor in itertools.product(*ranges):
            ball = grid_ball(space, anchor, k)
            members = ball_members(ball, space) & target
            if not members:
                continue
            whole = whole or members == target
            if stride == 1 and k > 1:
                if is_integral(m):
                    dominated = k ** int(m) >= len(members)
                else:
                    dominated = float(k) ** float(m) >= len(members) - 1e-12
                if dominated:
                    continue
            mask = sum(1 << index[c] for c in members)
            out.append((ball.key(), mask, power(radius, m)))
    return out, index


def ball_of(key):
    """The ball of a (cost, key, mask) row keyed by `Ball.key()`."""
    return Ball(*key)


def grid_maker(space):
    """The ball of a `_voxel_grid_candidates` row, its centre and radius
    back from half-cell units."""
    half = space.delta / 2
    return lambda key: Ball(tuple(half * x for x in key[:-1]), half * key[-1])


def eager_greedy(rows, make, full):
    """Rescan every row each round; least (cost/new, ball key) wins, the
    ball made from the row's key by `make`.  Returns the picked indices."""
    covered, picks = 0, []
    while covered != full:
        ratios = [((cost / (mask & ~covered).bit_count(), make(key).key()), i)
                  for i, (cost, key, mask) in enumerate(rows) if mask & ~covered]
        if not ratios:
            raise UncoverableError("family cannot cover the target")
        _, i = min(ratios)
        picks.append(i)
        covered |= rows[i][2]
    return picks


def greedy_keys(cover, rows, make, n_elems):
    try:
        return [make(rows[i][1]).key() for i in cover(rows, make, (1 << n_elems) - 1)]
    except UncoverableError:
        return None


def bound_of(rows):
    """The `_RatioBound` of the rows' costs and masks."""
    return _RatioBound([cost for cost, _, _ in rows], [mask for _, _, mask in rows])


def undominated(masks, n_elems):
    """The indices the dominance pass keeps."""
    return _holders(masks, n_elems, prune=True)[0]


def lazy_greedy(rows, make, full):
    return _greedy_cover(rows, full, bound_of(rows))


def assert_greedy_matches(rows, make, n_elems):
    if rows:
        assert greedy_keys(lazy_greedy, rows, make, n_elems) == \
            greedy_keys(eager_greedy, rows, make, n_elems)


def assert_rows_cover_the_oracle(got, want):
    """Every generated row is an oracle row, in the oracle's order, and every
    oracle row's mask is held by a generated row of the same radius."""
    rest = iter(want)
    assert all(row in rest for row in got)
    held = {}
    for (_, radius), mask, _ in got:
        held.setdefault(radius, []).append(mask)
    assert all(any(mask | other == other for other in held.get(radius, ()))
               for (_, radius), mask, _ in want)


THIRDS_L = frozenset((x, y) for x in range(-3, 4) for y in range(-2, 3) if x < 0 or y == 1)
THIRDS_3D = frozenset(c for c in itertools.product(range(-1, 3), repeat=3) if sum(c) % 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(voxel_instances())
@example((VoxelSpace(2, Fraction(1, 3), THIRDS_L), THIRDS_L, 2, 2, None))
@example((VoxelSpace(2, Fraction(1, 3), THIRDS_L), THIRDS_L - {(-3, -2)}, 1, 2, Fraction(2)))
@example((VoxelSpace(3, Fraction(1, 3), THIRDS_3D), THIRDS_3D, Fraction(3, 2), 1, None))
@example((VoxelSpace(3, Fraction(1, 3), THIRDS_3D), THIRDS_3D, 1, 2, None))
def test_grid_candidates_and_greedy_match_oracles(instance):
    """Also on stride-2 families and on a delta that is not a power of
    two: the integer keys the greedy breaks ties on order like the ball
    keys, and each kept block's ball is its `grid_ball`."""
    space, target, m, stride, cap = instance
    raw, index = _voxel_grid_candidates(space, target, m, stride, cap)
    raw_make = grid_maker(space)
    want, want_index = oracle_grid_candidates(space, target, m, stride, cap)
    assert index == want_index
    assert_rows_cover_the_oracle(triples(raw, raw_make), want)

    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    rows, index, make = generate_candidates(space, target, m, family)
    for _, key, _ in rows:
        *center, k = key
        assert make(key) == grid_ball(space, tuple((x - k) // 2 for x in center), k)
    assert sorted(rows, key=itemgetter(1)) == sorted(rows, key=lambda row: make(row[1]).key())
    assert_greedy_matches(rows, make, len(index))
    assert_greedy_matches(raw, raw_make, len(index))


def cheapest_cover(cost_of, n_elems):
    """Least total cost of masks from cost_of (mask -> cost) whose union
    holds all n_elems elements, by dynamic programming over covered sets;
    math.inf when they cannot cover them."""
    full = (1 << n_elems) - 1
    best = [math.inf] * (full + 1)
    best[0] = 0
    for covered in range(full + 1):
        if best[covered] < math.inf:
            for mask, cost in cost_of.items():
                grown = covered | mask
                best[grown] = min(best[grown], best[covered] + cost)
    return best[full]


def brute_force_optimum(space, target, m, stride, cap):
    """Cheapest cover of the target by grid blocks whose side and anchors
    are multiples of the stride (`cheapest_cover`); math.inf when they
    cannot cover it.  Every block that meets the target's bounding box is
    tried, from the least side up to the first side at which one block holds
    the whole target: a larger block costs more and holds no more."""
    cells = sorted(target)
    index = {c: i for i, c in enumerate(cells)}
    full = (1 << len(cells)) - 1
    lo = [min(c[i] for c in cells) for i in range(space.n)]
    hi = [max(c[i] for c in cells) for i in range(space.n)]
    cost_of = {}
    for k in itertools.count(stride, stride):
        radius = space.delta * Fraction(k, 2)
        if cap is not None and radius > cap:
            break
        ranges = []
        for l, h in zip(lo, hi):
            a_lo = l - k + 1
            ranges.append(range(a_lo + (-a_lo) % stride, h + 1, stride))
        for anchor in itertools.product(*ranges):
            members = ball_members(grid_ball(space, anchor, k), space) & target
            mask = sum(1 << index[c] for c in members)
            if mask:
                cost_of[mask] = min(cost_of.get(mask, math.inf), power(radius, m))
        if full in cost_of:
            break
    return cheapest_cover(cost_of, len(cells))


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(voxel_instances(max_target=10))
def test_exact_content_brackets_the_brute_force_optimum(stride, capped, instance):
    """On targets of at most 10 cells, at node budgets that close some
    searches and not others."""
    space, target, m, _, cap = instance
    cap = cap if capped else None
    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    optimum = brute_force_optimum(space, target, m, stride, cap)
    exact = is_integral(m)
    for budget in (1, 2, 5):
        if optimum == math.inf:
            with pytest.raises(UncoverableError):
                exact_content(space, target, m, family, budget)
            continue
        res = exact_content(space, target, m, family, budget)
        if exact:
            assert res.value_lower <= optimum <= res.value_upper
            assert not res.optimal or res.value_upper == optimum
        else:
            assert res.value_lower <= optimum * (1 + 1e-9)
            assert optimum <= res.value_upper * (1 + 1e-9)
            assert not res.optimal or math.isclose(res.value_upper, optimum, rel_tol=1e-9)


class _ReadLog(list):
    """A list that logs every index read from it: inside the search, the
    cost list `ratio.costs` is read only to push child ci, at `costs[ci]`."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


def _logged_children(space, target, m, family, budget):
    """`exact_content`'s result, the masks, the `_RatioBound` and the
    holder lists its search received, and, per node it branched at, (U,
    the branch element, its children in the order they are popped),
    indexed in that list."""
    log, received = [], []
    search, pick = content._branch_and_bound, content._branch_element

    def logged_search(masks, ratio, *args, **kwargs):
        received[:] = masks, ratio, kwargs.get("holders")
        ratio.costs = _ReadLog(ratio.costs, log)
        return search(masks, ratio, *args, **kwargs)

    def logged_pick(uncovered, fans):
        e = pick(uncovered, fans)
        log.append((uncovered, e))
        return e

    with mock.patch.object(content, "_branch_and_bound", logged_search), \
            mock.patch.object(content, "_branch_element", logged_pick):
        res = exact_content(space, target, m, family, budget)
    nodes = []
    for item in log:
        if isinstance(item, tuple):
            nodes.append((*item, []))
        else:
            nodes[-1][2].insert(0, item)  # pushed in reverse
    return res, *received, nodes


@st.composite
def branching_instances(draw):
    """Voxel sets of 6 to 10 cells, the whole set the target, where
    searches leave the root most often: 2-D in a box of side 4 to 8 at
    m = 1, 3-D in a box of side 3 or 4 at m = 1 or 2; stride and cap as in
    `voxel_instances`."""
    n = draw(st.sampled_from([2, 2, 3]))
    box = draw(st.integers(4, 8) if n == 2 else st.integers(3, 4))
    coords = list(itertools.product(range(box), repeat=n))
    cells = frozenset(draw(st.sets(st.sampled_from(coords), min_size=6, max_size=10)))
    delta = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1)]))
    m = draw(st.integers(1, n - 1))
    stride = draw(st.sampled_from([1, 2]))
    cap = draw(st.one_of(
        st.none(), st.integers(1, 2 * box).map(lambda j: delta * Fraction(j, 2))))
    return VoxelSpace(n, delta, cells), cells, m, stride, cap


@settings(max_examples=100, deadline=None, derandomize=True)
@given(branching_instances())
def test_cheapest_first_brackets_the_brute_force_optimum_at_every_budget(instance):
    """At every node budget from 1 to the nodes the search needs to close:
    the bracket holds the optimum and is closed only at it, and every node
    takes its children, the balls holding its branch element, by ratio
    against its uncovered set, equal ratios in candidate order.  A search
    that branches receives the list without its dominated balls."""
    space, target, m, stride, cap = instance
    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    optimum = brute_force_optimum(space, target, m, stride, cap)
    if optimum == math.inf:
        return
    rows, index, _ = generate_candidates(space, target, m, family)
    masks = [mask for _, _, mask in rows]
    kept = [masks[i] for i in undominated(masks, len(index))]
    need = exact_content(space, target, m, family).certificate["nodes"]
    for budget in range(1, need + 1):
        res, searched, ratio, holders, nodes = _logged_children(space, target, m, family,
                                                                budget)
        assert res.value_upper >= optimum
        assert not res.optimal or res.value_upper == optimum
        assert res.value_lower <= optimum
        assert res.optimal == (budget >= need)
        if nodes:
            assert searched == kept
            assert holders == [[k for k, mask in enumerate(kept) if mask >> e & 1]
                               for e in range(len(index))]
        for uncovered, e, children in nodes:
            def price(ci):
                return ratio.price(ci, (searched[ci] & uncovered).bit_count())
            assert children == sorted(holders[e], key=price)  # stable: ties in candidate order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(voxel_instances(max_target=10),
       st.sampled_from([1, 2, 3, 4, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), 0.5]))
def test_volume_lower_bound_is_below_the_brute_force_optimum(instance, m):
    """At every m, above the dimension included, where the bound is the
    unit-ball optimum itself.  A float bound (m/n not an integer) is
    rounded down, so it too is compared without slack."""
    space, target, _, _, _ = instance
    bound = volume_lower_bound(space, target, m)
    optimum = brute_force_optimum(space, target, m, 1, None)
    assert bound <= optimum
    if isinstance(bound, Fraction):
        assert m < space.n or bound == optimum
    else:
        assert m < space.n or math.isclose(bound, optimum, rel_tol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(voxel_instances(max_target=10), st.sampled_from([0.3, 1.7, 3.3]))
def test_volume_lower_bound_at_a_float_m_of_huge_denominator(instance, m):
    """A float m such as 0.3 is a fraction over 2^54, too large an
    exponent for the exact check; the bound is taken at a multiple of
    1/1024 next to m on the side where it is smaller, so it stays below
    the optimum and within a percent of the bound at m."""
    space, target, _, _, _ = instance
    bound = volume_lower_bound(space, target, m)
    optimum = brute_force_optimum(space, target, m, 1, None)
    assert bound <= optimum
    if m >= space.n:
        assert math.isclose(bound, optimum, rel_tol=1e-2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(voxel_instances(), st.sampled_from([3, Fraction(7, 2), 4.0]))
def test_only_unit_balls_at_m_at_least_n(instance, m):
    space, target, _, _, _ = instance
    rows, index, make = generate_candidates(space, target, m, AllGridBalls())
    assert len(rows) == len(target)
    assert all(make(key).radius == space.delta / 2 for _, key, _ in rows)


def test_strip_with_bulbs_keeps_only_unit_balls():
    space = make_strip_with_bulbs()
    rows, _, make = generate_candidates(space, frozenset(space.cells), 2, AllGridBalls())
    assert len(rows) == len(space.cells) == 128
    assert all(make(key).radius == space.delta / 2 for _, key, _ in rows)


@st.composite
def small_nets(draw):
    metric = draw(st.sampled_from(["linf", "l2", "l1"]))
    points = draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
            lambda p: (float(p[0]), float(p[1]))),
        min_size=1, max_size=7, unique=True))
    m = draw(st.sampled_from([1, 2, 0.5, 1.5]))
    return NetSpace(metric, tuple(points)), m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_nets())
def test_greedy_matches_eager_on_float_costs(net_m):
    net, m = net_m
    rows, index, make = generate_candidates(net, range(len(net.points)), m, AllGridBalls())
    assert_greedy_matches(rows, make, len(index))


def net_optimum(net, m):
    """Cheapest cover by balls centred at net points with radii from the
    positive distances to the points."""
    k = len(net.points)
    balls = {}
    for c in range(k):
        d = [net_point_dist(net, c, e) for e in range(k)]
        for r in sorted({x for x in d if x > 0}) or [0.0]:
            mask = sum(1 << e for e in range(k) if d[e] <= r + 1e-9)
            balls[mask] = min(balls.get(mask, math.inf), r ** float(m))
    return cheapest_cover(balls, k)


def test_greedy_lower_bound_on_nets_is_sound():
    for seed in range(60):
        rng = random.Random(seed)
        points = tuple(sorted({(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
                               for _ in range(7)}))
        net = NetSpace(("linf", "l2", "l1")[seed % 3], points, eps_net=(0.0, 0.25)[seed % 2])
        for m in (1, 2):
            optimum = net_optimum(net, m)
            res = greedy_content(net, None, m)
            assert res.value_lower <= optimum
            assert res.value_upper >= optimum - 1e-9


@st.composite
def brute_force_nets(draw):
    """An l_inf, l1 or l2 net of 1 to 7 points, or the matrix net of its
    l1 distances, and m in {1, 3/2, 2}."""
    net, _ = draw(small_nets())
    if draw(st.integers(0, 3)) == 0:
        net = matrix_net(net.points)
    return net, draw(st.sampled_from([1, Fraction(3, 2), 2]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(brute_force_nets())
def test_exact_content_on_nets_matches_the_brute_force_optimum(net_m):
    """With no node budget to run out, the upper value is the cheapest
    cover by the same net-centred balls, and the witness covers the net.
    The lower value is not checked here: on nets it is the witness's
    deflated cost, not a bound on this optimum."""
    net, m = net_m
    res = exact_content(net, None, m)
    assert math.isclose(float(res.value_upper), net_optimum(net, m), rel_tol=1e-9)
    res.witness.validate(net)


# ---------------------------------------------------------------------------
# the sort-and-assign ratio bound against the per-member scans it replaced

def _ratio_duals(rows, n_elems):
    """LP-dual-feasible element prices y_e = min over balls containing e of
    cost/|members|: for every ball, sum over its members of y is <= its cost,
    so sum(y) lower-bounds every cover from the family."""
    duals = [None] * n_elems
    for cost, _, mask in rows:
        ratio = cost / mask.bit_count()
        while mask:
            low = mask & -mask
            e = low.bit_length() - 1
            if duals[e] is None or ratio < duals[e]:
                duals[e] = ratio
            mask ^= low
    return duals


def _dual_bound(rows, uncovered):
    """Ratio bound recomputed against the current uncovered set."""
    if not uncovered:
        return 0
    best = {}
    for cost, _, mask in rows:
        inter = mask & uncovered
        if not inter:
            continue
        ratio = cost / inter.bit_count()
        mask = inter
        while mask:
            low = mask & -mask
            cur = best.get(low)
            if cur is None or ratio < cur:
                best[low] = ratio
            mask ^= low
    return sum(best.values())


# few distinct values, so that ratios tie across balls and sizes
FRACTION_COSTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1),
                     Fraction(3, 2), Fraction(2), Fraction(4)]),
    st.fractions(Fraction(0), Fraction(9), max_denominator=12),
)
FLOAT_COSTS = st.one_of(
    st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0]),
    st.floats(0.01, 100.0),
)


@st.composite
def candidate_sets(draw):
    """Balls over n elements that together cover them all: random masks,
    single elements or a partition into disjoint blocks; costs all Fractions,
    all floats or mixed (fixed families may mix radius types)."""
    n = draw(st.integers(1, 14))
    costs = draw(st.sampled_from(
        [FRACTION_COSTS, FLOAT_COSTS, st.one_of(FRACTION_COSTS, FLOAT_COSTS)]))
    shape = draw(st.sampled_from(["random", "singles", "disjoint"]))
    if shape == "singles":
        masks = [1 << e for e in draw(st.permutations(range(n)))]
    elif shape == "disjoint":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        bounds = [0, *cuts, n]
        masks = [((1 << b) - 1) ^ ((1 << a) - 1) for a, b in zip(bounds, bounds[1:])]
    else:
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=24))
        seen = 0
        for mask in masks:
            seen |= mask
        masks += [1 << e for e in range(n) if not seen >> e & 1]
    rows = [(draw(costs), ((Fraction(i),), Fraction(1)), mask) for i, mask in enumerate(masks)]
    return rows, n


@settings(max_examples=500, deadline=None, derandomize=True)
@given(candidate_sets(), st.data())
def test_ratio_bound_matches_the_per_member_scans(instance, data):
    rows, n = instance
    full = (1 << n) - 1
    ratio = bound_of(rows)
    exact = all(isinstance(cost, Fraction) for cost, _, _ in rows)
    assert (ratio.scale is not None) == exact
    assert [ratio.scalar(c) for c in ratio.costs] == [cost for cost, _, _ in rows]
    for i, (cost, _, mask) in enumerate(rows):
        count = mask.bit_count()
        assert ratio.scalar(ratio.price(i, count)) == cost / count

    for uncovered in (0, full, *(1 << e for e in range(n)),
                      data.draw(st.integers(0, full))):
        got, want = ratio.priced(uncovered)[1], _dual_bound(rows, uncovered)
        if exact:
            assert isinstance(got, int)
            assert ratio.scalar(got) == want
        else:
            assert got == want and type(got) is type(want)

    duals, root = ratio.duals(ratio.priced(full)[0])
    want = _ratio_duals(rows, n)
    assert duals == want
    assert [type(d) for d in duals] == [type(d) for d in want]
    assert root == sum(want) and type(root) is type(sum(want))


def _dict_sum(self, groups):
    """`_RatioBound._sum`'s float body before the per-element list,
    verbatim."""
    least = {}
    for ratio, new in groups:
        for e in bit_indices(new):
            least[e] = ratio
    return sum(least[e] for e in self._order if e in least)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.data())
def test_float_sum_matches_the_dict_sum_bit_for_bit(n, data):
    """Random disjoint groups over the union of random float-cost balls,
    whose `_order` is not element order, priced with floats (or Fractions
    among them, as with mixed costs), put `_in_order`: their `_sum`, the
    bound `priced` reports, and over a random subset of their elements
    their `_sum` and float `floor` are the same value and type, to the
    bit, as the sum over a list of int zeros and the dict sum."""
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12))
    prices = data.draw(st.sampled_from([FLOAT_COSTS, st.one_of(FLOAT_COSTS, FRACTION_COSTS)]))
    ratio = _RatioBound([data.draw(FLOAT_COSTS) for _ in masks], masks)
    union = 0
    for mask in masks:
        union |= mask
    left = data.draw(st.integers(0, union)) & union
    groups = []
    while left:
        new = data.draw(st.integers(1, left)) & left or left & -left
        groups.append((data.draw(prices), new))
        left ^= new
    within = data.draw(st.integers(0, (1 << n) - 1))
    ordered = ratio._in_order(groups)
    assert sorted(bit for _, bit in ordered) == sorted(1 << e for e in bit_indices(
        sum(new for _, new in groups)))
    whole = _dict_sum(ratio, groups)
    part = _dict_sum(ratio, [(r, new & within) for r, new in groups])
    got = [(ratio._sum(ordered), whole), (ratio._sum(ordered, within), part),
           (ratio_sum(ratio, groups), whole), (ratio_sum(ratio, groups, within), part),
           (ratio.floor(within, ordered, ratio._sum(ordered)), part)]
    for value, want in got:
        assert type(value) is type(want)
        assert value == want
        if isinstance(want, float):
            assert value.hex() == want.hex()


# ---------------------------------------------------------------------------
# candidate post-processing, net distance rows and the greedy on every
# family against the sort, dedupe, quadratic dominance pass and per-ball
# scans they replaced

def quadratic_undominated(rows):
    """Keep a row unless a kept one holds its mask at no higher cost."""
    kept = []
    for row in rows:
        cost, _, mask = row
        if not any(other | mask == other and other_cost <= cost
                   for other_cost, _, other in kept):
            kept.append(row)
    return kept


def oracle_post_process(raw, make):
    """The least (cost, ball key) row per mask, its ball made from its key by
    `make`, sorted by (cost, ball key), then, unless every cost is a
    Fraction, the quadratic dominance pass when at most 2,000 remain."""
    def order(row):
        return row[0], make(row[1]).key()

    best = {}
    for row in raw:
        cur = best.get(row[2])
        if cur is None or order(row) < order(cur):
            best[row[2]] = row
    rows = sorted(best.values(), key=order)
    if len(rows) > 2000 or all(isinstance(cost, Fraction) for cost, _, _ in rows):
        return rows
    return quadratic_undominated(rows)


def oracle_point_candidates(space, target, m, centers, cap):
    """Balls at each centre with radii from its distance set, each mask
    from its own `ElementBits.ball` scan."""
    bits = ElementBits(space, sorted(target))
    out = []
    for center in centers:
        if isinstance(space, VoxelSpace):
            dists = sorted({max(abs(x - y) for x, y in zip(space.cell_center(c), center))
                            for c in bits.elements})
        else:
            at = net_center(center, space)
            dists = sorted({net_dist(at, e, space) for e in bits.elements})
            dists = [d for d in dists if d > 0.0] or dists[:1]
        seen = set()
        for r in dists:
            if cap is not None and Fraction(r) > cap:
                break
            ball = Ball(center, r if isinstance(r, Fraction) else float(r))
            mask = bits.ball(ball)
            if mask and mask not in seen:
                seen.add(mask)
                out.append((ball.key(), mask, power(Fraction(r), m)))
    return out


def triples(rows, make):
    return [(make(key).key(), mask, cost) for cost, key, mask in rows]


def assert_post_processing_matches(space, target, m, family, raw, make):
    """`generate_candidates` against `oracle_post_process` of the raw rows,
    whose balls `make` builds; every returned row's mask is its ball's bits,
    the ball made by the returned maker.  Returns the rows and maker."""
    got, index, got_make = generate_candidates(space, target, m, family)
    want = oracle_post_process(raw, make)
    assert triples(got, got_make) == triples(want, make)
    assert [type(row[0]) for row in got] == [type(row[0]) for row in want]
    ordered = sorted(raw, key=lambda row: (row[0], make(row[1]).key()))
    kept = undominated([mask for _, _, mask in ordered], len(index))
    assert triples([ordered[i] for i in kept], make) == \
        triples(quadratic_undominated(ordered), make)
    bits = ElementBits(space, sorted(target))
    assert all(bits.ball(got_make(key)) == mask for _, key, mask in got)
    assert_greedy_matches(got, got_make, len(index))
    return got, got_make


@st.composite
def mask_lists(draw):
    """Masks over 1 to 12 elements, each after the first a fresh mask, a
    repeat of an earlier one, or an earlier one ANDed or ORed with a fresh
    mask (nested in it or holding it)."""
    n = draw(st.integers(1, 12))
    fresh = st.integers(1, (1 << n) - 1)
    masks = [draw(fresh)]
    for _ in range(draw(st.integers(0, 20))):
        earlier, other = draw(st.sampled_from(masks)), draw(fresh)
        kind = draw(st.sampled_from(["fresh", "repeat", "inside", "around"]))
        mask = {"fresh": other, "repeat": earlier, "inside": earlier & other,
                "around": earlier | other}[kind]
        masks.append(mask or earlier)
    return masks, n


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mask_lists(), st.booleans())
def test_holder_lists_match_a_walk_over_the_kept_masks(instance, prune):
    """Each element's list holds the positions, in order, of the kept masks
    holding it.  With the dominance test the kept masks are those that no
    earlier kept mask holds, by the quadratic scan; without it, all."""
    masks, n = instance
    kept, holders = _holders(masks, n, prune)
    own = [masks[i] for i in kept]
    assert holders == [[k for k, mask in enumerate(own) if mask >> e & 1] for e in range(n)]
    want = []
    for i, mask in enumerate(masks):
        if not (prune and any(masks[j] | mask == masks[j] for j in want)):
            want.append(i)
    assert kept == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(voxel_instances(), st.booleans())
def test_dominance_pass_matches_quadratic_on_grid_balls(instance, at_zero):
    """Also at m = 0, where every size costs 1 and the generator sorts."""
    space, target, m, stride, cap = instance
    m = 0 if at_zero else m
    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    raw, _ = _voxel_grid_candidates(space, target, m, stride, cap)
    assert_post_processing_matches(space, target, m, family, raw, grid_maker(space))


def test_candidates_above_the_dominance_limit_match_the_sort_and_dedupe():
    """The 18^2 square at m = 1 keeps 2,109 distinct masks, more than the
    dominance pass takes, so every one of them is built: one per block
    inside the square, which holds what any block sticking out of it
    covers."""
    space = make_cube(2, 18)
    cells = frozenset(space.cells)
    side = 18 * space.delta
    want, index = oracle_grid_candidates(space, cells, 1, 1, None)
    want = oracle_post_process([(cost, key, mask) for key, mask, cost in want
                                if all(0 <= x - key[1] and x + key[1] <= side
                                       for x in key[0])], ball_of)
    got, got_index, make = generate_candidates(space, cells, 1, AllGridBalls())
    assert got_index == index and len(got) == len(want) > 2000
    assert triples(got, make) == triples(want, ball_of)

    def types(row, make):
        ball = make(row[1])
        return (type(row[0]), *map(type, ball.center), type(ball.radius))

    assert [types(row, make) for row in got] == [types(row, ball_of) for row in want]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(), st.data())
def test_dominance_pass_matches_quadratic_on_centers_in(instance, data):
    space, target, m, _, cap = instance
    quarter = space.delta / 4
    coord = st.integers(-8, 40).map(lambda j: quarter * j)
    centers = tuple(data.draw(st.lists(st.tuples(*[coord] * space.n),
                                       min_size=1, max_size=8)))
    family = CentersIn(centers)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    raw, _ = _point_candidates(space, target, m, centers, cap)
    assert triples(raw, ball_of) == oracle_point_candidates(space, target, m, centers, cap)
    got, make = assert_post_processing_matches(space, target, m, family, raw, ball_of)
    assert all(key == make(key).key() for _, key, _ in got)


def test_centers_in_at_float_centres_matches_ball_scans():
    """Float centres at multiples of 1/22, whose distances to the cell
    centres round, some of them down: a radius's members are still the
    cells within it on exact distances, as `ElementBits.ball` finds them."""
    space = make_cube(2, 4)
    target = frozenset(space.cells)
    centers = tuple((i / 22, j / 22) for i in range(12) for j in range(0, 12, 3))
    for m in (1, Fraction(3, 2)):
        rows, _ = _point_candidates(space, target, m, centers, None)
        assert triples(rows, ball_of) == \
            oracle_point_candidates(space, target, m, centers, None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(), st.data())
def test_dominance_pass_matches_quadratic_on_fixed_families(instance, data):
    """Fraction and float radii mixed, at integer and non-integer m."""
    space, target, m, _, _ = instance
    half = space.delta / 2
    coord = st.integers(-4, 20).map(lambda j: half * j)
    radius = st.integers(1, 8).map(lambda j: half * j)
    radius = st.one_of(radius, radius.map(float))
    balls = tuple(data.draw(st.lists(
        st.builds(Ball, st.tuples(*[coord] * space.n), radius), min_size=1, max_size=16)))
    raw, _ = _fixed_candidates(space, target, m, balls, None)
    got, make = assert_post_processing_matches(space, target, m, FixedFamily(balls), raw,
                                               ball_of)
    assert all(key == make(key).key() for _, key, _ in got)


@st.composite
def tied_families(draw):
    """A square or segment of cells, a target of at least two of them, m,
    and a centres-in or fixed family whose prices tie often: centres at
    cell centres and on the half-cell lattice, and fixed balls that all
    share one radius (a Fraction or its float)."""
    n = draw(st.integers(1, 2))
    side = draw(st.integers(2, 4))
    delta = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1)]))
    space = make_cube(n, side, delta)
    target = draw(st.sets(st.sampled_from(sorted(space.cells)), min_size=2))
    half = delta / 2
    coord = st.integers(-1, 2 * side + 1).map(lambda j: half * j)
    centers = tuple(draw(st.lists(
        st.one_of(st.sampled_from(sorted(space.cells)).map(space.cell_center),
                  st.tuples(*[coord] * n)),
        min_size=2, max_size=10)))
    m = draw(st.sampled_from(MS))
    if draw(st.booleans()):
        return space, frozenset(target), m, CentersIn(centers)
    radius = half * draw(st.integers(1, 3))
    radius = draw(st.sampled_from([radius, float(radius)]))
    return space, frozenset(target), m, FixedFamily(tuple(Ball(c, radius) for c in centers))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_families())
def test_greedy_takes_the_least_ball_key_among_tied_prices(case):
    """On the point-centred and fixed families the greedy breaks price ties
    by comparing ball keys; the lazy greedy picks what the eager rescan
    picks."""
    space, target, m, family = case
    rows, index, make = generate_candidates(space, target, m, family)
    assert_greedy_matches(rows, make, len(index))


def test_greedy_ties_on_a_fixed_family_go_to_the_least_ball_key():
    """Four unit-cell balls at one price: the greedy takes them in key
    order."""
    space = make_cube(2, 2, Fraction(1))
    balls = tuple(grid_ball(space, cell, 1) for cell in sorted(space.cells, reverse=True))
    rows, index, make = generate_candidates(space, frozenset(space.cells), 2, FixedFamily(balls))
    picks = lazy_greedy(rows, make, (1 << len(index)) - 1)
    assert [make(rows[i][1]) for i in picks] == sorted(balls, key=Ball.key)


def matrix_net(points):
    """A matrix-metric net with the l1 distances of the given points."""
    k = len(points)
    matrix = tuple(tuple(sum(abs(x - y) for x, y in zip(points[i], points[j]))
                         for j in range(k)) for i in range(k))
    return NetSpace("matrix", tuple((float(i),) for i in range(k)), 0.0, matrix)


@st.composite
def net_instances(draw):
    """An l_inf, l1, l2 or matrix net, a non-empty target, m and a cap."""
    net, m = draw(small_nets())
    if draw(st.booleans()):
        # tenths: sums and differences of the coordinates round apart by
        # less than the tolerance (0.1 + 0.2 > 0.3)
        net = NetSpace(net.metric, tuple((x * 0.1, y * 0.1) for x, y in net.points))
    if draw(st.booleans()):
        net = matrix_net(net.points)
    target = draw(st.sets(st.sampled_from(range(len(net.points))), min_size=1))
    cap = draw(st.one_of(st.none(), st.integers(1, 8).map(Fraction)))
    return net, frozenset(target), m, cap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(net_instances())
def test_net_distance_rows_match_ball_scans(instance):
    net, target, m, cap = instance
    centers = _net_centers(net)
    raw, index = _point_candidates(net, target, m, centers, cap)
    assert triples(raw, ball_of) == oracle_point_candidates(net, target, m, centers, cap)
    bits = ElementBits(net, sorted(target))
    assert all(bits.ball(ball_of(key)) == mask for _, key, mask in raw)
    family = AllGridBalls()
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    if raw:
        assert_post_processing_matches(net, target, m, family, raw, ball_of)


# ---------------------------------------------------------------------------
# the floor a child inherits from its parent's prices, and the branch and
# bound against its loop without that floor

def _floor_cases(full, data):
    """(U', U) pairs: U' == U and a random U' inside U, for the whole
    target and for random U."""
    for outer in (full, *(data.draw(st.integers(0, full)) for _ in range(3))):
        yield outer, outer
        yield outer & data.draw(st.integers(0, full)), outer


def assert_floor_sound(rows, n_elems, data):
    ratio = bound_of(rows)
    mixed = ratio.scale is None and not all(isinstance(cost, float) for cost, _, _ in rows)
    for inner, outer in _floor_cases((1 << n_elems) - 1, data):
        floor = ratio.floor(inner, *ratio.priced(outer))
        _, bound = ratio.priced(inner)
        if mixed:
            assert floor == -math.inf
            continue
        assert type(floor) is type(bound)
        assert floor <= bound
        if inner == outer:
            assert floor == bound


@settings(max_examples=300, deadline=None, derandomize=True)
@given(candidate_sets(), st.data())
def test_inherited_floor_is_at_most_the_bound(instance, data):
    """Fraction, float and mixed costs on random masks."""
    rows, n = instance
    assert_floor_sound(rows, n, data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(), st.data())
def test_inherited_floor_on_grid_and_centers_in_candidates(instance, data):
    space, target, m, stride, cap = instance
    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    rows, index, _ = generate_candidates(space, target, m, family)
    if rows:
        assert_floor_sound(rows, len(index), data)
    quarter = space.delta / 4
    coord = st.integers(-8, 40).map(lambda j: quarter * j)
    centers = tuple(data.draw(st.lists(st.tuples(*[coord] * space.n),
                                       min_size=1, max_size=8)))
    rows, index, _ = generate_candidates(space, target, m, CentersIn(centers))
    if rows:
        assert_floor_sound(rows, len(index), data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(), st.data())
def test_inherited_floor_on_fixed_families(instance, data):
    """Fraction and float radii mixed, at integer and non-integer m."""
    space, target, m, _, _ = instance
    half = space.delta / 2
    coord = st.integers(-4, 20).map(lambda j: half * j)
    radius = st.integers(1, 8).map(lambda j: half * j)
    radius = st.one_of(radius, radius.map(float))
    balls = tuple(data.draw(st.lists(
        st.builds(Ball, st.tuples(*[coord] * space.n), radius), min_size=1, max_size=16)))
    rows, index, _ = generate_candidates(space, target, m, FixedFamily(balls))
    if rows:
        assert_floor_sound(rows, len(index), data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(net_instances(), st.data())
def test_inherited_floor_on_net_candidates(instance, data):
    net, target, m, cap = instance
    family = AllGridBalls()
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    rows, index, _ = generate_candidates(net, target, m, family)
    if rows:
        assert_floor_sound(rows, len(index), data)


def _bound_without_floor(ratio, uncovered):
    """`_RatioBound.bound` before prices were inherited: the sum of U's
    prices, floats in `_order`."""
    groups = ratio.priced(uncovered)[0]
    if ratio.scale is not None:
        return sum(r * new.bit_count() for r, new in groups)
    return _dict_sum(ratio, groups)


def _search_without_floor(masks, ratio, goal, budget, best_cost, best_sel):
    """`_branch_and_bound` before prices were inherited, verbatim but for
    the exact bound, which is `_bound_without_floor`, and the child order:
    at a node the bound ran at, the children by `ratio.price` against the
    node's uncovered set, ties in candidate order (a stable sort)."""
    step = ratio.costs
    nodes = 0
    frontier = covers_elem = None
    memo = {}
    stack = [(0, ratio.zero, ())]
    while stack:
        covered, cost, sel = stack.pop()
        nodes += 1
        if nodes > budget:
            # the incumbent is final now; an entry costing at least the
            # frontier cannot lower it
            if frontier is None:
                frontier = best_cost
            if cost < frontier:
                frontier = min(frontier, cost + _bound_without_floor(ratio, goal ^ covered))
            continue
        if covered == goal:
            if cost < best_cost:
                best_cost, best_sel = cost, sel
            continue
        seen = memo.get(covered)
        if seen is not None and seen <= cost:
            continue
        memo[covered] = cost
        # without an incumbent (best_cost inf) the bound cannot prune
        if best_cost != math.inf and \
                cost + _bound_without_floor(ratio, goal ^ covered) >= best_cost:
            continue
        if covers_elem is None:  # most solves close at the root
            covers_elem = [[] for _ in range(goal.bit_length())]
            for ci, mask in enumerate(masks):
                for e in bit_indices(mask):
                    covers_elem[e].append(ci)
            fan = [len(c) for c in covers_elem]
        pick = min(bit_indices(goal ^ covered), key=fan.__getitem__)
        children = covers_elem[pick]
        if best_cost != math.inf:
            uncovered = goal ^ covered
            children = sorted(children, key=lambda ci: ratio.price(
                ci, (masks[ci] & uncovered).bit_count()))
        for ci in reversed(children):
            stack.append((covered | masks[ci], cost + step[ci], sel + (ci,)))
    return best_cost, best_sel, nodes, frontier


def _typed(result):
    cost, sel, nodes, frontier = result
    return (cost, type(cost)), sel, nodes, (frontier, type(frontier))


def assert_search_matches(rows, n_elems):
    ratio = bound_of(rows)
    masks = [mask for _, _, mask in rows]
    full = (1 << n_elems) - 1
    chosen = _greedy_cover(rows, full, ratio)
    incumbent = sum(ratio.costs[i] for i in chosen), tuple(chosen)
    for budget in (1, 3, 40, DEFAULT_NODE_BUDGET):
        args = masks, ratio, full, budget, *incumbent
        assert _typed(_branch_and_bound(*args)) == _typed(_search_without_floor(*args))
    args = masks, ratio, full, math.inf, math.inf, ()
    assert _typed(_branch_and_bound(*args)) == _typed(_search_without_floor(*args))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(candidate_sets())
def test_search_matches_the_loop_without_the_floor(instance):
    rows, n = instance
    assert_search_matches(rows, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(voxel_instances())
def test_search_matches_the_loop_without_the_floor_on_grid_balls(instance):
    space, target, m, stride, cap = instance
    family = AllGridBalls(stride)
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    rows, index, _ = generate_candidates(space, target, m, family)
    if rows:
        assert_search_matches(rows, len(index))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 40), max_size=6), min_size=1, max_size=16),
       st.data())
def test_branch_element_matches_the_fewest_candidates_minimum(lists, data):
    """`_fan_masks` and `_branch_element` against `min` over the uncovered
    elements keyed on their list lengths (lowest element on ties)."""
    fan = [len(holders) for holders in lists]
    uncovered = data.draw(st.integers(1, (1 << len(lists)) - 1))
    assert _branch_element(uncovered, _fan_masks(lists)) == \
        min(bit_indices(uncovered), key=fan.__getitem__)


# ---------------------------------------------------------------------------
# the dominance pass only where the search branches: every report against
# the pipeline that prunes dominated balls before the greedy, the bound and
# the search

_UNPRUNED = content.generate_candidates


def _pruned_first(space, target, m, family):
    """`generate_candidates` followed by the dominance pass up to 2,000
    rows, the list that every solve used to start from."""
    rows, index, make = _UNPRUNED(space, target, m, family)
    if len(rows) <= 2000:
        rows = [rows[i] for i in undominated([mask for _, _, mask in rows], len(index))]
    return rows, index, make


def _reports(space, target, m, family):
    """The greedy report and the exact reports at budgets that close some
    searches and not others, or the error the family's gap raises."""
    try:
        return [greedy_content(space, target, m, family).to_dict(),
                *(exact_content(space, target, m, family, budget).to_dict()
                  for budget in (1, 2, 5, 50))]
    except UncoverableError as err:
        return str(err)


def assert_reports_match_pruned_first(space, target, m, family):
    got = _reports(space, target, m, family)
    with mock.patch.object(content, "generate_candidates", _pruned_first):
        want = _reports(space, target, m, family)
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(max_target=16), st.sampled_from([1, 2, 3]),
       st.sampled_from(["grid", "centers-in", "fixed"]), st.data())
def test_reports_match_pruning_first_on_voxels(instance, m, kind, data):
    """All grid balls at stride 1 or 2 with or without a cap, centres in a
    set and fixed Fraction-radius families, at integer m: node counts,
    duals and witnesses included."""
    space, target, _, stride, cap = instance
    if kind == "grid":
        family = AllGridBalls(stride)
    elif kind == "centers-in":
        quarter = space.delta / 4
        coord = st.integers(-8, 40).map(lambda j: quarter * j)
        family = CentersIn(tuple(data.draw(st.lists(st.tuples(*[coord] * space.n),
                                                    min_size=1, max_size=8))))
    else:
        half = space.delta / 2
        coord = st.integers(-4, 20).map(lambda j: half * j)
        radius = st.integers(1, 8).map(lambda j: half * j)
        family = FixedFamily(tuple(data.draw(st.lists(
            st.builds(Ball, st.tuples(*[coord] * space.n), radius), min_size=1, max_size=16))))
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    assert_reports_match_pruned_first(space, target, m, family)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net_instances(), st.sampled_from([1, 2]))
def test_reports_match_pruning_first_on_nets(instance, m):
    net, target, _, cap = instance
    family = AllGridBalls()
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    assert_reports_match_pruned_first(net, target, m, family)


def test_the_dominance_pass_runs_only_where_the_search_branches():
    """Not in the greedy, not in a solve that closes at its root (the 8^3
    cube at m = 1), and once in a search that branches, whose holder lists
    the search takes from the pass instead of building its own."""
    calls = []

    def counted(masks, n_elems, prune=False):
        calls.append(prune)
        return _holders(masks, n_elems, prune)

    cube, dumbbell = make_cube(3, 8), make_dumbbell(6, 8)
    with mock.patch.object(content, "_holders", counted):
        greedy_content(cube, None, 1)
        assert exact_content(cube, None, 1).certificate["nodes"] == 1
        assert calls == []
        assert exact_content(dumbbell, None, 1, AllGridBalls(), 20).certificate["nodes"] > 1
        assert calls == [True]


# ---------------------------------------------------------------------------
# reports written from candidate keys against the report of the witness's
# built balls

REPORT_MS = [1, 2, 3, Fraction(3, 2)]


def assert_report_matches_the_witness(res, space):
    """`to_dict` (read before the witness's balls are built) equals itself
    with the witness section replaced by the report of a covering by those
    balls, the `Ball`-list path, to the byte."""
    got = res.to_dict()
    cover = res.witness
    want = {**got, "witness": Covering(cover.balls, cover.target, cover.m).to_dict()}
    assert got == want
    assert json.dumps(got, sort_keys=True, default=fmt_scalar) == \
        json.dumps(want, sort_keys=True, default=fmt_scalar)
    if isinstance(space, NetSpace) and res.certificate["kind"] != "greedy":
        deflated = 0.0
        for ball in res.witness.balls:
            deflated += max(0.0, float(ball.radius) - space.eps_net) ** float(res.m)
        assert res.value_lower == deflated


def assert_reports_match_the_witnesses(space, target, m, family):
    try:
        greedy = greedy_content(space, target, m, family)
    except UncoverableError:
        return
    assert_report_matches_the_witness(greedy, space)
    assert greedy.value_upper == greedy.witness.cost
    assert type(greedy.value_upper) is type(greedy.witness.cost)
    for budget in (1, 5, DEFAULT_NODE_BUDGET):
        assert_report_matches_the_witness(exact_content(space, target, m, family, budget), space)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(voxel_instances(max_target=10), st.sampled_from(REPORT_MS),
       st.sampled_from(["grid", "centers-in", "fixed", "fixed-float"]), st.data())
def test_reports_match_their_witnesses_on_voxels(instance, m, kind, data):
    """All grid balls at stride 1 and 2 with and without a cap, centres in
    a set, and fixed families with Fraction or float radii."""
    space, target, _, stride, cap = instance
    if kind == "grid":
        family = AllGridBalls(stride)
    elif kind == "centers-in":
        quarter = space.delta / 4
        coord = st.integers(-8, 40).map(lambda j: quarter * j)
        family = CentersIn(tuple(data.draw(st.lists(st.tuples(*[coord] * space.n),
                                                    min_size=1, max_size=8))))
    else:
        half = space.delta / 2
        coord = st.integers(-4, 20).map(lambda j: half * j)
        radius = st.integers(1, 8).map(lambda j: half * j)
        if kind == "fixed-float":
            radius = radius.map(float)
        family = FixedFamily(tuple(data.draw(st.lists(
            st.builds(Ball, st.tuples(*[coord] * space.n), radius), min_size=1, max_size=16))))
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    assert_reports_match_the_witnesses(space, target, m, family)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net_instances(), st.sampled_from(REPORT_MS), st.sampled_from([0.0, 0.25]))
def test_reports_match_their_witnesses_on_nets(instance, m, eps_net):
    """l_inf, l2, l1 and matrix nets: float radii, whose costs at
    non-integer m are summed in selection order, and net lower values
    deflated from the witness's radii."""
    net, target, _, cap = instance
    net = NetSpace(net.metric, net.points, eps_net, net.matrix)
    family = AllGridBalls()
    if cap is not None:
        family = intersect_families(family, RadiusCapped(cap))
    assert_reports_match_the_witnesses(net, target, m, family)
