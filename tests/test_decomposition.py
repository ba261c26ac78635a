import dataclasses
import hashlib
import itertools
import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcfill.cone import cone_covering
from hcfill.content import DEFAULT_NODE_BUDGET, _branch_and_bound, exact_content
from hcfill import content, decomposition
from hcfill.decomposition import (
    _CEILING_MARGIN,
    Constants,
    InequalityCheck,
    TildeContent,
    annulus_radius,
    critical_radius,
    decompose,
    fill,
    improvement_sequence,
    improvement_step,
    prune_redundant,
    vitali_select,
)
from hcfill.errors import InputError
from hcfill.exact import as_fraction, fmt_scalar, is_integral, power, root
from hcfill.shapes import (
    make_cube,
    make_dumbbell,
    make_line,
    make_ring,
    make_strip_with_bulbs,
    random_blob,
    random_subset,
    translate,
    union,
)
from hcfill.space import (
    Ball,
    Covering,
    ElementBits,
    FixedFamily,
    GridBalls,
    NetSpace,
    PointKeys,
    VoxelSpace,
    ball_members,
    grid_ball,
    linf,
)
from oracles import landing_points, members_oracle


def small_scale(m, A=3.0):
    """Override with a small scale constant (still > m) so desk-size
    fixtures decompose into several balls."""
    base = Constants.for_exponent(m)
    assert A > float(m)
    return Constants(base.m, base.filling_constant, A, base.radius_constant,
                     base.decay)


# ---------------------------------------------------------------------------
# constants

def test_constants_formulas():
    c = Constants.for_exponent(2)
    assert c.filling_constant == pytest.approx(200**2)
    assert c.ball_scale == pytest.approx((100 * 2 * 4 * 200**2) ** 0.5)
    assert c.radius_constant == pytest.approx(10 * 2 * 144 * c.ball_scale)
    assert c.decay == pytest.approx(1 - 1 / (2 * 144))


def test_constants_sanity_bounds():
    for m in (Fraction(3, 2), 2, Fraction(5, 2), 3, 5):
        c = Constants.for_exponent(m)
        assert c.ball_scale < (100 * float(m)) ** float(m)
        assert c.filling_constant > 0 and c.radius_constant > 0
        assert 0 < c.decay < 1
    # the coarse closed form (1500 m)^m for the radius constant fails at
    # small m, so it is no sanity bound
    assert not Constants.for_exponent(2).radius_constant < (1500 * 2) ** 2


def test_constants_need_m_above_one():
    with pytest.raises(InputError):
        Constants.for_exponent(1)


@pytest.mark.parametrize("m", [float("nan"), float("inf"), "3", None])
def test_constants_refuse_an_exponent_that_is_not_a_finite_number(m):
    """"3" used to be taken as 3, NaN to raise ValueError and an infinity
    OverflowError."""
    with pytest.raises(InputError, match="m must be a finite number"):
        Constants.for_exponent(m)


# ---------------------------------------------------------------------------
# density profiles and radii

# `density_profile` and `_distinct_ends` as they stood in the library, kept
# as helpers: the piecewise density r -> tildeHC(B(p, r) cap Y) / r^m at a
# point, whose content is constant between consecutive occupied distances.

def _distinct_ends(dists):
    """Each i after which the sorted distances change (or end): the cells
    within dists[i - 1] are the first i."""
    return [i for i in range(1, len(dists) + 1)
            if i == len(dists) or dists[i] != dists[i - 1]]


def _density_profile(tilde, p, m):
    """(breakpoints, density): the distinct distances from p to the cells,
    sorted, and r -> the content of the cells within r over r^m, 0 below
    the first breakpoint."""
    p = tuple(as_fraction(x) for x in p)
    unit = tilde.frame(p).unit
    _, dists, prefix = tilde.radial(p)
    ends = _distinct_ends(dists)
    breakpoints = [dists[end - 1] * unit for end in ends]
    values = [tilde.solve_mask(prefix[end], as_fraction(m))[0] for end in ends]

    def density(r):
        i = bisect_right(breakpoints, as_fraction(r))
        return float(values[i - 1]) / float(r) ** float(m) if i else 0.0
    return breakpoints, density


def _context(space, m):
    base = exact_content(space, None, m)
    tilde = prune_redundant(TildeContent(space, space.cells, sorted(base.witness.keys)))
    return base, tilde.q_balls, tilde


def test_density_profile_single_ball_cover():
    s = make_cube(2, 4, Fraction(1, 4))
    base, q, tilde = _context(s, 1)
    # one ball of radius 1/2 covers everything
    assert len(q) == 1
    p = q[0].center
    breakpoints, density = _density_profile(tilde, p, 1)
    rho = float(q[0].radius)
    tail = breakpoints[-1]
    # on the tail the density is rho / r
    r = float(tail) * 2
    assert density(r) == pytest.approx(rho / r)


def test_density_at_own_radius_is_one():
    # with an exactly optimal fixed covering, no subfamily beats a ball on
    # its own cells: lambda_q(r_q) = 1
    s = random_blob(21, 2, 9, 5)
    base, q, tilde = _context(s, 1)
    for ball in q:
        members = ball_members(ball, s)
        value = tilde.value(members, 1)
        assert value == ball.radius  # cost exponent 1


def test_density_decreases_between_breakpoints():
    s = random_blob(8, 2, 8, 5)
    base, q, tilde = _context(s, 1)
    breakpoints, density = _density_profile(tilde, q[0].center, 2)
    lo = float(breakpoints[-1])
    assert density(lo * 1.5) > density(lo * 2.0)


# The Fraction-geometry radius searches as they stood before the integer
# distance keys, kept verbatim as an oracle for the integer versions.

def _oracle_critical_radius(space, p, target, tilde, m, ball_scale):
    mq = as_fraction(m)
    p = tuple(as_fraction(x) for x in p)
    by_dist = sorted(
        (as_fraction(linf(space.cell_center(c), p)), c) for c in target
    )
    dists = []
    for d, _ in by_dist:
        if not dists or dists[-1] != d:
            dists.append(d)
    for i in range(len(dists) - 1, -1, -1):
        members = frozenset(c for d, c in by_dist if d <= dists[i])
        h = tilde.value(members, mq)
        if float(h) <= 0:
            continue
        cand = as_fraction(ball_scale * root(h, mq))
        if cand >= dists[i]:
            members_at = frozenset(c for d, c in by_dist if d <= cand)
            eta = tilde.value(members_at, mq)
            return cand, eta, members_at
    raise InputError("density never reaches the threshold at this point")


def _oracle_annulus_radius(space, p, r_crit, target, tilde, m):
    from hcfill.coarea import DistanceToPoint, best_slice, slice_profile

    mq = as_fraction(m)
    p = tuple(as_fraction(x) for x in p)
    r1 = (1 + 1 / mq) * as_fraction(r_crit)
    r2 = (1 + 1 / mq) ** 2 * as_fraction(r_crit)
    half = space.delta / 2
    annulus = frozenset(
        c for c in target
        if as_fraction(linf(space.cell_center(c), p)) + half >= r1
        and as_fraction(linf(space.cell_center(c), p)) - half <= r2
    )
    if not annulus:
        return {
            "r_bar": r1,
            "slice_cost": Fraction(0),
            "slice_cells": frozenset(),
            "annulus_cells": frozenset(),
            "annulus_value": Fraction(0),
        }
    cover = tilde.witness(annulus, mq)
    profile = slice_profile(space, annulus, DistanceToPoint(p), cover, (r1, r2))
    r_bar, slice_cost = best_slice(profile, mq)
    return {
        "r_bar": r_bar,
        "slice_cost": slice_cost,
        "slice_cells": profile.level_set(r_bar),
        "annulus_cells": annulus,
        "annulus_value": tilde.value(annulus, mq),
    }


def _oracle_level_set(tilde, p, r_crit, m, level):
    """The slice cells as `annulus_radius` found them before the integer
    sweep: per-cell value intervals [max(0, k - L), k + L] units over the
    annulus, through `SliceProfile.level_set`."""
    from hcfill.coarea import DistanceToPoint, SliceProfile

    mq = as_fraction(m)
    r1 = (1 + 1 / mq) * as_fraction(r_crit)
    r2 = (1 + 1 / mq) ** 2 * as_fraction(r_crit)
    unit = tilde.frame(p).unit
    keys, _, _ = tilde.radial(p)
    half = tilde.space.delta / 2 // unit
    annulus = [(k, c) for k, c in keys
               if math.ceil(r1 / unit - half) <= k <= math.floor(r2 / unit + half)]
    spans = {c: (max(0, k - half) * unit, (k + half) * unit) for k, c in annulus}
    cover = Covering((), frozenset(spans), mq)
    return SliceProfile(DistanceToPoint(p), cover, (), (r1, r2), spans).level_set(level)


def _same(a, b):
    """Equal in value and type, and in repr unless a cell set (whose
    iteration order follows insertion)."""
    return type(a) is type(b) and a == b and (
        isinstance(a, frozenset) or repr(a) == repr(b))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from((2, 3)),
    m=st.sampled_from((Fraction(3, 2), 2, Fraction(5, 2), 3)),
    scale=st.sampled_from((1.2, 3.0, 40.0, "paper")),
    shift=st.tuples(st.integers(-40, 40), st.integers(1, 24)),
    r_crit=st.fractions(Fraction(1, 64), 2),
)
def test_radius_searches_match_fraction_oracle(seed, n, m, scale, shift, r_crit):
    # at the paper's A(m) the top segment is accepted from the bounding box
    # and the annulus at r(p) is empty, so no radial order is built
    if scale == "paper":
        scale = Constants.for_exponent(m).ball_scale
    s = random_blob(seed, n, 12, 6, Fraction(1, 8))
    _, q, tilde = _context(s, m)
    y = frozenset(s.cells)
    off = Fraction(*shift)  # off the half-cell lattice unless 1/16 divides it
    points = [b.center for b in q] + [
        tuple(x + off for x in s.cell_center(min(y))),
        tuple(x - off / 3 for x in q[0].center),
    ]
    for p in points:
        try:
            want = _oracle_critical_radius(s, p, y, tilde, m, scale)
        except InputError:
            with pytest.raises(InputError):
                critical_radius(tilde, p, m, scale)
            want = None
        if want is not None:
            got = critical_radius(tilde, p, m, scale)
            assert len(got) == 2
            assert all(_same(a, b) for a, b in zip(got, want))
            assert _members_at(tilde, p, got[0]) == want[2]
        for r in (r_crit,) + ((want[0],) if want else ()):
            got = annulus_radius(tilde, p, r, m)
            want_ann = _oracle_annulus_radius(s, p, r, y, tilde, m)
            want_ann = tuple(want_ann[k] for k in ("r_bar", "slice_cost", "slice_cells"))
            assert len(got) == 3
            assert all(_same(a, b) for a, b in zip(got, want_ann))
            level_set = _oracle_level_set(tilde, p, r, m, got[0])
            assert got[2] == level_set and list(got[2]) == list(level_set)


def _counting_radial_sorts(monkeypatch):
    """Patch `PointKeys.keys`, the sort of the cells by distance key behind
    every radial order, with one that records the frame of each call."""
    calls = []
    real = PointKeys.keys

    def counting(frame, cells):
        calls.append(frame)
        return real(frame, cells)

    monkeypatch.setattr(PointKeys, "keys", counting)
    return calls


def test_paper_constant_decompositions_build_no_radial_order(monkeypatch):
    # at A(2) every centre's top segment is accepted and its annulus is
    # empty, so the bounding box decides both radius searches
    fixtures = [
        make_ring(16, Fraction(1, 16)),
        make_cube(2, 8, Fraction(1, 8)),
        make_dumbbell(),
        random_blob(77, 2, 40, 10, Fraction(1, 8)),
        make_cube(3, 3, Fraction(1, 4)),
        make_cube(4, 2, Fraction(1, 2)),
    ]
    calls = _counting_radial_sorts(monkeypatch)
    for s in fixtures:
        d = decompose(s, None, 2)
        assert d.balls and all(not b.slice_cells for b in d.balls)
    assert calls == []
    d = decompose(make_line(60), None, 2, constants=small_scale(2, 3.0))
    assert calls and any(b.slice_cells for b in d.balls)


def _members_at(tilde, p, r):
    """The context's cells within distance r of p, from its radial order."""
    _, dists, prefix = tilde.radial(p)
    return tilde.bits.members(prefix[bisect_right(dists, r // tilde.frame(p).unit)])


def test_critical_radius_single_ball_formula():
    s = make_cube(2, 4, Fraction(1, 4))
    base, q, tilde = _context(s, 2)
    p = q[0].center if len(q) == 1 else s.cell_center((1, 1))
    A = 7.0
    r_crit, eta = critical_radius(tilde, p, 2, A)
    # tail segment: r(p) = A * tilde(Y)^(1/2)
    expected = A * float(tilde.value(frozenset(s.cells), 2)) ** 0.5
    assert float(r_crit) == pytest.approx(expected)
    assert _members_at(tilde, p, r_crit) == frozenset(s.cells)
    assert eta == tilde.value(frozenset(s.cells), 2)


def test_critical_radius_skips_ends_above_the_ceiling():
    # at every Q centre of the A=3 line: the oracle's radius and content, and
    # once a segment end is rejected no end above its ceiling is solved
    s = make_line(60)
    m, A = 2, 3.0
    _, q, tilde = _context(s, m)
    y = frozenset(s.cells)
    solved = full = 0
    for ball in q:
        p = ball.center
        unit = tilde.frame(p).unit
        _, dists, prefix = tilde.radial(p)
        end_of = {mask: end for end, mask in enumerate(prefix)}
        ends = []
        solve_mask = tilde.solve_mask

        def counting(goal, exponent):
            ends.append(end_of[goal])
            return solve_mask(goal, exponent)

        tilde.solve_mask = counting
        try:
            got = critical_radius(tilde, p, m, A)
        finally:
            del tilde.solve_mask
        want = _oracle_critical_radius(s, p, y, tilde, m, A)
        assert len(got) == 2 and all(_same(a, b) for a, b in zip(got, want))
        assert _members_at(tilde, p, got[0]) == want[2]

        ceiling = math.inf
        for end in ends:
            assert dists[end - 1] <= ceiling
            h, _ = solve_mask(prefix[end], m)
            ceiling = min(ceiling, as_fraction(A * root(h, m) * _CEILING_MARGIN) // unit)
        # the full scan solves every end from the top down to the accepted
        # one (the solve before the content's), then the content
        accepted = ends[-2]
        full += sum(1 for end in _distinct_ends(dists) if end >= accepted) + 1
        solved += len(ends)
    assert solved < full


def test_critical_radius_above_own_radius():
    s = random_blob(31, 2, 8, 5)
    base, q, tilde = _context(s, 2)
    A = Constants.for_exponent(2).ball_scale
    for ball in q:
        r_crit, _ = critical_radius(tilde, ball.center, 2, A)
        assert r_crit > ball.radius


def test_critical_radius_unreachable_far_point():
    s = make_cube(2, 2, Fraction(1, 8))
    base, q, tilde = _context(s, 2)
    far = (Fraction(10**6), Fraction(10**6))
    with pytest.raises(InputError):
        critical_radius(tilde, far, 2, 1.5)


# ---------------------------------------------------------------------------
# vitali selection

def test_vitali_disjoint_candidates_all_selected():
    s = make_line(20, Fraction(1, 4))
    cands = [
        (s.cell_center((2, 0)), Fraction(1, 2)),
        (s.cell_center((10, 0)), Fraction(1, 2)),
        (s.cell_center((17, 0)), Fraction(1, 2)),
    ]
    picked = vitali_select(cands, ElementBits(s, [(2, 0), (10, 0), (17, 0)]))
    assert len(picked) == 3


def test_vitali_nested_keeps_largest():
    s = make_cube(2, 4, Fraction(1, 4))
    center = s.cell_center((1, 1))
    cands = [(center, Fraction(2)), (center, Fraction(1)), (center, Fraction(1, 2))]
    picked = vitali_select(cands, ElementBits(s, s.sorted_cells()))
    assert picked == [0]


def test_vitali_random_cover_verified():
    import random

    rng = random.Random(5)
    s = make_cube(2, 8, Fraction(1, 8))
    cands = []
    for _ in range(20):
        cell = rng.choice(s.sorted_cells())
        cands.append((s.cell_center(cell), Fraction(rng.randrange(4, 20), 8)))
    picked = vitali_select(cands, ElementBits(s, s.sorted_cells()))
    for ai in range(len(picked)):
        for bi in range(ai + 1, len(picked)):
            pa, ra = cands[picked[ai]]
            pb, rb = cands[picked[bi]]
            assert linf(pa, pb) > ra + rb
    for c in s.cells:
        assert any(
            linf(s.cell_center(c), cands[j][0]) <= 3 * cands[j][1]
            for j in picked
        )


def test_vitali_uncoverable_rejected():
    s = make_line(30, Fraction(1, 4))
    cands = [(s.cell_center((0, 0)), Fraction(1, 8))]
    with pytest.raises(InputError):
        vitali_select(cands, ElementBits(s, s.sorted_cells()))


def oracle_vitali_select(candidates, bits: ElementBits):
    """Greedy disjoint selection by decreasing radius; verifies exactly that
    the selected balls are pairwise disjoint and their tripled concentric
    balls cover every cell listed in the voxel `bits`: the union of their
    box masks is `bits.full`."""
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-as_fraction(candidates[i][1]), candidates[i][0]),
    )
    selected: list[int] = []
    for i in order:
        p_i, r_i = candidates[i]
        ok = True
        for j in selected:
            p_j, r_j = candidates[j]
            if as_fraction(linf(p_i, p_j)) <= as_fraction(r_i) + as_fraction(r_j):
                ok = False
                break
        if ok:
            selected.append(i)
    covered = 0
    for j in selected:
        p, r = candidates[j]
        covered |= bits.ball(Ball(p, 3 * as_fraction(r)))
    if covered != bits.full:
        raise InputError("candidate balls do not cover the target even tripled")
    return selected


@st.composite
def vitali_cases(draw):
    """Listed cells of a small voxel box (occupied or not) and candidate
    balls with mixed-denominator centres and radii, some at cell centres,
    some repeated, some just touching; the tripled balls may or may not
    cover the list."""
    n = draw(st.integers(1, 3))
    delta = draw(st.sampled_from((Fraction(1), Fraction(1, 4), Fraction(2, 3))))
    side = draw(st.integers(1, 5))
    cells = sorted(itertools.product(range(side), repeat=n))
    occupied = draw(st.sets(st.sampled_from(cells), min_size=1))
    space = VoxelSpace(n, delta, frozenset(occupied))
    listed = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    coord = st.builds(Fraction, st.integers(-2, 2 * side), st.sampled_from((1, 2, 3, 7)))
    centre = st.one_of(st.tuples(*[coord] * n), st.sampled_from(cells).map(space.cell_center))
    radius = st.builds(Fraction, st.integers(1, 6), st.sampled_from((2, 3, 4, 5)))
    cands = draw(st.lists(st.tuples(centre, radius), max_size=8))
    if cands and draw(st.booleans()):
        cands.append(cands[draw(st.integers(0, len(cands) - 1))])
    return cands, ElementBits(space, listed)


def _vitali_outcome(fn, cands, bits):
    try:
        return ("ok", fn(cands, bits))
    except InputError as exc:
        return ("InputError", str(exc))


_ROW = VoxelSpace(1, Fraction(1), frozenset({(0,), (1,), (2,)}))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(vitali_cases())
@example(([((Fraction(3, 2),), Fraction(1, 3))], ElementBits(_ROW, [(0,), (1,), (2,)])))
@example(([((Fraction(1, 2),), Fraction(1, 3))], ElementBits(_ROW, [(0,), (1,)])))
@example(([((Fraction(1, 2),), Fraction(1)), ((Fraction(5, 2), Fraction(0)), Fraction(1, 3))],
          ElementBits(_ROW, [(0,)])))
@example(([((Fraction(1, 2), Fraction(0)), Fraction(1))], ElementBits(_ROW, [(0,)])))
def test_vitali_select_matches_the_fraction_oracle(case):
    # the examples: tripled balls whose spheres pass through the outer cell
    # centres, centres of two dimensions, and centres of the wrong dimension
    cands, bits = case
    assert _vitali_outcome(vitali_select, cands, bits) == \
        _vitali_outcome(oracle_vitali_select, cands, bits)


# ---------------------------------------------------------------------------
# decompositions

def test_single_cell_decomposition():
    s = make_cube(2, 1, Fraction(1, 8))
    d = decompose(s, None, 2)
    assert len(d.balls) == 1
    assert d.alpha == pytest.approx(1.0)
    assert d.ok()


def test_square_decomposition_trivial_alpha():
    s = make_cube(2, 8, Fraction(1, 8))
    d = decompose(s, None, 2)
    assert 1 / 12 < d.alpha <= 1 + 1e-9
    assert d.ok()
    assert max(float(b.radius) for b in d.balls) <= \
        (1.5**2) * d.constants.ball_scale * float(d.base_content) ** 0.5 + d.eps


def test_theta_within_annulus_window():
    s = make_line(60, Fraction(1, 8))
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    assert len(d.balls) >= 2  # the small scale constant forces locality
    for b in d.balls:
        assert 1.5 - 1e-9 <= b.theta <= 2.25 + 1e-9


def test_multi_ball_alpha_nontrivial():
    s = make_line(60, Fraction(1, 8))
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    assert 1 / 12 < d.alpha < 1.0
    assert d.ok()
    names = {c.name for c in d.checks}
    assert {"max_ball_radius", "content_drop", "weighted_slice_sum",
            "slice_sum", "weighted_ball_content_sum"} <= names
    # the coarea selection bound is certified per ball with occupied slices
    assert any(c.name.startswith("coarea_slice_") for c in d.checks)


def test_two_components_selected_separately():
    two = union(make_cube(2, 4, Fraction(1, 8)),
                translate(make_cube(2, 4, Fraction(1, 8)), (40, 0)))
    d = decompose(two, None, 2, eps=1e-3, constants=small_scale(2))
    assert len(d.balls) == 2
    assert d.alpha == pytest.approx(1.0)
    core = sum(float(b.core_content) for b in d.balls)
    assert core <= float(d.tilde_total) + 1e-12


def test_decompose_mixed_exponents(small_blobs):
    for s in small_blobs[:3]:
        for m in (2, Fraction(5, 2), 3):
            d = decompose(s, None, m)
            assert d.ok()
            assert 1 / 12 < d.alpha <= 1 + 1e-9


# ---------------------------------------------------------------------------
# content relative to a fixed covering, against the standalone search it
# replaced: member masks from the membership oracle (the listed cells whose
# centres a ball holds, occupied or not), no lower bound, Fraction or float
# costs

def oracle_tilde_solve(space, cells, q_balls, subset, exponent):
    index = {c: i for i, c in enumerate(sorted(cells))}
    masks = []
    for ball in q_balls:
        mask = 0
        for c in members_oracle(ball, space, cells):
            mask |= 1 << index[c]
        masks.append(mask)
    exponent = as_fraction(exponent)
    goal = 0
    for c in subset:
        goal |= 1 << index[c]
    if goal == 0:
        return (Fraction(0) if is_integral(exponent) else 0.0, ())
    costs = [power(b.radius, exponent) for b in q_balls]
    usable = [
        (costs[i], i, masks[i] & goal)
        for i in range(len(q_balls))
        if masks[i] & goal
    ]
    usable.sort(key=lambda t: (t[0], t[1]))
    covered_all = 0
    for _, _, mask in usable:
        covered_all |= mask
    if covered_all != goal:
        raise InputError("fixed covering cannot cover the requested subset")

    covers = {}
    mask_left = goal
    while mask_left:
        low = mask_left & -mask_left
        covers[low] = [t for t in usable if t[2] & low]
        mask_left ^= low

    best_cost = None
    best_sel = None
    memo = {}
    stack = [(0, Fraction(0) if is_integral(exponent) else 0.0, ())]
    while stack:
        covered, cost, sel = stack.pop()
        if best_cost is not None and cost >= best_cost:
            continue
        if covered & goal == goal:
            best_cost, best_sel = cost, sel
            continue
        seen = memo.get(covered)
        if seen is not None and seen <= cost:
            continue
        memo[covered] = cost
        un = goal & ~covered
        pick = None
        pick_n = None
        mask = un
        while mask:
            low = mask & -mask
            n = len(covers[low]) if low in covers else 0
            if pick_n is None or n < pick_n:
                pick, pick_n = low, n
            mask ^= low
        for c, i, bmask in reversed(covers[pick]):
            stack.append((covered | bmask, cost + c, sel + (i,)))
    return best_cost, best_sel


def _grid_key(anchor, k):
    """The `GridBalls` key of `grid_ball(space, anchor, k)`."""
    return tuple(2 * a + k for a in anchor) + (k,)


EXACT_EXPONENTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)]
FLOAT_EXPONENTS = [Fraction(3, 2), Fraction(1, 2)]
TILDE_BOX = {1: 10, 2: 4, 3: 3}


@st.composite
def tilde_instances(draw, coverable=False):
    """A voxel blob of at most 10 cells, a target that may hold unoccupied
    cells, the keys of overlapping grid balls (all unit balls added,
    pruned, or neither), a subset of the target and an exponent.  With
    `coverable` the balls hold a target cell (the first of overlapping balls
    alone is anchored on one), and the subset is a non-empty set of the
    target cells they hold."""
    n = draw(st.integers(1, 3))
    box = TILDE_BOX[n]
    coords = list(itertools.product(range(box), repeat=n))
    cells = draw(st.sets(st.sampled_from(coords), min_size=1, max_size=10))
    space = VoxelSpace(n, Fraction(1, 8), frozenset(cells))
    target = cells | draw(st.sets(st.sampled_from(coords), max_size=1))
    anchor = st.tuples(*[st.integers(-2, box - 1)] * n)
    specs = draw(st.lists(st.tuples(anchor, st.integers(1, 3)), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["overlapping", "with_units", "pruned"]))
    if coverable and kind == "overlapping":  # the first ball holds a target cell
        specs[0] = (draw(st.sampled_from(sorted(target))), specs[0][1])
    keys = [_grid_key(a, k) for a, k in specs]
    if kind != "overlapping":
        keys += [_grid_key(c, 1) for c in sorted(cells)]
    if kind == "pruned":
        keys = list(prune_redundant(TildeContent(space, target, sorted(keys))).keys)
    held = sorted(target)
    if coverable:
        tilde = TildeContent(space, target, keys)
        held = sorted(tilde.bits.members(tilde._union))
    subset = draw(st.sets(st.sampled_from(held), min_size=int(coverable)))
    exponent = draw(st.sampled_from(EXACT_EXPONENTS + FLOAT_EXPONENTS))
    return space, target, keys, subset, exponent


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tilde_instances())
def test_tilde_solve_matches_standalone_search(instance):
    space, target, keys, subset, exponent = instance
    make = GridBalls(space.delta)
    try:
        want = oracle_tilde_solve(space, target, list(map(make, keys)), subset, exponent)
    except InputError:
        with pytest.raises(InputError):
            TildeContent(space, target, keys).solve(subset, exponent)
        return
    got = TildeContent(space, target, keys).solve(subset, exponent)
    if exponent in EXACT_EXPONENTS:
        assert got == want
        assert type(got[0]) is type(want[0])
    else:
        assert math.isclose(got[0], want[0], rel_tol=1e-12)


def _solve_or_refusal(tilde, subset, exponent):
    try:
        return tilde.solve(subset, exponent)
    except InputError:
        return "uncoverable"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=tilde_instances(), data=st.data(),
       m=st.sampled_from((Fraction(2), Fraction(3), Fraction(5, 2), Fraction(3, 2))))
def test_one_context_across_exponents_matches_fresh_contexts(instance, data, m):
    # each exponent is priced once per context: solving at m, then m - 1,
    # then m again on one context answers as a fresh context does each time
    space, target, keys, _, _ = instance
    shared = TildeContent(space, target, keys)
    subsets = st.sets(st.sampled_from(sorted(target)))
    for exponent in (m, m - 1, m, m - 1):
        subset = data.draw(subsets)
        got = _solve_or_refusal(shared, subset, exponent)
        want = _solve_or_refusal(TildeContent(space, target, keys), subset, exponent)
        assert got == want
        assert type(got[0]) is type(want[0])


def _unreduced_solve(tilde, goal, exponent):
    """A relative solve without the forced-ball reduction: the search over
    every Q ball meeting the goal, from the empty root."""
    order, masks, ratio, _, _ = tilde._pricing(as_fraction(exponent))
    usable = [pos for pos, mask in enumerate(masks) if mask & goal]
    units, sel, _, _ = _branch_and_bound([masks[pos] & goal for pos in usable],
                                         ratio.restricted(usable), goal, math.inf, math.inf, ())
    return ratio.scalar(units), tuple(order[usable[k]] for k in sel)


def _bits(value):
    """A value with its type, a float by its bits."""
    return type(value), value.hex() if isinstance(value, float) else value


_LINE10 = VoxelSpace(1, Fraction(1, 8), frozenset((i,) for i in range(10)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(instance=tilde_instances(coverable=True), shadowed=st.booleans())
# three forced balls of sides 3, 5 and 2 along a line: at m = 3/2 their
# costs summed in that order differ in the last bit from the sorted and the
# reversed sums
@example(instance=(_LINE10, _LINE10.cells, [_grid_key((0,), 3), _grid_key((3,), 5),
                                            _grid_key((8,), 2)], _LINE10.cells, None),
         shadowed=False)
def test_forced_balls_answer_as_the_unreduced_search(instance, shadowed):
    """Taking the forced Q balls first, and searching only the cells they
    leave, gives the same value, float bits, type and key order as the
    search over every meeting ball at every exponent.  `shadowed` adds a
    copy of one ball, so that the cells only it held are forced no more and
    the search runs on from a partial forced cover."""
    space, target, keys, subset, _ = instance
    if shadowed:
        keys = keys + keys[:1]
    tilde = TildeContent(space, target, keys)
    goal = tilde.subset_mask(subset)
    if not goal or goal & ~tilde._union:
        return
    for exponent in EXACT_EXPONENTS + FLOAT_EXPONENTS:
        cost, sel = tilde.solve_mask(goal, exponent)
        want_cost, want_sel = _unreduced_solve(tilde, goal, exponent)
        assert (_bits(cost), sel) == (_bits(want_cost), want_sel)


@pytest.mark.parametrize("exponent", [2, Fraction(5, 2)], ids=str)
def test_tilde_solve_covers_unoccupied_target_cells_as_exact_content_does(exponent):
    """Q balls hold the listed cells whose centres they hold, occupied or
    not: on the line of 6 cells with the unoccupied (7, 0) in the target,
    the relative content is the fixed-family content of Q.  Only occupied
    cells used to count, and the solve raised 'cannot cover'."""
    s = make_line(6, Fraction(1, 8))
    target = s.cells | {(7, 0)}
    keys = [_grid_key((0, 0), 2), _grid_key((1, 0), 3), _grid_key((4, 0), 2),
            _grid_key((4, 0), 4), _grid_key((7, 0), 1)]
    tilde = TildeContent(s, target, keys)
    want = exact_content(s, target, exponent, FixedFamily(tilde.q_balls)).value
    assert tilde.solve(target, exponent)[0] == want


def test_tilde_solve_empty_and_uncoverable_subsets():
    s = make_line(6, Fraction(1, 8))
    cells = sorted(s.cells)
    tilde = TildeContent(s, s.cells, [_grid_key(cells[0], 2)])
    assert tilde.solve(frozenset(), 2) == (Fraction(0), ())
    assert tilde.solve(frozenset(), Fraction(3, 2)) == (0.0, ())
    assert tilde.solve(frozenset(cells[:2]), 2) == (Fraction(1, 64), (0,))
    with pytest.raises(InputError):
        tilde.solve(frozenset(cells[:3]), 2)
    # a key without one centre coordinate per axis and a side
    for key in (_grid_key(cells[0], 2)[1:], _grid_key(cells[0] + (0,), 2)):
        with pytest.raises(InputError, match="dimension"):
            TildeContent(s, s.cells, [_grid_key(cells[1], 1), key])


def test_prune_redundant_drops_contained_ball():
    s = make_cube(2, 4, Fraction(1, 4))
    big = _grid_key((0, 0), 4)
    small = _grid_key((1, 1), 1)
    tilde = TildeContent(s, s.cells, sorted((big, small)))
    kept = prune_redundant(tilde)
    assert kept.keys == (big,) and kept.q_balls == (grid_ball(s, (0, 0), 4),)
    assert kept.cells == tilde.cells and kept.masks == [tilde.bits.full]
    assert prune_redundant(kept) is kept


# `prune_redundant` as it stood before it ran on the context's masks, kept
# verbatim as an oracle: a Ball-keyed mask table over its own ElementBits.

def _oracle_prune_redundant(space, balls, target):
    active = sorted(balls, key=lambda b: (-as_fraction(b.radius), b.center))
    bits = ElementBits(space, sorted(target))
    masks = {b: bits.ball(b) for b in active}
    changed = True
    while changed:
        changed = False
        for b in active:
            rest = 0
            for other in active:
                if other is not b:
                    rest |= masks[other]
            if masks[b] & ~rest == 0:
                active.remove(b)
                changed = True
                break
    return tuple(sorted(active))


@st.composite
def _prune_families(draw):
    """A voxel blob of at most 10 cells, a target that may hold unoccupied
    cells, and the keys of overlapping grid balls with nested balls,
    value-equal duplicates and unit balls on the cells mixed in."""
    n = draw(st.integers(1, 3))
    box = TILDE_BOX[n]
    coords = list(itertools.product(range(box), repeat=n))
    cells = draw(st.sets(st.sampled_from(coords), min_size=1, max_size=10))
    space = VoxelSpace(n, Fraction(1, 8), frozenset(cells))
    target = cells | draw(st.sets(st.sampled_from(coords), max_size=1))
    anchor = st.tuples(*[st.integers(-2, box - 1)] * n)
    specs = draw(st.lists(st.tuples(anchor, st.integers(1, 4)), min_size=1, max_size=8))
    keys = [_grid_key(a, k) for a, k in specs]
    for a, k in draw(st.lists(st.sampled_from(specs), max_size=3)):
        if k > 1:  # a ball nested in one of the family's
            keys.append(_grid_key(tuple(x + 1 for x in a), k - 1))
    keys += draw(st.lists(st.sampled_from(keys), max_size=3))
    if draw(st.booleans()):
        keys += [_grid_key(c, 1) for c in sorted(cells)]
    return space, target, keys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_prune_families())
def test_prune_redundant_matches_the_ball_keyed_oracle(family):
    space, target, keys = family
    # the oracle's balls are distinct objects, value-equal duplicates too
    want = _oracle_prune_redundant(space, list(map(GridBalls(space.delta), keys)),
                                   frozenset(target))
    tilde = TildeContent(space, target, sorted(keys))
    got = prune_redundant(tilde)
    assert got.q_balls == want
    assert got.cells == tilde.cells
    if len(want) == len(keys):
        assert got is tilde
    else:
        assert got is not tilde
        assert got.masks == [ElementBits(space, sorted(target)).ball(b) for b in want]


# ---------------------------------------------------------------------------
# improvement machinery

def test_single_cell_step_is_stationary():
    s = make_cube(2, 1, Fraction(1, 8))
    st = improvement_step(s, None, 2)
    assert st.content_after == 0  # coned to its own apex
    assert st.max_displacement == 0
    assert st.ok()


def test_step_decay_and_displacement_16x16():
    s = make_cube(2, 16, Fraction(1, 16))
    st = improvement_step(s, None, 2)
    assert float(st.content_after) <= st.decomposition.constants.decay \
        * float(st.content_before) + st.eps
    hc = float(st.content_before)
    assert st.max_displacement <= 3 * st.decomposition.constants.ball_scale \
        * hc**0.5 + st.eps


@pytest.mark.parametrize("space", [make_line(60), make_ring(16)])
def test_step_displacement_matches_the_float_distance_scan(space):
    # the step's displacement, from its integer landing keys, is the largest
    # float l_inf distance from a removed cell's centre to where it lands
    st = improvement_step(space, None, 2, constants=small_scale(2, 3.0))
    want = 0.0
    for c, landing in landing_points(space, st.landing).items():
        want = max(want, float(linf(space.cell_center(c), landing)))
    assert want > 0
    assert _same(st.max_displacement, want)


def test_step_with_real_slices():
    s = make_line(60, Fraction(1, 8))
    st = improvement_step(s, None, 2, eps=1e-2, constants=small_scale(2))
    assert st.ok()
    assert st.new_cells  # slice footprints survive
    assert st.cone_certificates
    for cert in st.cone_certificates:
        assert float(cert.cost) <= float(cert.bound) + 1e-9
    # each landing is no farther than the apex of its ball, so it stays
    # within twice the ball radius of some selected center
    for cell, landing in landing_points(s, st.landing).items():
        assert any(
            linf(landing, b.center) <= 2 * b.radius
            for b in st.decomposition.balls
        )


def test_sequence_one_step_matches_single():
    s = make_cube(2, 8, Fraction(1, 8))
    seq = improvement_sequence(s, None, 2, max_steps=1)
    st = improvement_step(s, None, 2, eps=seq.steps[0].eps)
    assert seq.steps[0].content_after == st.content_after
    assert seq.contents[0] == st.content_before


def test_sequence_decay_and_displacement():
    s = make_cube(2, 8, Fraction(1, 8))
    seq = improvement_sequence(s, None, 2, max_steps=5)
    assert seq.ok()
    c = seq.steps[0].decomposition.constants
    hc = float(seq.initial_content)
    for k in range(1, len(seq.contents)):
        assert float(seq.contents[k]) <= c.decay**k * hc + seq.eps
    assert seq.max_total_displacement <= c.radius_constant * hc**0.5 + seq.eps


def test_sequence_eps_schedule():
    s = make_cube(2, 4, Fraction(1, 8))
    seq = improvement_sequence(s, None, 2, eps=0.1, max_steps=2)
    c = seq.steps[0].decomposition.constants
    expected = 0.1 / (3 * 2 * 100 * c.ball_scale * 2)
    assert seq.steps[0].eps == pytest.approx(expected)


def test_sequence_on_multiball_path():
    s = make_line(40, Fraction(1, 8))
    seq = improvement_sequence(s, None, 2, eps=1e-2, max_steps=4,
                               constants=small_scale(2))
    assert seq.ok()
    assert len(seq.steps) >= 1
    # contents decrease monotonically to the stop threshold
    floats = [float(c) for c in seq.contents]
    assert all(b <= a + 1e-12 for a, b in zip(floats, floats[1:]))


# The two-state carrier tracking as it stood before each carrier became one
# position, kept verbatim as an oracle: a carrier is ("cell", c) while it sits
# at the centre of a current cell c and ("point", p) once it lands elsewhere.

def _oracle_carriers(space, y, steps):
    carriers = {c: ("cell", c) for c in y}
    for step in steps:
        theta = landing_points(space, step.landing)
        for orig, state in list(carriers.items()):
            kind, value = state
            if kind != "cell":
                continue
            cell = value
            if cell in theta:
                landing = theta[cell]
                landed_cell = tuple(math.floor(x / space.delta) for x in landing)
                if landed_cell in step.new_cells and \
                        space.cell_center(landed_cell) == landing:
                    carriers[orig] = ("cell", landed_cell)
                else:
                    carriers[orig] = ("point", landing)
            # survivors keep their cell

    final_pos = {}
    max_disp = 0.0
    for orig, (kind, v) in carriers.items():
        pos = space.cell_center(v) if kind == "cell" else v
        final_pos[orig] = pos
        max_disp = max(max_disp, float(linf(space.cell_center(orig), pos)))
    return final_pos, max_disp


def _line_subset(seed):
    line = make_line(80)
    return VoxelSpace(2, line.delta, random_subset(line, seed, 0.8))


@pytest.mark.parametrize("space, m, A, steps", [
    pytest.param(make_line(60), 2, 2.6, 2, id="line60-A2.6"),
    pytest.param(make_line(60), 2, 3.0, 2, id="line60-A3"),
    pytest.param(make_ring(16), Fraction(5, 2), 3.0, 3, id="ring16"),
    pytest.param(make_strip_with_bulbs(), Fraction(5, 2), 3.0, 2, id="bulbs"),
    pytest.param(_line_subset(1), 2, 2.6, 2, id="line-subset-1"),
    pytest.param(_line_subset(4), 2, 3.0, 2, id="line-subset-4"),
    pytest.param(random_blob(1, 2, 40, 10), Fraction(3, 2), 2.0, 1, id="blob-1"),
    pytest.param(random_blob(4, 2, 40, 10), 2, 2.6, 1, id="blob-4"),
])
def test_sequence_carriers_match_two_state_oracle(space, m, A, steps):
    seq = improvement_sequence(space, None, m, constants=small_scale(m, A))
    assert len(seq.steps) == steps
    final_pos, max_disp = _oracle_carriers(space, frozenset(space.cells), seq.steps)
    assert landing_points(space, seq.landing) == final_pos
    assert seq.max_total_displacement == max_disp


# The step maps as they were computed before every point became the
# half-cell integers h of delta/2 * h, kept as an oracle: Fraction centres,
# `linf` distances, and each cone built from its input balls.

def _oracle_step_maps(space, step, mq):
    """(theta, max displacement, cone reaches, cone certificates) of a step,
    from its decomposition and fresh solves of its slices and interiors."""
    theta, disp, reaches, certs = {}, 0.0, [], []
    make = GridBalls(space.delta)
    for b in step.decomposition.balls:
        fill_keys, fill_cells = (), set()
        if b.slice_cells:
            fill_keys = exact_content(space, b.slice_cells, mq - 1,
                                      node_budget=DEFAULT_NODE_BUDGET).witness.keys
            for key in fill_keys:
                fill_cells.update(itertools.product(
                    *(range(lo, hi + 1) for lo, hi in GridBalls.ranges(key))))
        fills = [space.cell_center(f) for f in sorted(fill_cells)]
        moved = Fraction(0)
        for c in sorted(b.cells):
            x = space.cell_center(c)
            if c in fill_cells:
                theta[c] = x
                continue
            d, theta[c] = min([(linf(x, b.center), b.center)]
                              + [(linf(x, f), f) for f in fills])
            moved = max(moved, d)
        disp = max(disp, float(moved))
        interior = exact_content(space, b.cells, mq, node_budget=DEFAULT_NODE_BUDGET).witness
        balls = [make(key) for key in fill_keys + interior.keys]
        reach = max([b.radius] + [linf(z.center, b.center) + z.radius for z in balls])
        reaches.append(reach)
        certs.append(cone_covering(Covering(balls, frozenset(), mq), b.center, reach,
                                   mq + 1, "improved"))
    return theta, disp, reaches, tuple(certs)


@st.composite
def _thin_blobs(draw):
    """A 1-D random blob, or a 2-D strip one or two cells wide with random
    holes: long shapes, whose small-scale balls leave non-empty slices."""
    if draw(st.booleans()):
        return random_blob(draw(st.integers(0, 10**6)), 1, draw(st.integers(12, 30)), 60)
    length, width = draw(st.integers(20, 40)), draw(st.integers(1, 2))
    holes = draw(st.sets(st.tuples(st.integers(0, length - 1), st.integers(0, width - 1)),
                         max_size=length * width // 3))
    cells = {(x, y) for x in range(length) for y in range(width)} - holes
    return VoxelSpace(2, Fraction(1, 8), frozenset(cells))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_thin_blobs(), st.sampled_from([2, Fraction(5, 2)]), st.sampled_from([2.6, 3.0]))
def test_integer_step_maps_match_the_fraction_oracle(space, m, A):
    """theta, the displacements, the cones' reach, every cone certificate
    (fields, integer frame and balls) and the carriers, computed on half-cell
    integers, equal the Fraction computation with the cones' balls built."""
    seq = improvement_sequence(space, None, m, max_steps=2, constants=small_scale(m, A))
    assume(any(b.slice_cells for step in seq.steps for b in step.decomposition.balls))
    for step in seq.steps:
        theta, disp, reaches, certs = _oracle_step_maps(space, step, Fraction(m))
        assert landing_points(space, step.landing) == theta
        assert step.max_displacement == disp
        assert [c.ambient_radius for c in step.cone_certificates] == reaches
        assert step.cone_certificates == certs
        for got, want in zip(step.cone_certificates, certs):
            assert (type(got.cost), type(got.bound)) == (type(want.cost), type(want.bound))
            assert got.balls == want.balls
    final_pos, max_disp = _oracle_carriers(space, frozenset(space.cells), seq.steps)
    assert landing_points(space, seq.landing) == final_pos
    assert seq.max_total_displacement == max_disp


# ---------------------------------------------------------------------------
# pipeline arguments: refused with InputError before any solve

_PIPELINE = {"decompose": decompose, "improvement_step": improvement_step,
             "improvement_sequence": improvement_sequence, "fill": fill}


def _refused_before_any_solve(monkeypatch, call, match):
    solves = []
    monkeypatch.setattr(decomposition, "exact_content", lambda *args, **kw: solves.append(args))
    with pytest.raises(InputError, match=match):
        call()
    assert solves == []


@pytest.mark.parametrize("name", list(_PIPELINE))
@pytest.mark.parametrize("eps", [-1, -1e-300, float("nan"), float("inf"), float("-inf"),
                                 10**400, Fraction(10**400, 3), "0.1", True])
def test_pipeline_refuses_a_bad_eps(monkeypatch, name, eps):
    """A negative, NaN or infinite eps, or one beyond the float range, used
    to fail a check falsely, pass every check, or raise OverflowError."""
    space = make_cube(2, 4, Fraction(1, 8))
    _refused_before_any_solve(monkeypatch, lambda: _PIPELINE[name](space, None, 2, eps),
                              "eps (must be|is beyond)")


@pytest.mark.parametrize("name", list(_PIPELINE))
@pytest.mark.parametrize("m", [float("nan"), float("inf"), "3", True, None, 1, Fraction(1, 2)])
def test_pipeline_refuses_a_bad_exponent(monkeypatch, name, m):
    space = make_cube(2, 4, Fraction(1, 8))
    _refused_before_any_solve(monkeypatch, lambda: _PIPELINE[name](space, None, m),
                              "m must be a finite number|needs m > 1")


@pytest.mark.parametrize("name", ["improvement_sequence", "fill"])
@pytest.mark.parametrize("max_steps", [-1, True, 2.5, "2", None])
def test_pipeline_refuses_a_bad_step_count(monkeypatch, name, max_steps):
    space = make_cube(2, 4, Fraction(1, 8))
    _refused_before_any_solve(
        monkeypatch, lambda: _PIPELINE[name](space, None, 2, None, max_steps),
        "max_steps must be a non-negative int")


@pytest.mark.parametrize("candidates", [-1, True, 2.5, None])
def test_fill_refuses_a_bad_pushout_candidate_count(monkeypatch, candidates):
    """-1 used to pass whenever no residue reached the pushout."""
    space = make_cube(2, 4, Fraction(1, 8))
    _refused_before_any_solve(
        monkeypatch, lambda: fill(space, None, 2, pushout_candidates=candidates),
        "pushout_candidates must be a non-negative int")


def test_pipeline_takes_eps_as_its_float_and_no_steps_as_a_pushout_fill():
    space = make_cube(2, 4, Fraction(1, 8))
    assert decompose(space, None, 2, Fraction(1, 1000)).eps == 0.001
    assert decompose(space, None, 2, 0).eps == 0.0
    cert = fill(space, None, 2, None, 0)
    assert cert.sequence.steps == () and cert.pushout_trace is not None
    assert cert.ok()


# ---------------------------------------------------------------------------
# the filling pipeline

def test_fill_single_cell():
    s = make_cube(2, 1, Fraction(1, 8))
    cert = fill(s, None, 2)
    assert cert.ok()
    assert cert.trace_total >= 0


def test_fill_ring_within_bounds():
    s = make_ring(16, Fraction(1, 16))
    cert = fill(s, None, 2)
    assert cert.ok()
    hc = float(cert.base_content)
    i1_next = Constants.for_exponent(3).filling_constant
    assert cert.trace_total <= i1_next * hc**1.5 + cert.sequence.eps
    i2 = cert.constants.radius_constant
    assert cert.filling_radius <= i2 * hc**0.5 + cert.sequence.eps
    measured = cert.to_dict()["measured"]
    assert measured["trace_over_content_power"] < i1_next
    assert measured["radius_over_content_root"] < i2


def test_fill_emits_step_rows():
    s = make_cube(2, 4, Fraction(1, 8))
    cert = fill(s, None, 2)
    assert cert.step_rows[0][0] == 0
    assert float(cert.step_rows[0][1]) == float(cert.base_content)


def test_fill_multiball_with_pushout_residue():
    s = make_line(40, Fraction(1, 8))
    cert = fill(s, None, 2, eps=1e-2, max_steps=1, constants=small_scale(2))
    assert cert.ok()
    # stopping after one step leaves residue for the skeleton descent
    assert cert.sequence.final_cells
    assert cert.pushout_trace is not None
    assert cert.pushout_trace.checks["final_in_skeleton"]
    assert float(cert.pushout_trace.trace_content) > 0
    assert cert.trace_total >= float(cert.pushout_trace.trace_content)


def test_fill_requires_m_above_one():
    s = make_cube(2, 2, Fraction(1, 4))
    with pytest.raises(InputError):
        fill(s, None, 1)


def test_density_explodes_at_small_radius():
    s = random_blob(41, 2, 8, 5)
    base, q, tilde = _context(s, 2)
    cell = s.sorted_cells()[0]
    p = s.cell_center(cell)
    breakpoints, density = _density_profile(tilde, p, 2)
    assert breakpoints[0] == 0  # p is an occupied center
    small, smaller = 1e-3, 1e-4
    assert density(smaller) > density(small) > 0


def test_independent_reverification():
    from hcfill.decomposition import verify_decomposition

    s = make_line(60, Fraction(1, 8))
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    rep = verify_decomposition(s, s.cells, d)
    assert rep["ok"]
    assert rep["disjoint"] and rep["tripled_cover"]
    assert rep["tilde_total_matches"] and rep["alpha_matches"]

    # a repeated ball meets its copy, first in the list or last
    for balls in (d.balls[:1] + d.balls, d.balls + d.balls[-1:]):
        rep = verify_decomposition(s, s.cells, dataclasses.replace(d, balls=balls))
        assert rep["disjoint"] is False and not rep["ok"]

    trivial = decompose(make_cube(2, 4, Fraction(1, 8)), None, 2)
    rep = verify_decomposition(make_cube(2, 4, Fraction(1, 8)),
                               make_cube(2, 4, Fraction(1, 8)).cells, trivial)
    assert rep["ok"]


def test_verification_rederives_each_slice():
    from hcfill.decomposition import verify_decomposition

    s = make_line(60, Fraction(1, 8))
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    assert verify_decomposition(s, s.cells, d)["slices_match"]
    j = next(i for i, b in enumerate(d.balls) if b.slice_cells)
    b = d.balls[j]
    dropped = dataclasses.replace(b, slice_cells=b.slice_cells - {min(b.slice_cells)})
    raised = dataclasses.replace(b, slice_cost_majorant=b.slice_cost_majorant * 2)
    for changed in (dropped, raised):
        balls = d.balls[:j] + (changed,) + d.balls[j + 1:]
        rep = verify_decomposition(s, s.cells, dataclasses.replace(d, balls=balls))
        assert rep["slices_match"] is False and rep["ok"] is False
    # a larger majorant passes every inequality; only the re-derivation sees it
    assert rep["checks_ok"]


def test_step_builds_one_context_and_no_slice_profile(monkeypatch):
    from hcfill import coarea
    from hcfill.decomposition import verify_decomposition

    contexts, profiles, pricings = [], [], Counter()
    real_bits, real_profile = decomposition.ElementBits, coarea.SliceProfile
    real_ratio = decomposition._RatioBound

    def counting_bits(space, elements):
        contexts.append(len(elements))
        return real_bits(space, elements)

    def counting_profile(*args, **kwargs):
        profiles.append(args[1])
        return real_profile(*args, **kwargs)

    def counting_ratio(costs, masks):
        pricings[tuple(costs)] += 1
        return real_ratio(costs, masks)

    monkeypatch.setattr(decomposition, "ElementBits", counting_bits)
    monkeypatch.setattr(coarea, "SliceProfile", counting_profile)
    monkeypatch.setattr(decomposition, "_RatioBound", counting_ratio)
    s = make_line(60)
    step = improvement_step(s, None, 2, constants=small_scale(2, 3.0))
    assert contexts == [len(s.cells)]
    assert profiles == []
    # the one context's Q priced at m = 2 and at m - 1 = 1, once each (the
    # costs tell the two exponents apart)
    assert len(pricings) == 2 and set(pricings.values()) == {1}
    d = step.decomposition
    assert len(d.balls) > 1 and any(b.slice_cells for b in d.balls)
    assert verify_decomposition(s, s.cells, d)["ok"]
    assert len(profiles) == len(d.balls)


def test_inequality_check_le():
    assert InequalityCheck.le("a", 1.0, 1.0).ok
    assert not InequalityCheck.le("a", 1.0 + 1e-13, 1.0).ok
    assert InequalityCheck.le("a", 1.0 + 1e-13, 1.0, 1e-12).ok
    check = InequalityCheck.le("b", 2.0, 1.0, 5.0, note="n", advisory=True)
    # the slack decides the verdict and is not part of the report
    assert check.to_dict() == {"name": "b", "lhs": 2.0, "rhs": 1.0, "ok": True,
                               "note": "n", "advisory": True}


def test_targets_outside_the_space_are_refused():
    from hcfill.decomposition import verify_decomposition

    s = make_line(10)
    outside = s.cells | {(100, 100), (-3, 0)}
    with pytest.raises(InputError, match="2 cells outside the space"):
        decompose(s, outside, 2)
    d = decompose(s, None, 2)
    with pytest.raises(InputError, match="2 cells outside the space"):
        verify_decomposition(s, outside, d)


def test_verification_takes_none_for_every_cell():
    from hcfill.decomposition import verify_decomposition

    s = make_line(60, Fraction(1, 8))
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    report = verify_decomposition(s, None, d)
    assert report["ok"] and report == verify_decomposition(s, s.cells, d)


def test_verification_refuses_a_net():
    from hcfill.decomposition import verify_decomposition

    d = decompose(make_line(10), None, 2)
    net = NetSpace("linf", ((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(InputError, match="verify_decomposition needs the voxel model"):
        verify_decomposition(net, None, d)
    with pytest.raises(InputError, match="voxel model"):
        verify_decomposition(net, {0, 1}, d)


def test_fill_totals_recompute():
    s = make_line(40, Fraction(1, 8))
    cert = fill(s, None, 2, eps=1e-2, max_steps=1, constants=small_scale(2))
    total = sum(
        float(c.cost) for st in cert.sequence.steps for c in st.cone_certificates
    )
    if cert.pushout_trace is not None:
        total += float(cert.pushout_trace.trace_content)
    assert cert.trace_total == pytest.approx(total, abs=1e-15)


def _counting_exact_content(monkeypatch):
    """Patch the pipeline's `exact_content` binding with one that records
    each call's (target, exponent)."""
    calls = Counter()

    def counting(space, target, m, *args, **kwargs):
        calls[frozenset(target), as_fraction(m)] += 1
        return exact_content(space, target, m, *args, **kwargs)

    monkeypatch.setattr(decomposition, "exact_content", counting)
    return calls


def test_verification_solves_without_the_pipeline_memo(monkeypatch):
    from hcfill.decomposition import verify_decomposition

    s = make_line(60, Fraction(1, 8))
    calls = _counting_exact_content(monkeypatch)
    d = decompose(s, None, 2, eps=1e-3, constants=small_scale(2))
    solved = set(calls)
    calls.clear()
    assert verify_decomposition(s, s.cells, d)["ok"]
    # the survivors' content is solved again, not read from decompose's memo
    assert calls and set(calls) <= solved


# Reports of decompose and fill, pinned as the first 16 hex digits of the
# sha256 of their sorted-key JSON: several steps, balls and occupied slices,
# float exponents at m = 3/2, a decomposition over 30 Q balls, and one at
# delta 1/3 over 9 Q balls of two radii.
PINNED_REPORTS = [
    (lambda: fill(make_line(60), None, 2, constants=small_scale(2, 3.0)),
     "e80d3f141408825f"),
    (lambda: fill(make_line(60), None, Fraction(3, 2),
                  constants=small_scale(Fraction(3, 2), 1.6)),
     "d791d533ce2b317f"),
    (lambda: fill(make_ring(16), None, Fraction(5, 2),
                  constants=small_scale(Fraction(5, 2), 3.0)),
     "ade068e36132829c"),
    (lambda: decompose(random_blob(4, 2, 30, 9, Fraction(1, 8)), None, Fraction(5, 2),
                       constants=small_scale(Fraction(5, 2), 4.0)),
     "478613555ffa668f"),
    (lambda: decompose(random_blob(5, 3, 40, 6, Fraction(1, 3)), None, 2),
     "607443f6d867bf8f"),
]


@pytest.mark.parametrize("run, digest", PINNED_REPORTS)
def test_decomposition_reports_pinned(run, digest):
    result = run()
    text = json.dumps(result.to_dict(), sort_keys=True, default=fmt_scalar)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    # each report lists its Q as the balls of its keys do
    decomps = [result] if isinstance(result, decomposition.Decomposition) else [
        step.decomposition for step in result.sequence.steps]
    for decomp in decomps:
        assert decomp.to_dict()["q_balls"] == [b.to_dict() for b in decomp.q.balls]


@pytest.mark.parametrize("run, digest", [
    PINNED_REPORTS[0],
    (lambda: fill(make_ring(16), None, 2, constants=small_scale(2, 3.0)), "5d43fda00d67581a"),
], ids=["line60", "ring16"])
def test_a3_fills_answer_every_relative_solve_from_its_forced_balls(monkeypatch, run, digest):
    """In these multi-ball fills every Q ball meeting a relative solve's
    goal holds a goal cell that no other meeting ball holds, so the forced
    balls cover the goal and no search runs (297 and 241 searches ran
    before the reduction), with the same report."""
    solving, searches = [], Counter()
    real_solve, real_search = TildeContent.solve_mask, content._branch_and_bound

    def solve_mask(tilde, goal, exponent):
        solving.append(goal)
        try:
            return real_solve(tilde, goal, exponent)
        finally:
            solving.pop()

    def search(*args, **kwargs):
        searches["relative" if solving else "exact_content"] += 1
        return real_search(*args, **kwargs)

    monkeypatch.setattr(TildeContent, "solve_mask", solve_mask)
    monkeypatch.setattr(content, "_branch_and_bound", search)
    text = json.dumps(run().to_dict(), sort_keys=True, default=fmt_scalar)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    # the wrapped entry is the one the solvers call: exact_content's searches count
    assert searches["relative"] == 0 and searches["exact_content"] > 0


@pytest.mark.parametrize("run, digest", PINNED_REPORTS)
def test_pipeline_solves_each_target_once(monkeypatch, run, digest):
    calls = _counting_exact_content(monkeypatch)
    text = json.dumps(run().to_dict(), sort_keys=True, default=fmt_scalar)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert calls and max(calls.values()) == 1
