"""Urysohn-width upper bounds via nerves of coverings.

A covering with multiplicity at most m has a nerve of dimension at most m-1,
and any map to that nerve has fibers inside unions of one simplex's balls.
The width bound is therefore the best achievable value of
max over simplices of diam(union of the simplex's balls), searched over
multiplicity-constrained coverings (seeded annealing over grow/shrink/merge
moves starting from aligned tilings).

Candidates are evaluated on element bitmasks: a ball's member mask is
`space.ElementBits.ball` over every element of the space (on voxels the AND
of one per-axis slab, over the same integer cell ranges `ball_members`
tests).  `nerve` reads each element's owners off the set bits and keeps the
simplices that are no face of another (integer subset test).  A ball's axis
box (center -+ radius per axis) is held as integers over one denominator,
so `fiber_bound` takes each simplex's union diameter as an integer max - min
and builds one `Fraction` at the end.  One `BallMasks` per search memoises
each ball's mask, integer box and sort key, so a move, which changes one to
four balls of the incumbent, recomputes only those.  The search passes
`nerve` bare ball tuples checked against the whole space; the reported
result is the only `Covering` it builds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .content import DEFAULT_NODE_BUDGET, content_ball_scan, exact_content
from .errors import InputError, UncoverableError
from .exact import Scalar, as_fraction, fmt_scalar, root
from .space import (
    Ball,
    Covering,
    ElementBits,
    Space,
    VoxelSpace,
    ball_members,  # noqa: F401 -- unused; perfbench/test_perfbench.py asserts the binding
    grid_ball,
    space_diameter,
    space_radius,
)


@dataclass(frozen=True)
class NerveComplex:
    vertex_balls: tuple[Ball, ...]
    simplices: tuple[tuple[int, ...], ...]  # maximal simplices, by ball index
    multiplicity: int

    @property
    def dimension(self) -> int:
        return self.multiplicity - 1

    def to_dict(self) -> dict:
        return {
            "vertices": len(self.vertex_balls),
            "dimension": self.dimension,
            "multiplicity": self.multiplicity,
            "maximal_simplices": [list(s) for s in self.simplices],
        }


Box = tuple[int, tuple[int, ...], tuple[int, ...]]  # (den, lo, hi): bounds lo/den, hi/den


class BallMasks:
    """`ElementBits` over every element of one space, with each ball's member
    mask, integer box and sort key memoised for the life of the object (one
    width search)."""

    def __init__(self, space: Space):
        elements = space.sorted_cells() if isinstance(space, VoxelSpace) \
            else range(len(space.points))
        self._bits = ElementBits(space, elements)
        self.index = self._bits.index
        self.full = self._bits.full
        self._masks: dict[Ball, int] = {}
        self._boxes: dict[Ball, Box] = {}
        self._sort_keys: dict[Ball, tuple] = {}

    def mask(self, ball: Ball) -> int:
        out = self._masks.get(ball)
        if out is None:
            out = self._masks[ball] = self._bits.ball(ball)
        return out

    def box(self, ball: Ball) -> Box:
        out = self._boxes.get(ball)
        if out is None:
            out = self._boxes[ball] = _ball_box(ball)
        return out

    def sort_key(self, ball: Ball) -> tuple:
        """A key that orders balls as `Ball` itself does, with every exactly
        representable coordinate as a float: float-to-float comparisons are
        native, and mixed float/Fraction ones stay exact."""
        out = self._sort_keys.get(ball)
        if out is None:
            out = self._sort_keys[ball] = (tuple(map(_float_if_exact, ball.center)),
                                           _float_if_exact(ball.radius))
        return out


def _float_if_exact(x: Scalar) -> Scalar:
    f = float(x)
    return f if f == x else x


def _ball_box(ball: Ball) -> Box:
    """Per-axis (center - radius, center + radius) of a cube ball, as
    integers over the lcm of the center's and radius' denominators."""
    r = as_fraction(ball.radius)
    center = [as_fraction(c) for c in ball.center]
    den = lcm(r.denominator, *(c.denominator for c in center))
    rn = r.numerator * (den // r.denominator)
    cn = [c.numerator * (den // c.denominator) for c in center]
    return den, tuple(c - rn for c in cn), tuple(c + rn for c in cn)


def _common_den(boxes: list[Box]) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The boxes' (lo, hi) bounds as integers over the lcm of their
    denominators."""
    den = lcm(*(d for d, _, _ in boxes))
    out = []
    for d, lo, hi in boxes:
        if d != den:
            f = den // d
            lo, hi = tuple(x * f for x in lo), tuple(x * f for x in hi)
        out.append((lo, hi))
    return den, out


def nerve(cover: Covering | tuple[Ball, ...], space: Space,
          masks: BallMasks | None = None) -> NerveComplex:
    """Exact nerve over the discrete model: a simplex for every subfamily
    sharing an element, so the dimension is the covering multiplicity - 1.

    Each element's owners are read off the set bits of the balls' member
    masks; `masks` may carry the memo of an ongoing search.  `cover` is a
    `Covering`, or a tuple of balls that must cover every element of the
    space (the width search's target, whose mask `masks.full` is built
    once)."""
    if masks is None:
        masks = BallMasks(space)
    if isinstance(cover, Covering):
        balls = cover.balls
        wanted = 0
        outside = 0
        for element in cover.target:
            bit = masks.index.get(element)
            if bit is None:
                outside += 1
            else:
                wanted |= 1 << bit
    else:
        balls, wanted, outside = cover, masks.full, 0
    covered = 0
    owners: dict[int, list[int]] = {}  # element bit -> indices of its balls
    for i, ball in enumerate(balls):
        mask = masks.mask(ball)
        covered |= mask
        mask &= wanted
        while mask:
            low = mask & -mask
            owners.setdefault(low, []).append(i)
            mask ^= low
    missing = outside + (wanted & ~covered).bit_count()
    if missing:
        raise UncoverableError(f"covering misses {missing} elements")
    # simplices as bitmasks over ball indices, largest first: s is maximal
    # unless it is a face (s & ~t == 0) of a maximal one found before it,
    # which needs every ball of s in their union
    simplices = {sum(1 << i for i in owned): tuple(owned) for owned in owners.values()}
    maximal: list[int] = []
    union = 0
    for s in sorted(simplices, key=int.bit_count, reverse=True):
        if s & ~union or all(s & ~t for t in maximal):
            maximal.append(s)
            union |= s
    multiplicity = max(map(len, owners.values()), default=0)
    return NerveComplex(tuple(balls), tuple(sorted(simplices[s] for s in maximal)),
                        multiplicity)


def fiber_bound(nerve_complex: NerveComplex, box=_ball_box) -> Fraction:
    """Upper bound on any nerve map's fiber diameters: every fiber lies in
    the union of one simplex's balls, whose l_inf diameter is the largest
    per-axis span max(hi) - min(lo).  `box` maps a ball to its integer box
    (den, lo, hi); the spans are taken over the lcm of those denominators."""
    den, bounds = _common_den([box(b) for b in nerve_complex.vertex_balls])
    axes = list(zip(zip(*(lo for lo, _ in bounds)), zip(*(hi for _, hi in bounds))))
    worst = 0
    for simplex in nerve_complex.simplices:
        for lo, hi in axes:
            d = max(map(hi.__getitem__, simplex)) - min(map(lo.__getitem__, simplex))
            if d > worst:
                worst = d
    return Fraction(worst, den)


@dataclass(frozen=True)
class WidthResult:
    m: Scalar
    bound: Fraction
    covering: Covering
    nerve: NerveComplex
    c_measured: float
    content: Scalar
    trivial: bool  # True when no admissible covering beat the diameter

    def to_dict(self) -> dict:
        return {
            "m": fmt_scalar(self.m),
            "bound": fmt_scalar(self.bound),
            "c_measured": self.c_measured,
            "content": fmt_scalar(self.content),
            "trivial": self.trivial,
            "nerve": self.nerve.to_dict(),
            "covering": self.covering.to_dict(),
        }


def _tilings(space: VoxelSpace):
    """Aligned disjoint block tilings: multiplicity-1 coverings."""
    bbox = space.bbox()
    max_side = max(hi - lo + 1 for lo, hi in bbox)
    for k in range(1, max_side + 1):
        yield {grid_ball(space, tuple(lo + ((c - lo) // k) * k
                                      for c, (lo, hi) in zip(cell, bbox)), k)
               for cell in space.cells}


def _verify_candidate(space, balls, m_limit, masks):
    nv = nerve(tuple(sorted(set(balls), key=masks.sort_key)), space, masks)
    if nv.multiplicity > m_limit:
        return None
    return nv, fiber_bound(nv, masks.box)


def width_bound(
    space: VoxelSpace,
    m: int,
    budget: int = 2000,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WidthResult:
    """Search for a covering of nerve dimension <= m-1 minimizing the fiber
    bound; returns the best covering found within the evaluation budget.

    Falls back to the trivial diameter bound (flagged) if nothing admissible
    is found.  Deterministic under a fixed seed; enlarging the budget never
    worsens the result.
    """
    if not isinstance(space, VoxelSpace):
        raise InputError("width_bound needs the voxel model")
    if int(m) != m or m < 1:
        raise InputError("width index needs integer m >= 1")
    if budget < 0:
        raise InputError("width budget must be >= 0")
    space.require_nonempty()
    rng = random.Random(seed)
    masks = BallMasks(space)
    evaluations = 0
    best = None

    def consider(balls):
        nonlocal evaluations, best
        if evaluations >= budget:
            return False
        evaluations += 1
        out = _verify_candidate(space, balls, m, masks)
        if out is None:
            return False
        if best is None or out[1] < best[1]:
            best = out
        return True

    for tiling in _tilings(space):
        if evaluations >= budget:
            break
        consider(tiling)

    content = exact_content(space, None, m, node_budget=node_budget)
    witness_balls = tuple(content.witness.balls)
    consider(witness_balls)

    # annealing over local moves of the incumbent
    while evaluations < budget and best is not None:
        balls = list(best[0].vertex_balls)
        move = rng.random()
        if move < 0.45 and len(balls) >= 2:
            i, j = rng.sample(range(len(balls)), 2)
            den, ((a_lo, a_hi), (b_lo, b_hi)) = _common_den(
                [masks.box(balls[i]), masks.box(balls[j])])
            lo = tuple(map(min, a_lo, b_lo))
            hi = tuple(map(max, a_hi, b_hi))
            center = tuple(Fraction(x + y, 2 * den) for x, y in zip(lo, hi))
            radius = Fraction(max(y - x for x, y in zip(lo, hi)), 2 * den)
            merged = Ball(center, radius)
            candidate = [x for k, x in enumerate(balls) if k not in (i, j)]
            candidate.append(merged)
        elif move < 0.8:
            i = rng.randrange(len(balls))
            b = balls[i]
            k = max(1, int(2 * float(b.radius) / float(space.delta)) // 2)
            anchor = tuple(
                int((as_fraction(c) - as_fraction(b.radius)) / space.delta)
                for c in b.center
            )
            candidate = [x for j, x in enumerate(balls) if j != i]
            for off in _corner_offsets(space.n, k):
                sub_anchor = tuple(a + o for a, o in zip(anchor, off))
                sub = grid_ball(space, sub_anchor, k)
                if masks.mask(sub):
                    candidate.append(sub)
        else:
            i = rng.randrange(len(balls))
            b = balls[i]
            shift = tuple(rng.choice((-1, 0, 1)) for _ in range(space.n))
            moved = Ball(
                tuple(as_fraction(c) + s * space.delta for c, s in zip(b.center, shift)),
                b.radius,
            )
            candidate = [x for j, x in enumerate(balls) if j != i]
            candidate.append(moved)
        try:
            consider(candidate)
        except UncoverableError:
            continue

    trivial = best is None
    if trivial:
        # one ball around the bounding box: its fiber bound is the diameter
        center = tuple(space.delta * Fraction(lo + hi + 1, 2) for lo, hi in space.bbox())
        nv = nerve((Ball(center, space_radius(space)),), space, masks)
        best = (nv, fiber_bound(nv, masks.box))
    nv, value = best
    cover = Covering(nv.vertex_balls, frozenset(space.cells), 1)

    c_measured = float(value) / root(content.value_upper, m) \
        if float(content.value_upper) > 0 else 0.0
    return WidthResult(m, value, cover, nv, c_measured, content.value_upper, trivial)


def _corner_offsets(n: int, k: int):
    return itertools.product((0, k), repeat=n)


def local_width_check(space: VoxelSpace, m: int, R: Scalar,
                      budget: int = 1000, seed: int = 0,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Pair the per-ball content scan with the global width bound: reports
    max HC_m(ball)/R^m and the achieved width bound (no threshold asserted;
    the scale constant relating them is existential)."""
    scan, max_ratio = content_ball_scan(space, m, R)
    width = width_bound(space, m, budget=budget, seed=seed, node_budget=node_budget)
    return {
        "R": fmt_scalar(as_fraction(R)),
        "max_ball_content_ratio": max_ratio,
        "width_bound": fmt_scalar(width.bound),
        "width_trivial": width.trivial,
        "c_measured": width.c_measured,
        "diameter": fmt_scalar(space_diameter(space)),
        "balls_scanned": len(scan),
    }
