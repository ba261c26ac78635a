"""Urysohn-width upper bounds via nerves of coverings.

A covering with multiplicity at most m has a nerve of dimension at most m-1,
and any map to that nerve has fibers inside unions of one simplex's balls,
so max over simplices of diam(union of the simplex's balls) bounds the
(m-1)-width.

On the voxel model a ball's members are the cells whose centres it holds,
so the one-cell tiling (one grid ball of side delta per cell) has
multiplicity 1 at every m and fiber bound delta.  No covering by balls of
radius at least delta/2, grid balls among them, does better: every simplex
holds a ball, and that ball alone has diameter at least delta.
`width_bound` reports that tiling.  A model in which adjacent cells meet
(closed cubes) would make the bound a search again.

`nerve` reads each element's owners off the set bits of the balls' member
masks (`space.ElementBits.ball`) and keeps the simplices that are no face
of another (integer subset test).  `fiber_bound` puts every vertex
ball's centre and radius over one denominator (`exact.common_den`), so each
ball's axis box (centre -+ radius per axis) is integer numerators, a
simplex's union diameter an integer max - min, and one `Fraction` is built
at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .content import DEFAULT_NODE_BUDGET, exact_content
from .errors import InputError, UncoverableError
from .exact import Scalar, as_fraction, common_den, fmt_scalar, numerators, root
from .space import (
    Ball,
    Covering,
    ElementBits,
    Space,
    VoxelSpace,
    ball_members,  # noqa: F401 -- unused; perfbench/test_perfbench.py asserts the binding
    grid_ball,
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


def nerve(cover: Covering, space: Space) -> NerveComplex:
    """Exact nerve over the discrete model: a simplex for every subfamily
    sharing an element, so the dimension is the covering multiplicity - 1.

    Each element's owners are read off the set bits of the balls' member
    masks over every element of the space; target elements the space does
    not have, and those no ball holds, count as missed."""
    bits = ElementBits(space, space.sorted_cells() if isinstance(space, VoxelSpace)
                       else range(len(space.points)))
    wanted = 0
    outside = 0
    for element in cover.target:
        bit = bits.index.get(element)
        if bit is None:
            outside += 1
        else:
            wanted |= 1 << bit
    covered = 0
    owners: dict[int, list[int]] = {}  # element bit -> indices of its balls
    for i, ball in enumerate(cover.balls):
        mask = bits.ball(ball)
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
    return NerveComplex(tuple(cover.balls), tuple(sorted(simplices[s] for s in maximal)),
                        multiplicity)


def fiber_bound(nerve_complex: NerveComplex) -> Fraction:
    """Upper bound on any nerve map's fiber diameters: every fiber lies in
    the union of one simplex's balls, whose l_inf diameter is the largest
    per-axis span max(hi) - min(lo), taken on the balls' integer boxes over
    the lcm of every centre coordinate's and radius' denominator."""
    balls = nerve_complex.vertex_balls
    radii = [as_fraction(b.radius) for b in balls]
    columns = [[as_fraction(x) for x in col] for col in zip(*(b.center for b in balls))]
    den = common_den(itertools.chain(radii, *columns))
    rs = numerators(radii, den)
    axes = []  # per axis: (lo, hi) of every ball, by ball index
    for col in columns:
        cs = numerators(col, den)
        axes.append(([c - r for c, r in zip(cs, rs)], [c + r for c, r in zip(cs, rs)]))
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
    trivial: bool  # True for the zero-budget report, one ball of the diameter

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


def width_bound(
    space: VoxelSpace,
    m: int,
    budget: int = 2000,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WidthResult:
    """The width bound of the one-cell tiling: multiplicity 1, so its nerve
    has dimension 0 <= m-1, and fiber bound delta, which no covering by
    balls of radius at least delta/2 beats (see the module docstring).

    `budget` only separates 0 from positive: at 0 the report is the trivial
    bound (flagged), one ball around the bounding box, whose fiber bound is
    the diameter.  `seed` selects nothing; both stay for callers that pass
    them.  `c_measured` is the bound over the m-th root of the content upper
    bound.
    """
    if not isinstance(space, VoxelSpace):
        raise InputError("width_bound needs the voxel model")
    if int(m) != m or m < 1:
        raise InputError("width index needs integer m >= 1")
    if budget < 0:
        raise InputError("width budget must be >= 0")
    space.require_nonempty()
    content = exact_content(space, None, m, node_budget=node_budget)
    trivial = budget == 0
    if trivial:
        center = tuple(space.delta * Fraction(lo + hi + 1, 2) for lo, hi in space.bbox())
        balls = (Ball(center, space_radius(space)),)
    else:
        balls = tuple(grid_ball(space, cell, 1) for cell in space.sorted_cells())
    cover = Covering(balls, frozenset(space.cells), 1)
    nv = nerve(cover, space)
    value = fiber_bound(nv)
    c_measured = float(value) / root(content.value_upper, m) \
        if float(content.value_upper) > 0 else 0.0
    return WidthResult(m, value, cover, nv, c_measured, content.value_upper, trivial)

