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

`width_bound` works on half-cell integer keys (h_1..h_n, k), the ball of
centre delta/2 * h and radius delta/2 * k that `space.GridBalls` makes, as
content's grid candidates are keyed.  The one-cell tiling is one key
(2 c_1 + 1, ..., 2 c_n + 1, 1) per sorted cell, and the `budget=0` cover is
the one key (lo_i + hi_i + 1, ..., max(hi_i - lo_i + 1)) of the ball around
the bounding box.  No two of these keys' balls hold a common cell, so the
nerve's maximal simplices are the single keys, its multiplicity is 1, and
the bound is one ball's diameter, 2k half cells; `width_bound` writes them
down and runs no nerve.  The result's `covering` is those keys as a keyed
`space.Covering`, so its cost and its report come from the keys, and no
`Ball` is built until the covering's `balls` or the result's `nerve` is
read.

`nerve` and `fiber_bound` work on any covering of `Ball`s, and are the
independent re-check of a `width_bound` result.  `nerve` reads each
element's owners off the set bits of the balls' member masks
(`space.ElementBits.ball`) and keeps the simplices that are no face of
another (integer subset test).  `fiber_bound` puts every vertex ball's
centre and radius over one denominator (`space.key_balls.frame` of the
balls' keys), so each ball's axis box (centre -+ radius per axis) is
integer numerators, a simplex's union diameter an integer max - min, and
one `Fraction` is built at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .content import DEFAULT_NODE_BUDGET, exact_content
from .errors import InputError, UncoverableError
from .exact import Scalar, fmt_scalar, is_integral, root_ratio
from .space import (
    Ball,
    Covering,
    ElementBits,
    GridBalls,
    Space,
    VoxelSpace,
    ball_members,  # noqa: F401 -- unused; perfbench/test_perfbench.py asserts the binding
    key_balls,
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
        return _nerve_dict(len(self.vertex_balls), self.simplices, self.multiplicity)


def _nerve_dict(vertices: int, simplices, multiplicity: int) -> dict:
    return {
        "vertices": vertices,
        "dimension": multiplicity - 1,
        "multiplicity": multiplicity,
        "maximal_simplices": [list(s) for s in simplices],
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
    for i, mask in enumerate(map(bits.ball, cover.balls)):
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
    den, centres, rs = key_balls.frame([b.key() for b in nerve_complex.vertex_balls])
    axes = []  # per axis: (lo, hi) of every ball, by ball index
    for cs in zip(*centres):
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
    """A width bound and its cover.  `covering` is the keyed `Covering` of
    the space by half-cell keys in sorted order; `simplices` and
    `multiplicity` are the nerve's, by key index.  The `nerve` over the
    covering's balls is built on first read and then kept; `to_dict` builds
    no ball."""

    m: Scalar
    bound: Fraction
    covering: Covering
    simplices: tuple[tuple[int, ...], ...]
    multiplicity: int
    c_measured: float
    content: Scalar
    trivial: bool  # True for the zero-budget report, one ball of the diameter

    @cached_property
    def nerve(self) -> NerveComplex:
        return NerveComplex(self.covering.balls, self.simplices, self.multiplicity)

    def to_dict(self) -> dict:
        """The report; its nerve section is `self.nerve.to_dict()`, written
        from the simplices."""
        return {
            "m": fmt_scalar(self.m),
            "bound": fmt_scalar(self.bound),
            "c_measured": self.c_measured,
            "content": fmt_scalar(self.content),
            "trivial": self.trivial,
            "nerve": _nerve_dict(len(self.covering.keys), self.simplices, self.multiplicity),
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

    `budget` (an int >= 0) only separates 0 from positive: at 0 the report
    is the trivial bound (flagged), one ball around the bounding box, whose
    fiber bound is the diameter.  `seed` selects nothing; both stay for
    callers that pass them.  `c_measured` is the bound over the m-th root
    of the content upper bound.
    """
    if not isinstance(space, VoxelSpace):
        raise InputError("width_bound needs the voxel model")
    if isinstance(m, bool) or not isinstance(m, (int, Fraction, float)) \
            or not is_integral(m) or m < 1:
        raise InputError(f"width index needs integer m >= 1, got {m!r}")
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise InputError(f"width budget must be an int >= 0, got {budget!r}")
    space.require_nonempty()
    content = exact_content(space, None, m, node_budget=node_budget)
    trivial = budget == 0
    cells = space.sorted_cells()
    if trivial:
        box = space.bbox()
        keys = ((*(lo + hi + 1 for lo, hi in box), max(hi - lo + 1 for lo, hi in box)),)
    else:
        keys = tuple((*(2 * c + 1 for c in cell), 1) for cell in cells)
    make = GridBalls(space.delta)
    value = make.part(2 * keys[0][-1])
    c_measured = root_ratio(value, content.value_upper, m, "c_measured") \
        if content.value_upper > 0 else 0.0
    return WidthResult(m, value, Covering.keyed(make, keys, space.cells, 1, order=cells),
                       tuple((i,) for i in range(len(keys))), 1, c_measured,
                       content.value_upper, trivial)
