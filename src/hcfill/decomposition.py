"""Disjoint-ball decompositions with certified inequalities, iterated
content-reduction steps, and end-to-end filling certificates.

The machinery, at exponent m > 1, over a voxel set Y:

1. Fix an optimal grid-ball covering Q of Y; content relative to Q (only
   subfamilies of Q are admissible covers) restores additivity across
   disjoint balls.
2. For each Q-center p, the density lambda_p(r) = tildeHC(B(p,r) cap Y)/r^m
   decays from +inf to 0; the critical radius r(p) is the last radius where
   it still reaches 1/A^m for the scale constant A.
3. A slice level r_bar(p) in [(1+1/m) r(p), (1+1/m)^2 r(p)] is chosen by the
   coarea step function, a greedy Vitali pass selects disjoint balls whose
   tripled radii still cover Y, and the density constant alpha in (1/12, 1]
   measures how much relative content the selected balls capture.
4. Each selected ball's interior is replaced by a filled boundary slice whose
   grid-cover footprint carries certified content, giving per-step geometric
   content decay and bounded displacement; cone certificates account the
   (m+1)-cost of the swept regions, and a final skeleton descent handles the
   low-content residue.

One `TildeContent` per decomposition is its cell context: pruning Q, radial
orders, annulus slices, ball-member masks and relative solves all run on its
cells, and each selected ball carries its cells and its Q key to the checks
and the step.  Every point the pipeline moves or measures lies on the
half-cell lattice and is carried as the integers h of delta/2 * h: a Q
centre is its key's h and cell c's centre is 2c + 1.  Q and the witnesses a
step reads stay `space.GridBalls` half-cell keys, and the cones read them
into their integer frames, so `fill` builds no `Ball`; Fractions are built
only for reported fields.  The step map of an `ImprovementStep` and the
carriers of a `SequenceReport` are their `landing` dicts, cell -> the h of
its landing point.  Distances from a point to cell centres are the keys of
its `space.PointKeys`, read off h for a Q centre.  Every upper-bound
inequality is an `InequalityCheck.le`, and each carrier of
`improvement_sequence` is one point moved by the step maps.  The
pipeline's entry points refuse, with `InputError` and before any solve, an
m that is not a finite number above 1, an eps that is not a number >= 0
and finite as a float, and a step or pushout candidate count that is not
an int >= 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .coarea import DistanceToPoint, best_slice, slice_profile, slice_sweep
from .content import DEFAULT_NODE_BUDGET, _RatioBound, _relative_cover, exact_content
from .cone import ConeCertificate, cone_covering
from .errors import DecompositionViolation, InputError, VerificationError
from .exact import (TOL, InequalityCheck, Scalar, as_fraction, common_den, finite_number,
                    fmt_scalar, is_integral, nonneg_float, nonneg_int, numerators, power,
                    root)
from .pushout import DEFAULT_CANDIDATES, CubicalGrid, grid_R_for_content, skeleton_descend
from .space import (
    Ball,
    Covering,
    ElementBits,
    GridBalls,
    PointKeys,
    VoxelSpace,
    ball_members,
    linf,
    vitali_select,
)

_TWELVE = 12
_ZERO = Fraction(0)
# relative widening of `critical_radius`'s content ceiling, far above the
# last-ulp error of a float root
_CEILING_MARGIN = 1 + 1e-9


def _voxel_target(space, target, caller: str) -> frozenset:
    """The target cells, all of the space's when None, of a voxel-only step."""
    if not isinstance(space, VoxelSpace):
        raise InputError(f"{caller} needs the voxel model")
    return frozenset(target) if target is not None else frozenset(space.cells)


def _pipeline_args(m, eps, what: str) -> tuple:
    """(m as a Fraction, eps as the float the checks add, None kept), once
    m is a finite number above 1 and eps a number >= 0, finite as a float."""
    mq = finite_number(m, "m")
    if mq <= 1:
        raise InputError(f"{what} needs m > 1")
    return mq, eps if eps is None else nonneg_float(eps, "eps")


# The `exact_content` memo of one top-level pipeline call.  `decompose`,
# `improvement_step`, `improvement_sequence` and `fill` each open one unless
# their caller has, and drop it when they return, so one `fill` solves each
# target once: a step's `after` is the next step's base content.
_SOLVES: ContextVar[dict | None] = ContextVar("decomposition_solves", default=None)


def _solve_memo(fn):
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _SOLVES.get() is not None:
            return fn(*args, **kwargs)
        token = _SOLVES.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _SOLVES.reset(token)
    return scoped


def _content(space, cells: frozenset, m: Fraction, *, node_budget: int):
    """`exact_content` through the memo of the pipeline call it runs in.  A
    content beyond the float range, which the checks read, is refused."""
    memo = _SOLVES.get()
    key = (space, cells, m, node_budget)
    if key not in memo:
        memo[key] = exact_content(space, cells, m, node_budget=node_budget)
        nonneg_float(memo[key].value_upper, "a content the pipeline checks")
    return memo[key]


# ---------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class Constants:
    """The quantitative knobs implied by exponent m.

    filling_constant   -- (100 m)^m, the content constant of the extension
    ball_scale         -- A(m) = [100 m 4^(1/(m-1)) (100m)^m]^((m-1)/m)
    radius_constant    -- 10 m 12^m A(m), the filling-radius constant
    decay              -- 1 - 1/(2*12^m), per-step content ratio

    An m whose constants are not finite floats is refused: the radius
    constant overflows above about m = 62.65, and 4^(1/(m-1)) below about
    m = 1.002.
    """

    m: Fraction
    filling_constant: float
    ball_scale: float
    radius_constant: float
    decay: float

    @classmethod
    def for_exponent(cls, m: Scalar) -> "Constants":
        mq = finite_number(m, "m")
        mf = float(mq)
        if mf <= 1:
            raise InputError("constants need m > 1 (the 4^(1/(m-1)) term)")
        try:
            filling = (100 * mf) ** mf
            ball_scale = (100 * mf * 4 ** (1 / (mf - 1)) * filling) ** ((mf - 1) / mf)
            radius = 10 * mf * _TWELVE**mf * ball_scale
        except OverflowError:
            filling = ball_scale = radius = math.inf
        if not all(map(math.isfinite, (filling, ball_scale, radius))):
            raise InputError(f"the constants at m = {fmt_scalar(mq)} overflow a float")
        decay = 1 - 1 / (2 * _TWELVE**mf)
        if not ball_scale < filling:
            raise InputError("scale constant failed its sanity bound")
        return cls(mq, filling, ball_scale, radius, decay)


# ---------------------------------------------------------------------------
# content relative to a fixed covering

class TildeContent:
    """Exact set-cover content where only subfamilies of the fixed covering
    Q are admissible, and the one cell context of the pipeline: its sorted
    `cells`, their `ElementBits` as `bits`, Q as `GridBalls` `keys` (one of
    length n + 1 each, else an `InputError`) and their member masks
    `bits.box(GridBalls.ranges(key))`, the listed cells whose centres a Q
    ball holds, occupied or not, built once; costs are `make.radius(key)`
    powers, and `q_balls` is built on first read.
    A solve (`content._relative_cover`) covers the goal mask (bits of
    `cells`) by the Q balls that meet it.  It takes the forced balls first,
    those holding a goal cell that no other meeting ball holds, in the order
    of their lowest such cell; when they cover the goal they are the answer,
    and else the content solver's `_branch_and_bound` searches the cells
    they leave, from their node, without an incumbent.  Its witness is the
    first cheapest cover in the full search's order (candidate order down
    to its first cover, cheapest first at every node priced after it),
    which begins with the forced balls in that order.  That order depends on
    every meeting ball, so no dominance pass prunes them.  Each exponent is
    priced once (`_pricing`): the Q ball indices in (cost, index) order,
    their masks in that order and one `_RatioBound` over them, so a solve
    only ANDs the masks with the goal, and a search restricts the bound to
    the balls that meet it.  A ball that misses the goal is never branched
    on and prices nothing, the balls that meet it keep their order, and the
    bound's larger size lcm only scales its units, which moves no price
    order, so every answer is the one a bound over the meeting balls alone
    gives.
    `solve_mask` is the one entry, cached per (goal mask, exponent); `solve`
    takes a cell set.  One cache keeps the last point's `frame`, its
    `PointKeys`, and its `radial` order of the cells, built on first read
    and only when a cell nearer than the farthest can matter (at the
    paper's A(m), on none of the acceptance tests' fill fixtures)."""

    def __init__(self, space: VoxelSpace, cells, keys):
        self.space = space
        self.cells = tuple(sorted(cells))
        self.keys = tuple(keys)
        if any(len(key) != space.n + 1 for key in self.keys):
            raise InputError("ball dimension does not match the space")
        self.make = GridBalls(space.delta)
        self.bits = ElementBits(space, self.cells)
        self.masks = [self.bits.box(GridBalls.ranges(key)) for key in self.keys]
        self._union = functools.reduce(operator.or_, self.masks, 0)
        self._pricings: dict[Fraction, tuple] = {}
        self._value_cache: dict[tuple, Scalar] = {}
        self._point = None, None, None  # (p, its frame, its radial order)

    def _pricing(self, exponent: Fraction):
        """(order, masks, ratio, den, weights) at an exponent, built once:
        `weights` holds each Q ball's cost, at its exact value, as an
        integer numerator over the common denominator `den`; `order` holds
        the Q ball indices in (cost, index) order, `masks` their whole
        masks in that order, and `ratio` is a `_RatioBound` over them."""
        hit = self._pricings.get(exponent)
        if hit is None:
            sides = sorted({key[-1] for key in self.keys})  # each distinct radius priced once
            costs = [power(self.make.part(k), exponent) for k in sides]
            exact = [as_fraction(c) for c in costs]
            den = common_den(exact)
            price = dict(zip(sides, zip(costs, numerators(exact, den))))
            weights = [price[key[-1]][1] for key in self.keys]
            order = sorted(range(len(weights)), key=weights.__getitem__)  # ties by index
            masks = [self.masks[i] for i in order]
            ratio = _RatioBound([price[self.keys[i][-1]][0] for i in order], masks)
            hit = self._pricings[exponent] = order, masks, ratio, den, weights
        return hit

    def subset_mask(self, subset) -> int:
        mask = 0
        for c in subset:
            mask |= 1 << self.bits.index[c]
        return mask

    def center(self, key) -> tuple:
        """The centre of a half-cell key as a point, made the kept point with
        the `PointKeys.lattice` of its integers."""
        p = tuple(map(self.make.part, key[:-1]))
        self._point = p, PointKeys.lattice(self.make.part(1), key[:-1]), None
        return p

    def frame(self, p) -> PointKeys:
        """p's `PointKeys`, kept for the last point (asked for twice in a
        row per centre)."""
        if self._point[0] != p:
            self._point = p, PointKeys(self.space, p), None
        return self._point[1]

    def radial(self, p):
        """(keys, dists, prefix) at point p: the cells' `PointKeys.keys`,
        their keys in order and the masks of their first i cells."""
        frame = self.frame(p)
        if self._point[2] is None:
            keys = frame.keys(self.cells)
            prefix = [0]
            for _, c in keys:
                prefix.append(prefix[-1] | 1 << self.bits.index[c])
            self._point = p, frame, (keys, [k for k, _ in keys], prefix)
        return self._point[2]

    def value(self, subset, exponent: Scalar) -> Scalar:
        return self.solve(subset, exponent)[0]

    def solve(self, subset, exponent: Scalar):
        """(cost, ball indices) of the cheapest subfamily covering `subset`."""
        return self.solve_mask(self.subset_mask(subset), exponent)

    def solve_mask(self, goal: int, exponent: Scalar):
        """`solve` for the cells whose bits are set in `goal`."""
        exponent = as_fraction(exponent)
        key = goal, exponent.numerator, exponent.denominator
        hit = self._value_cache.get(key)
        if hit is not None:
            return hit
        if goal == 0:
            return Fraction(0) if is_integral(exponent) else 0.0, ()
        if goal & ~self._union:
            raise InputError("fixed covering cannot cover the requested subset")
        order, masks, ratio, _, _ = self._pricing(exponent)
        units, sel = _relative_cover(masks, ratio, goal)
        result = (ratio.scalar(units), tuple(order[pos] for pos in sel))
        self._value_cache[key] = result
        return result

    def witness(self, subset, exponent: Scalar) -> Covering:
        _, sel = self.solve(subset, exponent)
        return Covering.keyed(self.make, [self.keys[i] for i in sel], frozenset(subset), exponent)

    @functools.cached_property
    def q_balls(self) -> tuple[Ball, ...]:
        return tuple(map(self.make, self.keys))


def prune_redundant(tilde: TildeContent) -> TildeContent:
    """Drop every Q ball whose mask lies in the union of the others', in key
    order (-k, h), i.e. (-radius, centre), until each survivor has a private
    cell: the same context when none goes, else one over the kept keys.
    A ball with a private cell keeps it when others go, so one pass in that
    order decides each ball against the kept ones before it and all after
    it (suffix unions), as dropping the first redundant ball and starting
    over would."""
    keys, masks = tilde.keys, tilde.masks
    order = sorted(range(len(keys)), key=lambda i: (-keys[i][-1], keys[i][:-1]))
    after = list(itertools.accumulate([masks[i] for i in reversed(order)], operator.or_,
                                      initial=0))
    kept, before = [], 0
    for t, i in enumerate(order):
        if masks[i] & ~(before | after[len(order) - 1 - t]):
            kept.append(i)
            before |= masks[i]
    if len(kept) == len(keys):
        return tilde
    return TildeContent(tilde.space, tilde.cells, [keys[i] for i in sorted(kept)])


# ---------------------------------------------------------------------------
# radii

def critical_radius(tilde: TildeContent, p, m: Scalar, ball_scale: float):
    """Largest radius where the density still reaches 1/A^m.

    Scanning segments from the top: on a segment with relative content H the
    density reaches the threshold up to radius A * H^(1/m), so the first
    (largest) segment whose candidate radius lands inside it yields the
    supremum.  Relative content is monotone (a cover of a larger prefix
    covers a smaller one), so once a segment with content H is rejected no
    lower segment has a candidate above A * H^(1/m): the scan jumps to the
    last segment starting at or below that ceiling, widened by
    `_CEILING_MARGIN` so that a float root off by an ulp never skips a
    segment the full scan would accept.  The top segment is all the cells
    and ends at the key `PointKeys.farthest` reads off the bounding box, so
    the radial order is built only once it is rejected.  Both radii are
    compared in p's distance keys by an integer floor of the float, and
    each content value's radius is computed once (`_ceiling`).
    Returns (r(p), content at r(p)).
    """
    mq = as_fraction(m)
    mf = float(mq)
    frame = tilde.frame(p)
    key = frame.farthest(tilde.bits.lo, tilde.bits.hi)  # the last key of the scanned segment
    goal = tilde.bits.full
    dists = prefix = None
    while goal:
        h, _ = tilde.solve_mask(goal, mq)
        below = key - 1  # the next segment ends at or below this key
        if float(h) > 0:
            top, exact = _ceiling(float(h), mf, ball_scale)
            reach = frame.floor(top)
            if reach >= key:
                if dists is not None:
                    goal = prefix[bisect_right(dists, reach)]
                eta, _ = tilde.solve_mask(goal, mq)
                return exact, eta
            below = min(below, frame.floor(top * _CEILING_MARGIN))
        if dists is None:
            _, dists, prefix = tilde.radial(p)
        end = bisect_right(dists, below)
        goal, key = prefix[end], dists[end - 1]
    raise InputError("density never reaches the threshold at this point")


def annulus_radius(tilde: TildeContent, p, r_crit, m: Scalar):
    """(r_bar, slice cost, slice cells) of the level r_bar in
    [(1+1/m) r(p), (1+1/m)^2 r(p)] minimizing the coarea majorant of the
    sphere through the annulus, the cells within half a cell (L units) of
    [r1, r2], all decided on integers in p's distance keys (`frame`).  r1
    and r2 are r1/e and r2/e units for integers r1, r2 and e.  A cell at key
    k takes the values [max(0, k - L), k + L] units; a selected Q ball's
    interval runs from its least to its largest key there, found by
    bisecting the radial prefix masks, and must be at most 2r wide.
    `coarea.slice_sweep` picks the level from these levels over 2e and the
    balls' costs at m - 1 over their common denominator, and the slice
    cells are the annulus cells whose key lies within L units of it.  When
    r1 lies more than half a cell beyond the farthest cell's key the annulus
    is empty and the answer is (r1, 0, no cells), with no radial order
    built and r1 made once per value."""
    mq = as_fraction(m)
    r = as_fraction(r_crit)
    frame = tilde.frame(p)
    half = frame.half
    un, ud = frame.unit.numerator, frame.unit.denominator
    grow, mn = mq.numerator + mq.denominator, mq.numerator  # 1 + 1/m = grow / mn
    e = mn * mn * r.denominator * un
    r1, r2 = grow * mn * r.numerator * ud, grow * grow * r.numerator * ud
    first_key = -(-r1 // e) - half
    if first_key > frame.farthest(tilde.bits.lo, tilde.bits.hi):
        return _cached_fraction(grow * r.numerator, mn * r.denominator), _ZERO, frozenset()
    keys, dists, prefix = tilde.radial(p)
    lo = bisect_left(dists, first_key)
    hi = bisect_right(dists, r2 // e + half)
    goal = prefix[hi] ^ prefix[lo]
    _, sel = tilde.solve_mask(goal, mq)
    *_, wden, weights = tilde._pricing(mq - 1)
    ends = range(lo + 1, hi + 1)  # prefix[j] holds the cells at radial positions < j
    spans = []
    for i in sel:
        mask = tilde.masks[i] & goal
        first = bisect_left(ends, True, key=lambda j: prefix[j] & mask != 0)
        last = bisect_left(ends, True, key=lambda j: prefix[j] & mask == mask)
        a, b = max(0, dists[lo + first] - half), dists[lo + last] + half
        radius = tilde.make.radius(tilde.keys[i])
        if (b - a) * un * radius.denominator > 2 * radius.numerator * ud:
            raise InputError("a Q ball pins the distance to an interval wider than 2r")
        spans.append((2 * e * a, 2 * e * b, weights[i]))
    level, cost = slice_sweep(2 * r1, 2 * r2, spans)
    k_lo = bisect_left(dists, -(-level // (2 * e)) - half, lo, hi)
    k_hi = bisect_right(dists, level // (2 * e) + half, lo, hi)
    return (Fraction(level * un, 2 * e * ud), Fraction(cost, wden),
            frozenset(c for _, c in keys[k_lo:k_hi]))


@functools.lru_cache(maxsize=256)
def _ceiling(h: float, m: float, ball_scale: float) -> tuple:
    """(A h^(1/m), the same as a Fraction): the largest radius at which
    content h still reaches the density 1/A^m, once per content value."""
    top = ball_scale * root(h, m)
    return top, as_fraction(top)


_cached_fraction = functools.lru_cache(maxsize=64)(Fraction)


# ---------------------------------------------------------------------------
# the decomposition

@dataclass(frozen=True)
class DecompositionBall:
    center: tuple
    critical_radius: Fraction  # r(p)
    radius: Fraction  # r_bar(p)
    theta: float  # radius / critical_radius, in [1+1/m, (1+1/m)^2]
    core_content: Scalar  # tilde content of B(p, r(p)) cap Y
    slice_cells: frozenset
    slice_cost_majorant: Scalar
    slice_content: Scalar  # tilde (m-1)-content of the slice
    ball_content: Scalar  # tilde m-content of B(p, r_bar) cap Y
    cells: frozenset  # Y cap B(p, r_bar), not reported
    key: tuple | None = None  # p's Q key (h, k), p = delta/2 * h, not reported

    def to_dict(self) -> dict:
        return {
            "center": [fmt_scalar(x) for x in self.center],
            "critical_radius": fmt_scalar(self.critical_radius),
            "radius": fmt_scalar(self.radius),
            "theta": self.theta,
            "core_content": fmt_scalar(self.core_content),
            "slice_cells": len(self.slice_cells),
            "slice_content": fmt_scalar(self.slice_content),
            "ball_content": fmt_scalar(self.ball_content),
        }


@dataclass(frozen=True)
class Decomposition:
    m: Fraction
    eps: float
    constants: Constants
    base_content: Scalar  # grid content of Y
    tilde_total: Scalar  # content of Y relative to Q
    q: Covering  # the pruned Q, keyed on half-cells
    balls: tuple[DecompositionBall, ...]
    alpha: float
    checks: tuple[InequalityCheck, ...]

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "m": fmt_scalar(self.m),
            "eps": self.eps,
            "alpha": self.alpha,
            "base_content": fmt_scalar(self.base_content),
            "tilde_total": fmt_scalar(self.tilde_total),
            "q_balls": self.q.make.dicts(self.q.keys),
            "balls": [b.to_dict() for b in self.balls],
            "checks": [c.to_dict() for c in self.checks],
        }


@_solve_memo
def decompose(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    constants: Constants | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Decomposition:
    """Build and certify a disjoint-ball decomposition of the target.

    Raises DecompositionViolation (with the full report) if any certified
    inequality fails; that is a falsification event, not a recoverable state.
    An m that is not a finite number above 1, or an eps that is not None or
    a number >= 0 and finite as a float, is an `InputError` before any solve.
    """
    y = _voxel_target(space, target, "decompose")
    if not y:
        raise InputError("target must be non-empty")
    if not y <= space.cells:
        raise InputError(f"target has {len(y - space.cells)} cells outside the space")
    mq, eps = _pipeline_args(m, eps, "decomposition")
    constants = constants or Constants.for_exponent(mq)
    A = constants.ball_scale

    base = _content(space, y, mq, node_budget=node_budget)
    hc = base.value_upper
    if eps is None:
        eps = 1e-3 * float(hc)

    tilde = prune_redundant(TildeContent(space, y, sorted(base.witness.keys)))
    tilde_total = tilde.value(y, mq)

    # per-center critical and slice radii, in each centre's lattice keys
    entries = []
    for key in tilde.keys:
        p = tilde.center(key)
        r_crit, eta = critical_radius(tilde, p, mq, A)
        entries.append((key, p, r_crit, eta) + annulus_radius(tilde, p, r_crit, mq))

    selected_idx = vitali_select([(p, r_bar) for _, p, _, _, r_bar, *_ in entries], tilde.bits)

    mf = float(mq)
    balls = []
    for i in selected_idx:
        key, p, r_crit, eta, r_bar, slice_cost, slice_cells = entries[i]
        mask = tilde.bits.box(tilde.frame(tilde.center(key)).ranges(r_bar))
        balls.append(
            DecompositionBall(
                center=p,
                critical_radius=as_fraction(r_crit),
                radius=r_bar,
                theta=float(r_bar) / float(r_crit),
                core_content=eta,
                slice_cells=slice_cells,
                slice_cost_majorant=slice_cost,
                slice_content=tilde.value(slice_cells, mq - 1),
                ball_content=tilde.solve_mask(mask, mq)[0],
                cells=tilde.bits.members(mask),
                key=key,
            )
        )

    alpha = (sum(float(b.core_content) for b in balls) / float(tilde_total)) ** (1 / mf)
    checks = _decomposition_checks(tilde, mq, eps, constants, hc, tilde_total,
                                   balls, alpha, node_budget, _content)
    decomp = Decomposition(
        mq, eps, constants, hc, tilde_total, Covering.keyed(tilde.make, tilde.keys, y, mq),
        tuple(balls), alpha, tuple(checks),
    )
    if not decomp.ok():
        raise DecompositionViolation(
            "decomposition-violation", decomp.to_dict()
        )
    return decomp


def verify_decomposition(space: VoxelSpace, target, decomp: Decomposition,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Independent re-check of a decomposition of the target (None: all
    cells): rebuilds the relative-content context from the stored Q keys,
    recomputes every per-ball quantity and both sides of every inequality
    from raw data, and re-verifies disjointness and the tripled cover
    exactly, with its own solves (no pipeline memo).  Each ball's slice
    (r_bar, majorant, cells) is derived again through `coarea.slice_profile`
    and `best_slice` on the annulus at its stored critical radius
    (`slices_match`).  Its distances are `linf` on Fraction points, not the
    integer `PointKeys` that `decompose` uses, so that it stays an
    independent check of them."""
    y = _voxel_target(space, target, "verify_decomposition")
    if not y <= space.cells:
        raise InputError(f"target has {len(y - space.cells)} cells outside the space")
    mq = decomp.m
    tilde = TildeContent(space, y, decomp.q.keys)
    tilde_total = tilde.value(y, mq)
    report = {"tilde_total_matches": tilde_total == decomp.tilde_total}

    report["disjoint"] = all(
        linf(a.center, b.center) > a.radius + b.radius
        for a, b in itertools.combinations(decomp.balls, 2)
    )
    report["tripled_cover"] = all(
        any(
            as_fraction(linf(space.cell_center(c), b.center)) <= 3 * b.radius
            for b in decomp.balls
        )
        for c in y
    )

    half = space.delta / 2
    fresh = []
    slices_match = True
    for b in decomp.balls:
        dist = {c: as_fraction(linf(space.cell_center(c), b.center)) for c in y}
        core = frozenset(c for c, d in dist.items() if d <= b.critical_radius)
        r1 = (1 + 1 / mq) * b.critical_radius
        r2 = (1 + 1 / mq) ** 2 * b.critical_radius
        annulus = frozenset(c for c, d in dist.items() if d + half >= r1 and d - half <= r2)
        profile = slice_profile(space, annulus, DistanceToPoint(b.center),
                                tilde.witness(annulus, mq), (r1, r2))
        r_bar, slice_cost = best_slice(profile, mq)
        slices_match &= (r_bar, slice_cost, profile.level_set(r_bar)) == (
            b.radius, b.slice_cost_majorant, b.slice_cells)
        members = ball_members(Ball(b.center, b.radius), space) & y
        fresh.append(
            DecompositionBall(
                center=b.center,
                critical_radius=b.critical_radius,
                radius=b.radius,
                theta=float(b.radius) / float(b.critical_radius),
                core_content=tilde.value(core, mq),
                slice_cells=b.slice_cells,
                slice_cost_majorant=b.slice_cost_majorant,
                slice_content=tilde.value(b.slice_cells, mq - 1),
                ball_content=tilde.value(members, mq),
                cells=members,
                key=b.key,
            )
        )
    report["slices_match"] = slices_match
    alpha = (sum(float(b.core_content) for b in fresh)
             / float(tilde_total)) ** (1 / float(mq))
    report["alpha_matches"] = abs(alpha - decomp.alpha) <= TOL
    checks = _decomposition_checks(
        tilde, mq, decomp.eps, decomp.constants, decomp.base_content,
        tilde_total, fresh, alpha, node_budget, exact_content,
    )
    report["checks_ok"] = all(c.ok for c in checks if not c.advisory)
    report["ok"] = all(
        v for k, v in report.items() if isinstance(v, bool)
    )
    return report


def _decomposition_checks(tilde, mq, eps, constants, hc, tilde_total,
                          balls, alpha, node_budget, content):
    """The certified inequalities of a decomposition; `content` solves the
    survivors' content (`_content` for `decompose`, so shared with the
    pipeline call, and `exact_content` for `verify_decomposition`)."""
    space = tilde.space
    mf = float(mq)
    A = constants.ball_scale
    hcf = float(hc)
    checks = []

    max_r = max((float(b.radius) for b in balls), default=0.0)
    checks.append(InequalityCheck.le(
        "max_ball_radius", max_r, (1 + 1 / mf) ** 2 * A * hcf ** (1 / mf) + eps,
    ))

    survivors = frozenset(tilde.cells).difference(*(b.cells for b in balls))
    if survivors:
        left = float(content(space, survivors, mq,
                             node_budget=node_budget).value_upper)
    else:
        left = 0.0
    checks.append(InequalityCheck.le("content_drop", left,
                                     (1 - alpha**mf) * hcf + eps, 1e-12))

    exp_ratio = mf / (mf - 1)
    lhs33 = sum(float(b.radius) * float(b.slice_content) ** exp_ratio for b in balls)
    rhs33 = (200 * 4 ** (1 / (mf - 1)) * mf * alpha ** (mf + 1)
             / A ** (1 / (mf - 1))) * hcf ** ((mf + 1) / mf) + eps
    checks.append(InequalityCheck.le("weighted_slice_sum", lhs33, rhs33, 1e-12))

    lhs34 = sum(float(b.slice_content) ** exp_ratio for b in balls)
    rhs34 = (50 * mf * 4 ** (1 / (mf - 1)) * alpha**mf
             / A ** (mf / (mf - 1))) * hcf + eps
    checks.append(InequalityCheck.le("slice_sum", lhs34, rhs34, 1e-12))

    lhs35 = sum(float(b.radius) * float(b.ball_content) for b in balls)
    rhs35 = 20 * alpha ** (mf + 1) * A * hcf ** ((mf + 1) / mf) + eps
    checks.append(InequalityCheck.le("weighted_ball_content_sum", lhs35, rhs35, 1e-12))

    checks.append(InequalityCheck(
        "density_constant_range", alpha, 1.0,
        1.0 / 12.0 < alpha <= 1.0 + TOL,
        note="must lie in (1/12, 1]",
    ))

    core_sum = sum(float(b.core_content) for b in balls)
    checks.append(InequalityCheck.le("disjoint_core_additivity", core_sum,
                                     float(tilde_total), TOL))

    # coarea selection bound per ball, against the slightly enlarged ball
    # that provably contains every slice cell in the discrete model
    half = space.delta / 2
    for idx, b in enumerate(balls):
        if not b.slice_cells:
            continue
        reach = tilde.frame(b.center).floor((1 + 1 / mq) ** 2 * b.critical_radius + half)
        _, dists, prefix = tilde.radial(b.center)
        big = float(tilde.solve_mask(prefix[bisect_right(dists, reach)], mq)[0])
        bound = (2 * mf**2 / ((mf + 1) * float(b.critical_radius))) * big
        lhs = float(b.slice_content)
        checks.append(InequalityCheck.le(
            f"coarea_slice_{idx}", lhs, bound, 1e-12,
            note="annulus enlarged by half a cell for the discrete slice",
        ))
        checks.append(InequalityCheck.le(
            f"slice_majorant_{idx}", lhs, float(b.slice_cost_majorant), 1e-12,
            note="step-function majorant dominates the slice content",
        ))
    return checks


# ---------------------------------------------------------------------------
# improvement steps

@dataclass(frozen=True)
class ImprovementStep:
    decomposition: Decomposition
    new_cells: frozenset
    landing: dict  # removed cell -> h of its landing point delta/2 * h
    content_before: Scalar
    content_after: Scalar
    max_displacement: float
    cone_certificates: tuple[ConeCertificate, ...]
    checks: tuple[InequalityCheck, ...]
    eps: float

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@_solve_memo
def improvement_step(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    constants: Constants | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ImprovementStep:
    """One content-reduction step: decompose, replace each selected ball's
    interior by the grid-cover footprint of its boundary slice, and certify
    the content decay and the displacement bound.  Every point it moves or
    measures lies on the half-cell lattice and is carried as the integers
    h of delta/2 * h: a Q centre is its key's h, cell c's centre 2c + 1, so
    landings, displacements and the cones' reach are integer l_inf
    distances in half cells, and the cones read their inputs' keys.  m
    must be a finite number above 1 and eps None or a number >= 0 that is
    finite as a float, else an `InputError`."""
    y = _voxel_target(space, target, "improvement_step")
    mq, eps = _pipeline_args(m, eps, "decomposition")
    decomp = decompose(space, y, mq, eps, constants, node_budget)
    eps = decomp.eps
    constants = decomp.constants
    hc = decomp.base_content
    mf = float(mq)

    # removals first, fills after: a fill footprint may poke into a
    # neighbouring ball and must still survive into the new set
    new_cells = set(y.difference(*(b.cells for b in decomp.balls)))
    landing: dict = {}
    moved = 0  # the largest landing distance, in half cells
    cone_certs = []
    for b in decomp.balls:
        h = b.key[:-1]
        fill_keys, fill_cells = (), set()
        if b.slice_cells:
            slice_res = _content(space, b.slice_cells, mq - 1, node_budget=node_budget)
            fill_keys = slice_res.witness.keys
            for key in fill_keys:  # every lattice cell the ball holds, occupied or not
                fill_cells.update(itertools.product(
                    *(range(lo, hi + 1) for lo, hi in GridBalls.ranges(key))))
        new_cells |= fill_cells

        # nearest landing point, ties to the least point: the fill cells'
        # centres and the ball's centre h (2 half cells per cell side)
        fills = [(f, tuple(2 * x + 1 for x in f)) for f in sorted(fill_cells)]
        for c in sorted(b.cells):
            at = tuple(2 * x + 1 for x in c)
            if c in fill_cells:
                landing[c] = at
                continue
            dist, landing[c] = min([(max(abs(x - z) for x, z in zip(at, h)), h)] + [
                (2 * max(abs(x - z) for x, z in zip(c, f)), g) for f, g in fills])
            moved = max(moved, dist)

        # cone certificate: the swept (m+1)-cost inside this ball, reaching
        # over the farthest input ball (zip stops before a key's k)
        interior = _content(space, b.cells, mq, node_budget=node_budget).witness
        keys = fill_keys + interior.keys
        reach = max((max(abs(x - z) for x, z in zip(key, h)) + key[-1] for key in keys),
                    default=0)
        cover = Covering.keyed(interior.make, keys, b.cells | frozenset(b.slice_cells), mq)
        cone_certs.append(cone_covering(cover, b.center, max(b.radius, interior.make.part(reach)),
                                        mq + 1, "improved"))
    max_disp = moved * space.delta.numerator / (2 * space.delta.denominator)

    new_cells = frozenset(new_cells)
    if new_cells:
        after = _content(space, new_cells, mq, node_budget=node_budget).value_upper
    else:
        after = Fraction(0)

    hcf = float(hc)
    checks = [
        InequalityCheck.le("step_content_decay", float(after),
                           constants.decay * hcf + eps, 1e-12),
        InequalityCheck.le("step_displacement", max_disp,
                           3 * constants.ball_scale * hcf ** (1 / mf) + eps, 1e-12),
    ]
    step = ImprovementStep(
        decomp, new_cells, landing, hc, after, max_disp, tuple(cone_certs),
        tuple(checks), eps,
    )
    if not step.ok():
        raise VerificationError(
            "improvement step violated its certified bounds",
            {"checks": [c.to_dict() for c in checks]},
        )
    return step


# ---------------------------------------------------------------------------
# improvement sequences

@dataclass(frozen=True)
class SequenceReport:
    m: Fraction
    eps: float
    initial_content: Scalar
    steps: tuple[ImprovementStep, ...]
    contents: tuple  # content after 0..K steps
    final_cells: frozenset
    landing: dict  # original cell -> h of its final point delta/2 * h
    max_total_displacement: float
    checks: tuple[InequalityCheck, ...]

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@_solve_memo
def improvement_sequence(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    max_steps: int = 5,
    constants: Constants | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SequenceReport:
    """Iterate improvement steps with the shrinking slack schedule
    eps_k = eps / (3 m 10^m A 2^k), tracking every original cell through the
    step maps, and certify geometric decay plus cumulative displacement.  The
    sequence stops early once the content falls below 1e-4 of its start.
    Each carrier is the half-cell vector h of its point delta/2 * h, so the
    displacement is an integer l_inf distance in half cells.  m must be a
    finite number above 1, eps None or a number >= 0 that is finite as a
    float and max_steps an int >= 0, else an `InputError`."""
    y = _voxel_target(space, target, "improvement_sequence")
    mq, eps = _pipeline_args(m, eps, "decomposition")
    nonneg_int(max_steps, "max_steps")
    mf = float(mq)
    constants = constants or Constants.for_exponent(mq)
    hc0 = _content(space, y, mq, node_budget=node_budget).value_upper
    if eps is None:
        eps = 1e-3 * float(hc0)
    stop_content = 1e-4 * float(hc0)

    start = {c: tuple(2 * x + 1 for x in c) for c in y}
    landing = dict(start)
    steps = []
    contents = [hc0]
    current = y
    for k in range(1, max_steps + 1):
        if not current or float(contents[-1]) < stop_content:
            break
        eps_k = eps / (3 * mf * 10**mf * constants.ball_scale * 2**k)
        step = improvement_step(space, current, mq, eps_k, constants, node_budget)
        steps.append(step)
        contents.append(step.content_after)
        # a carrier at the centre of a cell, every h_i odd and the cell
        # (h - 1) // 2, lands where the step sends that cell if it removed
        # it; every other carrier stays put
        for orig, h in landing.items():
            if all(x & 1 for x in h):
                to = step.landing.get(tuple(x >> 1 for x in h))
                if to is not None:
                    landing[orig] = to
        current = step.new_cells

    moved = max((max(abs(x - z) for x, z in zip(start[c], h)) for c, h in landing.items()),
                default=0)
    max_disp = moved * space.delta.numerator / (2 * space.delta.denominator)
    hcf = float(hc0)
    checks = [
        InequalityCheck.le(f"geometric_decay_{k}", float(contents[k]),
                           constants.decay ** k * hcf + eps, 1e-12)
        for k in range(1, len(steps) + 1)
    ]
    checks.append(InequalityCheck.le(
        "cumulative_displacement", max_disp,
        constants.radius_constant * hcf ** (1 / mf) + eps, 1e-12,
        note="exponent-1/m reading; the alternative reading is reported by fill",
    ))
    report = SequenceReport(
        mq, eps, hc0, tuple(steps), tuple(contents), frozenset(current),
        landing, max_disp, tuple(checks),
    )
    if not report.ok():
        raise VerificationError(
            "improvement sequence violated its certified bounds",
            {"checks": [c.to_dict() for c in report.checks]},
        )
    return report


# ---------------------------------------------------------------------------
# the full filling pipeline

@dataclass(frozen=True)
class FillingCertificate:
    m: Fraction
    constants: Constants
    base_content: Scalar
    sequence: SequenceReport
    pushout_trace: object  # DeformationTrace | None
    trace_total: float  # accumulated (m+1)-cost
    filling_radius: float
    checks: tuple[InequalityCheck, ...]
    step_rows: tuple  # (k, content, displacement) for plotting

    def ok(self) -> bool:
        return all(c.ok for c in self.checks if not c.advisory)

    def to_dict(self) -> dict:
        return {
            "m": fmt_scalar(self.m),
            "base_content": fmt_scalar(self.base_content),
            "trace_total": self.trace_total,
            "filling_radius": self.filling_radius,
            "alpha_per_step": [s.decomposition.alpha for s in self.sequence.steps],
            "contents": [fmt_scalar(c) for c in self.sequence.contents],
            "cone_costs": [
                [fmt_scalar(c.cost) for c in s.cone_certificates]
                for s in self.sequence.steps
            ],
            "pushout": self.pushout_trace.to_dict() if self.pushout_trace else None,
            "checks": [c.to_dict() for c in self.checks],
            "measured": {
                "trace_over_content_power": (
                    self.trace_total / float(self.base_content) ** ((float(self.m) + 1) / float(self.m))
                    if float(self.base_content) > 0 else 0.0
                ),
                "radius_over_content_root": (
                    self.filling_radius / float(self.base_content) ** (1 / float(self.m))
                    if float(self.base_content) > 0 else 0.0
                ),
                "filling_constant_next": Constants.for_exponent(self.m + 1).filling_constant,
                "radius_constant": self.constants.radius_constant,
            },
        }


@_solve_memo
def fill(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    max_steps: int = 50,
    constants: Constants | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    pushout_candidates: int = DEFAULT_CANDIDATES,
) -> FillingCertificate:
    """Run the improvement sequence, account every swept cone's (m+1)-cost,
    finish the residue with a skeleton descent, and verify the two final
    bounds: total (m+1)-cost against the filling constant at m+1, and the
    landing distance against the radius constant at m.  m must be a finite
    number above 1, eps None or a number >= 0 that is finite as a float,
    and max_steps and pushout_candidates ints >= 0 (max_steps 0 fills by
    the pushout alone), else an `InputError` before any solve."""
    y = _voxel_target(space, target, "fill")
    mq, eps = _pipeline_args(m, eps, "filling")
    nonneg_int(max_steps, "max_steps")
    nonneg_int(pushout_candidates, "pushout_candidates")
    constants = constants or Constants.for_exponent(mq)
    seq = improvement_sequence(space, y, mq, eps, max_steps, constants, node_budget)
    hc = seq.initial_content
    hcf = float(hc)
    mf = float(mq)
    eps_used = seq.eps
    next_constants = Constants.for_exponent(mq + 1)

    trace_total = 0.0
    step_checks = []
    for k, step in enumerate(seq.steps, start=1):
        step_cost = sum(float(c.cost) for c in step.cone_certificates)
        trace_total += step_cost
        alpha = step.decomposition.alpha
        content_k = float(seq.contents[k - 1])
        proven = ((mf / (mf + 1)) ** (mf + 1)
                  * next_constants.filling_constant
                  * alpha ** (mf + 1) * content_k ** ((mf + 1) / mf) + step.eps)
        step_checks.append(InequalityCheck.le(
            f"step_cone_cost_{k}", step_cost, proven, TOL,
            note="proven per-step coning bound",
        ))
        printed = 0.25 * constants.filling_constant * alpha ** (mf + 1) \
            * content_k ** ((mf + 1) / mf) + step.eps
        step_checks.append(InequalityCheck.le(
            f"step_cone_cost_printed_{k}", step_cost, printed, TOL,
            note="reported only: the printed improvement-pair constant",
            advisory=True,
        ))
        # per-ball coning comparison in the e*m*r_j form; the certificate's
        # input cost is exactly the slice-fill cost plus the interior content
        for j, cert in enumerate(step.cone_certificates):  # one per ball
            em_bound = math.e * mf * float(cert.ambient_radius) * float(cert.input_cost)
            step_checks.append(InequalityCheck.le(
                f"step_{k}_ball_{j}_coning", float(cert.cost), em_bound, TOL,
                note="e*m*r bound at the certificate's enclosing radius",
                advisory=True,
            ))

    pushout_trace = None
    pushout_disp = 0.0
    residual = seq.final_cells
    if residual:
        res_content = _content(space, residual, mq,
                               node_budget=node_budget).value_upper
        R = grid_R_for_content(float(res_content), mf + 1, space.n,
                               delta=space.delta)
        grid = CubicalGrid(space.n, R)
        points = [space.cell_center(c) for c in sorted(residual)]
        pushout_trace = skeleton_descend(
            points, grid, next_constants.m, candidates=pushout_candidates,
            floor=space.delta / 2,
        )
        trace_total += float(pushout_trace.trace_content)
        pushout_disp = float(pushout_trace.max_displacement)

    filling_radius = seq.max_total_displacement + pushout_disp
    final_checks = [
        InequalityCheck.le(
            "total_trace_cost", trace_total,
            next_constants.filling_constant * hcf ** ((mf + 1) / mf) + eps_used, TOL,
        ),
        InequalityCheck.le(
            "filling_radius", filling_radius,
            constants.radius_constant * hcf ** (1 / mf) + eps_used, TOL,
        ),
    ]
    rows = [
        (k, float(seq.contents[k]),
         seq.steps[k - 1].max_displacement if k >= 1 else 0.0)
        for k in range(len(seq.contents))
    ]
    cert = FillingCertificate(
        mq, constants, hc, seq, pushout_trace, trace_total, filling_radius,
        tuple(step_checks + final_checks), tuple(rows),
    )
    if not all(c.ok for c in final_checks):
        raise VerificationError(
            "filling certificate violated a final bound",
            cert.to_dict(),
        )
    return cert
