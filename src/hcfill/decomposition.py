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
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .content import _branch_and_bound, _Candidate, _RatioBound, exact_content
from .cone import ConeCertificate, cone_covering
from .errors import DecompositionViolation, InputError, VerificationError
from .exact import TOL, Scalar, as_fraction, fmt_scalar, is_integral, power, root
from .pushout import CubicalGrid, grid_R_for_content, skeleton_descend
from .space import (
    Ball,
    Covering,
    ElementBits,
    VoxelSpace,
    ball_cell_ranges,
    ball_members,
    linf,
)

_TWELVE = 12


def _voxel_target(space, target, caller: str) -> frozenset:
    """The target cells, all of the space's when None, of a voxel-only step."""
    if not isinstance(space, VoxelSpace):
        raise InputError(f"{caller} needs the voxel model")
    return frozenset(target) if target is not None else frozenset(space.cells)


# ---------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class Constants:
    """The quantitative knobs implied by exponent m.

    filling_constant   -- (100 m)^m, the content constant of the extension
    ball_scale         -- A(m) = [100 m 4^(1/(m-1)) (100m)^m]^((m-1)/m)
    radius_constant    -- 10 m 12^m A(m), the filling-radius constant
    decay              -- 1 - 1/(2*12^m), per-step content ratio
    """

    m: Fraction
    filling_constant: float
    ball_scale: float
    radius_constant: float
    decay: float

    @classmethod
    def for_exponent(cls, m: Scalar) -> "Constants":
        mq = as_fraction(m)
        mf = float(mq)
        if mf <= 1:
            raise InputError("constants need m > 1 (the 4^(1/(m-1)) term)")
        filling = (100 * mf) ** mf
        ball_scale = (100 * mf * 4 ** (1 / (mf - 1)) * filling) ** ((mf - 1) / mf)
        radius = 10 * mf * _TWELVE**mf * ball_scale
        decay = 1 - 1 / (2 * _TWELVE**mf)
        if not ball_scale < filling:
            raise InputError("scale constant failed its sanity bound")
        return cls(mq, filling, ball_scale, radius, decay)

    def bounds_report(self) -> dict:
        """Comparisons against the coarse closed forms; the radius-constant
        one fails for small m and is reported, never asserted."""
        mf = float(self.m)
        return {
            "ball_scale_lt_100m_pow_m": self.ball_scale < (100 * mf) ** mf,
            "radius_constant": self.radius_constant,
            "radius_coarse_form": (1500 * mf) ** mf,
            "radius_lt_coarse_form": self.radius_constant < (1500 * mf) ** mf,
        }


# ---------------------------------------------------------------------------
# content relative to a fixed covering

class TildeContent:
    """Exact set-cover content where only subfamilies of the fixed covering
    Q are admissible.  The Q balls' member masks are built once per context
    by `ElementBits.ball`.  A solve runs the content solver's
    `_branch_and_bound` over the Q balls that meet the goal mask (bits of
    `cells` in `index` order), without an incumbent, so its witness is the
    first cheapest cover in depth-first order.  `solve_mask` is the one
    entry, cached per (goal mask, exponent); `solve` takes a cell set."""

    def __init__(self, space: VoxelSpace, cells, q_balls):
        self.space = space
        self.cells = tuple(sorted(cells))
        self.q_balls = tuple(q_balls)
        bits = ElementBits(space, self.cells)
        self.index = bits.index
        self.masks = [bits.ball(b) for b in self.q_balls]
        self._cost_cache: dict[Fraction, list] = {}
        self._value_cache: dict[tuple, Scalar] = {}

    def _costs(self, exponent: Fraction):
        costs = self._cost_cache.get(exponent)
        if costs is None:
            costs = [power(b.radius, exponent) for b in self.q_balls]
            self._cost_cache[exponent] = costs
        return costs

    def subset_mask(self, subset) -> int:
        mask = 0
        for c in subset:
            mask |= 1 << self.index[c]
        return mask

    def value(self, subset, exponent: Scalar) -> Scalar:
        cost, _ = self.solve(subset, exponent)
        return cost

    def solve(self, subset, exponent: Scalar):
        """(cost, ball indices) of the cheapest subfamily covering `subset`."""
        return self.solve_mask(self.subset_mask(subset), exponent)

    def solve_mask(self, goal: int, exponent: Scalar):
        """`solve` for the cells whose bits are set in `goal`."""
        exponent = as_fraction(exponent)
        key = (goal, exponent)
        hit = self._value_cache.get(key)
        if hit is not None:
            return hit
        if goal == 0:
            result = (Fraction(0) if is_integral(exponent) else 0.0, ())
            self._value_cache[key] = result
            return result
        costs = self._costs(exponent)
        usable = sorted((costs[i], i) for i, mask in enumerate(self.masks)
                        if mask & goal)
        cands = [_Candidate(self.q_balls[i], self.masks[i] & goal, cost)
                 for cost, i in usable]
        covered_all = 0
        for cand in cands:
            covered_all |= cand.mask
        if covered_all != goal:
            raise InputError("fixed covering cannot cover the requested subset")
        ratio = _RatioBound(cands)
        cost, sel, _, _ = _branch_and_bound(cands, ratio, goal, math.inf, math.inf, ())
        result = (ratio.scalar(cost), tuple(usable[i][1] for i in sel))
        self._value_cache[key] = result
        return result

    def witness(self, subset, exponent: Scalar) -> list[Ball]:
        _, sel = self.solve(subset, exponent)
        return [self.q_balls[i] for i in sel]


def prune_redundant(space: VoxelSpace, balls, target) -> tuple[Ball, ...]:
    """Drop every ball whose covered target cells lie in the union of the
    others', largest radius first, until each survivor has a private cell."""
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


# ---------------------------------------------------------------------------
# density profiles and radii

@dataclass(frozen=True)
class DensityProfile:
    """Piecewise description of r -> tildeHC(B(p,r) cap Y)/r^m: the relative
    content is constant between consecutive occupied distances, so lambda
    decays like r^-m on each segment and jumps up at each breakpoint."""

    point: tuple
    m: Fraction
    breakpoints: tuple  # sorted distances from p to the cells of Y
    segment_values: tuple  # tilde content of B(p, breakpoints[i]) cap Y

    def density(self, r: Scalar) -> float:
        rf = as_fraction(r)
        if rf <= 0:
            raise InputError("density is defined for r > 0")
        value = None
        for d, v in zip(self.breakpoints, self.segment_values):
            if d <= rf:
                value = v
            else:
                break
        if value is None:
            return 0.0
        return float(value) / float(rf) ** float(self.m)


def density_profile(space: VoxelSpace, p, target, tilde,
                    m: Scalar) -> DensityProfile:
    """Full piecewise density table at a point; `tilde` may be a prepared
    TildeContent context, a FixedFamily, or a plain iterable of balls."""
    if not isinstance(tilde, TildeContent):
        balls = tilde.balls if hasattr(tilde, "balls") else tuple(tilde)
        tilde = TildeContent(space, target, balls)
    mq = as_fraction(m)
    p = tuple(as_fraction(x) for x in p)
    unit, keys = _linf_units(space, p, target)
    dists, prefix = _prefix_masks(tilde, keys)
    ends = _distinct_ends(dists)
    return DensityProfile(
        p, mq, tuple(dists[end - 1] * unit for end in ends),
        tuple(tilde.solve_mask(prefix[end], mq)[0] for end in ends),
    )


def _linf_units(space: VoxelSpace, p, cells):
    """(unit, [(k, cell)] sorted): the l_inf distance from p to each cell
    center is k * unit, k an integer.  Cell centers lie on the half-cell
    lattice, so the unit is delta/2 divided by the lcm L of the denominators
    of p's coordinates in half-cell units; delta/2 is L units."""
    half = space.delta / 2
    scaled = [as_fraction(x) / half for x in p]
    lcm = math.lcm(*(x.denominator for x in scaled))
    at = [x.numerator * (lcm // x.denominator) for x in scaled]
    keys = sorted(
        (max(abs((2 * ci + 1) * lcm - a) for ci, a in zip(c, at)), c) for c in cells
    )
    return half / lcm, keys


def _prefix_masks(tilde: TildeContent, keys):
    """The distance keys in order, and the masks of their first i cells."""
    index = tilde.index
    prefix = [0]
    for _, c in keys:
        prefix.append(prefix[-1] | 1 << index[c])
    return [k for k, _ in keys], prefix


def _distinct_ends(dists):
    """Each i after which the sorted distances change (or end): the cells
    within dists[i - 1] are the first i."""
    return [i for i in range(1, len(dists) + 1)
            if i == len(dists) or dists[i] != dists[i - 1]]


def critical_radius(space: VoxelSpace, p, target, tilde: TildeContent,
                    m: Scalar, ball_scale: float):
    """Largest radius where the density still reaches 1/A^m.

    Scanning segments from the top: on a segment with relative content H the
    density reaches the threshold up to radius A * H^(1/m), so the first
    (largest) segment whose candidate radius lands inside it yields the
    supremum.  Returns (r(p), content at r(p), covered cells at r(p)).
    """
    mq = as_fraction(m)
    p = tuple(as_fraction(x) for x in p)
    unit, keys = _linf_units(space, p, target)
    dists, prefix = _prefix_masks(tilde, keys)
    for end in reversed(_distinct_ends(dists)):
        h, _ = tilde.solve_mask(prefix[end], mq)
        if float(h) <= 0:
            continue
        cand = as_fraction(ball_scale * root(h, mq))
        reach = cand // unit  # d <= cand for a distance d = k * unit iff k <= reach
        if reach >= dists[end - 1]:
            at = bisect_right(dists, reach)
            eta, _ = tilde.solve_mask(prefix[at], mq)
            return cand, eta, frozenset(c for _, c in keys[:at])
    raise InputError("density never reaches the threshold at this point")


def annulus_radius(space: VoxelSpace, p, r_crit, target, tilde: TildeContent,
                   m: Scalar):
    """Slice level r_bar in [(1+1/m) r(p), (1+1/m)^2 r(p)] minimizing the
    coarea majorant of the sphere through the annulus, with the chosen
    slice's cells and certified costs."""
    from .coarea import DistanceToPoint, best_slice, slice_profile

    mq = as_fraction(m)
    p = tuple(as_fraction(x) for x in p)
    r1 = (1 + 1 / mq) * as_fraction(r_crit)
    r2 = (1 + 1 / mq) ** 2 * as_fraction(r_crit)
    unit, keys = _linf_units(space, p, target)
    dists, prefix = _prefix_masks(tilde, keys)
    # the cells whose centers lie within half a cell (L units) of [r1, r2]
    half = space.delta / 2 / unit
    lo = bisect_right(dists, math.ceil(r1 / unit - half) - 1)
    hi = bisect_right(dists, math.floor(r2 / unit + half))
    annulus = frozenset(c for _, c in keys[lo:hi])
    if not annulus:
        return {
            "r_bar": r1,
            "slice_cost": Fraction(0),
            "slice_cells": frozenset(),
            "annulus_cells": frozenset(),
            "annulus_value": Fraction(0),
        }
    value, sel = tilde.solve_mask(prefix[hi] ^ prefix[lo], mq)
    cover = Covering(tuple(tilde.q_balls[i] for i in sel), annulus, mq)
    profile = slice_profile(space, annulus, DistanceToPoint(p), cover, (r1, r2))
    r_bar, slice_cost = best_slice(profile, mq)
    return {
        "r_bar": r_bar,
        "slice_cost": slice_cost,
        "slice_cells": profile.level_set(r_bar),
        "annulus_cells": annulus,
        "annulus_value": value,
    }


def vitali_select(candidates, space: VoxelSpace, target):
    """Greedy disjoint selection by decreasing radius; verifies exactly that
    the selected balls are pairwise disjoint and their tripled concentric
    balls cover the target."""
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
    for c in target:
        center = space.cell_center(c)
        if not any(
            as_fraction(linf(center, candidates[j][0])) <= 3 * as_fraction(candidates[j][1])
            for j in selected
        ):
            raise InputError(
                "candidate balls do not cover the target even tripled"
            )
    return selected


# ---------------------------------------------------------------------------
# the decomposition

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool
    note: str = ""
    advisory: bool = False  # recorded for the report, never a failure

    def to_dict(self) -> dict:
        d = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}
        if self.note:
            d["note"] = self.note
        if self.advisory:
            d["advisory"] = True
        return d


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
    q_balls: tuple[Ball, ...]
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
            "q_balls": [b.to_dict() for b in self.q_balls],
            "balls": [b.to_dict() for b in self.balls],
            "checks": [c.to_dict() for c in self.checks],
        }


def decompose(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    constants: Constants | None = None,
    node_budget: int = 10**6,
) -> Decomposition:
    """Build and certify a disjoint-ball decomposition of the target.

    Raises DecompositionViolation (with the full report) if any certified
    inequality fails; that is a falsification event, not a recoverable state.
    """
    y = _voxel_target(space, target, "decompose")
    if not y:
        raise InputError("target must be non-empty")
    if not y <= space.cells:
        raise InputError(f"target has {len(y - space.cells)} cells outside the space")
    mq = as_fraction(m)
    if mq <= 1:
        raise InputError("decomposition needs m > 1")
    constants = constants or Constants.for_exponent(mq)
    A = constants.ball_scale

    base = exact_content(space, y, mq, node_budget=node_budget)
    hc = base.value_upper
    if eps is None:
        eps = 1e-3 * float(hc)

    q_balls = prune_redundant(space, base.witness.balls, y)
    tilde = TildeContent(space, y, q_balls)
    tilde_total = tilde.value(y, mq)

    # per-center critical and slice radii
    entries = []
    for ball in q_balls:
        p = ball.center
        r_crit, eta, _core = critical_radius(space, p, y, tilde, mq, A)
        ann = annulus_radius(space, p, r_crit, y, tilde, mq)
        entries.append((p, r_crit, eta, ann))

    selected_idx = vitali_select(
        [(p, ann["r_bar"]) for p, _, _, ann in entries], space, y
    )

    mf = float(mq)
    balls = []
    for i in selected_idx:
        p, r_crit, eta, ann = entries[i]
        r_bar = as_fraction(ann["r_bar"])
        slice_cells = ann["slice_cells"]
        balls.append(
            DecompositionBall(
                center=p,
                critical_radius=as_fraction(r_crit),
                radius=r_bar,
                theta=float(r_bar) / float(r_crit),
                core_content=eta,
                slice_cells=slice_cells,
                slice_cost_majorant=ann["slice_cost"],
                slice_content=tilde.value(slice_cells, mq - 1),
                ball_content=tilde.value(
                    ball_members(Ball(p, r_bar), space) & y, mq
                ),
            )
        )

    alpha = (sum(float(b.core_content) for b in balls) / float(tilde_total)) ** (1 / mf)
    checks = _decomposition_checks(space, y, mq, eps, constants, hc, tilde_total,
                                   tilde, balls, alpha, node_budget)
    decomp = Decomposition(
        mq, eps, constants, hc, tilde_total, q_balls, tuple(balls), alpha,
        tuple(checks),
    )
    if not decomp.ok():
        raise DecompositionViolation(
            "decomposition-violation", decomp.to_dict()
        )
    return decomp


def verify_decomposition(space: VoxelSpace, target, decomp: Decomposition,
                         node_budget: int = 10**6) -> dict:
    """Independent re-check of an emitted decomposition: rebuilds the
    relative-content context from the stored covering, recomputes every
    per-ball quantity and both sides of every inequality from raw data, and
    re-verifies disjointness and the tripled cover exactly.  Its distances
    are `linf` on Fraction points, not the integer keys of `_linf_units`
    that `decompose` uses, so that it stays an independent check of them."""
    y = frozenset(target)
    if not y <= space.cells:
        raise InputError(f"target has {len(y - space.cells)} cells outside the space")
    mq = decomp.m
    tilde = TildeContent(space, y, decomp.q_balls)
    tilde_total = tilde.value(y, mq)
    report = {"tilde_total_matches": tilde_total == decomp.tilde_total}

    for i, a in enumerate(decomp.balls):
        for b in decomp.balls[i + 1:]:
            if linf(a.center, b.center) <= a.radius + b.radius:
                report["disjoint"] = False
                break
    report.setdefault("disjoint", True)
    report["tripled_cover"] = all(
        any(
            as_fraction(linf(space.cell_center(c), b.center)) <= 3 * b.radius
            for b in decomp.balls
        )
        for c in y
    )

    fresh = []
    for b in decomp.balls:
        core = frozenset(
            c for c in y
            if as_fraction(linf(space.cell_center(c), b.center)) <= b.critical_radius
        )
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
                ball_content=tilde.value(
                    ball_members(Ball(b.center, b.radius), space) & y, mq
                ),
            )
        )
    alpha = (sum(float(b.core_content) for b in fresh)
             / float(tilde_total)) ** (1 / float(mq))
    report["alpha_matches"] = abs(alpha - decomp.alpha) <= TOL
    checks = _decomposition_checks(
        space, y, mq, decomp.eps, decomp.constants, decomp.base_content,
        tilde_total, tilde, fresh, alpha, node_budget,
    )
    report["checks_ok"] = all(c.ok for c in checks if not c.advisory)
    report["ok"] = all(
        v for k, v in report.items() if isinstance(v, bool)
    )
    return report


def _decomposition_checks(space, y, mq, eps, constants, hc, tilde_total,
                          tilde, balls, alpha, node_budget):
    mf = float(mq)
    A = constants.ball_scale
    hcf = float(hc)
    checks = []

    max_r = max((float(b.radius) for b in balls), default=0.0)
    checks.append(InequalityCheck(
        "max_ball_radius", max_r,
        (1 + 1 / mf) ** 2 * A * hcf ** (1 / mf) + eps,
        max_r <= (1 + 1 / mf) ** 2 * A * hcf ** (1 / mf) + eps,
    ))

    removed = set()
    for b in balls:
        removed |= ball_members(Ball(b.center, b.radius), space) & y
    survivors = y - removed
    if survivors:
        left = float(exact_content(space, survivors, mq,
                                   node_budget=node_budget).value_upper)
    else:
        left = 0.0
    rhs = (1 - alpha**mf) * hcf + eps
    checks.append(InequalityCheck("content_drop", left, rhs, left <= rhs + 1e-12))

    exp_ratio = mf / (mf - 1)
    lhs33 = sum(float(b.radius) * float(b.slice_content) ** exp_ratio for b in balls)
    rhs33 = (200 * 4 ** (1 / (mf - 1)) * mf * alpha ** (mf + 1)
             / A ** (1 / (mf - 1))) * hcf ** ((mf + 1) / mf) + eps
    checks.append(InequalityCheck("weighted_slice_sum", lhs33, rhs33,
                                  lhs33 <= rhs33 + 1e-12))

    lhs34 = sum(float(b.slice_content) ** exp_ratio for b in balls)
    rhs34 = (50 * mf * 4 ** (1 / (mf - 1)) * alpha**mf
             / A ** (mf / (mf - 1))) * hcf + eps
    checks.append(InequalityCheck("slice_sum", lhs34, rhs34, lhs34 <= rhs34 + 1e-12))

    lhs35 = sum(float(b.radius) * float(b.ball_content) for b in balls)
    rhs35 = 20 * alpha ** (mf + 1) * A * hcf ** ((mf + 1) / mf) + eps
    checks.append(InequalityCheck("weighted_ball_content_sum", lhs35, rhs35,
                                  lhs35 <= rhs35 + 1e-12))

    checks.append(InequalityCheck(
        "density_constant_range", alpha, 1.0,
        1.0 / 12.0 < alpha <= 1.0 + TOL,
        note="must lie in (1/12, 1]",
    ))

    core_sum = sum(float(b.core_content) for b in balls)
    checks.append(InequalityCheck(
        "disjoint_core_additivity", core_sum, float(tilde_total),
        core_sum <= float(tilde_total) + TOL,
    ))

    # coarea selection bound per ball, against the slightly enlarged ball
    # that provably contains every slice cell in the discrete model
    half = space.delta / 2
    for idx, b in enumerate(balls):
        if not b.slice_cells:
            continue
        unit, keys = _linf_units(space, b.center, y)
        dists, prefix = _prefix_masks(tilde, keys)
        reach = ((1 + 1 / mq) ** 2 * b.critical_radius + half) // unit
        big = float(tilde.solve_mask(prefix[bisect_right(dists, reach)], mq)[0])
        bound = (2 * mf**2 / ((mf + 1) * float(b.critical_radius))) * big
        lhs = float(b.slice_content)
        checks.append(InequalityCheck(
            f"coarea_slice_{idx}", lhs, bound, lhs <= bound + 1e-12,
            note="annulus enlarged by half a cell for the discrete slice",
        ))
        majorant = float(b.slice_cost_majorant)
        checks.append(InequalityCheck(
            f"slice_majorant_{idx}", lhs, majorant, lhs <= majorant + 1e-12,
            note="step-function majorant dominates the slice content",
        ))
    return checks


# ---------------------------------------------------------------------------
# improvement steps

@dataclass(frozen=True)
class ImprovementStep:
    decomposition: Decomposition
    new_cells: frozenset
    theta: dict  # removed cell -> landing point (tuple of Fractions)
    content_before: Scalar
    content_after: Scalar
    max_displacement: float
    cone_certificates: tuple[ConeCertificate, ...]
    checks: tuple[InequalityCheck, ...]
    eps: float

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def improvement_step(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    constants: Constants | None = None,
    node_budget: int = 10**6,
) -> ImprovementStep:
    """One content-reduction step: decompose, replace each selected ball's
    interior by the grid-cover footprint of its boundary slice, and certify
    the content decay and the displacement bound."""
    y = _voxel_target(space, target, "improvement_step")
    mq = as_fraction(m)
    decomp = decompose(space, y, mq, eps, constants, node_budget)
    eps = decomp.eps
    constants = decomp.constants
    hc = decomp.base_content
    mf = float(mq)

    # removals first, fills after: a fill footprint may poke into a
    # neighbouring ball and must still survive into the new set
    per_ball = []
    removed: set = set()
    for b in decomp.balls:
        inside = ball_members(Ball(b.center, b.radius), space) & y
        removed |= inside
        fill_balls: list[Ball] = []
        fill_cells: set = set()
        if b.slice_cells:
            slice_res = exact_content(space, b.slice_cells, mq - 1,
                                      node_budget=node_budget)
            fill_balls = list(slice_res.witness.balls)
            for fb in fill_balls:
                fill_cells |= _lattice_cells(fb, space)
        per_ball.append((b, inside, fill_balls, fill_cells))

    new_cells = set(y) - removed
    for _, _, _, fill_cells in per_ball:
        new_cells |= fill_cells

    theta: dict = {}
    cone_certs = []
    for b, inside, fill_balls, fill_cells in per_ball:
        # nearest landing point, ties to the least point: the fill cells'
        # centers and the ball's center, at distances in the units of
        # `_linf_units` from the ball's center (a cell side is 2L of them)
        unit, to_center = _linf_units(space, b.center, inside)
        side = int(space.delta / unit)
        fills = [(c, space.cell_center(c)) for c in sorted(fill_cells)]
        for k, c in sorted(to_center, key=lambda kc: kc[1]):
            if c in fill_cells:
                theta[c] = space.cell_center(c)
                continue
            best = min(
                [(k, b.center)] + [
                    (side * max(abs(x - y) for x, y in zip(c, f)), point)
                    for f, point in fills
                ]
            )
            theta[c] = best[1]

        # cone certificate: the swept (m+1)-cost inside this ball
        interior_res = exact_content(space, inside, mq, node_budget=node_budget)
        z_balls = tuple(fill_balls) + interior_res.witness.balls
        reach = max(
            as_fraction(linf(zb.center, b.center)) + as_fraction(zb.radius)
            for zb in z_balls
        )
        reach = max(reach, as_fraction(b.radius))
        cover = Covering(z_balls, inside | frozenset(b.slice_cells), mq)
        cone_certs.append(cone_covering(cover, b.center, reach, mq + 1, "improved"))

    new_cells = frozenset(new_cells)
    if new_cells:
        after = exact_content(space, new_cells, mq, node_budget=node_budget).value_upper
    else:
        after = Fraction(0)

    max_disp = 0.0
    for c, landing in theta.items():
        max_disp = max(max_disp, float(linf(space.cell_center(c), landing)))

    hcf = float(hc)
    checks = [
        InequalityCheck(
            "step_content_decay", float(after), constants.decay * hcf + eps,
            float(after) <= constants.decay * hcf + eps + 1e-12,
        ),
        InequalityCheck(
            "step_displacement", max_disp,
            3 * constants.ball_scale * hcf ** (1 / mf) + eps,
            max_disp <= 3 * constants.ball_scale * hcf ** (1 / mf) + eps + 1e-12,
        ),
    ]
    step = ImprovementStep(
        decomp, new_cells, theta, hc, after, max_disp, tuple(cone_certs),
        tuple(checks), eps,
    )
    if not step.ok():
        raise VerificationError(
            "improvement step violated its certified bounds",
            {"checks": [c.to_dict() for c in checks]},
        )
    return step


def _lattice_cells(ball: Ball, space: VoxelSpace) -> set:
    """All ambient lattice cells within the ball (not just occupied ones)."""
    return set(itertools.product(*(range(a, b + 1)
                                   for a, b in ball_cell_ranges(ball, space))))


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
    carriers: dict  # original cell -> final landing point
    max_total_displacement: float
    checks: tuple[InequalityCheck, ...]

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def improvement_sequence(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    max_steps: int = 5,
    stop_content: float | None = None,
    constants: Constants | None = None,
    node_budget: int = 10**6,
) -> SequenceReport:
    """Iterate improvement steps with the shrinking slack schedule
    eps_k = eps / (3 m 10^m A 2^k), tracking every original cell through the
    step maps, and certify geometric decay plus cumulative displacement."""
    y = _voxel_target(space, target, "improvement_sequence")
    mq = as_fraction(m)
    mf = float(mq)
    constants = constants or Constants.for_exponent(mq)
    hc0 = exact_content(space, y, mq, node_budget=node_budget).value_upper
    if eps is None:
        eps = 1e-3 * float(hc0)
    if stop_content is None:
        stop_content = 1e-4 * float(hc0)

    carriers = {c: ("cell", c) for c in y}
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
        for orig, state in list(carriers.items()):
            kind, value = state
            if kind != "cell":
                continue
            cell = value
            if cell in step.theta:
                landing = step.theta[cell]
                landed_cell = _point_cell(landing, space)
                if landed_cell in step.new_cells and \
                        space.cell_center(landed_cell) == landing:
                    carriers[orig] = ("cell", landed_cell)
                else:
                    carriers[orig] = ("point", landing)
            # survivors keep their cell
        current = step.new_cells

    final_pos = {}
    max_disp = 0.0
    for orig, (kind, v) in carriers.items():
        pos = space.cell_center(v) if kind == "cell" else v
        final_pos[orig] = pos
        max_disp = max(max_disp, float(linf(space.cell_center(orig), pos)))

    hcf = float(hc0)
    checks = []
    for k, step in enumerate(steps, start=1):
        bound = constants.decay ** k * hcf + eps
        checks.append(InequalityCheck(
            f"geometric_decay_{k}", float(contents[k]), bound,
            float(contents[k]) <= bound + 1e-12,
        ))
    radius_bound = constants.radius_constant * hcf ** (1 / mf) + eps
    checks.append(InequalityCheck(
        "cumulative_displacement", max_disp, radius_bound,
        max_disp <= radius_bound + 1e-12,
        note="exponent-1/m reading; the alternative reading is reported by fill",
    ))
    report = SequenceReport(
        mq, eps, hc0, tuple(steps), tuple(contents), frozenset(current),
        final_pos, max_disp, tuple(checks),
    )
    if not report.ok():
        raise VerificationError(
            "improvement sequence violated its certified bounds",
            {"checks": [c.to_dict() for c in report.checks]},
        )
    return report


def _point_cell(point, space: VoxelSpace):
    out = []
    for x in point:
        q = as_fraction(x) / space.delta
        out.append(q.numerator // q.denominator)
    return tuple(out)


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


def fill(
    space: VoxelSpace,
    target=None,
    m: Scalar = 2,
    eps: float | None = None,
    max_steps: int = 50,
    constants: Constants | None = None,
    node_budget: int = 10**6,
    pushout_candidates: int = 16,
) -> FillingCertificate:
    """Run the improvement sequence, account every swept cone's (m+1)-cost,
    finish the residue with a skeleton descent, and verify the two final
    bounds: total (m+1)-cost against the filling constant at m+1, and the
    landing distance against the radius constant at m."""
    y = _voxel_target(space, target, "fill")
    mq = as_fraction(m)
    if mq <= 1:
        raise InputError("filling needs m > 1")
    constants = constants or Constants.for_exponent(mq)
    seq = improvement_sequence(
        space, y, mq, eps, max_steps, None, constants, node_budget
    )
    hc = seq.initial_content
    hcf = float(hc)
    mf = float(mq)
    eps_used = seq.eps

    trace_total = 0.0
    step_checks = []
    for k, step in enumerate(seq.steps, start=1):
        step_cost = sum(float(c.cost) for c in step.cone_certificates)
        trace_total += step_cost
        alpha = step.decomposition.alpha
        content_k = float(seq.contents[k - 1])
        proven = ((mf / (mf + 1)) ** (mf + 1)
                  * Constants.for_exponent(mq + 1).filling_constant
                  * alpha ** (mf + 1) * content_k ** ((mf + 1) / mf) + step.eps)
        step_checks.append(InequalityCheck(
            f"step_cone_cost_{k}", step_cost, proven,
            step_cost <= proven + TOL,
            note="proven per-step coning bound",
        ))
        printed = 0.25 * constants.filling_constant * alpha ** (mf + 1) \
            * content_k ** ((mf + 1) / mf) + step.eps
        step_checks.append(InequalityCheck(
            f"step_cone_cost_printed_{k}", step_cost, printed,
            step_cost <= printed + TOL,
            note="reported only: the printed improvement-pair constant",
            advisory=True,
        ))
        # per-ball coning comparison in the e*m*r_j form; the certificate's
        # input cost is exactly the slice-fill cost plus the interior content
        for j, (b, cert) in enumerate(
            zip(step.decomposition.balls, step.cone_certificates)
        ):
            em_bound = math.e * mf * float(cert.ambient_radius) * float(cert.input_cost)
            step_checks.append(InequalityCheck(
                f"step_{k}_ball_{j}_coning", float(cert.cost), em_bound,
                float(cert.cost) <= em_bound + TOL,
                note="e*m*r bound at the certificate's enclosing radius",
                advisory=True,
            ))

    pushout_trace = None
    pushout_disp = 0.0
    residual = seq.final_cells
    if residual:
        res_content = exact_content(space, residual, mq,
                                    node_budget=node_budget).value_upper
        R = grid_R_for_content(float(res_content), mf + 1, space.n,
                               delta=space.delta)
        grid = CubicalGrid(space.n, R)
        points = [space.cell_center(c) for c in sorted(residual)]
        pushout_trace = skeleton_descend(
            points, grid, mq + 1, candidates=pushout_candidates,
            floor=space.delta / 2,
        )
        trace_total += float(pushout_trace.trace_content)
        pushout_disp = float(pushout_trace.max_displacement)

    filling_radius = seq.max_total_displacement + pushout_disp
    next_constants = Constants.for_exponent(mq + 1)
    final_checks = [
        InequalityCheck(
            "total_trace_cost", trace_total,
            next_constants.filling_constant * hcf ** ((mf + 1) / mf) + eps_used,
            trace_total <= next_constants.filling_constant
            * hcf ** ((mf + 1) / mf) + eps_used + TOL,
        ),
        InequalityCheck(
            "filling_radius", filling_radius,
            constants.radius_constant * hcf ** (1 / mf) + eps_used,
            filling_radius <= constants.radius_constant
            * hcf ** (1 / mf) + eps_used + TOL,
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
