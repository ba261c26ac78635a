"""Hausdorff content of finite models under restricted ball families.

The m-dimensional content of a target is the minimum of sum(r_i^m) over
coverings by balls from the family.  `exact_content` solves the weighted
set-cover instance by branch and bound with an LP-dual-feasible ratio bound;
`greedy_content` gives the usual ratio-greedy upper bound, with lower value
0.  The search itself is `_branch_and_bound`, over bare masks priced by a
`_RatioBound` of their costs.  It has two callers: `exact_content` starts
it from the greedy cover under a node budget, and `_relative_cover`, the
solve of `decomposition.TildeContent`, runs it over the balls of a fixed
covering with neither an incumbent nor a budget, from the node of its
forced balls (those holding a goal cell no other ball holds), and only
when they leave a cell uncovered.  At integer m every ball cost is a
Fraction (fixed families with float radii aside) and the search runs on
integers: costs scaled by the lcm D of their denominators and by
L = lcm(1..s) for the largest ball size s, so every ratio cost/|ball & U|
is an integer.  Float costs, at non-integer m, stay floats.  The bound at a
node sums per-element prices (the dual prices of Beasley 1990, "A Lagrangian
heuristic for set-covering problems"), from one sort of the balls by ratio
against the uncovered set U: each element takes the ratio of the first ball
that reaches it, which is its minimum.  A child uncovers a subset of its
parent's U, each ball meets fewer of its elements, and so every price only
grows: the parent's prices summed over the child's U are a floor under the
child's bound.  At float costs a priced node keeps its prices as one
(price, bit) list in the order its float sum runs, and a child's floor sums
the entries its U keeps, left to right: the float the parent's sum with a
zero for each dropped element gives.  The search prunes on that floor first
and sorts only where the floor does not decide, which prunes exactly the
nodes the bound alone would.  A node that was priced branches cheapest
first: its children, the balls holding its branch element, come in that
same sort's order (least ratio against U first, ties in candidate order),
so no ball is priced twice.  A node reached before there is an incumbent,
as in a `TildeContent` search before its first cover, is not priced and
keeps candidate order.
Net-model answers of `exact_content` are brackets: the optimum over
net-centered balls, deflated by eps_net on the lower side.

Every family yields (cost, key, mask) rows, masks being bits of
`space.ElementBits` over the sorted target, and the kept rows stay rows
from generation to the witness, beside the one maker of the family's balls
from their keys: the greedy's tie-break and the witness read the keys, the
bound and the search only the costs and masks.  A result's `witness` is
the chosen keys as a keyed `space.Covering`, whose cost and report come
from the keys: no ball is built unless its `balls` are read.  A
fixed-family ball is keyed by its ball key and takes its mask from
`ElementBits.ball`.  A point centre (a net point or a `CentersIn` centre)
sorts its distance row once, a radius's members are a prefix of it, and
its rows are keyed (centre, radius), so no ball is built for a centre.  A
coordinate net's rows measure each unordered pair of points once
(`ElementBits.net_rows`), and each distinct radius is priced once per
call.  Grid blocks on voxel sets are mask first: a block's cells
are the AND of one per-axis slab mask (not of the occupied cells: any voxel
ball covers a target's unoccupied cells too), its key is its centre in
half-cell units and then its side k, which orders like the ball key, and a
block of side k > 1 whose cost k^m times the unit cost reaches its cell
count is dominated by its unit balls and dropped (a whole size when a full
block would be, so at m >= n only unit balls are enumerated; a slab or a
partial AND at that count already drops every block built from it).  On an
axis where the target spans [lo, hi], blocks of side k are anchored only
from the largest multiple of the stride <= lo to the least >= max(lo,
hi - k + 1): a block anchored further out holds a subset of the target
cells that the same-size block at the nearer end of that range holds, at
the same cost, so dropping it is column dominance in set cover (Beasley
1987, "An algorithm for set covering problem") and moves no optimum and no
lower bound.  Sizes run up to the first whose block at the least anchor
holds the whole target.
Grid rows leave the generator in (cost, key) order, other rows are sorted
stably on it, and one candidate per distinct mask is kept, so a grid mask's
ball is the least in key order among the blocks anchored in those ranges.
A mask that an earlier kept mask holds is dominated (costs ascend), and the
dominance pass drops it, up to 2,000 masks, found among the kept masks
holding its lowest or highest element.  It has one site per cost type.
Float and mixed costs run it in `generate_candidates`, before the greedy,
where a rounded price tie could let a dominated ball win the key
tie-break.  At Fraction costs `exact_content` runs it only when the search
leaves its root, after the greedy, the root duals and the root ranking,
which take the whole list; the search gets the kept masks and the
holder lists the pass built (`_holders`), so their bits are walked once.
No answer moves: a dominated ball's integer price is never below its dominator's,
which comes first in (cost, key) order, so it wins no greedy pick, and it
never reaches an element first in the ratio bound's stable sort.  The
greedy prices balls with the search's
`_RatioBound`, so at integer m it compares integers, ties broken by the
key.  It is lazy (Minoux's accelerated greedy): stale prices only grow as
coverage grows, so a popped ball whose price is still current is the one a
full rescan picks.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .errors import InputError, UncoverableError, VerificationError
from .exact import (TOL, Scalar, as_fraction, common_den, finite_number, fmt_scalar, is_integral,
                    numerators, power, scalar_formatter)
from .space import (
    AllGridBalls,
    BallFamily,
    CentersIn,
    Covering,
    ElementBits,
    FamilyIntersection,
    FixedFamily,
    GridBalls,
    NetSpace,
    RadiusCapped,
    Space,
    VoxelSpace,
    ball_members,  # noqa: F401 -- unused; perfbench/test_perfbench.py asserts the binding
    bit_indices,
    family_label,
    key_balls,
    linf,
    net_center,
)

DEFAULT_NODE_BUDGET = 10**6
_DOMINANCE_CAP = 2000  # the most distinct masks the dominance pass compares
_UNPRICED = object()  # a radius not in `_point_candidates`'s memo yet


@dataclass(frozen=True)
class ContentResult:
    """A content bracket and its witness, the chosen candidates' keys in
    selection order as a keyed `Covering` of the target, which builds its
    balls only when they are read."""

    m: Scalar
    family: str
    value_lower: Scalar
    value_upper: Scalar
    optimal: bool
    witness: Covering
    certificate: dict
    exact_arithmetic: bool

    def __post_init__(self):
        """A bracket that is inverted, or marked optimal with ends that
        differ, is a solver fault, not bad input."""
        if float(self.value_lower) > float(self.value_upper) + 1e-12:
            fault = "content bracket is inverted"
        elif self.optimal and self.value_lower != self.value_upper:
            fault = "optimal result must have a degenerate bracket"
        else:
            return
        raise VerificationError(fault, {"value_lower": fmt_scalar(self.value_lower),
                                        "value_upper": fmt_scalar(self.value_upper),
                                        "optimal": self.optimal})

    @property
    def value(self) -> Scalar:
        return self.value_upper

    def to_dict(self) -> dict:
        return {
            "m": fmt_scalar(self.m),
            "family": self.family,
            "value_lower": fmt_scalar(self.value_lower),
            "value_upper": fmt_scalar(self.value_upper),
            "optimal": self.optimal,
            "exact_arithmetic": self.exact_arithmetic,
            "witness": self.witness.to_dict(),
            "certificate": self.certificate,
        }


# ---------------------------------------------------------------------------
# candidate generation

def _flatten_family(family: BallFamily):
    caps = []
    core = None
    parts = family.parts if isinstance(family, FamilyIntersection) else (family,)
    for part in parts:
        if isinstance(part, RadiusCapped):
            caps.append(as_fraction(part.limit))
        elif core is None:
            core = part
        else:
            raise InputError("cannot intersect two non-cap ball families")
    if core is None:
        core = AllGridBalls()
    cap = min(caps) if caps else None
    return core, cap


def _voxel_grid_candidates(space: VoxelSpace, target, m, stride, cap):
    """Grid blocks as (cost, key, mask) rows, the key the centre in
    half-cell units (2a + k per axis for side k from anchor a; the point is
    delta/2 times it) and then k, so that it orders like the ball key: the
    centre is delta/2 times its first parts and the radius delta/2 times k.
    Rows come by size and then by centre: (cost, ball key) order whenever a
    larger size costs more.  Only when two sizes cost the same (m = 0, or a
    float m too small to part their powers) are they sorted.

    On each axis the anchors of side k run over the stride's multiples from
    the largest <= lo to the least >= max(lo, hi - k + 1), [lo, hi] the
    target's extent there.  A block anchored before that range meets the
    target in a subset of what the block at its first anchor holds, one
    anchored after it in a subset of what the block at its last anchor
    holds, at the same cost, so no cover gets cheaper without them, and of
    the blocks with one mask `generate_candidates` keeps the least key among
    these anchors.  The sizes stop at the first whose block at the first
    anchors holds the whole target: a larger block costs more and holds no
    more."""
    bits = ElementBits(space, sorted(target))
    lo, hi = bits.lo, bits.hi
    first = [l - l % stride for l in lo]
    k_max = max(h - a + 1 for a, h in zip(first, hi))
    k_max += (-k_max) % stride
    rows = []
    presorted, last_cost = True, None
    for k in range(stride, k_max + 1, stride):
        radius = space.delta * Fraction(k, 2)
        if cap is not None and radius > cap:
            break
        limit = _dominance_limit(k, m) if stride == 1 and k > 1 else 0
        # skip the whole size when even a full block, which holds at most
        # min(k^n, |target|) cells, is dominated
        if min(k ** space.n, len(bits.elements)) <= limit:
            continue
        cost = power(radius, m)
        presorted = presorted and (last_cost is None or last_cost < cost)
        last_cost = cost
        if k == 1:  # one block per listed cell, in key order as the cells are sorted
            rows += [(cost, (*[2 * x + 1 for x in cell], 1), 1 << idx)
                     for idx, cell in enumerate(bits.elements)]
            continue
        # (key, mask) of the blocks above the limit, one axis at a time; the
        # last axis's part of the key ends in k.  A block's cells are a
        # subset of each slab's and of each partial product's, so a slab or
        # a partial product at or below the limit has no block above it.
        blocks = [((), bits.full)]
        for i in range(space.n):
            last = max(lo[i], hi[i] - k + 1)
            last += (-last) % stride
            tail = (k,) if i == space.n - 1 else ()
            slabs = [((2 * a + k, *tail), slab)
                     for a in range(first[i], last + 1, stride)
                     if (slab := bits.slab(i, a, a + k - 1)).bit_count() > limit]
            blocks = [(key + part, both) for key, mask in blocks
                      for part, slab in slabs if (both := mask & slab).bit_count() > limit]
        rows += [(cost, key, mask) for key, mask in blocks]
    if not presorted:
        rows.sort()  # no two rows tie on (cost, key)
    return rows, bits.index


def _dominance_limit(k: int, m) -> int:
    """Largest cell count at which a block of side k is dominated by the unit
    balls it contains: its cost is k^m times theirs, so that count is k^m
    (plus a 1e-12 tolerance when m is not an integer)."""
    if is_integral(m):
        return k ** int(m)
    k_m = float(k) ** float(m)
    limit = int(k_m)
    while k_m >= limit + 1 - 1e-12:
        limit += 1
    return limit


def _point_candidates(space: Space, target, m, centers, cap):
    """(cost, ball key, mask) rows of the balls centered at the given points
    with radii from the distance set to target elements (the covering
    optimum over real radii is attained there), one per new mask at each
    centre.  A radius's members are a prefix of the centre's sorted
    distance row (`ElementBits.net_rows` on nets), which one pass walks:
    within radius + TOL on nets, where the radii are the row's distinct
    distances, and on voxels the target cells (occupied or not) within it
    on exact distances.  Each distinct radius is priced and tested against
    the cap once per call, in a memo keyed by a float radius or by the
    numerator and denominator of a rational one."""
    bits = ElementBits(space, sorted(target))
    voxel = isinstance(space, VoxelSpace)
    exact = is_integral(m)  # else power(r, m) == power(as_fraction(r), m)
    if voxel:
        cells = [(space.cell_center(c), 1 << i) for i, c in enumerate(bits.elements)]
        dist_rows = []
        for center in centers:
            at = tuple(map(as_fraction, center))
            dist_rows.append((sorted((linf(c, at), bit) for c, bit in cells),
                              sorted({linf(c, center) for c, _ in cells})))
    else:
        dist_rows = []
        for row in bits.net_rows([net_center(c, space) for c in centers]):
            dists = [d for d, _ in groupby(row, _first)]
            dist_rows.append((row, [d for d in dists if d > 0.0] or dists[:1]))
    prices = {}
    rows = []
    for center, (row, dists) in zip(centers, dist_rows):
        mask = last = j = 0
        for r in dists:
            key = r if type(r) is float else (r.numerator, r.denominator)
            cost = prices.get(key, _UNPRICED)
            if cost is _UNPRICED:
                cost = prices[key] = None if cap is not None and as_fraction(r) > cap \
                    else power(as_fraction(r) if exact else r, m)
            if cost is None:  # above the cap, as every later radius is
                break
            limit = as_fraction(r) if voxel else float(r) + TOL
            while j < len(row) and row[j][0] <= limit:
                mask |= row[j][1]
                j += 1
            if mask != last:  # masks only grow along a row
                last = mask
                rows.append((cost, (center, r if voxel else float(r)), mask))
    return rows, bits.index


def _fixed_candidates(space: Space, target, m, balls, cap):
    """(cost, ball key, mask) rows of the family's balls that meet the
    target, on voxels its cells whose centres they hold, occupied or not."""
    bits = ElementBits(space, sorted(target))
    rows = []
    for ball in balls:
        if cap is not None and as_fraction(ball.radius) > cap:
            continue
        if mask := bits.ball(ball):
            rows.append((power(ball.radius, m), ball.key(), mask))
    return rows, bits.index


def generate_candidates(space: Space, target, m: Scalar, family: BallFamily):
    """(rows, index, make): the family's balls that meet the target as
    (cost, key, mask) rows, one per distinct mask (the least in (cost, key)
    order), in that order; the target's bit index; and the maker of the
    rows' balls from their keys, a `space.GridBalls` for grid blocks on
    voxel sets and `space.key_balls` for rows keyed by `Ball.key()`.  Grid
    rows come presorted, the others are sorted stably on (cost, key), and
    no ball is built.  Grid blocks on voxel sets are those anchored inside
    the target's bounding box (`_voxel_grid_candidates`): a block sticking
    out of it holds a subset of what a same-size block inside holds, so a
    mask's ball is the least key among the blocks anchored inside.

    Float and mixed costs run the dominance pass here, up to 2,000
    distinct masks: a row whose mask an earlier row's holds is dropped
    (costs ascend, so that row is at most as dear), since a rounded price
    tie could let it win the greedy's key tie-break.  When every cost is a
    Fraction this is the whole list, and `exact_content` runs the pass only
    for a search that leaves its root, since no answer depends on it."""
    core, cap = _flatten_family(family)
    grid = isinstance(core, AllGridBalls) and isinstance(space, VoxelSpace)
    if grid:
        rows, index = _voxel_grid_candidates(space, target, m, core.stride, cap)
    elif isinstance(core, AllGridBalls):
        rows, index = _point_candidates(space, target, m, _net_centers(space), cap)
    elif isinstance(core, CentersIn):
        rows, index = _point_candidates(space, target, m, core.points, cap)
    elif isinstance(core, FixedFamily):
        rows, index = _fixed_candidates(space, target, m, core.balls, cap)
    else:
        raise InputError(f"unsupported ball family {core!r}")
    if not grid:
        rows.sort(key=itemgetter(0, 1))  # stable on (cost, key)
    exact = all(isinstance(row[0], Fraction) for row in rows)
    seen = set()  # the first of each mask
    rows = [row for row in rows if not (row[2] in seen or seen.add(row[2]))]
    if not exact and len(rows) <= _DOMINANCE_CAP:
        rows = [rows[i] for i in _holders([row[2] for row in rows], len(index), prune=True)[0]]
    return rows, index, GridBalls(space.delta) if grid else key_balls


def _holders(masks, n_elems, prune=False):
    """(kept, holders): the indices of the kept masks, in order, and for
    each element the positions in `kept` of the kept masks holding it, in
    order.  Without `prune` every mask is kept.  With it, a mask that an
    earlier kept mask holds is dropped (of a repeated mask, its second and
    later copies): it is tested against the kept masks holding its lowest
    or its highest element, whichever are fewer, and a dropped mask's
    elements are not walked."""
    holders = [[] for _ in range(n_elems)]
    kept, own = [], []
    for i, mask in enumerate(masks):
        low, high = holders[(mask & -mask).bit_length() - 1], holders[mask.bit_length() - 1]
        for j in (low if len(low) < len(high) else high) if prune else ():
            held = own[j]
            if held | mask == held:
                break
        else:
            pos, rest = len(kept), mask
            while rest:
                bit = rest & -rest
                holders[bit.bit_length() - 1].append(pos)
                rest ^= bit
            kept.append(i)
            own.append(mask)
    return kept, holders


def _net_centers(space: NetSpace):
    if space.metric == "matrix":
        return [(Fraction(i),) for i in range(len(space.points))]
    return [tuple(float(x) for x in p) for p in space.points]


# ---------------------------------------------------------------------------
# lower bounds

class _RatioBound:
    """The ratio dual bound, sum over e in U of min over balls c of
    cost_c / |c & U|: element prices that no ball's members overpay, so their
    sum lower-bounds every cover of U from the family.

    When every cost is a Fraction the search runs on integers in units of
    1/(D*L): D is the lcm of the cost denominators and L = lcm(1..s) for the
    largest ball size s, so a ball costs w_c*L with w_c = cost_c*D and its
    ratio against U is the integer w_c*(L // |c & U|).  Float costs stay
    floats.  Either way one sort gives every element's minimum: walking the
    (ratio, c & U) pairs by increasing ratio, ties in candidate order, each
    element takes the ratio of the first pair that reaches it.

    `ranked(U)` is that sort, which the search also takes its child order
    from; `priced(U)` keeps the (ratio, elements) groups with their sum, and
    `floor(U', groups, total)` sums the same prices over a subset U' of U.
    At float costs the groups are one (price, bit) pair per element, in the
    order the float sums run in.  The search hands a node's groups to its
    children: their exact bounds can only be higher, so the floor prunes no
    node that the bound would keep.
    """

    def __init__(self, costs, masks):
        if all(isinstance(c, Fraction) for c in costs):
            denom = common_den(costs)
            size = max(mask.bit_count() for mask in masks)
            lcm_k = math.lcm(*range(1, size + 1))
            weights = numerators(costs, denom)
            self.scale = denom * lcm_k
            self.costs = [w * lcm_k for w in weights]
            self._per_size = [0] + [lcm_k // k for k in range(1, size + 1)]
            self._balls = list(zip(weights, masks))
            self.zero = 0
        else:
            self.scale = None
            self.costs = costs
            self.zero = _zero(costs[0])
            self._mixed = not all(isinstance(c, float) for c in costs)
            self._balls = list(zip(costs, masks))
            # the order in which the per-element float minima are summed:
            # by the first ball containing the element, then by element
            self._order, seen = [], 0
            for mask in masks:
                self._order += bit_indices(mask & ~seen)
                seen |= mask
            self._width = seen.bit_length()
            self._places = [(e, 1 << e) for e in self._order]

    def scalar(self, x) -> Scalar:
        return x if self.scale is None else Fraction(x, self.scale)

    def price(self, i: int, count: int):
        """Ball i's cost per element over `count` elements, in the bound's
        ratio units: w_i * (L // count), or the float cost / count."""
        weight = self._balls[i][0]
        if self.scale is None:
            return weight / count
        return weight * self._per_size[count]

    def ranked(self, uncovered):
        """(ratio, i, c & U) for every ball c that meets U, i its index in
        this bound, by increasing ratio against U, ties in index order: the
        one sort behind U's prices and the search's child order."""
        if self.scale is None:
            pairs = [(cost / inter.bit_count(), i, inter)
                     for i, (cost, mask) in enumerate(self._balls) if (inter := mask & uncovered)]
        else:
            per_size = self._per_size
            pairs = [(w * per_size[inter.bit_count()], i, inter)
                     for i, (w, mask) in enumerate(self._balls) if (inter := mask & uncovered)]
        pairs.sort(key=_first)
        return pairs

    def priced(self, uncovered, ranked=None):
        """U's price groups and the bound on U, their sum in search units:
        (ratio, elements) groups covering each element of U once, each
        element going to the first ball of `ranked(U)` (the caller's, when
        it has it) that holds it, at its least ratio over the balls that
        contain it.  At float costs the groups are `_in_order`."""
        groups = []
        for ratio, _, inter in self.ranked(uncovered) if ranked is None else ranked:
            if new := inter & uncovered:
                groups.append((ratio, new))
                uncovered ^= new
                if not uncovered:
                    break
        if self.scale is not None:
            return groups, sum(ratio * new.bit_count() for ratio, new in groups)
        groups = self._in_order(groups)
        return groups, self._sum(groups)

    def floor(self, uncovered, groups, total):
        """A lower bound on the bound on U', a subset of the U that
        `priced` gave (`groups`, `total`) for: U's prices summed over U'.
        Each price against U' is at least the one against U, since every
        |c & U'| <= |c & U|.  Floats are summed in the bound's own order,
        which keeps the floor at or below the float bound: rounded addition
        is monotone.  `total` less the removed prices could round above it.
        A sum that mixes Fraction and float prices rounds at some steps and
        not at others, so it orders like neither sum: with mixed costs the
        floor is -inf, and the exact bound runs at every node.  At float
        costs `groups` is the parent's `_in_order` list, and the floor is
        its `_sum` over U'."""
        if self.scale is not None:
            gone = ~uncovered
            return total - sum(ratio * out.bit_count()
                               for ratio, new in groups if (out := new & gone))
        if self._mixed:
            return -math.inf
        return self._sum(groups, uncovered)

    def _in_order(self, groups):
        """Float (ratio, elements) groups as one (price, bit) pair per
        element, in `_order`: the order in which their prices are summed."""
        least = [None] * self._width
        for ratio, new in groups:
            while new:
                low = new & -new
                least[low.bit_length() - 1] = ratio
                new ^= low
        return [(price, bit) for e, bit in self._places if (price := least[e]) is not None]

    def _sum(self, ordered, within=-1):
        """The sum of the prices of an `_in_order` list over the elements in
        `within`, by `sum` from int 0 in that order.  It is the sum, of the
        same type and to the bit, of every element's price in `_order` with
        an int 0 for each element left out: a zero term adds exactly to a
        float or a Fraction, and leaves a compensated float sum (Python
        3.12 on) as it found it."""
        return sum([price for price, bit in ordered if bit & within])

    def restricted(self, keep):
        """This bound over the balls at indices `keep` only, in the same
        units, its `costs` and its balls indexed alike by position in
        `keep`."""
        sub = copy.copy(self)
        sub._balls = [self._balls[i] for i in keep]
        sub.costs = [self.costs[i] for i in keep]
        return sub

    def duals(self, groups):
        """Every element's price against the whole target, from its
        `priced` groups, in element order (one Fraction per distinct
        price), and their sum."""
        least = [None] * sum(new.bit_count() for _, new in groups)
        for ratio, new in groups:
            for e in bit_indices(new):
                least[e] = ratio
        if self.scale is None:
            return least, sum(least)
        price = {r: Fraction(r, self.scale) for r in set(least)}
        return [price[r] for r in least], Fraction(sum(least), self.scale)


_first = itemgetter(0)


def volume_lower_bound(space: VoxelSpace, target=None, m: Scalar = 1) -> Scalar:
    """A lower bound on the m-content of the target under grid balls: at
    m <= n, (V_target)^(m/n) / 2^m with V = cell count * delta^n; at
    m >= n, cell count * (delta/2)^m (the two agree at m = n).

    At m <= n the covering cubes' total volume must reach V (so
    sum (2r_i)^n >= V) and the power-mean inequality turns the n-sum into a
    bound on sum r_i^m.  At m > n that step fails; there a grid ball of
    radius k*delta/2 holds at most k^n cells at cost k^m (delta/2)^m, at
    least (delta/2)^m per cell.  Where the bound is irrational it is a
    float rounded down (`_float_floor`).
    """
    _check_exponent(m)
    if not isinstance(space, VoxelSpace):
        raise InputError("volume bound needs the voxel model")
    cells = set(target) if target is not None else set(space.cells)
    if as_fraction(m) >= space.n:
        unit = space.delta / 2
        bound = len(cells) * power(unit, m)
        if isinstance(bound, float):
            bound = _float_floor(bound, len(cells), unit, as_fraction(m))
        return bound
    volume = as_fraction(len(cells)) * power(space.delta, space.n)
    if is_integral(m) and (volume == 1 or as_fraction(m) % space.n == 0):
        return power(volume, int(m) // space.n) / power(Fraction(2), m)
    # V^(m/n) / 2^m = (V / 2^n)^(m/n)
    return _float_floor(float(volume) ** (float(m) / space.n) / 2.0 ** float(m),
                        1, volume / 2 ** space.n, as_fraction(m) / space.n)


def _float_floor(x: float, coef, base: Fraction, e: Fraction) -> float:
    """x stepped down one ulp at a time until x <= coef * base^e holds
    exactly: x^q <= coef^q * base^p for e = p/q.  An exponent whose
    denominator exceeds 4,096 (from a float m such as 0.3) is first moved
    to a multiple of 1/1024 on the side where the value is not larger (down
    when base >= 1), and x recomputed there."""
    if e.denominator > 4096:
        e = Fraction(math.floor(e * 1024) if base >= 1 else math.ceil(e * 1024), 1024)
        x = float(coef) * float(base) ** float(e)
    limit = Fraction(coef) ** e.denominator * base ** e.numerator
    while Fraction(x) ** e.denominator > limit:
        x = math.nextafter(x, 0.0)
    return x


# ---------------------------------------------------------------------------
# solvers

def _greedy_cover(rows, full, ratio: _RatioBound):
    """Indices of the (cost, key, mask) rows picked by repeatedly taking the
    ball of least cost per newly covered element, ties to the least key (a
    grid block's integer key orders like its ball key).  Prices are
    `ratio.price`, integers when the costs are Fractions.
    Lazy (Minoux): a heap holds each ball's last known price, which can only
    grow as coverage grows, so a popped ball whose price is still current is
    the eager greedy's pick."""
    price = ratio.price
    heap = [(price(i, mask.bit_count()), key, i) for i, (_, key, mask) in enumerate(rows)]
    heapq.heapify(heap)
    covered = 0
    chosen = []
    while covered != full:
        if not heap:
            raise UncoverableError("family cannot cover the target")
        current, key, i = heapq.heappop(heap)
        mask = rows[i][2]
        new = mask & ~covered
        if not new:
            continue
        now = price(i, new.bit_count())
        if now == current:
            chosen.append(i)
            covered |= mask
        else:
            heapq.heappush(heap, (now, key, i))
    return chosen


def _branch_and_bound(masks, ratio: _RatioBound, goal: int, budget,
                      best_cost, best_sel, root=None, start=None, holders=None):
    """Depth-first search for the cheapest cover of `goal` by the masks,
    which `ratio` prices in their order.

    Branches on the uncovered element with the fewest holders (lowest bit
    on ties), prunes with the ratio bound and memoized covered-set
    dominance, and replaces the incumbent (`best_cost` in the bound's units,
    `best_sel` mask indices) only on a strictly lower cost.  After `budget`
    nodes the incumbent is final and the remaining entries only lower the
    frontier.  Returns (cost, indices, nodes, frontier), the frontier None
    when the search closed within the budget.  `root` is
    (`ratio.ranked(goal)`, `ratio.priced(goal, ranked)`), `start` the
    (covered, cost, indices) node to start from (else the empty cover) and
    `holders` the masks' `_holders` lists (else built at the first node
    that branches), each when the caller has it.

    A node that was priced takes its children cheapest first: the masks
    holding the branch element in the order of `ratio.ranked(U)`, the sort
    its price came from, which is least ratio against U first, ties in
    mask order.  A node priced nothing (no incumbent yet) takes them in
    mask order.  The sort is the node's own and is dropped once its
    children are pushed.

    Each entry carries its parent's `ratio.priced` prices (None at the root
    and below a node that priced nothing, as before the first incumbent).
    Their `ratio.floor` over the entry's uncovered set is at most its exact
    bound, so a node the floor prunes, or an entry whose floor cannot lower
    the frontier, is one the exact bound would have dropped too: the bound
    runs only where the floor does not decide, and every decision, node
    count and frontier is the one the exact bound alone gives.
    """
    costs = ratio.costs
    nodes = 0
    frontier = fans = None
    memo = {}
    stack = [(*start, None)] if start else [(0, ratio.zero, (), None)]
    while stack:
        covered, cost, sel, inherited = stack.pop()
        nodes += 1
        uncovered = goal ^ covered
        if nodes > budget:
            # the incumbent is final now; an entry costing at least the
            # frontier cannot lower it
            if frontier is None:
                frontier = best_cost
            if cost < frontier and (inherited is None or
                                    cost + ratio.floor(uncovered, *inherited) < frontier):
                frontier = min(frontier, cost + ratio.priced(uncovered)[1])
            continue
        if covered == goal:
            if cost < best_cost:
                best_cost, best_sel = cost, sel
            continue
        seen = memo.get(covered)
        if seen is not None and seen <= cost:
            continue
        memo[covered] = cost
        prices = ranked = None
        # without an incumbent (best_cost inf) no bound can prune
        if best_cost != math.inf:
            if inherited is not None and \
                    cost + ratio.floor(uncovered, *inherited) >= best_cost:
                continue
            if nodes == 1 and root is not None:
                ranked, prices = root
            else:
                ranked = ratio.ranked(uncovered)
                prices = ratio.priced(uncovered, ranked)
            if cost + prices[1] >= best_cost:
                continue
        if fans is None:  # most solves close at the root
            if holders is None:
                holders = _holders(masks, goal.bit_length())[1]
            fans = _fan_masks(holders)
        e = _branch_element(uncovered, fans)
        if ranked is None:
            children = holders[e]
        else:  # cheapest first against U, ties in mask order
            bit = 1 << e
            children = [i for _, i, inter in ranked if inter & bit]
        stack += [(covered | masks[ci], cost + costs[ci], sel + (ci,), prices)
                  for ci in reversed(children)]
    return best_cost, best_sel, nodes, frontier


def _fan_masks(covers_elem):
    """One mask per distinct length of the per-element candidate lists, of
    the elements with that many candidates, fewest first."""
    by_fan = {}
    for e, holders in enumerate(covers_elem):
        by_fan[len(holders)] = by_fan.get(len(holders), 0) | 1 << e
    return [by_fan[fan] for fan in sorted(by_fan)]


def _branch_element(uncovered, fans):
    """The lowest uncovered element of the first `_fan_masks` mask that
    holds one: the lowest among those with the fewest candidates."""
    for mask in fans:
        if here := uncovered & mask:
            return (here & -here).bit_length() - 1


def _relative_cover(masks, ratio: _RatioBound, goal: int):
    """(cost in `ratio`'s units, mask indices) of the first cheapest cover
    of `goal` that `_branch_and_bound` finds over the masks meeting it,
    ANDed with the goal, with neither an incumbent nor a budget.  `ratio`
    prices all of `masks`, in their order.

    The forced balls come first: those holding a goal cell that no other
    meeting ball holds (a row with one column forces that column, Beasley
    1987), found by one pass that ORs the cells met once and twice.  They
    are taken in the order of their lowest such cell, their costs summed
    from `ratio.zero` in that order.  That is the node the search reaches
    before anything else: no node is priced before the first cover, the
    branch element is the lowest cell with the fewest holders, and a cell
    with one holder has one child.  When the forced balls cover the goal
    they are the answer, and no search runs; else the search starts from
    their node, where its decisions and float sums are the full search's."""
    usable, inters = [], []
    once = twice = 0
    for pos, mask in enumerate(masks):
        if inter := mask & goal:
            usable.append(pos)
            inters.append(inter)
            twice |= once & inter
            once |= inter
    forced = sorted((own & -own, k) for k, inter in enumerate(inters)
                    if (own := inter & ~twice))
    covered, cost = 0, ratio.zero
    for _, k in forced:
        covered |= inters[k]
        cost += ratio.costs[usable[k]]
    sel = tuple(k for _, k in forced)
    if covered != goal:
        cost, sel, _, _ = _branch_and_bound(inters, ratio.restricted(usable), goal, math.inf,
                                            math.inf, (), start=(covered, cost, sel))
    return cost, tuple(usable[k] for k in sel)


def greedy_content(
    space: Space,
    target=None,
    m: Scalar = 1,
    family: BallFamily = AllGridBalls(),
) -> ContentResult:
    """Iterative best-ratio covering; an upper bound by construction.  The
    greedy cost says nothing about the optimum from below, so the reported
    lower value is 0 on every model."""
    _check_exponent(m)
    target = _resolve_target(space, target)
    rows, index, make, ratio = _priced_candidates(space, target, m, family)
    picks = _greedy_cover(rows, (1 << len(index)) - 1, ratio)
    witness = Covering.keyed(make, [rows[i][1] for i in picks], target, m)
    cost = witness.cost
    return ContentResult(
        m, family_label(family), _zero(cost), cost, False, witness,
        {"kind": "greedy"}, _exact_mode(space, m),
    )


def exact_content(
    space: Space,
    target=None,
    m: Scalar = 1,
    family: BallFamily = AllGridBalls(),
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ContentResult:
    """Branch-and-bound optimum of the covering cost.

    Starts `_branch_and_bound` from the greedy cover and returns a certified
    bracket instead of failing when the node budget, an int >= 1, runs out.
    """
    _check_exponent(m)
    if isinstance(node_budget, bool) or not isinstance(node_budget, int) or node_budget < 1:
        raise InputError(f"node_budget must be an int >= 1, got {node_budget!r}")
    target = _resolve_target(space, target)
    rows, index, make, ratio = _priced_candidates(space, target, m, family)
    full = (1 << len(index)) - 1

    chosen = _greedy_cover(rows, full, ratio)  # raises when the family cannot cover
    incumbent = sum(ratio.costs[i] for i in chosen)
    ranked = ratio.ranked(full)
    root = ratio.priced(full, ranked)
    duals, root_dual = ratio.duals(root[0])
    masks, holders = [row[2] for row in rows], None
    if ratio.scale is not None and root[1] < incumbent and len(rows) <= _DOMINANCE_CAP:
        # the search leaves its root: drop the dominated balls, keeping the
        # holder lists (float and mixed costs come pruned from generation)
        kept, holders = _holders(masks, len(index), prune=True)
        at = {i: k for k, i in enumerate(kept)}
        rows, ratio = [rows[i] for i in kept], ratio.restricted(kept)
        masks = [masks[i] for i in kept]
        ranked = [(r, at[i], inter) for r, i, inter in ranked if i in at]
        chosen = [at[i] for i in chosen]
    best_cost, best_sel, nodes, frontier = _branch_and_bound(
        masks, ratio, full, node_budget, incumbent, tuple(chosen), root=(ranked, root),
        holders=holders)
    best_cost = ratio.scalar(best_cost)

    witness = Covering.keyed(make, [rows[i][1] for i in best_sel], target, m)
    if frontier is not None:
        lowers = [root_dual]
        core, _ = _flatten_family(family)
        if isinstance(space, VoxelSpace) and isinstance(core, AllGridBalls) \
                and core.stride == 1:
            lowers.append(volume_lower_bound(space, target, m))
        lowers.append(ratio.scalar(frontier))
        lower = max(lowers)
        optimal = False
    else:
        lower = best_cost
        optimal = True

    if isinstance(space, NetSpace):
        optimal = False
        lower = _net_deflated_cost(space, witness, m)

    cert = {
        "kind": "branch-and-bound" if optimal else "bracket",
        "nodes": nodes,
        "lp_dual_lower": fmt_scalar(root_dual),
        "duals": list(map(scalar_formatter(), duals)),
    }
    return ContentResult(
        m, family_label(family), lower, best_cost, optimal, witness, cert,
        _exact_mode(space, m),
    )


# ---------------------------------------------------------------------------
# helpers

def _priced_candidates(space: Space, target, m: Scalar, family: BallFamily):
    """`generate_candidates` and the `_RatioBound` that prices its rows."""
    rows, index, make = generate_candidates(space, target, m, family)
    if not rows:
        raise UncoverableError("family cannot cover the target")
    return rows, index, make, _RatioBound([row[0] for row in rows], [row[2] for row in rows])


def _check_exponent(m) -> None:
    """Refuse what `finite_number` refuses, and m < 0, where a larger ball
    can cost less and the grid's size cut-off no longer holds."""
    try:
        if finite_number(m, "m") >= 0:
            return
    except InputError:
        pass
    raise InputError(f"content exponent needs a finite m >= 0, got {m!r}")


def _resolve_target(space: Space, target):
    """The target as a frozenset: the whole space when None.  A net target
    must name point indices.  A voxel target may hold cells the space does
    not occupy, which grid balls cover too: `improvement_step` solves over
    fill cells outside the space (the cells of its slice fills' keys)."""
    if target is None:
        space.require_nonempty()
        if isinstance(space, VoxelSpace):
            return frozenset(space.cells)
        return frozenset(range(len(space.points)))
    target = frozenset(target)
    if not target:
        raise InputError("target must be non-empty")
    if isinstance(space, NetSpace):
        points = len(space.points)
        strays = [t for t in target if not (isinstance(t, int) and 0 <= t < points)]
        if strays:
            raise InputError(f"net target names indices that are not points of the "
                             f"{points}-point net: {sorted(strays, key=repr)}")
    return target


def _exact_mode(space: Space, m: Scalar) -> bool:
    return isinstance(space, VoxelSpace) and is_integral(m)


def _zero(like) -> Scalar:
    return 0.0 if isinstance(like, float) else Fraction(0)


def _net_deflated_cost(space: NetSpace, cover: Covering, m: Scalar) -> float:
    """The cost of a cover's radii, in its order, each deflated by eps_net
    and clamped at zero."""
    total = 0.0
    for key in cover.keys:
        total += max(0.0, float(cover.make.radius(key)) - space.eps_net) ** float(m)
    return total
