"""The benchmark workloads: seeded instance lists and their operations.

Every workload is a fixed part (shapes from `hcfill.shapes` at the sizes the
ROADMAP baseline names) plus a seeded part generated from `--seed`.  The
seeded part is groups of many alike instances, one kind and size per
group, so that the per-seed variation of the work averages out within a run
and the median and tail percentile each fall inside one group.  Its size scales with
`--seconds` (NOMINAL_SECONDS gives the counts below); the fixed part does not.

The library only ever receives the generated spaces and point sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import hcfill
from hcfill import shapes
from hcfill.decomposition import Constants

NOMINAL_SECONDS = 20
DEFAULT_NODE_BUDGET = 10**6
# CLI defaults (RunConfig) for the fill path
FILL_STEP_CAP = 50
FILL_PUSHOUT_CANDIDATES = 64
# criterion-9 generator settings for skeleton descents
DESCENT_CANDIDATES = 16
DESCENT_FLOOR = Fraction(1, 256)
DESCENT_POINTS = 3
SMALL_BALL_SCALE = 3.0


@dataclass
class Instance:
    """One generated input and the facts about it the checks need."""

    id: str
    family: str
    space: object = None  # VoxelSpace | NetSpace; None for point sets
    m: object = None
    size: dict = field(default_factory=dict)
    closed_form: Fraction | None = None  # known exact content, if any
    points: tuple = ()

    def record(self) -> dict:
        rec = {"id": self.id, "family": self.family, **self.size}
        if self.m is not None:
            rec["m"] = str(self.m)
        if isinstance(self.space, hcfill.VoxelSpace):
            rec.update(n=self.space.n, cells=len(self.space.cells),
                       delta=str(self.space.delta))
        elif isinstance(self.space, hcfill.NetSpace):
            rec.update(metric=self.space.metric, points=len(self.space.points))
        return rec


@dataclass
class Op:
    """One library call.  `kind` names a public `hcfill` function, looked up
    on the package at call time so that traced wrappers are honoured."""

    id: str
    instance: Instance
    kind: str
    args: tuple
    kwargs: dict

    def call(self):
        return getattr(hcfill, self.kind)(*self.args, **self.kwargs)


def _count(base: int, seconds: float) -> int:
    return max(1, round(base * seconds / NOMINAL_SECONDS))


def _blob(rng: random.Random, n: int, cells: int, box: int, delta=Fraction(1, 8)):
    s = rng.randrange(2**31)
    return shapes.random_blob(s, n, cells, box, delta), {"blob_seed": s, "box": box}


def _net(rng: random.Random, metric: str, points: int, side: int):
    pts: dict = {}
    while len(pts) < points:
        p = (float(rng.randrange(side + 1)), float(rng.randrange(side + 1)))
        pts[p] = None
    return hcfill.NetSpace(metric, tuple(pts))


def _content_ops(inst: Instance, kinds, node_budget=DEFAULT_NODE_BUDGET):
    ops = []
    for kind in kinds:
        if kind == "exact_content":
            ops.append(Op(f"{inst.id}:exact", inst, kind,
                          (inst.space, None, inst.m), {"node_budget": node_budget}))
        else:
            ops.append(Op(f"{inst.id}:greedy", inst, kind,
                          (inst.space, None, inst.m), {}))
    return ops


BOTH = ("exact_content", "greedy_content")
METRICS = ("linf", "l2", "l1")


def content_root(rng: random.Random, seconds: float):
    """Solves that close at the B&B root: candidate generation and greedy do
    the work."""
    ops = []
    for m in (1, 2, 3):
        inst = Instance(f"cube3-8-m{m}", "make_cube", shapes.make_cube(3, 8), m,
                        closed_form=Fraction(1, 2**m))
        ops += _content_ops(inst, BOTH)
    for m in (1, 2):
        inst = Instance(f"cube2-8-m{m}", "make_cube", shapes.make_cube(2, 8), m,
                        closed_form=Fraction(1, 2**m))
        ops += _content_ops(inst, BOTH)
    # greedy_content on the strip repeats exact_content's candidate
    # generation, which is nearly all of either call, so only exact runs
    strip = Instance("strip-bulbs-m2", "make_strip_with_bulbs",
                     shapes.make_strip_with_bulbs(), 2)
    ops += _content_ops(strip, ("exact_content",))
    # Groups of alike operations: the median falls among the small 3-D
    # blobs and the tail percentile among the larger ones.
    for i in range(_count(24, seconds)):
        space, size = _blob(rng, 3, 100, 7)
        ops += _content_ops(Instance(f"blob3d-100-m3-{i}", "random_blob", space, 3, size), BOTH)
    for i in range(_count(6, seconds)):
        space, size = _blob(rng, 3, 150, 8)
        ops += _content_ops(Instance(f"blob3d-150-m3-{i}", "random_blob", space, 3, size), BOTH)
    for i in range(_count(6, seconds)):
        space, size = _blob(rng, 2, 100, 12)
        ops += _content_ops(Instance(f"blob2d-m2-{i}", "random_blob", space, 2, size), BOTH)
    for i in range(_count(12, seconds)):
        metric = METRICS[i % 3]
        net = _net(rng, metric, 8, 6)
        ops += _content_ops(Instance(f"net8-{metric}-{i}", "net", net, 1), ("greedy_content",))
    return ops


def content_bnb(rng: random.Random, seconds: float):
    """Deep branch-and-bound searches over small candidate sets.  The seeded
    searches are sized so that nearly all of them run out of their node
    budget: the budget, not the instance, then sets how far each search
    goes, and the cost per node dominates (NOTES.md gives the measured
    shares)."""
    ops = []
    inst = Instance("blob3d-80-s3-m2", "random_blob",
                    shapes.random_blob(3, 3, 80, 6, Fraction(1, 8)), 2,
                    {"blob_seed": 3, "box": 6})
    ops += _content_ops(inst, ("exact_content",))
    inst = Instance("blob2d-40-s77-m1", "random_blob",
                    shapes.random_blob(77, 2, 40, 10, Fraction(1, 8)), 1,
                    {"blob_seed": 77, "box": 10})
    ops += _content_ops(inst, ("exact_content",))
    ops += _budgeted(Instance("dumbbell-6-8-m1", "make_dumbbell",
                              shapes.make_dumbbell(6, 8), 1), 1000)
    # Many small dense 3-D blobs make up most operations, so that the median
    # falls among alike searches; m = 3/2 makes the net costs floats (the
    # voxel costs are Fractions), and the nets are the next-heaviest group,
    # where the tail percentile falls.
    for i in range(_count(240, seconds)):
        space, size = _blob(rng, 3, 30, 4)
        ops += _budgeted(Instance(f"bnb-blob3d-30-{i}", "random_blob", space, 2, size), 40)
    for i in range(_count(16, seconds)):
        inst = Instance(f"net25-l2-{i}", "net", _net(rng, "l2", 25, 16), Fraction(3, 2))
        ops += _budgeted(inst, 1500)
    # 2-D blobs at m=1 need about 60 cells before a search goes deep
    for i in range(_count(2, seconds)):
        space, size = _blob(rng, 2, 60, 10)
        ops += _budgeted(Instance(f"bnb-blob2d-60-{i}", "random_blob", space, 1, size), 20)
    return ops


def _budgeted(inst: Instance, budget: int):
    inst.size["node_budget"] = budget
    return _content_ops(inst, ("exact_content",), budget)


def _fill_op(inst: Instance, constants=None) -> Op:
    return Op(f"{inst.id}:fill", inst, "fill", (inst.space, None, 2, None, FILL_STEP_CAP),
              {"constants": constants, "node_budget": DEFAULT_NODE_BUDGET,
               "pushout_candidates": FILL_PUSHOUT_CANDIDATES})


def small_scale_constants() -> Constants:
    """Paper constants at m=2 with the ball scale A set to SMALL_BALL_SCALE,
    so desk-size shapes decompose into several balls (the CLI cannot reach
    this)."""
    base = Constants.for_exponent(2)
    return Constants(base.m, base.filling_constant, SMALL_BALL_SCALE,
                     base.radius_constant, base.decay)


CRITERION_7 = {
    "ring16": lambda: shapes.make_ring(16, Fraction(1, 16)),
    "square8": lambda: shapes.make_cube(2, 8, Fraction(1, 8)),
    "dumbbell": lambda: shapes.make_dumbbell(),
    "blob77": lambda: shapes.random_blob(77, 2, 40, 10, Fraction(1, 8)),
    "box3d": lambda: shapes.make_cube(3, 3, Fraction(1, 4)),
    "box4d": lambda: shapes.make_cube(4, 2, Fraction(1, 2)),
}


def fill_workload(rng: random.Random, seconds: float):
    """The filling pipeline, plus skeleton descents standing in for the
    residue stage that desk-size fills never reach."""
    ops = []
    for name, build in CRITERION_7.items():
        ops.append(_fill_op(Instance(f"c7-{name}", name, build(), 2)))
    small = small_scale_constants()
    for name, space in (("line60", shapes.make_line(60)), ("ring16", shapes.make_ring(16))):
        inst = Instance(f"A3-{name}", name, space, 2, {"ball_scale": SMALL_BALL_SCALE})
        ops.append(_fill_op(inst, small))
    # Two groups of alike operations: the median falls among the descents
    # and the tail percentile among the blob fills.
    for i in range(_count(20, seconds)):
        space, size = _blob(rng, 2, 40, 10)
        ops.append(_fill_op(Instance(f"fill-blob2d-{i}", "random_blob", space, 2, size)))
    for i in range(_count(60, seconds)):
        # the criterion-9 generator's coordinates, at one dimension, exponent
        # and point count so that the descents are alike in cost
        n, m = 2, 2
        grid = hcfill.CubicalGrid(n, Fraction(1))
        pts = [tuple(Fraction(rng.randrange(0, 33), 16) for _ in range(n))
               for _ in range(DESCENT_POINTS)]
        pts = tuple(dict.fromkeys(pts))
        inst = Instance(f"points-{i}", "criterion9_points", None, m,
                        {"n": n, "points": len(pts), "grid_R": 1}, points=pts)
        ops.append(Op(f"{inst.id}:descend", inst, "skeleton_descend", (pts, grid, m),
                      {"candidates": DESCENT_CANDIDATES, "floor": DESCENT_FLOOR}))
    return ops


def _width_op(inst: Instance, budget: int, seed: int) -> Op:
    inst.size.update(width_budget=budget, width_seed=seed)
    return Op(f"{inst.id}:width", inst, "width_bound", (inst.space, 2, budget, seed,
                                                       DEFAULT_NODE_BUDGET), {})


def width_workload(rng: random.Random, seconds: float):
    """Nerve-based width search: nerve, fiber_bound and ball_members do the
    work."""
    ops = [
        _width_op(Instance("dumbbell-4-6", "make_dumbbell", shapes.make_dumbbell(), 2), 1000, 0),
        _width_op(Instance("ring8", "make_ring", shapes.make_ring(8, Fraction(1, 8)), 2), 600, 0),
    ]
    # Dense blobs, alike in cost and nearly all of one diameter, in two
    # groups by width budget: the median falls among the first and the tail
    # percentile among the second.
    for i in range(_count(40, seconds)):
        space, size = _blob(rng, 2, 24, 6)
        ops.append(_width_op(Instance(f"width-blob2d-{i}", "random_blob", space, 2, size),
                             60, rng.randrange(2**31)))
    for i in range(_count(10, seconds)):
        space, size = _blob(rng, 2, 24, 6)
        ops.append(_width_op(Instance(f"width-blob2d-long-{i}", "random_blob", space, 2, size),
                             160, rng.randrange(2**31)))
    return ops


WORKLOADS = {
    "content_root": content_root,
    "content_bnb": content_bnb,
    "fill": fill_workload,
    "width": width_workload,
}


def build(workload: str, seed: int, seconds: float) -> list[Op]:
    """The workload's operation list; the same (seed, seconds) gives the
    same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, seconds)
    assert len({op.id for op in ops}) == len(ops)
    # Spread every kind of operation over the whole run, so that the
    # machine's slow and fast spells reach the median and the tail
    # percentile as evenly as they reach the total.
    rng.shuffle(ops)
    return ops
