"""Voxel fixture builders used by tests, the corpus runner and the docs."""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction

from .space import Cell, VoxelSpace


def make_box(n: int, sides, delta=Fraction(1, 8), origin=None) -> VoxelSpace:
    """Full rectangular block; `sides` is a per-axis cell count (or an int)."""
    if isinstance(sides, int):
        sides = (sides,) * n
    origin = origin or (0,) * n
    cells = frozenset(
        tuple(o + c for o, c in zip(origin, combo))
        for combo in itertools.product(*(range(s) for s in sides))
    )
    return VoxelSpace(n, Fraction(delta), cells)


def make_cube(n: int, side: int, delta=Fraction(1, 8)) -> VoxelSpace:
    return make_box(n, (side,) * n, delta)


def make_ring(side: int, delta=Fraction(1, 16)) -> VoxelSpace:
    """Boundary shell of a side x side square (n=2)."""
    cells = frozenset(
        (i, j)
        for i in range(side)
        for j in range(side)
        if i in (0, side - 1) or j in (0, side - 1)
    )
    return VoxelSpace(2, Fraction(delta), cells)


def make_shell(n: int, side: int, delta=Fraction(1, 8)) -> VoxelSpace:
    """Cells of the n-cube with at least one coordinate on the hull."""
    cells = frozenset(
        c
        for c in itertools.product(range(side), repeat=n)
        if any(x in (0, side - 1) for x in c)
    )
    return VoxelSpace(n, Fraction(delta), cells)


def make_strip(length: int, width: int = 2, delta=Fraction(1, 16)) -> VoxelSpace:
    return make_box(2, (length, width), delta)


def make_dumbbell(block: int = 4, bridge: int = 6, delta=Fraction(1, 8)) -> VoxelSpace:
    """Two block x block squares joined by a 1-wide bridge."""
    cells = set()
    for i in range(block):
        for j in range(block):
            cells.add((i, j))
            cells.add((block + bridge + i, j))
    mid = block // 2
    for i in range(block, block + bridge):
        cells.add((i, mid))
    return VoxelSpace(2, Fraction(delta), frozenset(cells))


def make_l_hexomino(delta=Fraction(1, 4)) -> VoxelSpace:
    """L-shaped hexomino: a 5-cell column with a foot."""
    cells = frozenset([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)])
    return VoxelSpace(2, Fraction(delta), cells)


def make_strip_with_bulbs(
    length: int = 64,
    bulb: int = 4,
    spacing: int = 16,
    delta=Fraction(1, 16),
) -> VoxelSpace:
    """Long thin body with small dense bulbs attached: per-ball content stays
    small while the diameter is large (the width module's benchmark shape)."""
    cells = set((i, 0) for i in range(length))
    for start in range(spacing // 2, length - bulb, spacing):
        for i in range(bulb):
            for j in range(1, 1 + bulb):
                cells.add((start + i, j))
    return VoxelSpace(2, Fraction(delta), frozenset(cells))


def make_line(length: int, delta=Fraction(1, 8)) -> VoxelSpace:
    return make_box(2, (length, 1), delta)


def random_blob(
    seed: int,
    n: int = 2,
    max_cells: int = 12,
    box: int = 6,
    delta=Fraction(1, 8),
) -> VoxelSpace:
    """Connected random cell set grown by a seeded random walk in the box
    [0, box)^n: each step picks a cell (uniformly, by its rank in sorted
    order) and moves one unit along a random axis.  The blob has
    max(1, max_cells) cells, so it needs box >= 1 and max_cells <= box**n
    (a ValueError otherwise).  Its cells are a pure function of the
    arguments: pinned digests of blob fixtures rely on that."""
    if box < 1 or max_cells > box**n:
        raise ValueError(f"random_blob needs box >= 1 and max_cells <= box**n, "
                         f"got n={n}, max_cells={max_cells}, box={box}")
    rng = random.Random(seed)
    cur = tuple(rng.randrange(box) for _ in range(n))
    cells = {cur}
    order = [cur]  # sorted(cells), kept by insertion
    while len(cells) < max_cells:
        base = rng.choice(order)
        axis = rng.randrange(n)
        c = base[axis] + rng.choice((-1, 1))
        # a step out of the box stays on base, which is already a cell
        if 0 <= c < box:
            nxt = (*base[:axis], c, *base[axis + 1:])
            if nxt not in cells:
                cells.add(nxt)
                bisect.insort(order, nxt)
    return VoxelSpace(n, Fraction(delta), frozenset(cells))


def random_subset(space: VoxelSpace, seed: int, keep: float = 0.5) -> frozenset[Cell]:
    rng = random.Random(seed)
    picked = [c for c in space.sorted_cells() if rng.random() < keep]
    if not picked:
        picked = [space.sorted_cells()[0]]
    return frozenset(picked)


def scale_replicate(space: VoxelSpace, factor: int) -> VoxelSpace:
    """Replace every cell by a factor^n block (rescaling at fixed delta)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    offs = list(itertools.product(range(factor), repeat=space.n))
    cells = frozenset(
        tuple(factor * c + o for c, o in zip(cell, off))
        for cell in space.cells
        for off in offs
    )
    return VoxelSpace(space.n, space.delta, cells)


def translate(space: VoxelSpace, offset: Cell) -> VoxelSpace:
    cells = frozenset(tuple(c + o for c, o in zip(cell, offset)) for cell in space.cells)
    return VoxelSpace(space.n, space.delta, cells)


def union(a: VoxelSpace, b: VoxelSpace) -> VoxelSpace:
    assert a.n == b.n and a.delta == b.delta
    return VoxelSpace(a.n, a.delta, a.cells | b.cells)
