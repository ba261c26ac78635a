import random
from fractions import Fraction

import pytest

from hcfill.shapes import random_blob
from hcfill.space import VoxelSpace


def resorting_walk(seed, n, max_cells, box, delta):
    """The walk `random_blob` replaced: it re-sorts the whole cell set on
    every step and clamps every coordinate of the step into the box.  Kept
    as the oracle for the blob's exact cells."""
    rng = random.Random(seed)
    cur = tuple(rng.randrange(box) for _ in range(n))
    cells = {cur}
    while len(cells) < max_cells:
        base = rng.choice(sorted(cells))
        axis = rng.randrange(n)
        step = rng.choice((-1, 1))
        nxt = tuple(
            min(box - 1, max(0, c + (step if i == axis else 0)))
            for i, c in enumerate(base)
        )
        cells.add(nxt)
    return VoxelSpace(n, Fraction(delta), frozenset(cells))


# (n, max_cells, box): the benchmark's blob sizes, the Tier-1 fixtures' small
# blobs, n = 1 and n = 4, full boxes, and max_cells of 0 and 1
SHAPES = [
    (3, 100, 7), (3, 150, 8), (3, 30, 4),
    (2, 100, 12), (2, 60, 10), (2, 40, 10), (2, 24, 6),
    (2, 9, 5), (3, 7, 4),
    (1, 5, 8), (1, 8, 8), (4, 20, 3),
    (2, 16, 4), (3, 8, 2), (2, 1, 1),
    (2, 0, 5), (2, 1, 5), (3, 0, 1),
]


@pytest.mark.parametrize("n, max_cells, box", SHAPES)
def test_random_blob_matches_the_resorting_walk(n, max_cells, box):
    for seed in [*range(25), 2**31 - 1, 123456789]:
        delta = Fraction(1, 16) if seed % 2 else Fraction(1, 8)
        got = random_blob(seed, n, max_cells, box, delta)
        want = resorting_walk(seed, n, max_cells, box, delta)
        assert (got.n, got.delta, got.cells) == (want.n, want.delta, want.cells)
        assert len(got.cells) == max(1, max_cells)


@pytest.mark.parametrize("n, max_cells, box", [
    (2, 40, 6), (2, 5, 2), (3, 28, 3), (1, 9, 8), (2, 0, 0), (2, 1, 0), (1, 0, -1),
])
def test_random_blob_refuses_an_unfillable_box_at_once(n, max_cells, box):
    with pytest.raises(ValueError, match=f"got n={n}, max_cells={max_cells}, box={box}"):
        random_blob(0, n, max_cells, box)
