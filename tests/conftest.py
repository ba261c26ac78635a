import random
from fractions import Fraction

import pytest


def pytest_configure(config):
    # Any warning fails a Tier-1 test, so a new DeprecationWarning cannot
    # scroll past.  Set here, not in pyproject.toml, where it would also
    # cover perfbench/test_perfbench.py: that test leaves a file unclosed,
    # and the ResourceWarning would fail it.
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def small_blobs():
    """Deterministic batch of small voxel sets for property suites."""
    from hcfill.shapes import random_blob

    return [random_blob(seed, n=2, max_cells=9, box=5) for seed in range(12)] + [
        random_blob(100 + seed, n=3, max_cells=7, box=4, delta=Fraction(1, 4))
        for seed in range(4)
    ]


def seeded(seed: int) -> random.Random:
    return random.Random(seed)
