"""Oracles that more than one test module holds the library to.  Imported
by name: pytest puts this directory on the path of the tests it collects
here."""

from fractions import Fraction

from hcfill.exact import TOL
from hcfill.space import VoxelSpace, net_center, net_dist


def members_oracle(ball, space, elements) -> frozenset:
    """The listed elements the closed ball holds, by the definition: on
    voxels the cells, occupied or not, whose Fraction centres lie within
    l_inf distance r of the ball's centre, on integers and Fractions with
    no lattice frame; on nets the listed point indices within r + TOL by
    `net_dist`."""
    if isinstance(space, VoxelSpace):
        center = [Fraction(x) for x in ball.center]
        r = Fraction(ball.radius)
        return frozenset(
            c for c in elements
            if max(abs(space.delta * (x + Fraction(1, 2)) - p) for x, p in zip(c, center)) <= r)
    center = net_center(ball.center, space)
    points = range(len(space.points))
    return frozenset(i for i in elements
                     if i in points and net_dist(center, i, space) <= float(ball.radius) + TOL)
