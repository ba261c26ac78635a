"""Oracles the tests hold the library to, among them copies of library
code that only the tests read.  Imported by name: pytest puts this
directory on the path of the tests it collects here."""

from fractions import Fraction

from hcfill.exact import TOL, as_fraction
from hcfill.space import GridBalls, VoxelSpace, net_center, net_dist


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


def net_point_dist(space, i: int, j: int) -> float:
    """The distance between net points i and j, as `net_dist` reads it."""
    return net_dist(i if space.metric == "matrix" else space.points[i], j, space)


# The Fraction geometry of a pushout `Face`, as the face methods computed it
# before faces moved to integer frames.

def face_center(face):
    R = face.grid.R
    return tuple(R * a if kind == "fixed" else R * a + R / 2 for kind, a in face.coords)


def face_bounds(face):
    R = face.grid.R
    return tuple((R * a, R * a) if kind == "fixed" else (R * a, R * (a + 1))
                 for kind, a in face.coords)


def face_contains(face, point) -> bool:
    return all(lo <= as_fraction(x) <= hi for (lo, hi), x in zip(face_bounds(face), point))


def face_strictly_interior(face, point) -> bool:
    for (kind, _), (lo, hi), x in zip(face.coords, face_bounds(face), point):
        x = as_fraction(x)
        if not (x == lo if kind == "fixed" else lo < x < hi):
            return False
    return True


# The step maps and carriers of the filling pipeline as Fraction points:
# the landing h of a cell is the point delta/2 * h.

def landing_points(space, landing) -> dict:
    """Cell -> its landing point delta/2 * h, a tuple of Fractions."""
    part = GridBalls(space.delta).part
    return {c: tuple(map(part, h)) for c, h in landing.items()}


def ratio_sum(ratio, groups, within=-1):
    """`_RatioBound._sum` as it summed float prices before a priced node
    kept its prices as an ordered list: the prices of the (ratio, elements)
    groups over the elements in `within`, each at its element's place in a
    list of int zeros, summed in the bound's `_order`."""
    least = [0] * (max(ratio._order, default=-1) + 1)
    for price, new in groups:
        new &= within
        while new:
            low = new & -new
            least[low.bit_length() - 1] = price
            new ^= low
    return sum(map(least.__getitem__, ratio._order))
