"""Small stock fans used throughout the test-suite and documentation."""

from __future__ import annotations

from fractions import Fraction

from .fan import MarkedFan, point_fan, product_fan
from .weights import MinkowskiWeight, TropicalFan, constant_weight


def triangle_fan() -> TropicalFan:
    """Complete fan in the plane with rays e1, e2, -e1-e2 and unit weight."""
    fan = MarkedFan(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)), ((0, 1), (0, 2), (1, 2)))
    return TropicalFan(fan, constant_weight(fan))


def line_fan() -> TropicalFan:
    """The two opposite rays of a line."""
    fan = MarkedFan(1, (((1,), 1), ((-1,), 1)), ((0,), (1,)))
    return TropicalFan(fan, constant_weight(fan))


def coordinate_skeleton_fan() -> TropicalFan:
    """The two-dimensional skeleton of the coordinate planes in 3-space.

    Six rays along the signed axes and the twelve quadrant cones of the three
    coordinate planes, with unit weight.
    """
    marks = []
    for axis in range(3):
        for sign in (1, -1):
            u = [0] * 3
            u[axis] = sign
            marks.append((tuple(u), 1))
    # ray index: 2*axis + (0 if +, 1 if -)
    cones = []
    for a in range(3):
        for b in range(a + 1, 3):
            for sa in (0, 1):
                for sb in (0, 1):
                    cones.append(tuple(sorted((2 * a + sa, 2 * b + sb))))
    fan = MarkedFan(3, tuple(marks), tuple(sorted(cones)))
    return TropicalFan(fan, constant_weight(fan))


def triangle_times_line() -> TropicalFan:
    """Product of the triangle fan with a line; a three-dimensional fan."""
    t, l = triangle_fan(), line_fan()
    fan = product_fan(t.fan, l.fan)
    return TropicalFan(fan, constant_weight(fan))


def two_disjoint_triangles() -> TropicalFan:
    """Two triangle fans in complementary planes of 4-space, meeting only at 0.

    Quasiprojective but pinched at the origin, hence not Lorentzian.
    """
    rays = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (-1, -1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, -1, -1),
    )
    cones = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    fan = MarkedFan(4, tuple((u, 1) for u in rays), cones)
    return TropicalFan(fan, constant_weight(fan))


def spindle_fan() -> TropicalFan:
    """Two half-plane pairs glued along an axis: rays +-e3 plus two legs.

    The volume form of this fan factors into two independent linear forms, so
    it has exactly one positive and one negative eigenvalue.
    """
    rays = (
        (0, 0, 1),        # axis up
        (0, 0, -1),       # axis down
        (1, 0, 1),        # leg 1
        (-1, 0, 0),       # leg 2
    )
    cones = ((0, 2), (1, 2), (0, 3), (1, 3))
    fan = MarkedFan(3, tuple((u, 1) for u in rays), cones)
    return TropicalFan(fan, constant_weight(fan))


def origin_fan(ambient_dim: int = 1) -> TropicalFan:
    fan = point_fan(ambient_dim)
    return TropicalFan(fan, MinkowskiWeight(0, {(): Fraction(1)}))


def twisted_prism_fan() -> TropicalFan:
    """Complete 3-fan over a triangular prism whose side quads are split by
    cyclically twisted diagonals.

    The cyclic twist admits no strictly convex divisor, so this fan is
    balanced and positive but not quasiprojective (hence not Lorentzian).
    Weights are inverse parallelepiped volumes, cleared to integers.
    """
    import math

    from .linalg import det, mat

    top = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]
    bottom = [(1, 0, -1), (0, 1, -1), (-1, -1, -1)]
    rays = top + bottom
    cones = [(0, 1, 2), (3, 4, 5)]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        cones.append(tuple(sorted((i, j, 3 + j))))
        cones.append(tuple(sorted((i, 3 + j, 3 + i))))
    fan = MarkedFan(3, tuple((u, 1) for u in rays), tuple(sorted(cones)))
    vols = {c: abs(det(mat([rays[i] for i in c]))) for c in fan.maximal_cones}
    scale = math.lcm(*(v.numerator for v in vols.values()))
    weight = MinkowskiWeight(3, {c: Fraction(scale) / v for c, v in vols.items()})
    return TropicalFan(fan, weight)
