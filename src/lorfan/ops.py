"""Tropical fan constructors: products, divisor-action fans, modifications,
and the polytope mixed-volume bridge."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .convexity import require_convex
from .errors import PreconditionError
from .fan import MarkedFan, cone_key, is_complete, product_fan, require_fan
from .weights import (
    Divisor,
    MinkowskiWeight,
    TropicalFan,
    check_balancing,
    constant_weight,
    divisor_action,
    mixed_degree,
)


def product_tropical(tf1: TropicalFan, tf2: TropicalFan) -> TropicalFan:
    """Product fan with the product weight on pairwise cone products."""
    fan = product_fan(tf1.fan, tf2.fan)
    offset = len(tf1.fan.int_marks)
    values = {}
    for c1, v1 in tf1.weight.values.items():
        for c2, v2 in tf2.weight.values.items():
            values[cone_key(list(c1) + [offset + i for i in c2])] = v1 * v2
    return TropicalFan(fan, MinkowskiWeight(fan.dimension, values))


def act_divisor_fan(tf: TropicalFan, z: Divisor) -> TropicalFan:
    """The codimension-one skeleton weighted by the action of a strictly
    convex divisor; positivity of the result is guaranteed by strictness.
    Input that fails validate is refused."""
    fan = tf.fan
    d = fan.dimension
    if d < 1:
        raise PreconditionError("cannot act on a zero-dimensional fan")
    require_fan(fan, "divisor action needs a fan")
    require_convex(fan, z, True, "divisor action requires a strictly convex divisor")
    acted = divisor_action(fan, tf.weight, z)
    skeleton_cones = tuple(sorted(fan.cones(d - 1)))
    used = sorted(set(itertools.chain.from_iterable(skeleton_cones)))
    remap = {old: i for i, old in enumerate(used)}
    skeleton = MarkedFan.from_int_marks(
        fan.ambient_dim,
        tuple(fan.int_marks[i] for i in used),
        tuple(cone_key(remap[i] for i in c) for c in skeleton_cones),
    )
    values = {
        cone_key(remap[i] for i in c): v for c, v in acted.values.items()
    }
    return TropicalFan(skeleton, MinkowskiWeight(d - 1, values))


def tropical_modification(tf: TropicalFan, z: Divisor) -> TropicalFan:
    """Lift along a strictly convex piecewise linear representative.

    Graph cones keep their weights at the lifted marks (u, z(u)); each
    codimension-one cone also grows a downward cone on the extra ray (0,-1),
    weighted by the divisor action there, which restores balancing.  Input
    that fails validate is refused.
    """
    fan = tf.fan
    d = fan.dimension
    if d < 1:
        raise PreconditionError("cannot modify a zero-dimensional fan")
    require_fan(fan, "tropical modification needs a fan")
    require_convex(fan, z, True, "tropical modification requires a strictly convex divisor")
    acted = divisor_action(fan, tf.weight, z)

    # each lifted mark (u, z(u)) over the least common denominator of u's and z(u)'s
    marks = []
    for (nums, den), v in zip(fan.int_marks, map(Fraction, z)):
        m = math.lcm(den, v.denominator)
        marks.append((tuple(x * (m // den) for x in nums) + (v.numerator * (m // v.denominator),), m))
    down = len(marks)
    marks.append(((0,) * fan.ambient_dim + (-1,), 1))

    values = {}
    cones = []
    for sigma in fan.maximal_cones:
        cones.append(sigma)
        values[sigma] = tf.weight[sigma]
    for tau in fan.cones(d - 1):
        c = cone_key(list(tau) + [down])
        cones.append(c)
        values[c] = acted[tau]
    lifted = MarkedFan.from_int_marks(fan.ambient_dim + 1, tuple(marks), tuple(sorted(cones)))
    return TropicalFan(lifted, MinkowskiWeight(d, values))


# ---------------------------------------------------------------------------
# complete fans and polytopes


class MixedVolumeResult(NamedTuple):
    """Mixed degree of polytope divisors on a complete fan with unit weight.

    The Euclidean value applies the convention fixed by the planar triangle
    oracle: euclidean = degree / n!.
    """

    degree: Fraction
    dimension: int
    euclidean_value: Fraction
    convention: str = "euclidean_volume = degree / n!"


def polytope_bridge(fan: MarkedFan, rhs_list: Sequence[Sequence[Fraction]]) -> MixedVolumeResult:
    """Mixed degree of the divisors of polytopes sharing this complete normal fan.

    Requires a valid fan, since completeness is read off wall counts, and the
    unit weight to balance on it (part of sharing a normal fan structure with
    integral volume bookkeeping).
    """
    d = fan.dimension
    if len(rhs_list) != d:
        raise PreconditionError(f"need {d} polytopes, got {len(rhs_list)}")
    require_fan(fan, "mixed volumes need a fan")
    if not is_complete(fan):
        raise PreconditionError("mixed volumes need a complete fan")
    unit = constant_weight(fan)
    if check_balancing(fan, unit) != ():
        raise PreconditionError("the unit weight does not balance on this fan")
    divisors = [tuple(Fraction(v) for v in rhs) for rhs in rhs_list]
    for z in divisors:
        if len(z) != len(fan.int_marks):
            raise PreconditionError("one right-hand side per ray required")
    degree = mixed_degree(fan, unit, divisors)
    return MixedVolumeResult(
        degree=degree,
        dimension=d,
        euclidean_value=degree / math.factorial(d),
    )
