"""Minkowski weights, balancing, the divisor action, and mixed degrees.

A degree-k weight assigns a rational to every k-cone.  Balancing at a
(k-1)-cone means the weighted sum of the opposite ray marks lands in the
span of the cone; piecewise linear functions act on balanced weights by
measuring their failure to be linear across each cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import BalancingError, DimensionError, PreconditionError
from .fan import Cone, MarkedFan, StarData, cone_key, star
from .linalg import Mat, ZERO, ONE, det, mat, over_lcd, vec

Divisor = tuple[Fraction, ...]


def indicator_divisor(fan: MarkedFan, ray: int) -> Divisor:
    return tuple(ONE if i == ray else ZERO for i in range(len(fan.rays)))


@dataclass(frozen=True)
class MinkowskiWeight:
    degree: int
    values: dict

    def __post_init__(self):
        for c in self.values:
            if len(c) != self.degree:
                raise DimensionError("weight key has wrong cone dimension")

    def __getitem__(self, cone: Cone) -> Fraction:
        # the keys are sorted tuples, which is how the cone index lists cones
        value = self.values.get(cone) if type(cone) is tuple else None
        if value is not None:
            return value
        try:
            return self.values[cone_key(cone)]
        except KeyError:
            raise PreconditionError(f"weight missing a value on cone {cone}") from None


def weight(degree: int, values: dict) -> MinkowskiWeight:
    return MinkowskiWeight(degree, {cone_key(c): Fraction(v) for c, v in values.items()})


def constant_weight(fan: MarkedFan) -> MinkowskiWeight:
    d = fan.dimension
    return MinkowskiWeight(d, {c: ONE for c in fan.cones(d)})


@dataclass(frozen=True)
class TropicalFan:
    """A simplicial fan together with a positive top-degree weight."""

    fan: MarkedFan
    weight: MinkowskiWeight

    def __post_init__(self):
        d = self.fan.dimension
        if self.weight.degree != d:
            raise PreconditionError("tropical weight must have top degree")
        for c in self.fan.cones(d):
            if self.weight[c] <= 0:
                raise PreconditionError(f"weight must be positive; cone {c} fails")

    @property
    def dimension(self) -> int:
        return self.fan.dimension


def _mark_sum(fan: MarkedFan, weights, tau: Cone) -> tuple[list[int], int]:
    """Sum of weights[i] times the opposite ray's mark over tau's cofaces,
    for int weights: its numerators, and their denominator, the least common
    one of those marks."""
    cofaces = fan.cofaces[tau]
    marks = fan.int_marks
    d = lcm(*(marks[eta][1] for _, eta in cofaces))
    total = [0] * fan.ambient_dim
    for ws, (_, eta) in zip(weights, cofaces):
        if ws:
            nums, de = marks[eta]
            ws *= d // de
            for j, x in enumerate(nums):
                if x:
                    total[j] += ws * x
    return total, d


def _action_at(fan: MarkedFan, w: MinkowskiWeight, tau: Cone, z) -> Optional[Fraction]:
    """Value at tau of z acting on w, or None when w is unbalanced at tau.

    The mark sum must lie in tau's span; the sum of w(sigma) times z at the
    opposite ray, less the linear function matching z on tau's rays at the
    mark sum, is the value.  Everything runs on ints over common
    denominators, and one Fraction is made at the end.
    """
    cofaces = fan.cofaces[tau]
    q = fan.quotient(tau)
    ws, wd = over_lcd([w[sigma] for sigma, _ in cofaces])
    total, md = _mark_sum(fan, ws, tau)
    if not q.in_span(total):
        return None
    # the mark sum is total / (wd * md); its coordinates are over q.den * wd * md
    on_tau, td = over_lcd([z[i] for i in tau])
    opposite, od = over_lcd([z[eta] for _, eta in cofaces])
    linear_part = sum(map(mul, ws, opposite))  # over wd * od
    at_sum = sum(map(mul, q.coordinates(total), on_tau))  # over q.den * wd * md * td
    scale = q.den * md * td
    return Fraction(linear_part * scale - at_sum * od, wd * od * scale)


def check_balancing(fan: MarkedFan, w: MinkowskiWeight) -> tuple[Cone, ...]:
    """Cones of dimension degree-1 where balancing fails, those whose mark
    sum leaves their span; empty means balanced."""
    k = w.degree
    if k == 0:
        return ()
    for sigma in fan.cones(k):
        w[sigma]
    failing = []
    for tau in fan.cones(k - 1):
        ws, _ = over_lcd([w[sigma] for sigma, _ in fan.cofaces[tau]])
        if not fan.quotient(tau).in_span(_mark_sum(fan, ws, tau)[0]):
            failing.append(tau)
    return tuple(failing)


def divisor_action(fan: MarkedFan, w: MinkowskiWeight, z: Divisor) -> MinkowskiWeight:
    """Apply the piecewise linear function with ray values z to a degree-k weight.

    The value on a (k-1)-cone is the weighted sum of z over the opposite rays
    minus the unique linear function on the cone's span that matches z on its
    own rays, evaluated at the balancing sum.
    """
    k = w.degree
    if k < 1:
        raise PreconditionError("divisor action needs a weight of degree at least one")
    if len(z) != len(fan.rays):
        raise DimensionError("divisor has one value per ray")
    out = {}
    for tau in fan.cones(k - 1):
        value = _action_at(fan, w, tau, z)
        if value is None:
            raise BalancingError(f"weight is unbalanced at cone {tau}")
        out[tau] = value
    return MinkowskiWeight(k - 1, out)


def quadratic_form(fan: MarkedFan, w: MinkowskiWeight) -> Mat:
    """The symmetric matrix (D_i . D_j . w) of ray indicators on a balanced
    degree-two weight.

    Off the diagonal, entry (r1, r2) is the weight of the cone spanned by r1
    and r2 (zero when they span none); the diagonal entry at a ray is its
    indicator acting at the ray, which is -a when balancing puts the weighted
    sum of opposite marks around the ray at a times the ray's own mark.
    """
    if w.degree != 2:
        raise PreconditionError("a quadratic form needs a weight of degree two")
    nrays = len(fan.rays)
    entries = [[ZERO] * nrays for _ in range(nrays)]
    for sigma in fan.cones(2):
        r1, r2 = sigma
        entries[r1][r2] = entries[r2][r1] = w[sigma]
    for (rho,) in fan.cones(1):
        diagonal = _action_at(fan, w, (rho,), indicator_divisor(fan, rho))
        if diagonal is None:
            raise BalancingError(f"weight is unbalanced at ray {rho}")
        entries[rho][rho] = diagonal
    return tuple(tuple(row) for row in entries)


def mixed_degree(fan: MarkedFan, w: MinkowskiWeight, divisors: Sequence[Divisor]) -> Fraction:
    """Iterated divisor action evaluated at the origin."""
    return mixed_degrees(fan, w, divisors, [range(len(divisors))])[0]


def mixed_degrees(
    fan: MarkedFan, w: MinkowskiWeight, divisors: Sequence[Divisor], sequences: Iterable[Sequence[int]]
) -> list[Fraction]:
    """mixed_degree of [divisors[i] for i in seq] for each index sequence, in
    order, with every value and every error that of the separate calls."""

    def exact(seq):
        if len(seq) != w.degree:
            raise PreconditionError(f"need exactly {w.degree} divisors, got {len(seq)}")
        return seq

    return [acted[()] for acted in acted_weights(fan, w, divisors, map(exact, sequences))]


def acted_weights(
    fan: MarkedFan, w: MinkowskiWeight, divisors: Sequence[Divisor], sequences: Iterable[Sequence[int]]
) -> list[MinkowskiWeight]:
    """w acted on by [divisors[i] for i in seq] for each index sequence, in
    order.  The divisors act in sequence order, first index first, and each
    distinct prefix is applied once and shared by the later sequences."""
    partial = {(): w}
    out = []
    for seq in map(tuple, sequences):
        for k in range(1, len(seq) + 1):
            if seq[:k] not in partial:
                partial[seq[:k]] = divisor_action(fan, partial[seq[: k - 1]], divisors[seq[k - 1]])
        out.append(partial[seq])
    return out


# ---------------------------------------------------------------------------
# stars


def star_weight(tf: TropicalFan, apex: Cone, star_data: Optional[StarData] = None) -> TropicalFan:
    """Induced tropical structure on the star: each quotient cone inherits the
    weight of the unique maximal cone over it."""
    sd = star_data if star_data is not None else star(tf.fan, apex)
    apex = sd.apex
    values = {}
    for c in sd.fan.maximal_cones:
        parent_cone = cone_key(list(apex) + [sd.lift[i] for i in c])
        values[c] = tf.weight[parent_cone]
    return TropicalFan(sd.fan, MinkowskiWeight(sd.fan.dimension, values))


def push_divisor_to_star(sd: StarData, z: Divisor) -> Divisor:
    """The divisor induced on a star fan.

    Subtracts the unique linear functional that matches z on the apex rays
    and vanishes on the non-pivot coordinates, then reads the leftover values
    on the neighborhood rays, from the apex's neighborhood record.
    """
    fan = sd.parent
    if len(z) != len(fan.rays):
        raise DimensionError("divisor has one value per ray")
    if not sd.apex:
        return tuple(Fraction(v) for v in z)
    return fan.neighborhood(sd.apex).excess(z)


# ---------------------------------------------------------------------------
# transport


def transport_weight(
    coarse: TropicalFan,
    fine: MarkedFan,
    containment: Optional[dict] = None,
) -> TropicalFan:
    """Move a top weight across a refinement using parallelepiped volume ratios.

    Every fine maximal cone picks up the coarse weight divided by the absolute
    determinant of its marks expressed in the coarse cone's mark basis; this
    is the unique scaling that keeps the result balanced and leaves mixed
    degrees of pulled-back divisors unchanged.  The containment map is
    recomputed from barycenters when not supplied, and is verified either way.
    """
    cfan = coarse.fan
    if fine.ambient_dim != cfan.ambient_dim:
        raise DimensionError("refinement lives in a different ambient space")
    if fine.dimension != cfan.dimension:
        raise PreconditionError("refinement must have the same dimension")
    values = {}
    for c in fine.maximal_cones:
        if containment is not None and c in containment:
            parent = cone_key(containment[c])
        else:
            bary = vec([sum(col, ZERO) for col in zip(*(fine.rays[i] for i in c))])
            parent = next(
                (p for p in cfan.maximal_cones if cfan.cone_contains(p, bary)), None
            )
            if parent is None:
                raise PreconditionError(f"fine cone {c} lies outside the coarse support")
        columns = []
        for i in c:
            coords = cfan.cone_coordinates(parent, fine.rays[i])
            if coords is None or any(x < 0 for x in coords):
                raise PreconditionError(
                    f"fine cone {c} is not contained in coarse cone {parent}"
                )
            columns.append(coords)
        ratio = abs(det(mat(tuple(zip(*columns)))))
        if not ratio:
            raise PreconditionError(f"fine cone {c} has linearly dependent marks")
        values[c] = coarse.weight[parent] / ratio
    return TropicalFan(fine, MinkowskiWeight(fine.dimension, values))


def pullback_divisor(coarse: MarkedFan, z: Divisor, fine: MarkedFan) -> Divisor:
    """Evaluate the coarse piecewise linear function at the fine ray marks."""
    if len(z) != len(coarse.rays):
        raise DimensionError("divisor has one value per ray")
    out = []
    for u in fine.rays:
        parent = next((c for c in coarse.maximal_cones if coarse.cone_contains(c, u)), None)
        if parent is None:
            raise PreconditionError("fine ray lies outside the coarse support")
        coords = coarse.cone_coordinates(parent, u)
        out.append(sum((x * z[i] for x, i in zip(coords, parent)), ZERO))
    return tuple(out)
