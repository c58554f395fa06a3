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
from .linalg import Mat, ZERO, ONE, det, over_lcd

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
    return MinkowskiWeight(d, {c: ONE for c in fan.maximal_cones if len(c) == d})


@dataclass(frozen=True)
class TropicalFan:
    """A simplicial fan together with a positive top-degree weight."""

    fan: MarkedFan
    weight: MinkowskiWeight

    def __post_init__(self):
        d = self.fan.dimension
        if self.weight.degree != d:
            raise PreconditionError("tropical weight must have top degree")
        for c in self.fan.maximal_cones:
            if len(c) == d and self.weight[c] <= 0:
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


def _mark_coordinates(fan: MarkedFan, w: MinkowskiWeight):
    """For a weight w of degree k >= 1, the mark sum at each (k-1)-cone tau,
    in cones order, read in the quotient record of the first maximal cone M
    over tau (`fan.incident[tau][0]`): yields (tau, ws, on_tau, scale, den),
    with on_tau None when w is unbalanced at tau.

    M's marks are independent, so the mark sum lies in tau's span exactly
    when M's annihilators vanish on it and its coordinates in M's mark basis
    vanish off tau's rays; its coordinates on tau's rays are then those in
    tau's basis, and no face of M needs an elimination of its own.  `ws`
    holds w at tau's cofaces as ints over one denominator and `on_tau` the
    coordinates; a divisor with int values zn over zd acts at tau by
    (scale * sum(ws * zn at the opposite rays) - sum(on_tau * zn on tau))
    / (den * zd).
    """
    for tau in fan.cones(w.degree - 1):
        cofaces = fan.cofaces[tau]
        top = fan.incident[tau][0]
        q = fan.quotient(top)
        ws, wd = over_lcd([w[sigma] for sigma, _ in cofaces])
        total, md = _mark_sum(fan, ws, tau)
        on_tau = None
        if q.in_span(total):
            # the mark sum is total / (wd * md); its coordinates are over q.den * wd * md
            coords = q.coordinates(total)
            if not any(c for r, c in zip(top, coords) if r not in tau):
                on_tau = [c for r, c in zip(top, coords) if r in tau]
        scale = q.den * md
        yield tau, ws, on_tau, scale, wd * scale


def _act(fan: MarkedFan, w: MinkowskiWeight, z: Divisor, marks) -> MinkowskiWeight:
    """w acted on by z, one value per (k-1)-cone: the sum of w(sigma) times
    z at the opposite ray, less the linear function matching z on the cone's
    rays at the mark sum.  `marks` is `_mark_coordinates(fan, w)`, or a list
    of it shared by every divisor that acts on w; z is made int once, and
    one Fraction is made per value.  Raises at the first cone where w is
    unbalanced."""
    zn, zd = over_lcd(z)
    out = {}
    for tau, ws, on_tau, scale, den in marks:
        if on_tau is None:
            raise BalancingError(f"weight is unbalanced at cone {tau}")
        linear_part = sum(map(mul, ws, [zn[eta] for _, eta in fan.cofaces[tau]]))
        at_sum = sum(map(mul, on_tau, [zn[i] for i in tau]))
        out[tau] = Fraction(linear_part * scale - at_sum, den * zd)
    return MinkowskiWeight(w.degree - 1, out)


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
    own rays, evaluated at the balancing sum.  This is `acted_weights` for
    the one sequence (z,); a chain of actions is one `acted_weights` call.
    """
    [acted] = acted_weights(fan, w, [z], [(0,)])
    return acted


def star_forms(fan: MarkedFan, w: MinkowskiWeight):
    """For a balanced weight of degree k, each (k-2)-cone tau in cones order
    with the matrix (D_i . D_j . w) on the star at tau, read off the parent
    fan; none below degree two.  Its rows are the rays eta with tau + eta a
    cone, in ray order (every ray at the origin, whose star is the fan).
    Entry (eta, xi) off the diagonal is the weight of tau + eta + xi, or zero;
    the star's marks are the parent's modulo tau's span, so the diagonal
    entry at eta is minus eta's coordinate of the mark sum at tau + eta.
    """
    if w.degree < 2:
        return
    coords = {sigma: (on_tau, den) for sigma, _, on_tau, _, den in _mark_coordinates(fan, w)}
    for sigma, (on_tau, _) in coords.items():
        if on_tau is None:
            raise BalancingError(f"weight is unbalanced at cone {sigma}")
    values = w.values  # the pass has read every value
    for tau in fan.cones(w.degree - 2):
        rays = [eta for _, eta in fan.cofaces[tau]] if tau else range(len(fan.rays))
        row_of = {eta: i for i, eta in enumerate(rays)}
        entries = [[ZERO] * len(rays) for _ in rays]
        for sigma, eta in fan.cofaces[tau]:
            row = entries[row_of[eta]]
            for rho, xi in fan.cofaces[sigma]:
                row[row_of[xi]] = values[rho]
            on_tau, den = coords[sigma]
            row[row_of[eta]] = Fraction(-on_tau[sigma.index(eta)], den)
        yield tau, tuple(map(tuple, entries))


def quadratic_form(fan: MarkedFan, w: MinkowskiWeight) -> Mat:
    """The symmetric nrays x nrays matrix (D_i . D_j . w) of ray indicators
    on a balanced degree-two weight: `star_forms` at the origin."""
    if w.degree != 2:
        raise PreconditionError("a quadratic form needs a weight of degree two")
    [(_, form)] = star_forms(fan, w)
    return form


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


def _recorded(rows, record: list):
    for row in rows:
        record.append(row)
        yield row


def acted_weights(
    fan: MarkedFan, w: MinkowskiWeight, divisors: Sequence[Divisor], sequences: Iterable[Sequence[int]]
) -> list[MinkowskiWeight]:
    """w acted on by [divisors[i] for i in seq] for each index sequence, in
    order: the one code that applies a divisor to a weight.  The divisors
    act in sequence order, first index first, and each distinct prefix is
    applied once and shared by the later sequences.  A prefix's mark sums
    and their coordinates are made once, as the first divisor that acts on
    it reads them, and kept for the others.  A weight of degree zero, a
    divisor of the wrong length and an unbalanced weight raise at the first
    action that meets them."""
    partial = {(): w}
    marks = {}
    out = []
    for seq in map(tuple, sequences):
        for k in range(1, len(seq) + 1):
            if seq[:k] not in partial:
                prefix, z = seq[: k - 1], divisors[seq[k - 1]]
                if partial[prefix].degree < 1:
                    raise PreconditionError("divisor action needs a weight of degree at least one")
                if len(z) != len(fan.rays):
                    raise DimensionError("divisor has one value per ray")
                if prefix in marks:
                    rows = marks[prefix]
                else:
                    # read as the first action goes, which raises where a lone action would
                    rows = _recorded(_mark_coordinates(fan, partial[prefix]), marks.setdefault(prefix, []))
                partial[seq[:k]] = _act(fan, partial[prefix], z, rows)
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


def transport_weight(coarse: TropicalFan, fine: MarkedFan, containment: dict) -> TropicalFan:
    """Move a top weight across a refinement using parallelepiped volume ratios.

    Every fine maximal cone c picks up the weight of its coarse maximal cone
    `containment[c]` divided by the absolute determinant of its marks
    expressed in that cone's mark basis; this is the unique scaling that
    keeps the result balanced and leaves mixed degrees of pulled-back
    divisors unchanged.  A fine cone whose int marks are those of its coarse
    cone, in order, as a stellar subdivision's kept cones are, takes that
    cone's weight.  Any other reads each mark on ints in the coarse cone's
    quotient record, so the coordinates of mark i are numerators over
    q.den * d_i and the ratio is an int determinant over their product.
    """
    cfan = coarse.fan
    if fine.ambient_dim != cfan.ambient_dim:
        raise DimensionError("refinement lives in a different ambient space")
    if fine.dimension != cfan.dimension:
        raise PreconditionError("refinement must have the same dimension")
    maximal = set(cfan.maximal_cones)
    values = {}
    for c in fine.maximal_cones:
        if c not in containment:
            raise PreconditionError(f"fine cone {c} has no coarse cone in the containment map")
        parent = cone_key(containment[c])
        if parent not in maximal:
            raise PreconditionError(f"fine cone {c} maps to {parent}, not a maximal cone of the coarse fan")
        if [fine.int_marks[i] for i in c] == [cfan.int_marks[j] for j in parent]:
            # a kept cone: its marks are the coarse cone's, in order, so the ratio is one
            values[c] = coarse.weight[parent]
            continue
        q = cfan.quotient(parent)
        columns, scale = [], 1
        for i in c:
            nums, d = fine.int_marks[i]
            coords = q.coordinates(nums) if q.in_span(nums) else None
            if coords is None or min(coords) < 0:
                raise PreconditionError(f"fine cone {c} is not contained in coarse cone {parent}")
            columns.append(coords)
            scale *= q.den * d
        ratio = abs(det(columns))
        if not ratio:
            raise PreconditionError(f"fine cone {c} has linearly dependent marks")
        values[c] = coarse.weight[parent] * scale / ratio
    return TropicalFan(fine, MinkowskiWeight(fine.dimension, values))


def pullback_divisor(coarse: MarkedFan, z: Divisor, fine: MarkedFan) -> Divisor:
    """Evaluate the coarse piecewise linear function at the fine ray marks.

    A fine mark equal to the mark of a ray of some coarse maximal cone takes
    z at that ray, as every ray a stellar subdivision keeps does.  Any other
    mark is read in the quotient record of the first coarse maximal cone
    that contains it, as `stellar_subdivide` reads its point."""
    if len(z) != len(coarse.rays):
        raise DimensionError("divisor has one value per ray")
    if fine.ambient_dim != coarse.ambient_dim:
        raise DimensionError("refinement lives in a different ambient space")
    rays = {}
    for c in coarse.maximal_cones:
        for i in c:
            rays.setdefault(coarse.int_marks[i], i)
    zn, zd = over_lcd(z)
    out = []
    for mark in fine.int_marks:
        i = rays.get(mark)
        if i is not None:
            out.append(Fraction(z[i]))
            continue
        nums, d = mark
        for c in coarse.maximal_cones:
            q = coarse.quotient(c)
            if q.in_span(nums):
                coords = q.coordinates(nums)
                if min(coords) >= 0:
                    out.append(Fraction(sum(map(mul, coords, [zn[i] for i in c])), q.den * d * zd))
                    break
        else:
            raise PreconditionError("fine ray lies outside the coarse support")
    return tuple(out)
