"""Convexity of divisors and quasiprojectivity witnesses.

A divisor is convex when every cone admits a linear representative that
matches it on the cone's rays and stays below it on the neighborhood rays;
strict convexity asks for strict slack.  Both are read off the optimum of one
exact max-slack program per cone.  The matching equalities are eliminated
analytically (a pinned particular functional plus a basis of functionals
vanishing on the cone), so every program is small and equality-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ConvexityError, InternalError, PreconditionError
from .fan import Cone, MarkedFan, candidate_divisor
from .linalg import Vec, ZERO, ONE, eliminate, fractions, over_lcd
from .lp import strict_feasible

VERDICT_NONE = "none"
VERDICT_CONVEX = "convex"
VERDICT_STRICT = "strictly-convex"

# how a quasiprojectivity witness was decided
ROUTE_CANDIDATE = "candidate"
ROUTE_JOINT_LP = "joint_lp"


@dataclass(frozen=True)
class ConeWitness:
    cone: Cone
    functional: Optional[Vec]
    satisfied: bool


@dataclass(frozen=True)
class ConvexityCertificate:
    divisor: tuple
    strict_requested: bool
    verdict: str
    witnesses: tuple[ConeWitness, ...]
    failing: tuple[Cone, ...]

    @property
    def convex(self) -> bool:
        return self.verdict in (VERDICT_CONVEX, VERDICT_STRICT)

    @property
    def strictly_convex(self) -> bool:
        return self.verdict == VERDICT_STRICT

    def require(self, message: str) -> None:
        """Refuse a divisor below the requested level, carrying this certificate."""
        if not (self.strictly_convex if self.strict_requested else self.convex):
            raise ConvexityError(message, certificate=self)


def _witness_at_cone(fan: MarkedFan, z, tau: Cone, strict: bool) -> tuple[ConeWitness, Fraction]:
    """The cone's witness and the optimum t* of its max-slack program, whose
    rows are phi(u_eta) + t <= z_eta on the neighborhood rays: the cone has
    a strict witness iff t* > 0 and a weak one iff t* >= 0."""
    q = fan.quotient(tau)
    on_cone = [z[i] for i in tau]
    rows = fan.neighborhood(tau).rows(z)
    if not rows:
        return ConeWitness(tau, fractions(*q.functional(*over_lcd(on_cone))), True), ONE
    res = strict_feasible(rows, q.codim)
    if res.optimum < 0 or (strict and not res.feasible):
        return ConeWitness(tau, None, False), res.optimum
    phi, den = q.functional(*over_lcd([*on_cone, *res.point]))
    for i, v in zip(tau, on_cone):
        nums, d = fan.int_marks[i]
        if sum(map(mul, phi, nums)) * v.denominator != v.numerator * den * d:
            raise InternalError("reconstructed witness misses a matching value")
    return ConeWitness(tau, fractions(phi, den), True), res.optimum


def classify_convexity(fan: MarkedFan, z, strict: bool = False) -> ConvexityCertificate:
    """Per-cone feasibility certificates for the requested convexity level.

    One max-slack program per cone decides both levels, so a failed strict
    test still tells convex from not convex at all.
    """
    if len(z) != len(fan.rays):
        raise PreconditionError("divisor has one value per ray")
    witnesses = []
    failing = []
    lowest = ONE
    for tau in fan.all_cones():
        w, optimum = _witness_at_cone(fan, z, tau, strict)
        witnesses.append(w)
        if not w.satisfied:
            failing.append(tau)
        lowest = min(lowest, optimum)
    if lowest < 0:
        verdict = VERDICT_NONE
    elif strict and lowest > 0:
        verdict = VERDICT_STRICT
    else:
        verdict = VERDICT_CONVEX
    return ConvexityCertificate(
        divisor=tuple(Fraction(v) for v in z),
        strict_requested=strict,
        verdict=verdict,
        witnesses=tuple(witnesses),
        failing=tuple(failing),
    )


def is_strictly_convex(fan: MarkedFan, z) -> bool:
    """classify_convexity(fan, z, strict=True).strictly_convex, decided by
    `fan.regular(z)` (the lemma in `fan._regular`'s docstring) and else
    cone by cone, up to the first cone whose program has no strict
    witness."""
    return fan.regular(z) or all(_witness_at_cone(fan, z, tau, True)[1] > 0 for tau in fan.all_cones())


def require_convex(fan: MarkedFan, z, strict: bool, message: str) -> None:
    """Refuse z unless it is proved convex, strictly when `strict`: by
    `fan.regular(z)`, which makes it strictly convex (the lemma in
    `fan._regular`'s docstring), and else by classify_convexity, whose
    certificate a refusal's ConvexityError carries."""
    if not fan.regular(z):
        classify_convexity(fan, z, strict).require(message)


def spanning_rays(fan: MarkedFan) -> tuple[int, ...]:
    """First ray subset (by index) whose marks form a basis of the mark span:
    the pivot columns of the matrix whose columns are the marks.  Each
    column holds a mark's int numerators, the mark scaled by a positive
    number, which moves no pivot."""
    rows = [list(col) for col in zip(*(nums for nums, _ in fan.int_marks))]
    return eliminate(rows, [1] * len(rows))


def strictly_convex_witness(fan: MarkedFan) -> tuple[Optional[tuple], str]:
    """A strictly convex divisor or None, and the route that decided: the
    candidate divisor z when `fan.regular(z)` holds or its per-cone
    programs, those of classify_convexity(strict=True), all certify it,
    else Benders cuts.

    A cone whose program is infeasible at z has Farkas multipliers lam on
    its neighborhood rows, which cancel the rows' functional columns; so
    sum lam_eta * (z_eta - the functional matching z on the cone, at u_eta)
    is <= 0 at z and positive at every strictly convex divisor.  This cut is
    linear in z and vanishes on linear functions, so a master program over
    z, pinned at zero on `spanning_rays`, asks for a point meeting every cut
    strictly, and that point is the next z.  An infeasible master means no
    strictly convex divisor: its multipliers times each cut's lam are a
    certificate on the rows of the joint program that couples z with one
    functional block per cone.  The loop ends: a cut is fixed by its cone
    and lam, a vertex of the cone's dual polytope, which does not depend on
    z; and each round after the first adds a new cut, since its z, the
    master's point, meets every earlier cut strictly and misses this one.
    """
    candidate = candidate_divisor(fan)
    if fan.regular(candidate):
        return candidate, ROUTE_CANDIDATE
    return _cut_loop(fan)[:2]


def _cut_loop(fan: MarkedFan):
    """strictly_convex_witness's loop: the divisor or None, the route, the
    cuts as (tau, lam) and the last master result (None on the candidate
    route).  A cut's master row is sum lam_eta times the joint program's
    row at (tau, eta), on the z columns."""
    pinned = set(spanning_rays(fan))
    column = {i: k for k, i in enumerate(i for i in range(len(fan.rays)) if i not in pinned)}
    hoods = [h for h in map(fan.neighborhood, fan.all_cones()) if h.rays]
    z, route, master, cuts, rows = candidate_divisor(fan), ROUTE_CANDIDATE, None, [], []
    while True:
        made = len(cuts)
        for hood in hoods:
            res = strict_feasible(hood.rows(z), fan.quotient(hood.cone).codim)
            if res.feasible:
                continue
            lam = res.certificate.multipliers
            row = [ZERO] * len(column)
            for eta, coords, d, weight in zip(hood.rays, hood.coord_rows, hood.dens, lam):
                # the joint row's z part: phi(u_eta) - z_eta, over d
                for r, x in ((eta, -d), *zip(hood.cone, coords)):
                    if weight and x and r in column:
                        row[column[r]] += weight * x / d
            nums, den = over_lcd(row)
            rows.append((nums, 0, 1))
            cuts.append((hood.cone, tuple(weight * den for weight in lam)))
        if len(cuts) == made:
            return z, route, cuts, master
        route, master = ROUTE_JOINT_LP, strict_feasible(rows, len(column))
        if not master.feasible:
            return None, route, cuts, master
        values = iter(master.point)
        z = tuple(ZERO if i in pinned else next(values) for i in range(len(fan.rays)))


def find_strictly_convex(fan: MarkedFan) -> Optional[tuple]:
    """A strictly convex divisor, or None when the fan admits none."""
    return strictly_convex_witness(fan)[0]
