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
from .linalg import Vec, ZERO, ONE, eliminate, fractions
from .lp import StrictFeasibility, strict_feasible

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
    strict: bool
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
        return ConeWitness(tau, fractions(*q.functional(on_cone)), strict, True), ONE
    res = strict_feasible(rows, q.codim)
    if res.optimum < 0 or (strict and not res.feasible):
        return ConeWitness(tau, None, strict, False), res.optimum
    phi, den = q.functional(on_cone, res.point)
    for i, v in zip(tau, on_cone):
        nums, d = fan.int_marks[i]
        if sum(map(mul, phi, nums)) * v.denominator != v.numerator * den * d:
            raise InternalError("reconstructed witness misses a matching value")
    return ConeWitness(tau, fractions(phi, den), strict, True), res.optimum


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


def spanning_rays(fan: MarkedFan) -> tuple[int, ...]:
    """First ray subset (by index) whose marks form a basis of the mark span:
    the pivot columns of the matrix whose columns are the marks.  Each
    column holds a mark's int numerators, the mark scaled by a positive
    number, which moves no pivot."""
    rows = [list(col) for col in zip(*(nums for nums, _ in fan.int_marks))]
    return eliminate(rows, [1] * len(rows))


def strictly_convex_witness(fan: MarkedFan) -> tuple[Optional[tuple], str]:
    """A strictly convex divisor or None, and the route that decided: the
    candidate divisor when classify_convexity certifies it, else the joint
    program."""
    z = candidate_divisor(fan)
    if classify_convexity(fan, z, strict=True).strictly_convex:
        return z, ROUTE_CANDIDATE
    return joint_lp_witness(fan), ROUTE_JOINT_LP


def find_strictly_convex(fan: MarkedFan) -> Optional[tuple]:
    """A strictly convex divisor, or None when the fan admits none."""
    return strictly_convex_witness(fan)[0]


def joint_lp_witness(fan: MarkedFan) -> Optional[tuple]:
    """The joint program's strictly convex divisor, or None."""
    result = strict_convexity_program(fan)
    if not result.feasible:
        return None
    pinned = set(spanning_rays(fan))
    values = iter(result.point)
    return tuple(ZERO if i in pinned else next(values) for i in range(len(fan.rays)))


def strict_convexity_program(fan: MarkedFan) -> StrictFeasibility:
    """The joint max-slack program behind find_strictly_convex.

    The divisor is zero on a spanning set of rays, which factors out global
    linear functions, so its columns are the values on the other rays in
    index order; then comes one block of quotient-functional columns per cone
    with a nonempty neighborhood.  Returns the full max-slack result, so
    absence comes with the exact optimum and its dual certificate.
    """
    pinned = set(spanning_rays(fan))
    unpinned = [i for i in range(len(fan.rays)) if i not in pinned]
    column = {i: k for k, i in enumerate(unpinned)}
    blocks = []
    dim = len(column)
    for tau in fan.all_cones():
        hood = fan.neighborhood(tau)
        if hood.rays:
            blocks.append((hood, dim))
            dim += fan.quotient(tau).codim

    rows = []
    for hood, base in blocks:
        for eta, image, coords, d in zip(hood.rays, hood.image_rows, hood.coord_rows, hood.dens):
            row = [0] * dim
            # phi(u_eta) - z_eta < 0 with phi = sum z_r psi_r + w.annihilators,
            # over the ray's denominator d
            for ray_idx, c in zip(hood.cone, coords):
                if ray_idx in column:
                    row[column[ray_idx]] += c
            row[base : base + len(image)] = image
            if eta in column:
                row[column[eta]] -= d
            rows.append((row, 0, d))

    return strict_feasible(rows, dim)
