"""Convexity of divisors and quasiprojectivity witnesses.

A divisor is convex when every cone admits a linear representative that
matches it on the cone's rays and stays below it on the neighborhood rays;
strict convexity asks for strict slack.  Both are decided by exact linear
feasibility.  The matching equalities are eliminated analytically (a pinned
particular functional plus a basis of functionals vanishing on the cone), so
every feasibility block is small and equality-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalError, PreconditionError
from .fan import Cone, MarkedFan, neighborhood_rays
from .linalg import Vec, ZERO, ONE, dot, rref, transpose, vec
from .lp import linear_feasible, strict_feasible

VERDICT_NONE = "none"
VERDICT_CONVEX = "convex"
VERDICT_STRICT = "strictly-convex"


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


def _witness_at_cone(fan: MarkedFan, z, tau: Cone, strict: bool) -> ConeWitness:
    q = fan.quotient(tau)
    z_on_tau = [Fraction(z[i]) for i in tau]
    base = q.functional(z_on_tau)
    neighbors = neighborhood_rays(fan, tau)
    if not neighbors:
        return ConeWitness(tau, base, strict, True)
    rows = []
    for eta in neighbors:
        u = fan.rays[eta]
        coeffs = tuple(dot(row, u) for row in q.annihilators)
        rows.append((coeffs, Fraction(z[eta]) - dot(base, u)))
    dim = len(q.annihilators)
    if strict:
        res = strict_feasible([], rows, dim=dim)
        w = res.witness
    else:
        w = linear_feasible([], rows, dim)
    if w is None:
        return ConeWitness(tau, None, strict, False)
    phi = q.functional(z_on_tau, w)
    for i in tau:
        if dot(phi, fan.rays[i]) != z[i]:
            raise InternalError("reconstructed witness misses a matching value")
    return ConeWitness(tau, phi, strict, True)


def classify_convexity(fan: MarkedFan, z, strict: bool = False) -> ConvexityCertificate:
    """Per-cone feasibility certificates for the requested convexity level.

    When a strict test fails the divisor is retested weakly so the verdict
    distinguishes convex from not convex at all.
    """
    if len(z) != len(fan.rays):
        raise PreconditionError("divisor has one value per ray")
    witnesses = []
    failing = []
    for tau in fan.all_cones():
        w = _witness_at_cone(fan, z, tau, strict)
        witnesses.append(w)
        if not w.satisfied:
            failing.append(tau)
    if not failing:
        verdict = VERDICT_STRICT if strict else VERDICT_CONVEX
    elif strict:
        weak = classify_convexity(fan, z, strict=False)
        verdict = VERDICT_CONVEX if weak.convex else VERDICT_NONE
    else:
        verdict = VERDICT_NONE
    return ConvexityCertificate(
        divisor=tuple(Fraction(v) for v in z),
        strict_requested=strict,
        verdict=verdict,
        witnesses=tuple(witnesses),
        failing=tuple(failing),
    )


def spanning_rays(fan: MarkedFan) -> tuple[int, ...]:
    """First ray subset (by index) whose marks form a basis of the mark span:
    the pivot columns of the matrix whose columns are the marks."""
    return rref(transpose(fan.rays))[1]


def find_strictly_convex(fan: MarkedFan) -> Optional[tuple]:
    """A strictly convex divisor, or None when the fan admits none."""
    result = strict_convexity_program(fan)
    if result.witness is None:
        return None
    return tuple(result.witness[: len(fan.rays)])


def strict_convexity_program(fan: MarkedFan):
    """The joint strict-feasibility program behind find_strictly_convex.

    One block of quotient-functional variables per cone with a nonempty
    neighborhood; the divisor values are pinned to zero on a spanning set of
    rays to factor out global linear functions.  Returns the full max-slack
    result, so absence comes with the exact optimum and its dual certificate.
    """
    from .lp import StrictFeasibility

    nrays = len(fan.rays)
    if nrays == 0:
        return StrictFeasibility(witness=(), optimum=None, certificate=None)

    blocks = []
    for tau in fan.all_cones():
        neighbors = neighborhood_rays(fan, tau)
        if neighbors:
            blocks.append((tau, neighbors))
    if not blocks:
        return StrictFeasibility(witness=(ZERO,) * nrays, optimum=None, certificate=None)

    offsets = {}
    dim = nrays
    for tau, _ in blocks:
        offsets[tau] = dim
        dim += len(fan.quotient(tau).annihilators)

    strict_rows = []
    for tau, neighbors in blocks:
        q = fan.quotient(tau)
        base = offsets[tau]
        for eta in neighbors:
            u = fan.rays[eta]
            row = [ZERO] * dim
            # phi(u_eta) - z_eta < 0 with phi = sum z_r psi_r + w.annihilators
            for ray_idx, psi in zip(tau, q.particulars):
                row[ray_idx] += dot(psi, u)
            for k, a in enumerate(q.annihilators):
                row[base + k] += dot(a, u)
            row[eta] -= ONE
            strict_rows.append((vec(row), ZERO))

    eqs = []
    for i in spanning_rays(fan):
        row = [ZERO] * dim
        row[i] = ONE
        eqs.append((vec(row), ZERO))

    return strict_feasible(eqs, strict_rows, dim=dim)
