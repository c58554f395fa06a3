"""Exact rational linear programming: the max-slack program.

Every LP in the package asks one question: the largest t with a.x + t <= b on
every row, over free x and with t <= 1.  The point x = 0 with
t0 = min(1, min b) is always feasible, so after the shift t = t0 + tau
(tau >= 0 loses nothing) the slack columns form a feasible starting basis and
a single phase of a dense tableau simplex over Fraction entries solves it:
the program is never infeasible or unbounded, and it has no equality rows.
Pivoting uses the most-negative-reduced-cost rule and falls back to Bland's
rule whenever the objective stalls, which rules out cycling while keeping
the common case fast.  The x columns stay free: they enter in either
direction and, once basic, never leave.

At the optimum t*, the reduced costs of the slack columns, normalised to sum
to one, are dual multipliers whose combination of the rows has value t*.
When t* <= 0 they are an exact Farkas certificate that no x meets every row
strictly; it is checked before the solver returns, and so is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, InternalError
from .linalg import Vec, ZERO, ONE, dot

LinearRow = tuple[Vec, Fraction]

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 12


def _pivot(T, zrow, basis, row, col):
    """Pivot the tableau and the maintained reduced-cost row.

    Rows are mostly zero in the block-structured programs this package
    builds, so updates iterate over the pivot row's nonzero entries only.
    """
    prow = T[row]
    piv = prow[col]
    if piv != ONE:
        inv = ONE / piv
        T[row] = prow = [inv * v if v else v for v in prow]
    nz = [j for j, v in enumerate(prow) if v]
    for other in T:
        if other is prow:
            continue
        f = other[col]
        if f:
            for j in nz:
                other[j] -= f * prow[j]
    f = zrow[col]
    if f:
        for j in nz:
            zrow[j] -= f * prow[j]
    basis[row] = col


def _run_phase(T, zrow, basis, nfree):
    """Minimize over the tableau until no column improves the objective.

    Columns below `nfree` are free: one enters downwards when its reduced
    cost is positive, and once basic it bounds no ratio, so it never leaves.
    Every other column, slacks included, is nonnegative.
    """
    rhs = len(zrow) - 1
    stall = 0
    last_obj = None
    while True:
        obj = zrow[rhs]
        if last_obj is not None and obj == last_obj:
            stall += 1
        else:
            stall = 0
        last_obj = obj
        use_bland = stall >= _STALL_LIMIT

        enter = None
        best = ZERO
        for j in range(rhs):
            rc = zrow[j]
            gain = -abs(rc) if j < nfree else rc
            if gain < 0:
                if use_bland:
                    enter = j
                    break
                if gain < best:
                    best = gain
                    enter = j
        if enter is None:
            return
        up = zrow[enter] < 0

        leave = None
        best_ratio = None
        for i in range(len(T)):
            if basis[i] < nfree:
                continue
            a = T[i][enter] if up else -T[i][enter]
            if a > 0:
                ratio = T[i][rhs] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise InternalError("max-slack program cannot be unbounded")
        _pivot(T, zrow, basis, leave, enter)


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Farkas witness that no point meets every row strictly.

    Validity: the multipliers are nonnegative and sum to one with the cap's,
    their combination of the row normals vanishes, and the same combination
    of the right-hand sides, plus the cap multiplier, is nonpositive.
    """

    multipliers: Vec
    cap_multiplier: Fraction


def verify_certificate(cert: FeasibilityCertificate, rows: Sequence[LinearRow], dim: int) -> bool:
    lam, nu = cert.multipliers, cert.cap_multiplier
    if len(lam) != len(rows) or any(l < 0 for l in lam) or nu < 0:
        return False
    if sum(lam, ZERO) + nu != 1:
        return False
    combo = [ZERO] * dim
    for l_i, (a, _) in zip(lam, rows):
        if l_i:
            for j in range(dim):
                combo[j] += l_i * a[j]
    if any(combo):
        return False
    return sum((l_i * bv for l_i, (_, bv) in zip(lam, rows)), ZERO) + nu <= 0


@dataclass(frozen=True)
class StrictFeasibility:
    """The optimum of the max-slack program: a point x with a.x + t* <= b on
    every row, t* itself, and when t* <= 0 the certificate that no point meets
    the rows strictly.  t* >= 0 means x meets every row weakly."""

    point: Vec
    optimum: Fraction
    certificate: Optional[FeasibilityCertificate]

    @property
    def feasible(self) -> bool:
        return self.optimum > 0


def strict_feasible(rows: Sequence[LinearRow], dim: int) -> StrictFeasibility:
    """max t over free x in Q^dim subject to a.x + t <= b on every row and t <= 1.

    A point meeting every row strictly exists iff the optimum is positive.
    """
    for a, _ in rows:
        if len(a) != dim:
            raise DimensionError("constraint row has wrong dimension")
    m = len(rows)
    t0 = min([ONE, *(Fraction(bv) for _, bv in rows)])

    # columns: x (free), tau, one slack per row, the cap's slack, right-hand side
    width = dim + m + 3
    T = []
    for i, (a, bv) in enumerate(rows):
        row = [*a, ONE] + [ZERO] * (m + 2)
        row[dim + 1 + i] = ONE
        row[-1] = bv - t0
        T.append(row)
    cap = [ZERO] * width
    cap[dim] = cap[dim + m + 1] = ONE
    cap[-1] = ONE - t0
    T.append(cap)
    basis = list(range(dim + 1, dim + m + 2))
    zrow = [ZERO] * width
    zrow[dim] = -ONE

    _run_phase(T, zrow, basis, dim)

    t_star = t0 + zrow[-1]
    x = [ZERO] * dim
    for i, col in enumerate(basis):
        if col < dim:
            x[col] = T[i][-1]
    x = tuple(x)
    for a, bv in rows:
        if dot(a, x) + t_star > bv:
            raise InternalError("max-slack point violates a row")
    if t_star > 0:
        return StrictFeasibility(x, t_star, None)

    duals = zrow[dim + 1 : dim + m + 2]
    total = sum(duals, ZERO)
    cert = FeasibilityCertificate(
        multipliers=tuple(v / total for v in duals[:m]),
        cap_multiplier=duals[m] / total,
    )
    if not verify_certificate(cert, rows, dim):
        raise InternalError("infeasibility certificate failed verification")
    return StrictFeasibility(x, t_star, cert)
