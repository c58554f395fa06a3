"""Exact rational linear programming: the max-slack program.

Every LP in the package asks one question: the largest t with a.x + t <= b on
every row, over free x and with t <= 1.  The point x = 0 with
t0 = min(1, min b) is always feasible, so after the shift t = t0 + tau
(tau >= 0 loses nothing) the slack columns form a feasible starting basis and
a single phase of a dense tableau simplex solves it: the program is never
infeasible or unbounded, and it has no equality rows.  Pivoting uses the
most-negative-reduced-cost rule and falls back to Bland's rule whenever the
objective stalls, which rules out cycling while keeping the common case fast.
The x columns stay free: they enter in either direction and, once basic,
never leave.

Rows come in as Python ints, the form the package's quotient and
neighborhood records already hold: `(a_nums, b_num, d)` is the row
a.x + t <= b with a = a_nums / d and b = b_num / d over one positive int d.
The tableau is exact without Fractions too: each row, the reduced-cost row
included, is a list of Python ints over its own positive int denominator.
Every rule of the pivot loop gives the same answer when one row is scaled by
a positive number (the most negative reduced cost, the free columns' -abs,
Bland's first improving column, and the ratio test, whose ratio rhs/a within
one row does not involve the row's denominator), so the pivots, and with them
the point, the optimum and the duals, are those of the same simplex over
Fraction entries.  The set-up and the check of the point run on the same
ints; Fractions are made once, for the result.

At the optimum t*, the reduced costs of the slack columns, normalised to sum
to one, are dual multipliers whose combination of the rows has value t*.
When t* <= 0 they are an exact Farkas certificate that no x meets every row
strictly; it is checked before the solver returns, and so is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import DimensionError, InternalError
from .linalg import Vec, fractions, over_lcd, pivot

# (a_nums, b_num, d): the row a.x + t <= b with a = a_nums / d and
# b = b_num / d, all Python ints and d > 0
LinearRow = tuple[Sequence[int], int, int]

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 12


def _run_phase(T, den, basis, nfree):
    """Minimize over the integer tableau until no column improves the objective.

    T[-1] is the reduced-cost row, whose last entry is the current tau.
    Reduced costs are compared as numerators over their row's positive
    denominator; the stall test compares tau across pivots, and the ratio
    test compares ratios of different rows, by cross-multiplication.
    Columns below `nfree` are free: one enters downwards when its reduced
    cost is positive, and once basic it bounds no ratio, so it never
    leaves.  Every other column, slacks included, is nonnegative.
    """
    rhs = len(T[-1]) - 1
    stall = 0
    last_obj = last_den = None
    while True:
        zrow = T[-1]
        obj, zden = zrow[rhs], den[-1]
        if last_obj is not None and obj * last_den == last_obj * zden:
            stall += 1
        else:
            stall = 0
        last_obj, last_den = obj, zden
        use_bland = stall >= _STALL_LIMIT

        enter = None
        best = 0
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

        # the ratio of row i is T[i][rhs] / a: its denominator cancels
        leave = None
        for i in range(len(basis)):
            if basis[i] < nfree:
                continue
            a = T[i][enter] if up else -T[i][enter]
            if a > 0:
                b = T[i][rhs]
                if (
                    leave is None
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and basis[i] < basis[leave])
                ):
                    best_b, best_a = b, a
                    leave = i
        if leave is None:
            raise InternalError("max-slack program cannot be unbounded")
        pivot(T, den, leave, enter)
        basis[leave] = enter


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
    """Whether the certificate is valid for the int rows, checked on ints:
    the multipliers and the rows they use over common denominators."""
    lam, nu = cert.multipliers, cert.cap_multiplier
    if len(lam) != len(rows) or any(l < 0 for l in lam) or nu < 0:
        return False
    nums, den = over_lcd([*lam, nu])
    if sum(nums) != den:
        return False
    used = [(w, row) for w, row in zip(nums, rows) if w]
    common = lcm(*(d for _, (_, _, d) in used))
    combo = [0] * dim
    total = nums[-1] * common
    for w, (a, b, d) in used:
        w *= common // d
        total += w * b
        for j, v in enumerate(a):
            if v:
                combo[j] += w * v
    return not any(combo) and total <= 0


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
    """max t over free x in Q^dim subject to a.x + t <= b on every int row
    (a_nums, b_num, d) and t <= 1.

    A point meeting every row strictly exists iff the optimum is positive.
    """
    for a, _, d in rows:
        if len(a) != dim:
            raise DimensionError("constraint row has wrong dimension")
        if d <= 0:
            raise DimensionError("constraint row needs a positive denominator")
    m = len(rows)
    # t0 = p / q = min(1, min b), by cross-multiplication
    p = q = 1
    for _, b, d in rows:
        if b * q < p * d:
            p, q = b, d
    g = gcd(p, q)
    p, q = p // g, q // g

    # columns: x (free), tau, one slack per row, the cap's slack, right-hand
    # side; each row times q, so that its right-hand side b - t0 is over
    # d * q, and then in lowest terms; the cap t <= 1 is the last row, and
    # the reduced costs come after it
    width = dim + m + 3
    T, den = [], []
    for i, (a, b, d) in enumerate([*rows, ((0,) * dim, 1, 1)]):
        rhs = b * q - p * d
        d *= q
        row = [v * q for v in a] + [d] + [0] * (m + 2)
        row[dim + 1 + i] = d
        row[-1] = rhs
        g = gcd(d, *row)
        if g != 1:
            row = [v // g for v in row]
            d //= g
        T.append(row)
        den.append(d)
    zrow = [0] * width
    zrow[dim] = -1
    T.append(zrow)
    den.append(1)
    basis = list(range(dim + 1, dim + m + 2))

    _run_phase(T, den, basis, dim)

    # t* = t0 + tau over t_den, and the point's numerators over x_den
    zrow = T.pop()
    zden = den.pop()
    t_num, t_den = p * zden + zrow[-1] * q, q * zden
    x_den = lcm(*(den[i] for i, col in enumerate(basis) if col < dim))
    x = [0] * dim
    for i, col in enumerate(basis):
        if col < dim:
            x[col] = T[i][-1] * (x_den // den[i])
    support = [(j, v) for j, v in enumerate(x) if v]
    # a.x + t* <= b over d * x_den * t_den
    for a, b, d in rows:
        if sum(a[j] * v for j, v in support) * t_den + t_num * d * x_den > b * x_den * t_den:
            raise InternalError("max-slack point violates a row")
    point, optimum = fractions(x, x_den), Fraction(t_num, t_den)
    if t_num > 0:
        return StrictFeasibility(point, optimum, None)

    # the reduced-cost row's denominator cancels in the normalisation
    duals = zrow[dim + 1 : dim + m + 2]
    total = sum(duals)
    cert = FeasibilityCertificate(
        multipliers=tuple(Fraction(v, total) for v in duals[:m]),
        cap_multiplier=Fraction(duals[m], total),
    )
    if not verify_certificate(cert, rows, dim):
        raise InternalError("infeasibility certificate failed verification")
    return StrictFeasibility(point, optimum, cert)
