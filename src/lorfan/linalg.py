"""Dense exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
routines are exact; nothing here ever touches floating point.

Elimination runs without Fractions, in the fraction-free style of Bareiss
(Math. Comp. 1968) but with one denominator per row: each row is a list of
Python ints over its own positive int denominator, and `pivot` divides every
row it changes by the gcd of its entries and denominator.  `det`, `inertia`,
the quotient records of a fan and the max-slack tableau all pivot through
it; Fractions are made only from its results.  The inertia of a symmetric
matrix comes from symmetric elimination by congruence, which keeps it by
Sylvester's law of inertia.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DimensionError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionError("ragged matrix rows")
    return m


def is_symmetric(A: Mat) -> bool:
    n = len(A)
    if any(len(r) != n for r in A):
        return False
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n))


def over_lcd(values) -> tuple[list[int], int]:
    """Numerators of rationals (Fractions or ints) over their least common
    positive denominator."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def fractions(nums, den: int) -> Vec:
    """The vector nums / den as Fractions, with `ZERO` at every zero entry."""
    return tuple(Fraction(v, den) if v else ZERO for v in nums)


def pivot(rows: list[list[int]], dens: list[int], row: int, col: int) -> None:
    """One Gauss-Jordan step on int rows, in place: the pivot row is divided
    by its entry in `col` and every other row loses its multiple of it.

    Row i holds the numerators of its entries over dens[i] > 0.  Dividing the
    pivot row by its pivot leaves its numerators over the pivot's numerator,
    whose sign moves into the numerators.  Every other row r with f in the
    pivot column becomes p*r - f*prow over dens[r]*p, where p is the pivot
    row's new denominator.  Each changed row is divided, with its
    denominator, by their gcd, so every row it writes is in lowest terms.
    The subtraction runs over the pivot row's nonzero entries only.
    """
    prow = rows[row]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = gcd(*prow)
    if g != 1:
        prow = [v // g for v in prow]
        p //= g
    rows[row] = prow
    dens[row] = p
    nz = [j for j, v in enumerate(prow) if v]
    for i, other in enumerate(rows):
        f = other[col]
        if not f or i == row:
            continue
        if p != 1:
            other = [v * p for v in other]
        for j in nz:
            other[j] -= f * prow[j]
        d = dens[i] * p
        if d != 1:
            g = gcd(d, *other)
            if g != 1:
                other = [v // g for v in other]
                d //= g
        rows[i] = other
        dens[i] = d


def eliminate(rows: list[list[int]], dens: list[int]) -> tuple[int, ...]:
    """Bring int rows over positive denominators to reduced row echelon
    form in place, pivoting on the first nonzero entry of each column at or
    below the current row; returns the pivot columns."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        dens[r], dens[piv] = dens[piv], dens[r]
        pivot(rows, dens, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def _int_rows(A: Mat) -> tuple[list[list[int]], list[int]]:
    rows, dens = [], []
    for row in A:
        nums, d = over_lcd(row)
        rows.append(nums)
        dens.append(d)
    return rows, dens


def det(A: Mat) -> Fraction:
    """The product of the pivots, negated once per row swap."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionError("determinant of non-square matrix")
    rows, dens = _int_rows(A)
    num = den = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            dens[c], dens[piv] = dens[piv], dens[c]
            num = -num
        num *= rows[c][c]
        den *= dens[c]
        pivot(rows, dens, c, c)
    return Fraction(num, den)


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (positive, negative, zero) of a symmetric matrix."""

    p: int
    q: int
    r: int

    def astuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def inertia(S: Mat) -> Inertia:
    """Exact inertia of a symmetric rational matrix, by symmetric elimination.

    Each step takes a nonzero diagonal pivot, counts its sign, pivots on it
    and drops its row; the rows left, read on their `live` columns, are the
    Schur complement.  When the remaining diagonal is zero but some entry
    A[k][j] is not, the congruence e_k += e_j first makes A[k][k] = 2 A[k][j]
    nonzero: row j is added to row k over the product of their
    denominators, then column j to column k in every row.  Every step is a
    congruence, so by Sylvester's law of inertia the pivot signs are the
    eigenvalue signs; the rows left when no entry is nonzero hold the zero
    eigenvalues.
    """
    if not is_symmetric(S):
        raise DimensionError("inertia requires a symmetric square matrix")
    rows, dens = _int_rows(S)
    live = list(range(len(rows)))
    p = q = 0
    while rows:
        k = next((i for i, c in enumerate(live) if rows[i][c]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(rows) for j, c in enumerate(live) if row[c]), None)
            if pair is None:
                break
            k, j = pair
            dk, dj = dens[k], dens[j]
            rows[k] = [a * dj + b * dk for a, b in zip(rows[k], rows[j])]
            dens[k] = dk * dj
            ck, cj = live[k], live[j]
            for row in rows:
                row[ck] += row[cj]
        if rows[k][live[k]] > 0:
            p += 1
        else:
            q += 1
        pivot(rows, dens, k, live[k])
        del rows[k], dens[k], live[k]
    return Inertia(p=p, q=q, r=len(S) - p - q)
