"""Dense exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
routines are exact; nothing here ever touches floating point.  The inertia
of a symmetric matrix comes from symmetric elimination by congruence, which
keeps it by Sylvester's law of inertia.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionError("vector length mismatch")
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def mat_vec(A: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in A)


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A)) if A else ()


def is_symmetric(A: Mat) -> bool:
    n = len(A)
    if any(len(r) != n for r in A):
        return False
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n))


def rref(A: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    rows = [list(r) for r in A]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(A: Mat) -> int:
    return len(rref(A)[1])


def det(A: Mat) -> Fraction:
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionError("determinant of non-square matrix")
    rows = [list(r) for r in A]
    d = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


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

    Each step takes a nonzero diagonal pivot, counts its sign, and replaces
    the rest of the matrix by its Schur complement.  When the remaining
    diagonal is zero but some entry A[i][j] is not, the congruence
    e_i += e_j first makes A[i][i] = 2 A[i][j] nonzero.  Every step is a
    congruence, so by Sylvester's law of inertia the pivot signs are the
    eigenvalue signs; the block left over when no entry is nonzero holds the
    zero eigenvalues.
    """
    if not is_symmetric(S):
        raise DimensionError("inertia requires a symmetric square matrix")
    A = [list(row) for row in S]
    p = q = 0
    while A:
        m = len(A)
        k = next((i for i in range(m) if A[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in range(m) for j in range(m) if A[i][j] != 0), None)
            if pair is None:
                break
            k, j = pair
            A[k] = [x + y for x, y in zip(A[k], A[j])]
            for row in A:
                row[k] += row[j]
        inv = ONE / A[k][k]
        if inv > 0:
            p += 1
        else:
            q += 1
        pivot_row = A[k]
        rest = [i for i in range(m) if i != k]
        schur = []
        for i in rest:
            row = A[i]
            f = row[k] * inv
            schur.append([row[j] - f * pivot_row[j] for j in rest] if f else [row[j] for j in rest])
        A = schur
    return Inertia(p=p, q=q, r=len(S) - p - q)
