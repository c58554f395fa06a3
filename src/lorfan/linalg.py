"""Dense exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
routines are exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, InternalError

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


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise DimensionError("matrix product shape mismatch")
    cols = list(zip(*B)) if B else []
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


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


def char_poly(S: Mat) -> Vec:
    """Coefficients of det(tI - S), highest degree first (monic).

    Uses the Faddeev-LeVerrier recursion, which stays in exact rational
    arithmetic throughout.
    """
    n = len(S)
    if any(len(r) != n for r in S):
        raise DimensionError("characteristic polynomial of non-square matrix")
    coeffs = [ONE]
    M = identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(S, M)
        c = -sum((AM[i][i] for i in range(n)), ZERO) / k
        coeffs.append(c)
        M = tuple(
            tuple(AM[i][j] + (c if i == j else ZERO) for j in range(n))
            for i in range(n)
        )
    return tuple(coeffs)


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (positive, negative, zero) of a symmetric matrix."""

    p: int
    q: int
    r: int

    def astuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def _sign_variations(coeffs: Sequence[Fraction]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia(S: Mat) -> Inertia:
    """Exact inertia of a symmetric rational matrix.

    Symmetric rational matrices are real-rooted, so Descartes' rule applied
    to the characteristic polynomial counts positive roots exactly; the zero
    count is the multiplicity of the root at the origin.
    """
    if not is_symmetric(S):
        raise DimensionError("inertia requires a symmetric square matrix")
    n = len(S)
    coeffs = char_poly(S)
    low_zero = 0
    while low_zero < n and coeffs[n - low_zero] == 0:
        low_zero += 1
    nonzero_part = coeffs[: n + 1 - low_zero]
    p = _sign_variations(nonzero_part)
    # Variations of p(-t) count the negative roots; their sum must close up.
    negated = [c if (len(nonzero_part) - 1 - i) % 2 == 0 else -c for i, c in enumerate(nonzero_part)]
    q = _sign_variations(negated)
    if p + q + low_zero != n:
        raise InternalError("Descartes counts do not exhaust the spectrum; input was not real-rooted")
    return Inertia(p=p, q=q, r=low_zero)
