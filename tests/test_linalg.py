import random
from fractions import Fraction

import pytest

from lorfan.errors import DimensionError
from lorfan.linalg import (
    char_poly,
    det,
    identity,
    inertia,
    mat,
    mat_mul,
    mat_vec,
    rank,
    rref,
    transpose,
    vec,
)

from helpers import solve_linear


def test_solve_identity():
    A = identity(2)
    assert solve_linear(A, vec([3, 5])) == vec([3, 5])


def test_solve_homogeneous_underdetermined():
    A = mat([[1, 1]])
    x = solve_linear(A, vec([0]))
    assert x is not None
    assert x[0] + x[1] == 0


def test_solve_inconsistent():
    A = mat([[1, 2], [2, 4]])
    assert solve_linear(A, vec([1, 3])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_linear(identity(2), vec([1, 2, 3]))


def test_solve_random_consistent_systems():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        A = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        x0 = vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
        b = mat_vec(A, x0)
        x = solve_linear(A, b)
        assert x is not None
        assert mat_vec(A, x) == b


def test_char_poly_diagonal():
    assert char_poly(mat([[2, 0], [0, -3]])) == vec([1, 1, -6])


def test_char_poly_zero_matrix():
    assert char_poly(mat([[0, 0], [0, 0]])) == vec([1, 0, 0])


def test_char_poly_swap():
    assert char_poly(mat([[0, 1], [1, 0]])) == vec([1, 0, -1])


def test_char_poly_rejects_nonsquare():
    with pytest.raises(DimensionError):
        char_poly(mat([[1, 2, 3], [4, 5, 6]]))


def test_inertia_diagonal():
    assert inertia(mat([[2, 0, 0], [0, -3, 0], [0, 0, 0]])).astuple() == (1, 1, 1)


def test_inertia_all_twos():
    # Hessian of (z1 + z2 + z3)^2: rank one, positive
    S = mat([[2, 2, 2], [2, 2, 2], [2, 2, 2]])
    assert inertia(S).astuple() == (1, 0, 2)


def test_inertia_hyperbolic():
    S = mat([[2, 0], [0, -2]])
    assert inertia(S).astuple() == (1, 1, 0)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(DimensionError):
        inertia(mat([[0, 1], [0, 0]]))


def test_inertia_matches_diagonal_sign_counts():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        diag = [rng.randint(-3, 3) for _ in range(n)]
        S = mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        got = inertia(S)
        assert got.astuple() == (
            sum(1 for d in diag if d > 0),
            sum(1 for d in diag if d < 0),
            sum(1 for d in diag if d == 0),
        )


def test_inertia_congruence_invariant():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 5)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                S[i][j] = v
                S[j][i] = v
        S = mat(S)
        while True:
            M = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if det(M) != 0:
                break
        congruent = mat_mul(transpose(M), mat_mul(S, M))
        assert inertia(congruent) == inertia(S)


def test_inertia_sums_to_dimension():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 6)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                S[i][j] = v
                S[j][i] = v
        res = inertia(mat(S))
        assert res.p + res.q + res.r == n


def test_rref_pivots():
    R, pivots = rref(mat([[0, 2, 4], [1, 1, 1]]))
    assert pivots == (0, 1)
    assert R[0][0] == 1 and R[1][1] == 1


def test_det_and_rank():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert rank(mat([[1, 2], [2, 4]])) == 1
