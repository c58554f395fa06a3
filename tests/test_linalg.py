import math
import random
from fractions import Fraction

import pytest

from lorfan.errors import DimensionError
from lorfan import fixtures, linalg, matroids
from lorfan.linalg import det, inertia, mat, vec

from helpers import (
    SCALES,
    TROPICAL_FANS,
    char_poly,
    descartes_inertia,
    fraction_det,
    fraction_inertia,
    fraction_rref,
    identity,
    mat_mul,
    mat_vec,
    outcome,
    rank,
    rescaled_tropical,
    rref,
    solve_linear,
    star_fan_forms,
    transpose,
)


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


def _stock_and_ladder_fans():
    """The stock fixtures and five Bergman fans."""
    fans = [
        getattr(fixtures, name)()
        for name in (
            "triangle_fan", "line_fan", "coordinate_skeleton_fan", "triangle_times_line",
            "spindle_fan", "two_disjoint_triangles", "origin_fan", "twisted_prism_fan",
        )
    ]
    return fans + [
        matroids.bergman_fan(m)
        for m in (
            matroids.complete_graph_matroid(4), matroids.fano_matroid(),
            matroids.uniform_matroid(3, 5), matroids.uniform_matroid(3, 6),
            matroids.complete_graph_matroid(5),
        )
    ]


def _star_forms(fans):
    """Quadratic volume forms of every codimension-two star of the given
    tropical fans."""
    return [form for tf in fans for _, form in star_fan_forms(tf)]


def test_inertia_matches_descartes_on_star_forms():
    forms = _star_forms(_stock_and_ladder_fans())
    assert len(forms) == 69
    for S in forms:
        assert inertia(S) == descartes_inertia(S)


def test_inertia_matches_fraction_elimination_on_star_forms():
    """The int-row elimination against the Fraction Schur complement on the
    star forms of the stock fixtures, the Bergman ladder through M(K5) and
    the rescaled fans, whose forms leave the integers."""
    ladder = _stock_and_ladder_fans() + [matroids.bergman_fan(matroids.uniform_matroid(4, 6))]
    rescaled = [rescaled_tropical(name, kind) for name in TROPICAL_FANS for kind in SCALES]
    forms = _star_forms(ladder)
    rescaled_forms = _star_forms(rescaled)
    assert len(forms) == 110
    assert any(x.denominator > 1 for S in rescaled_forms for row in S for x in row)
    for S in forms + rescaled_forms:
        assert inertia(S) == fraction_inertia(S)


def _random_symmetric(rng, n, kind):
    """A seeded symmetric matrix: general, with an all-zero diagonal, or of
    rank at most n - 1 (a congruence B^T D B with B of fewer rows)."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    if kind == "deficient":
        k = rng.randint(0, max(n - 1, 0))
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        D = [entry() for _ in range(k)]
        return mat(
            [[sum((B[t][i] * D[t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(n)] for i in range(n)]
        )
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero-diagonal":
                continue
            S[i][j] = S[j][i] = entry()
    return mat(S)


def _random_symmetric_cases():
    rng = random.Random(23)
    cases = [mat([]), mat([[0]]), mat([[3]]), mat([[Fraction(-1, 2)]])]
    kinds = ("general", "zero-diagonal", "deficient")
    while len(cases) < 300:
        kind = kinds[len(cases) % 3]
        n = rng.randint(2 if kind == "zero-diagonal" else 0, 7)
        cases.append(_random_symmetric(rng, n, kind))
    return cases


def test_inertia_matches_descartes_on_random_matrices():
    cases = _random_symmetric_cases()
    zero_diagonal = 0
    for S in cases:
        got = inertia(S)
        assert got == descartes_inertia(S)
        assert got.p + got.q + got.r == len(S)
        if len(S) >= 2 and any(x != 0 for row in S for x in row) and all(S[i][i] == 0 for i in range(len(S))):
            zero_diagonal += 1
    # the e_i += e_j step runs on every nonzero matrix with a zero diagonal
    assert zero_diagonal >= 90
    assert any(inertia(S).r > 0 and len(S) > 1 for S in cases)


def test_inertia_matches_fraction_elimination_on_random_matrices():
    """1200 seeded symmetric matrices of mixed denominators, among them
    nonzero ones with an all-zero diagonal and rank-deficient ones."""
    rng = random.Random(29)
    kinds = ("general", "zero-diagonal", "deficient")
    zero_diagonal = deficient = 0
    for t in range(1200):
        kind = kinds[t % 3]
        n = rng.randint(2 if kind == "zero-diagonal" else 0, 7)
        S = _random_symmetric(rng, n, kind)
        expected = fraction_inertia(S)
        assert inertia(S) == expected
        nonzero = any(x != 0 for row in S for x in row)
        zero_diagonal += nonzero and all(S[i][i] == 0 for i in range(n))
        deficient += nonzero and expected.r > 0
    assert zero_diagonal >= 300
    assert deficient >= 200


def test_inertia_pivots_keep_rows_in_lowest_terms(monkeypatch):
    """After every pivot inside inertia each remaining row is in lowest
    terms over a positive denominator, also after the e_k += e_j step;
    negative pivots and denominators above one occur."""
    seen = []
    pivot = linalg.pivot

    def recording(rows, dens, row, col):
        seen.append((rows[row][col], dens[row]))
        pivot(rows, dens, row, col)
        assert all(d > 0 and math.gcd(d, *r) == 1 for r, d in zip(rows, dens))

    monkeypatch.setattr(linalg, "pivot", recording)
    for S in _random_symmetric_cases():
        assert inertia(S) == fraction_inertia(S)
    assert any(p < 0 for p, _ in seen)
    assert any(d > 1 for _, d in seen)


def test_inertia_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    for S in _random_symmetric_cases():
        n = len(S)
        if n == 0:
            assert inertia(S).astuple() == (0, 0, 0)
            continue
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in S])
        roots = sympy.real_roots(M.charpoly())
        assert len(roots) == n
        expected = (
            sum(1 for x in roots if x > 0),
            sum(1 for x in roots if x < 0),
            sum(1 for x in roots if x == 0),
        )
        assert inertia(S).astuple() == expected


def test_rref_pivots():
    R, pivots = rref(mat([[0, 2, 4], [1, 1, 1]]))
    assert pivots == (0, 1)
    assert R[0][0] == 1 and R[1][1] == 1


def _random_rational_matrix(rng):
    """A rational matrix of mixed denominators; about half are rank deficient,
    with some rows combinations of the others and some columns zero."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5 and m > 1:
        for i in range(1, m):
            if rng.random() < 0.5:
                a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = Fraction(0)
    return mat(rows)


def test_rref_rank_det_match_fraction_elimination():
    rng = random.Random(17)
    deficient = 0
    for _ in range(300):
        A = _random_rational_matrix(rng)
        R, pivots = rref(A)
        assert (R, pivots) == fraction_rref(A)
        assert rank(A) == len(pivots)
        deficient += len(pivots) < min(len(A), len(A[0]))
        square = mat(row[: len(A)] for row in A) if len(A[0]) >= len(A) else mat(A[: len(A[0])])
        assert det(square) == fraction_det(square)
    assert 50 < deficient < 250


def test_pivot_keeps_rows_in_lowest_terms_over_positive_denominators(monkeypatch):
    """After every Gauss-Jordan step each row is in lowest terms over a
    positive denominator; negative pivots and denominators above one occur."""
    seen = []
    pivot = linalg.pivot

    def recording(rows, dens, row, col):
        seen.append((rows[row][col], dens[row]))
        pivot(rows, dens, row, col)
        assert all(d > 0 and math.gcd(d, *r) == 1 for r, d in zip(rows, dens))

    monkeypatch.setattr(linalg, "pivot", recording)
    rng = random.Random(19)
    for _ in range(100):
        A = _random_rational_matrix(rng)
        assert rref(A) == fraction_rref(A)
    assert any(p < 0 for p, _ in seen)
    assert any(d > 1 for _, d in seen)


def test_det_and_rank():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert rank(mat([[1, 2], [2, 4]])) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mat([[1, 2], [1]]), "ragged matrix rows"),
        (lambda: det(mat([[1, 2]])), "determinant of non-square matrix"),
        (lambda: inertia(mat([[1, 2]])), "inertia requires a symmetric square matrix"),
    ],
    ids=["ragged-matrix", "determinant-of-non-square", "inertia-of-non-square"],
)
def test_linalg_refusals(call, message):
    """Each refusal raises DimensionError with its message."""
    assert outcome(call) == (DimensionError, message)

