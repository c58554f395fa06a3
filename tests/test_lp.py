import itertools
import math
import random
from fractions import Fraction

import pytest

from lorfan import convexity
from lorfan import fan as fan_module
from lorfan import lp
from lorfan.errors import DimensionError
from lorfan.linalg import vec
from lorfan.lp import strict_feasible, verify_certificate

from helpers import (
    BERGMAN_FANS,
    OPTIMAL,
    STOCK_FANS,
    dot,
    fraction_rows,
    fraction_strict_feasible,
    int_rows,
    linear_feasible,
    lp_max,
    max_slack_oracle,
    random_fans,
    rescale_fan,
    strict_convexity_program,
)


def F(a, b=1):
    return Fraction(a, b)


def check(rows, dim):
    """check_int on the int form of rows (a, b) of rationals."""
    return check_int(int_rows(rows), dim)


def check_int(rows, dim):
    """match_tableau, and the optimum against the two-phase oracle."""
    res = match_tableau(rows, dim)
    assert res.optimum == max_slack_oracle(fraction_rows(rows), dim)
    return res


def match_tableau(rows, dim):
    """Solve the int rows, compare the whole result with the simplex over
    Fraction entries on the Fraction form of the same rows, and check the
    point and, when the optimum is not positive, the certificate."""
    res = strict_feasible(rows, dim)
    exact = fraction_rows(rows)
    assert res == fraction_strict_feasible(exact, dim)
    assert res.optimum <= 1
    for a, b in exact:
        assert dot(a, res.point) + res.optimum <= b
    assert res.feasible == (res.optimum > 0)
    if res.feasible:
        assert res.certificate is None
    else:
        assert verify_certificate(res.certificate, rows, dim)
    return res


def test_no_rows_reaches_the_cap():
    res = check([], 2)
    assert res.optimum == 1
    assert res.point == vec([0, 0])


def test_single_row_reaches_the_cap():
    res = check([(vec([1]), F(1))], 1)
    assert res.feasible and res.optimum == 1


def test_contradictory_strict_pair():
    # x < 0 and -x < 0: the best slack is zero, at x = 0
    res = check([(vec([1]), F(0)), (vec([-1]), F(0))], 1)
    assert not res.feasible
    assert res.optimum == 0
    assert res.point == vec([0])


def test_infeasible_pair_has_negative_optimum():
    # x <= -1/2 - t and -x <= -1/2 - t: no point even weakly, t* = -1/2
    res = check([(vec([1]), F(-1, 2)), (vec([-1]), F(-1, 2))], 1)
    assert res.optimum == F(-1, 2)
    assert res.certificate.multipliers == (F(1, 2), F(1, 2))
    assert res.certificate.cap_multiplier == 0


def test_open_triangle_interior():
    strict = [(vec([1, 0]), F(1)), (vec([0, 1]), F(1)), (vec([-1, -1]), F(0))]
    res = check(strict, 2)
    assert res.feasible
    for a, b in strict:
        assert dot(a, res.point) < b


def test_zero_dimensional_rows():
    res = check([((), F(3)), ((), F(-2))], 0)
    assert res.optimum == -2
    assert res.point == ()


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        strict_feasible([((1, 2), 0, 1)], 1)


def test_nonpositive_denominator_refused():
    for d in (0, -1, -2):
        with pytest.raises(DimensionError):
            strict_feasible([((1,), 1, 1), ((-1,), 0, d)], 1)


def test_int_rows_round_trip():
    # the converter is exact both ways, and each int row it makes is over
    # the least common denominator of the row's entries
    rows = [(vec([F(1, 2), F(-2, 3)]), F(5, 4)), (vec([3, 0]), F(-1)), ((F(2, 6), 0), F(0))]
    assert int_rows(rows) == [((6, -8), 15, 12), ((3, 0), -1, 1), ((1, 0), 0, 3)]
    assert fraction_rows(int_rows(rows)) == rows
    assert fraction_rows([((2, -4), 6, 4)]) == [((F(1, 2), F(-1)), F(3, 2))]


def test_tampered_certificate_fails_verification():
    rows = int_rows([(vec([1]), F(0)), (vec([-1]), F(0))])
    cert = strict_feasible(rows, 1).certificate
    assert verify_certificate(cert, rows, 1)
    assert not verify_certificate(lp.FeasibilityCertificate((F(1), F(0)), F(0)), rows, 1)
    assert not verify_certificate(lp.FeasibilityCertificate((F(1, 4), F(1, 4)), F(0)), rows, 1)
    assert not verify_certificate(cert, rows[:1], 1)


def test_witness_or_certificate_random_instances():
    # whichever outcome, it comes with an exact point or certificate and the
    # oracle's optimum
    rng = random.Random(23)
    signs = set()
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = []
        for _ in range(rng.randint(0, 7)):
            a = vec([rng.randint(-3, 3) for _ in range(n)])
            b = F(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 3))
            rows.append((a, b))
        res = check(rows, n)
        signs.add((res.optimum > 0) - (res.optimum < 0))
    assert signs == {-1, 0, 1}


def test_integer_rows_match_fraction_tableau(monkeypatch):
    # rational normals and right-hand sides of mixed denominators, so rows
    # start over different denominators, and free columns that enter
    # downwards, on negative pivots; the point, the optimum and the
    # certificate all equal those of the Fraction tableau (in check), and
    # after every pivot each row is in lowest terms over a positive
    # denominator
    pivots = []
    pivot = lp.pivot

    def recording(T, den, row, col):
        pivots.append((T[row][col], den[row]))
        pivot(T, den, row, col)
        assert all(d > 0 and math.gcd(d, *r) == 1 for r, d in zip(T, den))

    monkeypatch.setattr(lp, "pivot", recording)
    rng = random.Random(41)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [
            (
                tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)),
                F(rng.randint(-4, 4), rng.randint(1, 5)),
            )
            for _ in range(rng.randint(1, 8))
        ]
        res = check(rows, n)
        outcomes.add(res.certificate is None)
    assert outcomes == {True, False}
    assert any(p < 0 for p, _ in pivots)
    assert any(d > 1 for _, d in pivots)


# Beale's classic cycling example: max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4 over
# two homogeneous rows, x3 <= 1 and x >= 0.
BEALE_OBJECTIVE = vec([F(3, 4), -150, F(1, 50), -6])
BEALE_ROWS = [
    (vec([F(1, 4), -60, F(-1, 25), 9]), F(0)),
    (vec([F(1, 2), -90, F(-1, 50), 3]), F(0)),
    (vec([0, 0, 1, 0]), F(1)),
    (vec([-1, 0, 0, 0]), F(0)),
    (vec([0, -1, 0, 0]), F(0)),
    (vec([0, 0, -1, 0]), F(0)),
    (vec([0, 0, 0, -1]), F(0)),
]


def test_degenerate_cycling_guard(monkeypatch):
    # the oracle on the instance itself
    res = lp_max(BEALE_OBJECTIVE, [], BEALE_ROWS)
    assert res.status == OPTIMAL
    assert res.value == F(1, 20)
    # its max-slack form, with the objective as the row t <= c.x, makes ten
    # consecutive degenerate pivots of twelve: under Bland's rule throughout,
    # the default fallback, and no fallback at all, the integer rows and the
    # Fraction tableau (which reads the same limit) give the same result
    rows = [(tuple(-v for v in BEALE_OBJECTIVE), F(0))] + BEALE_ROWS
    for stall_limit in (0, lp._STALL_LIMIT, 10**6):
        monkeypatch.setattr(lp, "_STALL_LIMIT", stall_limit)
        assert check(rows, 4).optimum == F(1, 561)


# ---------------------------------------------------------------------------
# the two-phase oracle on its own


def test_lp_max_simple():
    # max x + y over the unit square
    res = lp_max(
        vec([1, 1]),
        [],
        [
            (vec([1, 0]), F(1)),
            (vec([0, 1]), F(1)),
            (vec([-1, 0]), F(0)),
            (vec([0, -1]), F(0)),
        ],
    )
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x == vec([1, 1])


def test_lp_max_with_equality():
    # max y with x + y = 1, y <= 3/4
    res = lp_max(
        vec([0, 1]),
        [(vec([1, 1]), F(1))],
        [(vec([0, 1]), F(3, 4))],
    )
    assert res.status == OPTIMAL
    assert res.value == F(3, 4)


def test_linear_feasible_weak_boundary():
    x = linear_feasible([(vec([1, 1]), F(2))], [(vec([1, 0]), F(1))], 2)
    assert x is not None
    assert x[0] + x[1] == 2 and x[0] <= 1


def test_linear_feasible_none():
    assert linear_feasible(
        [],
        [(vec([1]), F(0)), (vec([-1]), F(-1))],
        1,
    ) is None


# ---------------------------------------------------------------------------
# every program the package builds on the fixtures, against the oracle

FIXTURE_FANS = {**STOCK_FANS, **BERGMAN_FANS}


def caller_programs(monkeypatch, fan, seed):
    """Every program that the four callers of strict_feasible build on the
    fan: the per-cone programs of classify_convexity on several divisors and
    those of validate's regular route, and, solved explicitly because the
    fast routes seldom reach them, the joint program behind the witness
    fallback and the pair program of every two maximal cones.  Returns the
    programs as the callers built them, validate's report and the pair
    verdicts."""
    programs = []

    def recording(rows, dim):
        programs.append((list(rows), dim))
        return strict_feasible(rows, dim)

    monkeypatch.setattr(convexity, "strict_feasible", recording)
    monkeypatch.setattr(fan_module, "strict_feasible", recording)
    rng = random.Random(seed)
    divisors = [(F(0),) * len(fan.rays), tuple(F(rng.randint(-3, 3)) for _ in fan.rays)]
    witness = convexity.find_strictly_convex(fan)
    if witness is not None:
        divisors += [witness, tuple(-v for v in witness)]
    for z in divisors:
        convexity.classify_convexity(fan, z, strict=True)
    report = fan_module.validate(fan)
    strict_convexity_program(fan)
    meets = [fan_module._meet_in_shared_face(fan, c1, c2) for c1, c2 in itertools.combinations(fan.maximal_cones, 2)]
    return programs, report, meets


@pytest.mark.parametrize("name", sorted(FIXTURE_FANS))
def test_fixture_programs_match_oracle(monkeypatch, name):
    programs, report, meets = caller_programs(monkeypatch, FIXTURE_FANS[name](), name)
    assert report.valid
    assert all(meets)
    assert programs
    for rows, dim in programs:
        check_int(rows, dim)


def test_caller_programs_on_random_and_rescaled_fans(monkeypatch):
    """The four callers' programs on the 40 random fans, and on the fixture
    fans with their marks rescaled ray by ray by rational scales (the fans of
    `helpers.rescale_marking`): every result equals the Fraction tableau's on
    the same rows (the two-phase oracle is left to the fixture programs,
    where it is cheap), and rows over a denominator above one and programs whose
    t0 = min(1, min b) is not an integer both occur."""
    fans = {f"random-{seed}": fan for seed, fan in enumerate(random_fans())}
    for name, build in sorted(FIXTURE_FANS.items()):
        fan = build()
        rng = random.Random(name)
        fans[f"{name}-rescaled"] = rescale_fan(fan, [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in fan.rays])
    programs = []
    for name, fan in fans.items():
        programs += caller_programs(monkeypatch, fan, name)[0]
    for rows, dim in programs:
        match_tableau(rows, dim)
    assert any(d > 1 for rows, _ in programs for _, _, d in rows)
    assert any(min([F(1), *(F(b, d) for _, b, d in rows)]).denominator > 1 for rows, _ in programs)
