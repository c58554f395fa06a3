import random
from fractions import Fraction

import pytest

from lorfan.convexity import (
    ROUTE_CANDIDATE,
    ROUTE_JOINT_LP,
    VERDICT_CONVEX,
    VERDICT_NONE,
    VERDICT_STRICT,
    classify_convexity,
    find_strictly_convex,
    joint_lp_witness,
    spanning_rays,
    strict_convexity_program,
    strictly_convex_witness,
)
from lorfan.fan import candidate_divisor, stellar_subdivide
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    two_disjoint_triangles,
)
from lorfan.linalg import vec
from lorfan.weights import indicator_divisor

from helpers import BERGMAN_FANS, STOCK_FANS, dot, linear_divisor, random_fans, triangle_double_cover

ALL_FIXTURES = (
    triangle_fan,
    line_fan,
    coordinate_skeleton_fan,
    triangle_times_line,
    two_disjoint_triangles,
    spindle_fan,
)


def test_triangle_all_ones_strictly_convex():
    cert = classify_convexity(triangle_fan().fan, vec([1, 1, 1]), strict=True)
    assert cert.verdict == VERDICT_STRICT
    # every stored witness re-verifies by substitution
    fan = triangle_fan().fan
    for w in cert.witnesses:
        if w.functional is None:
            continue
        for i in w.cone:
            assert dot(w.functional, fan.rays[i]) == 1


def test_linear_restriction_is_convex_not_strict():
    fan = triangle_fan().fan
    z = linear_divisor(fan, vec([3, -2]))
    cert = classify_convexity(fan, z, strict=True)
    assert cert.verdict == VERDICT_CONVEX
    assert () in cert.failing


def test_not_convex_example():
    fan = triangle_fan().fan
    cert = classify_convexity(fan, vec([-1, 0, 0]), strict=False)
    assert cert.verdict == VERDICT_NONE
    assert (1,) in cert.failing


def test_adding_linear_function_never_changes_verdict():
    rng = random.Random(53)
    fan = coordinate_skeleton_fan().fan
    for _ in range(5):
        z = vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in fan.rays])
        shift = linear_divisor(fan, vec([rng.randint(-3, 3) for _ in range(3)]))
        shifted = tuple(a + b for a, b in zip(z, shift))
        for strict in (False, True):
            assert (
                classify_convexity(fan, z, strict).verdict
                == classify_convexity(fan, shifted, strict).verdict
            )


def test_sum_of_strictly_convex_is_strictly_convex():
    fan = triangle_times_line().fan
    w1 = find_strictly_convex(fan)
    assert w1 is not None
    w2 = tuple(2 * v for v in w1)
    total = tuple(a + b for a, b in zip(w1, w2))
    assert classify_convexity(fan, total, strict=True).verdict == VERDICT_STRICT


def test_find_strictly_convex_on_fixtures():
    for build in ALL_FIXTURES:
        fan = build().fan
        z = find_strictly_convex(fan)
        assert z is not None, build.__name__
        cert = classify_convexity(fan, z, strict=True)
        assert cert.verdict == VERDICT_STRICT, build.__name__


def test_pinched_fan_is_still_quasiprojective():
    fan = two_disjoint_triangles().fan
    z = find_strictly_convex(fan)
    assert z is not None
    assert classify_convexity(fan, z, strict=True).verdict == VERDICT_STRICT


def test_effective_cone_desk_scale():
    # on quasiprojective fans with few rays, a divisor that is convex in both
    # directions must be the restriction of a linear function; with values
    # pinned to zero on spanning rays that means the zero divisor
    from helpers import OPTIMAL, lp_max

    for build in (triangle_fan, coordinate_skeleton_fan, spindle_fan):
        fan = build().fan
        nrays = len(fan.rays)
        n = fan.ambient_dim
        from lorfan.fan import neighborhood_rays

        blocks = [t for t in fan.all_cones() if neighborhood_rays(fan, t)]
        dim = nrays + 2 * len(blocks) * n
        offsets = {}
        for k, tau in enumerate(blocks):
            offsets[(tau, 1)] = nrays + 2 * k * n
            offsets[(tau, -1)] = nrays + (2 * k + 1) * n

        eqs, les = [], []
        for sign in (1, -1):
            for tau in blocks:
                base = offsets[(tau, sign)]
                for i in tau:
                    row = [Fraction(0)] * dim
                    for j, c in enumerate(fan.rays[i]):
                        row[base + j] = c
                    row[i] -= sign
                    eqs.append((vec(row), Fraction(0)))
                for i in neighborhood_rays(fan, tau):
                    row = [Fraction(0)] * dim
                    for j, c in enumerate(fan.rays[i]):
                        row[base + j] = c
                    row[i] -= sign
                    les.append((vec(row), Fraction(0)))
        for i in spanning_rays(fan):
            row = [Fraction(0)] * dim
            row[i] = Fraction(1)
            eqs.append((vec(row), Fraction(0)))

        free = [i for i in range(nrays) if i not in spanning_rays(fan)]
        for i in free:
            for sign in (1, -1):
                obj = [Fraction(0)] * dim
                obj[i] = Fraction(sign)
                cap = [Fraction(0)] * dim
                cap[i] = Fraction(sign)
                res = lp_max(vec(obj), eqs, les + [(vec(cap), Fraction(1))])
                assert res.status == OPTIMAL
                assert res.value == 0, (build.__name__, i, sign)


def test_stellar_subdivision_stays_quasiprojective():
    # explicit witness: old witness minus a small multiple of the new ray's
    # indicator stays strictly convex on the subdivision
    from lorfan.weights import pullback_divisor

    fan = triangle_fan().fan
    w = find_strictly_convex(fan)
    res = stellar_subdivide(fan, vec([1, 1]))
    pulled = pullback_divisor(fan, w, res.fan)
    eps = Fraction(1)
    while eps > Fraction(1, 2**12):
        bump = indicator_divisor(res.fan, res.new_ray)
        candidate = tuple(a - eps * b for a, b in zip(pulled, bump))
        if classify_convexity(res.fan, candidate, strict=True).strictly_convex:
            break
        eps /= 2
    else:
        raise AssertionError("no epsilon worked")
    assert find_strictly_convex(res.fan) is not None


# ---------------------------------------------------------------------------
# the candidate route against the joint program

ROUTE_FANS = {**STOCK_FANS, **BERGMAN_FANS, "double_cover": triangle_double_cover}


def _check_witness_routes(fan):
    """find_strictly_convex finds a divisor exactly when the joint program is
    feasible; whichever route answers, its divisor re-verifies, and so does
    the joint program's own.  Returns the route."""
    witness, route = strictly_convex_witness(fan)
    assert witness == find_strictly_convex(fan)
    feasible = strict_convexity_program(fan).feasible
    assert (witness is not None) == feasible
    if route == ROUTE_CANDIDATE:
        assert witness == candidate_divisor(fan)
    if feasible:
        for z in (witness, joint_lp_witness(fan)):
            assert classify_convexity(fan, z, strict=True).strictly_convex
    else:
        assert joint_lp_witness(fan) is None
    return route


@pytest.mark.parametrize("name", sorted(ROUTE_FANS))
def test_witness_route_matches_joint_program(name):
    route = _check_witness_routes(ROUTE_FANS[name]())
    # the twisted prism admits no strictly convex divisor at all
    assert route == (ROUTE_JOINT_LP if name == "twisted_prism" else ROUTE_CANDIDATE)


def test_witness_route_matches_joint_program_on_random_fans():
    for fan in random_fans():
        _check_witness_routes(fan)
