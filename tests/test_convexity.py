import random
from fractions import Fraction

import pytest

from lorfan import convexity
from lorfan.convexity import (
    ROUTE_CANDIDATE,
    ROUTE_JOINT_LP,
    VERDICT_CONVEX,
    VERDICT_NONE,
    VERDICT_STRICT,
    _cut_loop,
    classify_convexity,
    find_strictly_convex,
    is_strictly_convex,
    spanning_rays,
    strictly_convex_witness,
)
from lorfan.fan import candidate_divisor, product_fan, stellar_subdivide
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    twisted_prism_fan,
    two_disjoint_triangles,
)
from lorfan.linalg import vec
from lorfan.lp import FeasibilityCertificate, verify_certificate
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.weights import indicator_divisor

from helpers import (
    BERGMAN_FANS,
    STOCK_FANS,
    dot,
    joint_lp_witness,
    joint_program_rows,
    linear_divisor,
    random_fan,
    random_fans,
    strict_convexity_program,
    triangle_double_cover,
)

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
# the cut loop against the joint program

ROUTE_FANS = {**STOCK_FANS, **BERGMAN_FANS, "double_cover": triangle_double_cover}
SUBDIVIDED_MATROIDS = {
    "U(3,5)": lambda: uniform_matroid(3, 5),
    "M(K4)": lambda: complete_graph_matroid(4),
    "Fano": fano_matroid,
    "U(3,6)": lambda: uniform_matroid(3, 6),
}


def seeded_subdivision(matroid, seed):
    """The matroid's Bergman fan, starred at sum(a_i * u_i) over a random
    maximal cone, with each a_i a random quotient of 1..9 by 1..4."""
    fan = bergman_fan(matroid).fan
    rng = random.Random(seed)
    sigma = rng.choice(fan.maximal_cones)
    coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in sigma]
    v = [sum(a * fan.rays[i][j] for a, i in zip(coeffs, sigma)) for j in range(fan.ambient_dim)]
    return stellar_subdivide(fan, vec(v)).fan


def composed_certificate(fan, cuts, master):
    """The master's Farkas multipliers times each cut's multipliers on its
    cone's neighborhood rows, summed per row of the joint program and
    normalised: a certificate on `joint_program_rows(fan)`."""
    index = {}
    for tau in fan.all_cones():
        for eta in fan.neighborhood(tau).rays:
            index[tau, eta] = len(index)
    weights = [Fraction(0)] * len(index)
    for mu, (tau, lam) in zip(master.certificate.multipliers, cuts):
        for eta, weight in zip(fan.neighborhood(tau).rays, lam):
            weights[index[tau, eta]] += mu * weight
    total = sum(weights)
    return FeasibilityCertificate(tuple(w / total for w in weights), Fraction(0))


def _check_witness_routes(fan):
    """The cut loop finds a divisor exactly when the joint program is
    feasible; whichever route answers, its divisor re-verifies, and so does
    the joint program's own.  A "none" composes the master's certificate
    with the cuts' into one that holds on the joint program's rows.
    Returns the route."""
    witness, route, cuts, master = _cut_loop(fan)
    assert strictly_convex_witness(fan) == (witness, route)
    assert find_strictly_convex(fan) == witness
    feasible = strict_convexity_program(fan).feasible
    assert (witness is not None) == feasible
    if route == ROUTE_CANDIDATE:
        assert witness == candidate_divisor(fan)
        assert not cuts and master is None
    if feasible:
        for z in (witness, joint_lp_witness(fan)):
            assert classify_convexity(fan, z, strict=True).strictly_convex
    else:
        assert joint_lp_witness(fan) is None
        assert route == ROUTE_JOINT_LP and not master.feasible
        assert verify_certificate(composed_certificate(fan, cuts, master), *joint_program_rows(fan))
    return route


@pytest.mark.parametrize("name", sorted(ROUTE_FANS))
def test_witness_route_matches_joint_program(name):
    route = _check_witness_routes(ROUTE_FANS[name]())
    # the twisted prism admits no strictly convex divisor at all
    assert route == (ROUTE_JOINT_LP if name == "twisted_prism" else ROUTE_CANDIDATE)


def test_witness_route_matches_joint_program_on_random_fans():
    for fan in random_fans():
        _check_witness_routes(fan)


def test_witness_route_matches_joint_program_on_seeded_subdivisions():
    """The candidate divisor fails on 23 of the 24 subdivisions, so the
    cuts decide them."""
    routes = []
    for matroid in SUBDIVIDED_MATROIDS.values():
        for seed in range(6):
            routes.append(_check_witness_routes(seeded_subdivision(matroid(), seed)))
    assert routes.count(ROUTE_JOINT_LP) == 23


def test_cut_certificates_on_fans_without_strictly_convex_divisor():
    """The twisted prism times a line, and the twisted prism starred at the
    sum of each maximal cone's marks, admit none either: each "none" takes
    several cuts, and the composed certificate holds."""
    prism = twisted_prism_fan().fan
    fans = [product_fan(prism, line_fan().fan)]
    for sigma in prism.maximal_cones:
        v = [sum(prism.rays[i][j] for i in sigma) for j in range(prism.ambient_dim)]
        fans.append(stellar_subdivide(prism, vec(v)).fan)
    for fan in fans:
        assert _check_witness_routes(fan) == ROUTE_JOINT_LP
        witness, _, cuts, _ = _cut_loop(fan)
        assert witness is None and len(cuts) > 1


def _divisors(fan, rng: random.Random) -> list:
    """c_F, a seeded draw around it, 0, -c_F, c_F lowered at ray 0, and a
    seeded random divisor."""
    c = candidate_divisor(fan)
    divisors = [c, tuple(2 * v + Fraction(rng.randint(0, 12), 4) for v in c)]
    divisors += [tuple(0 * v for v in c), tuple(-v for v in c)]
    if c:
        divisors.append((c[0] - 1, *c[1:]))
    divisors.append(tuple(Fraction(rng.randint(-6, 12), 4) for _ in c))
    return divisors


def _check_stops_at_the_first_failing_cone(build, rng, monkeypatch) -> set:
    """is_strictly_convex gives classify_convexity's strict verdict; where
    `fan.regular` does not hold, it solves the programs of the cones up to
    the first one without a strict witness, in all_cones order (a cone
    whose neighborhood is empty has no program).  Returns the pairs (regular,
    verdict) seen."""
    seen = set()
    for z in _divisors(build(), rng):
        fan = build()
        certificate = classify_convexity(fan, z, strict=True)
        regular = fan.regular(z)
        with monkeypatch.context() as m:
            solved = []
            inner = convexity.strict_feasible

            def counted(rows, dim):
                solved.append(rows)
                return inner(rows, dim)

            m.setattr(convexity, "strict_feasible", counted)
            verdict = is_strictly_convex(fan, z)
        assert verdict == certificate.strictly_convex
        cones = list(fan.all_cones())
        if regular:
            assert solved == []
        else:
            last = cones.index(certificate.failing[0]) if certificate.failing else len(cones) - 1
            assert len(solved) == sum(1 for tau in cones[: last + 1] if fan.neighborhood(tau).rays)
        seen.add((regular, verdict))
    return seen


@pytest.mark.parametrize("name", sorted({**STOCK_FANS, **BERGMAN_FANS}))
def test_is_strictly_convex_stops_at_the_first_failing_cone(name, monkeypatch):
    build = {**STOCK_FANS, **BERGMAN_FANS}[name]
    _check_stops_at_the_first_failing_cone(build, random.Random(name), monkeypatch)


def test_is_strictly_convex_stops_at_the_first_failing_cone_on_random_fans(monkeypatch):
    """Also on the double cover, where the candidate is strictly convex but
    not regular."""
    seen = _check_stops_at_the_first_failing_cone(triangle_double_cover, random.Random(0), monkeypatch)
    for seed in range(40):
        seen |= _check_stops_at_the_first_failing_cone(lambda: random_fan(seed), random.Random(seed), monkeypatch)
    # every way to the verdict is taken: regular, and per cone both ways
    assert seen == {(True, True), (False, True), (False, False)}
