"""The fan condition and the spanning rays against their definitions.

validate decides the fan condition by the regular route (the candidate
divisor as a height function: per maximal cone, free points and then LPs,
its rows generated from the rays each point violates), then on complete
fans by the walls route (exact sign tests at the walls and one generic
point), and falls back to one separating LP per pair of maximal cones; the
pairs are compared with an overlap oracle that solves for a common point of
two cones directly, the other routes with the pairs, and the regular route
with the oracle that solves each cone's program on all its rows at once.
"""

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from lorfan import fan as fan_module
from lorfan import fixtures
from lorfan.convexity import ROUTE_JOINT_LP, classify_convexity, spanning_rays, strictly_convex_witness
from lorfan.errors import InternalError, PreconditionError
from lorfan.fan import (
    MarkedFan,
    ROUTE_PAIRS,
    ROUTE_REGULAR,
    ROUTE_WALLS,
    _covered_once,
    _meet_in_shared_face,
    _regular,
    candidate_divisor,
    require_fan,
    validate,
)
from lorfan.io import fan_from_json
from lorfan.linalg import ZERO, fractions, over_lcd, vec
from lorfan.lp import StrictFeasibility
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    NON_PURE_FANS,
    SCALES,
    STOCK_FANS,
    TROPICAL_FANS,
    dependent_marks_fan,
    fraction_fan,
    fraction_relax,
    full_row_regular,
    greedy_spanning_rays,
    overlap_witness,
    random_fan,
    random_fans,
    rescaled_random,
    rescaled_tropical,
    triangle_double_cover,
    unused_ray_fan,
)

FANS = {**STOCK_FANS, **BERGMAN_FANS, "double_cover": triangle_double_cover}
# valid fans that no height function fits; complete, so the walls route
# decides them
NOT_REGULAR = {"twisted_prism"}


def _pair_verdicts(fan, overlaps):
    return [overlaps(fan, c1, c2) for c1, c2 in itertools.combinations(fan.maximal_cones, 2)]


def _separated(fan, c1, c2):
    return not _meet_in_shared_face(fan, c1, c2)


@pytest.mark.parametrize("name", sorted(FANS))
def test_pair_test_matches_overlap_oracle(name):
    fan = FANS[name]()
    assert _pair_verdicts(fan, _separated) == _pair_verdicts(fan, overlap_witness)


def test_pair_test_matches_overlap_oracle_on_random_fans():
    overlapping = 0
    for seed, fan in enumerate(random_fans()):
        verdicts = _pair_verdicts(fan, _separated)
        assert verdicts == _pair_verdicts(fan, overlap_witness), seed
        overlapping += sum(verdicts)
    assert overlapping > 0


def _check_routes(fan):
    """validate's verdict is the pair LPs' verdict, the regular and the
    walls route are sound, and the report names the first route that
    proves the fan condition, else pairs; returns the route."""
    pairs = not any(_pair_verdicts(fan, _separated))
    regular = _regular(fan, candidate_divisor(fan), {}) is not None
    walls = _covered_once(fan)
    report = validate(fan)
    assert report.fan_condition == pairs
    assert pairs or not (regular or walls)
    assert report.fan_condition_route == (ROUTE_REGULAR if regular else ROUTE_WALLS if walls else ROUTE_PAIRS)
    return report.fan_condition_route


@pytest.mark.parametrize("name", sorted(FANS))
def test_validate_matches_pair_verdict(name):
    route = _check_routes(FANS[name]())
    expected = ROUTE_WALLS if name in NOT_REGULAR else ROUTE_PAIRS if name == "double_cover" else ROUTE_REGULAR
    assert route == expected


def test_validate_matches_pair_verdict_on_random_fans():
    routes = [_check_routes(fan) for fan in random_fans()]
    # both routes decide some of them
    assert set(routes) == {ROUTE_REGULAR, ROUTE_PAIRS}


def _regular_candidate_is_strictly_convex(fan):
    """None off the regular route; else whether classify_convexity accepts
    the candidate divisor as strictly convex, which is_lorentzian assumes
    there without checking."""
    if validate(fan).fan_condition_route != ROUTE_REGULAR:
        return None
    return classify_convexity(fan, candidate_divisor(fan), strict=True).strictly_convex


@pytest.mark.parametrize("name", sorted(FANS) + sorted(LARGE_BERGMAN_FANS))
def test_regular_route_candidate_is_strictly_convex(name):
    fan = {**FANS, **LARGE_BERGMAN_FANS}[name]()
    assert _regular_candidate_is_strictly_convex(fan) is (None if name in NOT_REGULAR | {"double_cover"} else True)


def test_regular_route_candidate_is_strictly_convex_on_random_fans():
    verdicts = [_regular_candidate_is_strictly_convex(fan) for fan in random_fans()]
    assert True in verdicts
    assert False not in verdicts


def test_validate_double_cover():
    # the candidate is strictly convex cone by cone, but it is no height
    # function: the cones on ray 0 and on ray 3 share a mark, so no
    # functional equals z on one and stays below z on the other
    fan = triangle_double_cover()
    z = candidate_divisor(fan)
    assert classify_convexity(fan, z, strict=True).strictly_convex
    assert _regular(fan, z, {}) is None
    report = validate(fan)
    assert report.simplicial and report.pure and report.all_rays_used
    assert not report.fan_condition
    assert report.fan_condition_route == ROUTE_PAIRS
    assert not report.valid


def _lp_sizes(monkeypatch):
    """The row count of every program fan.py solves from now on, in order."""
    original = fan_module.strict_feasible
    sizes = []

    def counting(rows, dim):
        sizes.append(len(rows))
        return original(rows, dim)

    monkeypatch.setattr(fan_module, "strict_feasible", counting)
    return sizes


def test_validate_lp_calls_per_route(monkeypatch):
    sizes = _lp_sizes(monkeypatch)
    # regular route: at each of the 12 maximal cones the particular
    # functional of z is below z off the cone, so no LP runs
    fan = fixtures.coordinate_skeleton_fan().fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert len(fan.maximal_cones) == 12 and sizes == []
    # the first cone (0, 1) spans the plane, so its only functional is the
    # particular one, 2x + 2y; that equals z on rays 3 and 4, which repeat
    # the marks of rays 0 and 1, so their 2 rows have zero images, the
    # relaxation step skips them and the program on them is infeasible: the
    # regular route fails after 1 LP; then every pair of the six cones gets
    # its LP, the first on 2 rows
    sizes.clear()
    fan = triangle_double_cover()
    assert validate(fan).fan_condition_route == ROUTE_PAIRS
    assert fan.maximal_cones[0] == (0, 1)
    assert sizes[:2] == [2, 2]
    assert len(sizes) == 1 + math.comb(len(fan.maximal_cones), 2) == 16
    # the twisted prism: c_F fails at its first cone (0, 1, 2) by 1 LP (the
    # relaxation step skips rows with zero image), and then the walls route
    # proves the fan condition with no LP, where the pairs route solved 28
    sizes.clear()
    fan = fixtures.twisted_prism_fan().fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_WALLS
    assert fan.maximal_cones[0] == (0, 1, 2)
    assert len(sizes) == 1
    # on the Bergman ladder the particular functional passes at all 30
    # maximal cones of U(3,6), at none of the 21 of Fano and at 60 of the
    # 180 of M(K5); at each other cone the relaxation step, over the rows of
    # the rays it fails, gives a functional below z on every ray, so no LP
    # runs
    for matroid, cones in ((uniform_matroid(3, 6), 30), (fano_matroid(), 21), (complete_graph_matroid(5), 180)):
        sizes.clear()
        fan = bergman_fan(matroid).fan
        assert validate(fan).fan_condition_route == ROUTE_REGULAR
        assert len(fan.maximal_cones) == cones
        assert sizes == []


def test_gate_stops_at_the_first_failure(monkeypatch):
    """require_fan solves the regular route's 1 LP on the double cover and
    then pair LPs only up to the first overlap, the third pair, and refuses
    with validate's first failure."""
    sizes = _lp_sizes(monkeypatch)
    with pytest.raises(PreconditionError) as refused:
        require_fan(triangle_double_cover(), "mixed degrees need a fan")
    assert len(sizes) == 4
    report = validate(triangle_double_cover())
    assert len(report.failures) == 9
    assert report.failures[0] == "cones (0, 1) and (2, 4) overlap beyond their shared face"
    assert str(refused.value) == f"mixed degrees need a fan: {report.failures[0]}"


GATE_FANS = {
    **FANS,
    **{f"non_pure_{name}": make for name, make in NON_PURE_FANS.items()},
    "dependent_marks": dependent_marks_fan,
    "unused_ray": unused_ray_fan,
}


@pytest.mark.parametrize("name", sorted(GATE_FANS))
def test_gate_passes_exactly_the_valid_fans(name):
    """require_fan refuses a fan exactly when validate finds it invalid,
    with validate's first failure.  Past simpliciality, purity and ray
    usage it keeps the candidate's regular record that validate keeps;
    refusing before them, it solves no LP."""
    fan = GATE_FANS[name]()
    report = validate(GATE_FANS[name]())
    if report.valid:
        require_fan(fan, "needs a fan")
    else:
        with pytest.raises(PreconditionError, match=re.escape(f"needs a fan: {report.failures[0]}")):
            require_fan(fan, "needs a fan")
    if report.simplicial and report.pure and report.all_rays_used:
        assert fan._regulars.keys() == {candidate_divisor(fan)}
    else:
        assert not fan._regulars


def two_sheets() -> MarkedFan:
    """cone(e1, e2) and cone((1, 1, 1), e3) in R^3, which meet at the
    origin alone."""
    rays = tuple(vec(u) for u in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    return fraction_fan(ambient_dim=3, rays=rays, maximal_cones=((0, 1), (2, 3)))


# on two_sheets: at the first cone the particular functional x + y is not
# below z = 2 at (1, 1, 1), and the relaxation step on that ray's row gives
# x + y - z, which passes.  The functionals at the second cone are
# a x + (1 - a) y + z, below z = 1 at e1 and e2 exactly for 0 < a < 1.  The
# particular one fails one of the two rays; the relaxation step puts it at
# slack 1 there, a = 0 or a = 1, which fails the other, so the program
# starts from both rows.
TWO_SHEETS_Z = (1, 1, 2, 1)


def test_regular_route_adds_rows_and_then_succeeds(monkeypatch):
    sizes = _lp_sizes(monkeypatch)
    fan = two_sheets()
    record = _regular(fan, TWO_SHEETS_Z, {})
    assert sizes == [2]
    check_record(fan, TWO_SHEETS_Z, record)
    # its candidate divisor needs no program
    sizes.clear()
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert sizes == []


def test_regular_refuses_a_program_point_that_fails_only_its_rows(monkeypatch):
    """A program whose point is the origin with a positive optimum, on
    two_sheets at TWO_SHEETS_Z, where the origin's functional at the second
    cone fails one of the two rows it has: _regular raises InternalError
    instead of solving again."""
    calls = []

    def origin(rows, dim):
        calls.append(len(rows))
        assert len(calls) == 1, "the program was solved again on the same rows"
        return StrictFeasibility((ZERO,) * dim, Fraction(1), None)

    monkeypatch.setattr(fan_module, "strict_feasible", origin)
    with pytest.raises(InternalError):
        _regular(two_sheets(), TWO_SHEETS_Z, {})
    assert calls == [2]


def test_relax_matches_fraction_oracle():
    """One sweep on int rows against the same sweep in Fractions, from
    random points over random rows, some of them zero, with the point in
    lowest terms; the sweeps move some points and leave others."""
    rng = random.Random(24)
    moved = set()
    for _ in range(300):
        dim = rng.randint(0, 4)
        rows = []
        for _ in range(rng.randint(0, 5)):
            a = [rng.randint(-3, 3) * (rng.random() < 0.85) for _ in range(dim)]
            rows.append((a, rng.randint(-8, 8), rng.randint(1, 4)))
        start = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
        nums, d = over_lcd(start)
        out_nums, out_d = fan_module._relax((tuple(nums), d), rows)
        assert out_d > 0 and math.gcd(out_d, *out_nums) == 1
        assert fractions(out_nums, out_d) == fraction_relax(start, rows)
        moved.add(fractions(out_nums, out_d) != start)
    assert moved == {True, False}


def test_relaxation_skips_rows_with_zero_image(monkeypatch):
    """The maximal cones of the twisted prism span R^3, so each row's image
    is empty: where the particular functional of c_F fails, the relaxation
    step leaves w where it is, and the program on those rows proves with
    its Farkas certificate that the cone has no functional."""
    fan = fixtures.twisted_prism_fan().fan
    relaxed = []
    inner = fan_module._relax

    def relax(point, rows):
        relaxed.append((point, inner(point, rows), rows))
        return relaxed[-1][1]

    monkeypatch.setattr(fan_module, "_relax", relax)
    results = []
    original = fan_module.strict_feasible

    def solve(rows, dim):
        results.append(original(rows, dim))
        return results[-1]

    monkeypatch.setattr(fan_module, "strict_feasible", solve)
    assert _regular(fan, candidate_divisor(fan), {}) is None
    assert len(relaxed) == len(results) == 1
    point, out, rows = relaxed[0]
    assert point == out == ((), 1) and rows and all(not any(a) for a, _, _ in rows)
    assert not results[0].feasible and results[0].certificate is not None


def test_regular_verdict_is_kept_on_the_fan(monkeypatch):
    """fan.regular keeps _regular's record per divisor (the points of a
    regular divisor, None for one that is not), a second fan.regular(z)
    solves no LP, and validate reads the kept verdict of the candidate
    divisor."""
    sizes = _lp_sizes(monkeypatch)
    fan = bergman_fan(complete_graph_matroid(4)).fan
    c, zero = candidate_divisor(fan), (0,) * len(fan.rays)
    assert fan.regular(c) and not fan.regular(zero)
    assert sizes
    assert fan._regulars[c] == _regular(fan, c, {})
    check_record(fan, c, fan._regulars[c])
    assert fan._regulars[zero] is None
    del sizes[:]
    assert fan.regular(list(c)) and not fan.regular(zero)
    assert validate(fan).fan_condition_route == ROUTE_REGULAR
    assert sizes == []


@pytest.mark.parametrize("length", [2, 4])
def test_regular_refuses_wrong_length_divisors(length, monkeypatch):
    sizes = _lp_sizes(monkeypatch)
    fan = fixtures.triangle_fan().fan
    with pytest.raises(PreconditionError) as excinfo:
        fan.regular((1,) * length)
    assert type(excinfo.value) is PreconditionError
    assert str(excinfo.value) == "divisor has one value per ray"
    assert sizes == []


GOLDEN = Path(__file__).parent / "golden"
# the stellar subdivisions whose `lorfan stellar` reports are stored; each
# defeats the candidate divisor
SUBDIVIDED = ("u35", "mk4", "fano", "twisted_prism")


def subdivided_fan(name: str) -> MarkedFan:
    return fan_from_json(json.loads((GOLDEN / f"stellar-{name}.json").read_text()))[0]


def check_record(fan, z, record) -> None:
    """Each point of a `_regular` record, int numerators over a positive
    denominator in lowest terms, rebuilt with Quotient.functional, equals z
    on its cone's rays and is below z on every other ray, compared in
    Fractions."""
    assert len(record) == len(fan.maximal_cones)
    for sigma, (nums, d) in zip(fan.maximal_cones, record):
        q = fan.quotient(sigma)
        assert len(nums) == q.codim and d > 0 and math.gcd(d, *nums) == 1
        assert all(type(x) is int for x in (*nums, d))
        phi = fractions(*q.functional(*over_lcd([*(Fraction(z[i]) for i in sigma), *fractions(nums, d)])))
        for r, u in enumerate(fan.rays):
            value = sum(map(mul, phi, u))
            assert value == z[r] if r in sigma else value < z[r], (sigma, r)


def regular_matches_oracle(fan, z, kept) -> bool:
    """_regular's verdict on z with `kept` against full_row_regular's, its
    record checked point by point; returns the verdict."""
    record = _regular(fan, z, kept)
    assert (record is None) == (full_row_regular(fan, z) is None)
    if record is not None:
        check_record(fan, z, record)
    return record is not None


def _matches_full_row_oracle(build, monkeypatch) -> bool:
    """_regular against full_row_regular, and validate's report, route
    included, against the report validate gives with the oracle in its
    place, each on a fresh fan; returns the verdict."""
    verdict = regular_matches_oracle(build(), candidate_divisor(build()), {})
    report = validate(build())
    with monkeypatch.context() as m:
        m.setattr(fan_module, "_regular", full_row_regular)
        assert validate(build()) == report
    return verdict


def oracle_divisors(fan, seed: int) -> list:
    """c_F (the candidate divisor), two seeded draws scale*c_F + eps*bump,
    0, -c_F, and c_F lowered at ray 0 by 1 + sum |c_F|, which no fixture
    with rays finds convex."""
    c = candidate_divisor(fan)
    rng = random.Random(seed)
    divisors = [c]
    for _ in range(2):
        scale, eps = rng.randint(1, 4), Fraction(1, 2 ** rng.randint(0, 2))
        divisors.append(tuple(scale * v + eps * Fraction(rng.randint(0, 12), 4) for v in c))
    divisors += [tuple(ZERO for _ in c), tuple(-v for v in c)]
    if c:
        divisors.append((c[0] - 1 - sum(map(abs, c)), *c[1:]))
    return list(dict.fromkeys(divisors))


def _matches_oracle_with_kept(fan, seed: int) -> list[bool]:
    """_regular against full_row_regular on each of oracle_divisors, with
    nothing kept, and then with the record of each divisor that has one
    kept after those of the zero divisor and of the lowered c_F, which the
    shift skips (the zero divisor has norm 0; the lowered c_F's record is
    None where it is not regular); returns the verdicts without kept."""
    divisors = oracle_divisors(fan, seed)
    records = {z: _regular(fan, z, {}) for z in divisors}
    verdicts = [regular_matches_oracle(fan, z, {}) for z in divisors]
    skipped = {z: records[z] for z in (tuple(ZERO for _ in fan.rays), divisors[-1])}
    for z1, record in records.items():
        if record is None:
            continue
        kept = {**skipped, z1: record}
        for z in divisors:
            regular_matches_oracle(fan, z, kept)
    return verdicts


@pytest.mark.parametrize("name", sorted(FANS))
def test_regular_matches_full_row_oracle_with_and_without_kept(name):
    fan = FANS[name]()
    verdicts = _matches_oracle_with_kept(fan, seed=7)
    c = candidate_divisor(fan)
    if c:
        assert not classify_convexity(fan, oracle_divisors(fan, 7)[-1]).convex
    assert verdicts[0] is (name not in NOT_REGULAR | {"double_cover"})


def test_regular_matches_full_row_oracle_with_and_without_kept_on_random_fans():
    verdicts = [v for seed, fan in enumerate(random_fans()) for v in _matches_oracle_with_kept(fan, seed)]
    assert set(verdicts) == {True, False}


ORACLE_FANS = {
    **FANS,
    **LARGE_BERGMAN_FANS,
    "two_sheets": two_sheets,
    **{f"stellar-{name}": functools.partial(subdivided_fan, name) for name in SUBDIVIDED},
}


@pytest.mark.parametrize("name", sorted(ORACLE_FANS))
def test_regular_matches_full_row_oracle(name, monkeypatch):
    verdict = _matches_full_row_oracle(ORACLE_FANS[name], monkeypatch)
    assert verdict is not (name in NOT_REGULAR | {"double_cover"} or name.startswith("stellar-"))


def test_regular_matches_full_row_oracle_on_random_fans(monkeypatch):
    verdicts = [_matches_full_row_oracle(functools.partial(random_fan, seed), monkeypatch) for seed in range(40)]
    assert set(verdicts) == {True, False}


LADDER = {
    "U(4,7)": lambda: bergman_fan(uniform_matroid(4, 7)).fan,
    "U(5,7)": lambda: bergman_fan(uniform_matroid(5, 7)).fan,
    "U(6,8)": lambda: bergman_fan(uniform_matroid(6, 8)).fan,
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_validate_on_the_ladder_past_mk5(name, monkeypatch):
    """The rungs above M(K5) are valid by the regular route; the full-row
    oracle is cheap enough on U(4,7) alone.  On U(6,8) the particular
    functional passes at none of the 6720 maximal cones, and the relaxation
    step passes at all of them, so no LP runs."""
    build = LADDER[name]
    sizes = _lp_sizes(monkeypatch)
    fan = build()
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    if name == "U(6,8)":
        assert len(fan.maximal_cones) == 6720 and sizes == []
    if name == "U(4,7)":
        assert _matches_full_row_oracle(build, monkeypatch)


def test_validate_mk6_solves_no_lp(monkeypatch):
    """On M(K6) the particular functional passes at none of the 2700
    maximal cones, and at each the relaxation step over the rows of the
    rays it fails gives a functional below z on every ray: no LP."""
    sizes = _lp_sizes(monkeypatch)
    fan = bergman_fan(complete_graph_matroid(6)).fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert len(fan.maximal_cones) == 2700 and sizes == []


def test_validate_reports_no_route_without_simpliciality():
    fan = fraction_fan(
        ambient_dim=2,
        rays=tuple(fixtures.triangle_fan().fan.rays),
        maximal_cones=((0, 1, 2),),
    )
    report = validate(fan)
    assert not report.simplicial
    assert report.fan_condition_route is None


@pytest.mark.parametrize("name", sorted({**STOCK_FANS, **BERGMAN_FANS}))
def test_spanning_rays_is_the_greedy_basis(name):
    fan = FANS[name]()
    assert spanning_rays(fan) == greedy_spanning_rays(fan)


def test_spanning_rays_is_the_greedy_basis_on_random_and_rescaled_fans():
    """The pivots of the marks' int numerators, taken as columns, against
    the greedy basis on the 40 random fans and on rescaled copies, whose
    marks leave the integers."""
    fans = random_fans()
    fans += [rescaled_tropical(name, kind).fan for name in TROPICAL_FANS for kind in SCALES]
    fans += [rescaled_random(seed, kind) for seed in range(40) for kind in SCALES]
    assert any(d > 1 for fan in fans for _, d in fan.int_marks)
    for fan in fans:
        assert spanning_rays(fan) == greedy_spanning_rays(fan)


# ---------------------------------------------------------------------------
# the packed bound test against the per-ray scan


def _random_int_fan(rng: random.Random, n: int, count: int) -> MarkedFan:
    """count distinct random nonzero int marks in R^n; one maximal cone on
    ray 0, enough for _RayBounds, which reads only the marks."""
    rays = set()
    while len(rays) < count:
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(u):
            rays.add(u)
    return fraction_fan(ambient_dim=n, rays=tuple(map(vec, sorted(rays))), maximal_cones=((0,),))


def _packed_matches_scan(fan, z, rng: random.Random, trials: int) -> set:
    """RayBounds.violated against `scan`, the per-ray test, which must give
    the same rays in the same order, for random functionals, functionals at
    the slots' bound, and sigma on the first and the last ray, on a maximal
    cone, or empty; returns the verdicts (whether some ray fails) that the
    packed sum decided."""
    bounds = fan_module._RayBounds(fan, *over_lcd(z))
    last = len(fan.rays) - 1
    sigmas = [(), (0,), (last,), (0, last), *fan.maximal_cones]
    n = fan.ambient_dim
    # the largest |phi_j| with den = 1 that the slots still hold
    edge = (bounds.half - bounds.bz - 1) // max(bounds.bm, 1)
    seen = set()
    for _ in range(trials):
        sigma = rng.choice(sigmas)
        if rng.random() < 0.2:
            phi, den = [rng.choice((-edge, edge)) for _ in range(n)], 1
        else:
            phi, den = [rng.randint(-4, 4) for _ in range(n)], rng.randint(1, 3)
        assert max(map(abs, phi)) * bounds.bm + den * bounds.bz < bounds.half
        rays = bounds.violated(phi, den, sigma)
        assert rays == bounds.scan(phi, den, sigma), (phi, den, sigma)
        seen.add(bool(rays))
    # past the bound violated falls back to the scan
    for phi, den in (([edge + 1] + [0] * (n - 1), 1), ([0] * n, bounds.half)):
        assert max(map(abs, phi)) * bounds.bm + den * bounds.bz >= bounds.half
        assert bounds.violated(phi, den, (0,)) == bounds.scan(phi, den, (0,))
    return seen


def test_packed_bounds_match_scan_on_random_int_marks():
    rng = random.Random(11)
    seen = set()
    for trial in range(30):
        fan = _random_int_fan(rng, 2 + trial % 3, rng.randint(2, 9))
        z = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in fan.rays)
        seen |= _packed_matches_scan(fan, z, rng, 40)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["skeleton_q", "triangle_x_line_q"])
def test_packed_bounds_match_scan_on_rational_marks(name):
    inputs = GOLDEN / "inputs"
    fan = fan_from_json(json.loads((inputs / f"{name}.json").read_text()))[0]
    assert any(d > 1 for _, d in fan.int_marks)
    rng = random.Random(name)
    c = tuple(Fraction(v) for v in json.loads((inputs / f"{name}-c.json").read_text())["values"])
    seen = set()
    for z in (c, tuple(-v for v in c), tuple(v + Fraction(rng.randint(-3, 3), 4) for v in c)):
        seen |= _packed_matches_scan(fan, z, rng, 200)
        # the functionals _regular tries: z's particular functional on each
        # maximal cone, and its sum with random annihilator points
        bounds = fan_module._RayBounds(fan, *over_lcd(z))
        for sigma in fan.maximal_cones:
            q = fan.quotient(sigma)
            for w in ((ZERO,) * q.codim, tuple(Fraction(rng.randint(-6, 6), 4) for _ in range(q.codim))):
                phi, den = q.functional(*over_lcd([*(z[i] for i in sigma), *w]))
                assert bounds.violated(phi, den, sigma) == bounds.scan(phi, den, sigma)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the kept records and the shift


@pytest.mark.parametrize("name", ["Fano", "M(K4)"])
def test_shift_proves_drawn_divisors_without_lp(name, monkeypatch):
    """On the Bergman fan rescaled ray by ray, the strictly convex divisor w
    comes from the cut loop's master program and lies near the boundary of
    the cone of strictly convex divisors.  A divisor drawn around a multiple
    of w, scale * w + bump / 1024, is proved at every maximal cone by the
    shifted point of w's record, with no LP.  With nothing kept, each draw
    is proved too, but the relaxation step fails at some cones and
    programs decide them."""
    fan = rescaled_tropical(name, "mixed").fan
    w, route = strictly_convex_witness(fan)
    assert route == ROUTE_JOINT_LP
    kept = {w: _regular(fan, w, {})}
    sizes = _lp_sizes(monkeypatch)
    for seed in range(1, 4):
        rng = random.Random(seed)
        scale = rng.randint(1, 4)
        z = tuple(scale * v + Fraction(rng.randint(0, 12), 1024) for v in w)
        del sizes[:]
        record = _regular(fan, z, kept)
        assert record is not None and sizes == []
        check_record(fan, z, record)
        assert _regular(fan, z, {}) is not None and sizes


def test_zero_divisor_record_is_not_shifted(monkeypatch):
    """On a fan with one maximal cone the zero divisor is vacuously regular;
    its record has norm 0, so the next divisor is not shifted from it (lam
    would divide by zero) and is proved by its particular functional."""
    fan = fraction_fan(ambient_dim=2, rays=(vec((1, 0)), vec((0, 1))), maximal_cones=((0, 1),))
    sizes = _lp_sizes(monkeypatch)
    assert fan.regular((ZERO, ZERO))
    assert fan.regular((Fraction(1), Fraction(2)))
    assert sizes == []
    check_record(fan, (1, 2), fan._regulars[(1, 2)])
