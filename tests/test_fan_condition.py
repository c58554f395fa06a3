"""The fan condition and the spanning rays against their definitions.

validate decides the fan condition by the regular route (the candidate
divisor as a height function, one LP per maximal cone) and falls back to one
separating LP per pair of maximal cones; both are compared with an overlap
oracle that solves for a common point of two cones directly.
"""

import itertools
import math

import pytest

from lorfan import fan as fan_module
from lorfan import fixtures
from lorfan.convexity import classify_convexity, spanning_rays
from lorfan.fan import ROUTE_PAIRS, ROUTE_REGULAR, _meet_in_shared_face, _regular, candidate_divisor, validate

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    SCALES,
    STOCK_FANS,
    TROPICAL_FANS,
    greedy_spanning_rays,
    overlap_witness,
    random_fans,
    rescaled_random,
    rescaled_tropical,
    triangle_double_cover,
)

FANS = {**STOCK_FANS, **BERGMAN_FANS, "double_cover": triangle_double_cover}
# valid fans that no height function fits, so the pairs route decides them
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
    """validate's verdict is the pair LPs' verdict, the regular route is
    sound, and the report names the route that decided; returns the route."""
    pairs = not any(_pair_verdicts(fan, _separated))
    regular = _regular(fan, candidate_divisor(fan))
    report = validate(fan)
    assert report.fan_condition == pairs
    assert pairs or not regular
    assert report.fan_condition_route == (ROUTE_REGULAR if regular else ROUTE_PAIRS)
    return report.fan_condition_route


@pytest.mark.parametrize("name", sorted(FANS))
def test_validate_matches_pair_verdict(name):
    route = _check_routes(FANS[name]())
    expected = ROUTE_PAIRS if name in NOT_REGULAR | {"double_cover"} else ROUTE_REGULAR
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
    assert not _regular(fan, z)
    report = validate(fan)
    assert report.simplicial and report.pure and report.all_rays_used
    assert not report.fan_condition
    assert report.fan_condition_route == ROUTE_PAIRS
    assert not report.valid


def test_validate_lp_calls_per_route(monkeypatch):
    original = fan_module.strict_feasible
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fan_module, "strict_feasible", counting)
    # regular route: one LP per maximal cone
    fan = fixtures.coordinate_skeleton_fan().fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert len(calls) == len(fan.maximal_cones) == 12
    # the first cone (0, 1) already fails the regular route, and then every
    # pair of the six cones gets its LP
    calls.clear()
    fan = triangle_double_cover()
    assert validate(fan).fan_condition_route == ROUTE_PAIRS
    assert fan.maximal_cones[0] == (0, 1)
    assert len(calls) == 1 + math.comb(len(fan.maximal_cones), 2) == 16


def test_validate_reports_no_route_without_simpliciality():
    fan = fan_module.MarkedFan(
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
