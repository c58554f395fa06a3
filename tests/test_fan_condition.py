"""The fan condition and the spanning rays against their definitions.

validate decides the fan condition by the regular route (the candidate
divisor as a height function: one LP per maximal cone, its rows generated
from the rays of the cone's facet neighbours on) and falls back to one
separating LP per pair of maximal cones; both are compared with an overlap
oracle that solves for a common point of two cones directly, and the
regular route with the oracle that solves each cone's program on all its
rows at once.
"""

import functools
import itertools
import json
import math
from pathlib import Path

import pytest

from lorfan import fan as fan_module
from lorfan import fixtures
from lorfan.convexity import classify_convexity, spanning_rays
from lorfan.errors import PreconditionError
from lorfan.fan import MarkedFan, ROUTE_PAIRS, ROUTE_REGULAR, _meet_in_shared_face, _regular, candidate_divisor, validate
from lorfan.io import fan_from_json
from lorfan.linalg import vec
from lorfan.matroids import bergman_fan, complete_graph_matroid, uniform_matroid

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    SCALES,
    STOCK_FANS,
    TROPICAL_FANS,
    full_row_regular,
    greedy_spanning_rays,
    overlap_witness,
    random_fan,
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
    # regular route: one LP per maximal cone, on the rays of its facet
    # neighbours alone
    fan = fixtures.coordinate_skeleton_fan().fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert len(sizes) == len(fan.maximal_cones) == 12
    # the first cone (0, 1) starts from the 2 rays of its facet neighbours;
    # its functional is not below z on 2 more, and with those 4 rows no
    # functional is, so the regular route fails after 2 LPs; then every pair
    # of the six cones gets its LP
    sizes.clear()
    fan = triangle_double_cover()
    assert validate(fan).fan_condition_route == ROUTE_PAIRS
    assert fan.maximal_cones[0] == (0, 1)
    assert sizes[:2] == [2, 4]
    assert len(sizes) == 2 + math.comb(len(fan.maximal_cones), 2) == 17
    # on the Bergman ladder one round per cone, of at most 6 rows: U(3,6)
    # and M(K5) would take 570 and 8460 rows on every ray off each cone
    for matroid, lps, rows in ((uniform_matroid(3, 6), 30, 150), (complete_graph_matroid(5), 180, 930)):
        sizes.clear()
        fan = bergman_fan(matroid).fan
        assert validate(fan).fan_condition_route == ROUTE_REGULAR
        assert len(sizes) == len(fan.maximal_cones) == lps
        assert sum(sizes) == rows


def two_sheets() -> MarkedFan:
    """cone(e1, e2) and cone((1, 1, 1), e3) in R^3, which meet at the
    origin alone.  The first cone's facets lie in no other cone, so its
    program starts with no rows; the functional 3x + 3y it finds first is
    not below z = 3 at (1, 1, 1), and the second program, with that ray's
    row, finds 3x + 3y + w z for any w < -3."""
    rays = tuple(vec(u) for u in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    return MarkedFan(ambient_dim=3, rays=rays, maximal_cones=((0, 1), (2, 3)))


def test_regular_route_adds_rows_and_then_succeeds(monkeypatch):
    sizes = _lp_sizes(monkeypatch)
    fan = two_sheets()
    report = validate(fan)
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    assert sizes == [0, 1, 0]


def test_regular_verdict_is_kept_on_the_fan(monkeypatch):
    """A second fan.regular(z) solves no LP, and validate reads the kept
    verdict of the candidate divisor."""
    sizes = _lp_sizes(monkeypatch)
    fan = bergman_fan(complete_graph_matroid(4)).fan
    c, zero = candidate_divisor(fan), (0,) * len(fan.rays)
    assert fan.regular(c) and not fan.regular(zero)
    assert sizes
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


def _matches_full_row_oracle(build, monkeypatch) -> bool:
    """_regular against full_row_regular, and validate's report, route
    included, against the report validate gives with the oracle in its
    place, each on a fresh fan; returns the verdict."""
    z = candidate_divisor(build())
    verdict = _regular(build(), z)
    assert verdict == full_row_regular(build(), z)
    report = validate(build())
    with monkeypatch.context() as m:
        m.setattr(fan_module, "_regular", full_row_regular)
        assert validate(build()) == report
    return verdict


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
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_validate_on_the_ladder_past_mk5(name, monkeypatch):
    """The rungs above M(K5) are valid by the regular route; the full-row
    oracle is cheap enough on U(4,7) alone."""
    build = LADDER[name]
    report = validate(build())
    assert report.valid and report.fan_condition_route == ROUTE_REGULAR
    if name == "U(4,7)":
        assert _matches_full_row_oracle(build, monkeypatch)


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
