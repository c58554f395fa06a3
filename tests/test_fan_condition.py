"""The fan condition and the spanning rays against their definitions."""

import itertools
import math
import random

import pytest

from lorfan import fan as fan_module
from lorfan import fixtures
from lorfan.convexity import spanning_rays
from lorfan.fan import _meet_in_shared_face, validate
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid

from helpers import (
    greedy_spanning_rays,
    overlap_witness,
    random_simplicial_fan,
    triangle_double_cover,
)

STOCK = {
    "triangle": lambda: fixtures.triangle_fan().fan,
    "line": lambda: fixtures.line_fan().fan,
    "skeleton": lambda: fixtures.coordinate_skeleton_fan().fan,
    "triangle_x_line": lambda: fixtures.triangle_times_line().fan,
    "two_triangles": lambda: fixtures.two_disjoint_triangles().fan,
    "spindle": lambda: fixtures.spindle_fan().fan,
    "origin": lambda: fixtures.origin_fan(2).fan,
    "twisted_prism": lambda: fixtures.twisted_prism_fan().fan,
}
BERGMAN = {
    "M(K4)": lambda: bergman_fan(complete_graph_matroid(4)).fan,
    "Fano": lambda: bergman_fan(fano_matroid()).fan,
    "U(3,5)": lambda: bergman_fan(uniform_matroid(3, 5)).fan,
}
FANS = {**STOCK, **BERGMAN, "double_cover": triangle_double_cover}


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
    for seed in range(40):
        fan = random_simplicial_fan(random.Random(seed), 2 + seed % 2)
        verdicts = _pair_verdicts(fan, _separated)
        assert verdicts == _pair_verdicts(fan, overlap_witness), seed
        overlapping += sum(verdicts)
    assert overlapping > 0


def test_validate_double_cover():
    report = validate(triangle_double_cover())
    assert report.simplicial and report.pure and report.all_rays_used
    assert not report.fan_condition
    assert not report.valid


def test_validate_solves_one_lp_per_pair(monkeypatch):
    original = fan_module.strict_feasible
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fan_module, "strict_feasible", counting)
    fan = fixtures.coordinate_skeleton_fan().fan
    assert validate(fan).valid
    assert len(calls) == math.comb(len(fan.maximal_cones), 2)


@pytest.mark.parametrize("name", sorted({**STOCK, **BERGMAN}))
def test_spanning_rays_is_the_greedy_basis(name):
    fan = FANS[name]()
    assert spanning_rays(fan) == greedy_spanning_rays(fan)
