"""The cone index, quotient records and neighborhood records of a fan against
brute-force scans and row-by-row oracles."""

import random
from fractions import Fraction

import pytest

from lorfan import fixtures
from lorfan.fan import neighborhood_rays, point_fan, star
from lorfan.linalg import mat, over_lcd
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.weights import push_divisor_to_star

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    STOCK_FANS,
    cone_coordinates,
    dot,
    fraction_rows,
    functional_rows,
    particulars,
    random_balanced_2fan,
    random_fan,
    rank,
    rref_quotient,
    scan_cofaces,
    scan_cones,
    scan_incident,
    scan_neighborhood,
)

FANS = {
    "triangle": lambda: fixtures.triangle_fan().fan,
    "line": lambda: fixtures.line_fan().fan,
    "skeleton": lambda: fixtures.coordinate_skeleton_fan().fan,
    "triangle_x_line": lambda: fixtures.triangle_times_line().fan,
    "two_triangles": lambda: fixtures.two_disjoint_triangles().fan,
    "spindle": lambda: fixtures.spindle_fan().fan,
    "origin": lambda: fixtures.origin_fan(2).fan,
    "point": lambda: point_fan(0),
    "twisted_prism": lambda: fixtures.twisted_prism_fan().fan,
    "M(K4)": lambda: bergman_fan(complete_graph_matroid(4)).fan,
    "Fano": lambda: bergman_fan(fano_matroid()).fan,
    "U(3,5)": lambda: bergman_fan(uniform_matroid(3, 5)).fan,
}
FANS.update({
    f"planar-{seed}": (lambda seed=seed: random_balanced_2fan(random.Random(seed)).fan)
    for seed in range(6)
})


@pytest.mark.parametrize("name", sorted(FANS))
def test_index_and_quotients_match_scans(name):
    fan = FANS[name]()
    for k in range(fan.dimension + 1):
        assert fan.cones(k) == scan_cones(fan, k)
    assert set(fan.incident) == set(fan.all_cones())
    rng = random.Random(name)
    z = tuple(rng.randint(-5, 5) for _ in fan.rays)
    for tau in fan.all_cones():
        assert fan.incident[tau] == scan_incident(fan, tau)
        assert fan.cofaces[tau] == scan_cofaces(fan, tau)
        assert neighborhood_rays(fan, tau) == scan_neighborhood(fan, tau)
        q = fan.quotient(tau)
        pivots, psis, annihilators = rref_quotient(fan, tau)
        assert (q.pivots, particulars(q), q.annihilators) == (pivots, psis, annihilators)
        marks = [fan.rays[i] for i in tau]
        for u in fan.rays:
            inside = q.in_span(over_lcd(u)[0])
            assert inside == (rank(mat(marks + [u])) == len(tau))
            assert inside == (cone_coordinates(fan, tau, u) is not None)
        sd = star(fan, tau)
        assert sd.projection == annihilators
        # the divisor pushed to the star is z minus the particular matching z on tau
        psi = [sum(z[i] * p[j] for i, p in zip(tau, psis)) for j in range(fan.ambient_dim)]
        expected = tuple(z[r] - sum(a * b for a, b in zip(psi, fan.rays[r])) for r in sd.lift)
        assert push_divisor_to_star(sd, z) == expected


RECORD_FANS = {**STOCK_FANS, **BERGMAN_FANS, **LARGE_BERGMAN_FANS}
RECORD_FANS.update({f"random-{seed}": (lambda seed=seed: random_fan(seed)) for seed in range(40)})


@pytest.mark.parametrize("name", sorted(RECORD_FANS))
def test_neighborhood_records_match_row_oracle(name):
    fan = RECORD_FANS[name]()
    rng = random.Random(name)
    z = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in fan.rays)
    for tau in fan.all_cones():
        hood = fan.neighborhood(tau)
        assert hood.rays == scan_neighborhood(fan, tau)
        base, rows = functional_rows(fan, z, tau, hood.rays)
        assert fraction_rows(hood.rows(z)) == rows
        sd = star(fan, tau)
        if tau:
            assert sd.fan.rays == tuple(a for a, _ in rows)
        expected = tuple(Fraction(z[r]) - dot(base, fan.rays[r]) for r in sd.lift)
        assert push_divisor_to_star(sd, z) == expected
