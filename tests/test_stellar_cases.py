"""Classification of codimension-two stars of a stellar subdivision.

Every such star must be (i) an untouched star of the parent, (ii) a stellar
subdivision of a parent star, (iii) a parent star at a larger apex, (iv) a
two-sided spindle, or (v) a complete triangle-like fan in a plane, depending
on where the subdivision point sits relative to the apex.
"""

import random

from lorfan.fan import (
    MarkedFan,
    product_fan,
    star,
    stellar_subdivide,
)
from lorfan.fixtures import coordinate_skeleton_fan, triangle_fan, triangle_times_line
from lorfan.linalg import mat, vec

from helpers import cone_contains, mat_vec, minimal_containing_cone, solve_linear


def canonical(fan: MarkedFan):
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    remap = {old: new for new, old in enumerate(order)}
    rays = tuple(fan.rays[i] for i in order)
    cones = frozenset(tuple(sorted(remap[i] for i in c)) for c in fan.maximal_cones)
    return (fan.ambient_dim, rays, cones)


def is_spindle(fan: MarkedFan) -> bool:
    # some pair of opposite rays such that every cone joins a leg to one of them
    pairs = []
    for i in range(len(fan.rays)):
        for j in range(i + 1, len(fan.rays)):
            coeffs = solve_linear(mat(tuple(zip(fan.rays[i]))), vec(fan.rays[j]))
            if coeffs is not None and coeffs[0] < 0:
                pairs.append((i, j))
    for axis in pairs:
        legs = [i for i in range(len(fan.rays)) if i not in axis]
        expected = {tuple(sorted((leg, a))) for leg in legs for a in axis}
        if set(fan.maximal_cones) == expected:
            return True
    return False


def is_triangle_like(fan: MarkedFan) -> bool:
    if len(fan.rays) != 3 or len(fan.maximal_cones) != 3:
        return False
    # marks are positively dependent and any two span the plane
    A = mat(tuple(zip(fan.rays[0], fan.rays[1])))
    coeffs = solve_linear(A, vec([-x for x in fan.rays[2]]))
    return coeffs is not None and all(c > 0 for c in coeffs)


def classify_and_check(parent: MarkedFan, v):
    res = stellar_subdivide(parent, vec(v))
    fine = res.fan
    d = fine.dimension
    to_parent = {new: old for old, new in res.ray_map.items()}
    pi = minimal_containing_cone(parent, vec(v))
    k = len(pi)
    seen_cases = set()
    for tau in fine.cones(d - 2):
        fine_star = star(fine, tau)
        if res.new_ray not in tau:
            tau_parent = tuple(sorted(to_parent[i] for i in tau))
            incident = [c for c in fine.maximal_cones if set(tau) <= set(c)]
            v_in_neighborhood = any(cone_contains(fine, c, vec(v)) for c in incident)
            parent_star = star(parent, tau_parent)
            if not v_in_neighborhood:
                case = "i"
                assert canonical(fine_star.fan) == canonical(parent_star.fan)
            else:
                case = "ii"
                v_bar = mat_vec(parent_star.projection, vec(v))
                refined_star = stellar_subdivide(parent_star.fan, v_bar)
                assert canonical(fine_star.fan) == canonical(refined_star.fan)
        else:
            tau_prime = tuple(sorted(to_parent[i] for i in tau if i != res.new_ray))
            overlap = len(set(tau_prime) & set(pi))
            if overlap == k - 1:
                case = "iii"
                merged = tuple(sorted(set(tau_prime) | set(pi)))
                assert canonical(fine_star.fan) == canonical(star(parent, merged).fan)
            elif overlap == k - 2:
                case = "iv"
                assert is_spindle(fine_star.fan)
            else:
                assert overlap == k - 3
                case = "v"
                assert is_triangle_like(fine_star.fan)
        seen_cases.add(case)
    return seen_cases


def test_planar_subdivisions_hit_cases_one_and_two():
    fan = coordinate_skeleton_fan().fan
    cases = classify_and_check(fan, [1, 1, 0])
    assert cases == {"ii"}


def test_product_fan_interior_of_facet_gives_spindle():
    fan = triangle_times_line().fan
    sigma = fan.maximal_cones[0]
    facet = sigma[:2]
    v = [sum(fan.rays[i][j] for i in facet) for j in range(3)]
    cases = classify_and_check(fan, v)
    assert "iv" in cases


def test_product_fan_interior_of_chamber_gives_triangle():
    fan = triangle_times_line().fan
    sigma = fan.maximal_cones[0]
    v = [sum(fan.rays[i][j] for i in sigma) for j in range(3)]
    cases = classify_and_check(fan, v)
    assert "v" in cases
    assert "i" in cases or "ii" in cases


def test_four_dimensional_product_hits_case_three():
    t = triangle_fan().fan
    fan = product_fan(t, t)
    rng = random.Random(97)
    seen = set()
    for trial in range(3):
        sigma = fan.maximal_cones[rng.randrange(len(fan.maximal_cones))]
        subset = sigma[:2]
        v = [sum(fan.rays[i][j] for i in subset) for j in range(4)]
        seen |= classify_and_check(fan, v)
    assert "iii" in seen
    assert "iv" in seen
