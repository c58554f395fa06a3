import random
from fractions import Fraction

import pytest

from lorfan.errors import PreconditionError
from lorfan.fan import (
    MarkedFan,
    components,
    is_unpinched,
    point_fan,
    product_fan,
    star,
    stellar_subdivide,
    validate,
)
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    two_disjoint_triangles,
)
from lorfan.linalg import vec
from lorfan.ops import is_complete

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    STOCK_FANS,
    mat_vec,
    minimal_containing_cone,
    pair_search_complete,
    pair_search_pinches,
    random_fan,
)


def test_validate_triangle_fan():
    report = validate(triangle_fan().fan)
    assert report.valid


def test_validate_overlapping_cones():
    fan = MarkedFan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([0, 1]), vec([1, 1]), vec([1, -1])),
        maximal_cones=((0, 1), (2, 3)),
    )
    report = validate(fan)
    assert not report.fan_condition
    assert not report.valid


def test_validate_dependent_marks():
    fan = MarkedFan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([2, 0])),
        maximal_cones=((0, 1),),
    )
    report = validate(fan)
    assert not report.simplicial


def test_validate_reports_purity_and_ray_usage():
    fan = MarkedFan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([0, 1]), vec([-1, 0])),
        maximal_cones=((0, 1), (2,)),
    )
    report = validate(fan)
    assert not report.pure
    fan2 = MarkedFan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([0, 1]), vec([-1, 0])),
        maximal_cones=((0, 1),),
    )
    assert not validate(fan2).all_rays_used


def test_enumerate_cones_triangle():
    fan = triangle_fan().fan
    assert len(fan.cones(1)) == 3
    assert fan.cones(0) == ((),)
    assert len(fan.cones(2)) == 3


def test_enumerate_cones_skeleton():
    fan = coordinate_skeleton_fan().fan
    assert len(fan.cones(2)) == 12
    assert len(fan.cones(1)) == 6


def test_enumerate_cones_out_of_range():
    with pytest.raises(PreconditionError):
        triangle_fan().fan.cones(3)


def test_star_at_ray_of_triangle():
    fan = triangle_fan().fan
    sd = star(fan, (0,))
    assert sd.fan.ambient_dim == 1
    assert sd.fan.dimension == 1
    assert set(sd.fan.rays) == {(Fraction(1),), (Fraction(-1),)}
    assert sd.lift == (1, 2)


def test_star_at_origin_is_identity():
    fan = triangle_fan().fan
    sd = star(fan, ())
    assert sd.fan is fan
    assert sd.lift == (0, 1, 2)


def test_star_of_skeleton_at_axis():
    fan = coordinate_skeleton_fan().fan
    sd = star(fan, (4,))  # +e3 ray
    assert sd.fan.ambient_dim == 2
    assert len(sd.fan.rays) == 4
    assert set(sd.fan.rays) == {
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    }


def test_star_of_star_matches_combined_apex():
    fan = triangle_times_line().fan
    for sigma in fan.maximal_cones:
        rays = list(sigma)
        first = star(fan, (rays[0],))
        # find the image of rays[1] in the first star
        pos = first.lift.index(rays[1])
        second = star(first.fan, (pos,))
        combined = star(fan, (rays[0], rays[1]))
        assert second.fan.rays == combined.fan.rays
        assert second.fan.maximal_cones == combined.fan.maximal_cones
        assert tuple(first.lift[i] for i in second.lift) == combined.lift


def test_unpinched_triangle_and_skeleton():
    assert is_unpinched(triangle_fan().fan).unpinched
    assert is_unpinched(coordinate_skeleton_fan().fan).unpinched
    assert is_unpinched(spindle_fan().fan).unpinched


def test_pinched_disjoint_triangles():
    report = is_unpinched(two_disjoint_triangles().fan)
    assert not report.unpinched
    assert () in report.pinched_at


def non_pure_fan() -> MarkedFan:
    """Two 3-cones on a common facet, a 2-cone on a ray of the second and a
    lone ray -e3: pinched at the origin, where the lone ray is cut off, and
    at -e1, where the 2-cone meets the second 3-cone in that ray alone."""
    rays = tuple(vec(u) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    return MarkedFan(ambient_dim=3, rays=rays, maximal_cones=((0, 1, 2), (1, 2, 3), (3, 4), (5,)))


def test_components_joins_groups():
    assert components([], []) == []
    assert components(["a", "b", "c", "d"], [("c", "a"), ("d",)]) == [["a", "c"], ["b"], ["d"]]
    assert components(["a", "b", "c"], [("a", "b"), ("c", "b")]) == [["a", "b", "c"]]


CONNECTIVITY_FANS = {**STOCK_FANS, **BERGMAN_FANS, **LARGE_BERGMAN_FANS, "non_pure": non_pure_fan}
CONNECTIVITY_FANS.update({f"random-{seed}": (lambda seed=seed: random_fan(seed)) for seed in range(40)})


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_FANS))
def test_connectivity_matches_pair_search(name):
    """is_unpinched and is_complete against the graph searches over every
    pair of maximal cones."""
    fan = CONNECTIVITY_FANS[name]()
    report = is_unpinched(fan)
    assert report.pinched_at == pair_search_pinches(fan)
    assert report.unpinched == (not report.pinched_at)
    assert is_complete(fan) == pair_search_complete(fan)
    if name == "non_pure":
        assert report.pinched_at == ((), (3,))
        assert not is_complete(fan)


def test_stellar_interior_of_cone():
    fan = triangle_fan().fan
    res = stellar_subdivide(fan, vec([1, 1]))
    assert len(res.fan.maximal_cones) == 4
    assert res.fan.rays[res.new_ray] == vec([1, 1])
    split = [c for c, parent in res.containment.items() if parent == (0, 1)]
    assert len(split) == 2


def test_stellar_on_existing_ray_relabels():
    fan = triangle_fan().fan
    res = stellar_subdivide(fan, vec([3, 0]))
    assert len(res.fan.maximal_cones) == 3
    assert len(res.fan.rays) == 3
    # same cone structure up to the new mark on the starred ray
    marks = set(res.fan.rays)
    assert vec([3, 0]) in marks
    assert vec([1, 0]) not in marks


def test_stellar_interior_of_three_cone():
    fan = triangle_times_line().fan
    sigma = fan.maximal_cones[0]
    v = vec([sum(col) for col in zip(*(fan.rays[i] for i in sigma))])
    res = stellar_subdivide(fan, v)
    assert len(res.fan.maximal_cones) == len(fan.maximal_cones) - 1 + 3


def test_stellar_rejects_bad_points():
    fan = triangle_times_line().fan
    with pytest.raises(PreconditionError):
        stellar_subdivide(fan, vec([0, 0, 0]))
    fan2 = spindle_fan().fan
    with pytest.raises(PreconditionError):
        stellar_subdivide(fan2, vec([0, 5, 0]))


def test_stellar_preserves_support():
    rng = random.Random(5)
    fan = coordinate_skeleton_fan().fan
    sigma = fan.maximal_cones[3]
    v = vec([sum(col) for col in zip(*(fan.rays[i] for i in sigma))])
    res = stellar_subdivide(fan, v)
    for _ in range(40):
        point = vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)])
        assert fan.in_support(point) == res.fan.in_support(point)


def test_product_counts():
    t, l = triangle_fan().fan, line_fan().fan
    p = product_fan(t, l)
    assert p.ambient_dim == 3
    assert len(p.rays) == 5
    assert len(p.maximal_cones) == 6
    assert all(len(c) == 3 for c in p.maximal_cones)


def test_product_with_point_fan():
    t = triangle_fan().fan
    p = product_fan(t, point_fan(0))
    assert p.ambient_dim == 2
    assert p.rays == t.rays
    assert p.maximal_cones == t.maximal_cones


def test_product_line_line():
    l = line_fan().fan
    p = product_fan(l, l)
    assert len(p.maximal_cones) == 4
    assert p.ambient_dim == 2


def test_product_cone_count_multiplies():
    s, t = coordinate_skeleton_fan().fan, triangle_fan().fan
    p = product_fan(s, t)
    assert len(p.maximal_cones) == len(s.maximal_cones) * len(t.maximal_cones)


def test_minimal_containing_cone():
    fan = triangle_fan().fan
    assert minimal_containing_cone(fan, vec([1, 1])) == (0, 1)
    assert minimal_containing_cone(fan, vec([2, 0])) == (0,)


def test_star_projection_kills_apex():
    fan = coordinate_skeleton_fan().fan
    sd = star(fan, (0,))
    assert all(v == 0 for v in mat_vec(sd.projection, fan.rays[0]))
