import random
from fractions import Fraction

import pytest

from lorfan.errors import DimensionError, PreconditionError
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
    SCALES,
    STOCK_FANS,
    facet_stellar_subdivide,
    fraction_fan,
    in_support,
    mat_vec,
    minimal_containing_cone,
    outcome,
    pair_search_complete,
    pair_search_pinches,
    random_fan,
    rescale_fan,
    stellar_points,
)


def test_validate_triangle_fan():
    report = validate(triangle_fan().fan)
    assert report.valid


def test_validate_overlapping_cones():
    fan = fraction_fan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([0, 1]), vec([1, 1]), vec([1, -1])),
        maximal_cones=((0, 1), (2, 3)),
    )
    report = validate(fan)
    assert not report.fan_condition
    assert not report.valid


def test_validate_dependent_marks():
    fan = fraction_fan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([2, 0])),
        maximal_cones=((0, 1),),
    )
    report = validate(fan)
    assert not report.simplicial


def test_validate_reports_purity_and_ray_usage():
    fan = fraction_fan(
        ambient_dim=2,
        rays=(vec([1, 0]), vec([0, 1]), vec([-1, 0])),
        maximal_cones=((0, 1), (2,)),
    )
    report = validate(fan)
    assert not report.pure
    fan2 = fraction_fan(
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
    return fraction_fan(ambient_dim=3, rays=rays, maximal_cones=((0, 1, 2), (1, 2, 3), (3, 4), (5,)))


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
        assert in_support(fan, point) == in_support(res.fan, point)


# the fans on which stellar_subdivide meets its facet oracle, each also
# rescaled ray by ray
STELLAR_FANS = {**STOCK_FANS, **BERGMAN_FANS, "U(4,6)": LARGE_BERGMAN_FANS["U(4,6)"]}


def _stellar_fan(name, kind):
    fan = STELLAR_FANS[name]()
    if kind is None:
        return fan
    return rescale_fan(fan, SCALES[kind](random.Random(f"stellar/{name}/{kind}"), len(fan.rays)))


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", sorted(STELLAR_FANS))
def test_stellar_matches_facet_oracle(name, kind):
    """At interior, wall and ray points, and at the origin and points
    outside the support, stellar_subdivide gives the facet oracle's fan,
    containment, ray map and new ray, or its exception and message."""
    fan = _stellar_fan(name, kind)
    for v in stellar_points(fan, random.Random(name)):
        assert outcome(lambda: stellar_subdivide(fan, v)) == outcome(lambda: facet_stellar_subdivide(fan, v)), v


@pytest.mark.parametrize(
    "make,v",
    [
        (lambda: coordinate_skeleton_fan().fan, [1, 1, 1]),
        (lambda: spindle_fan().fan, [0, 5, 0]),
        (lambda: point_fan(2), [1, 1]),
        (lambda: STELLAR_FANS["U(4,6)"](), [1, 2, 3, 4, 5]),
    ],
)
def test_stellar_refuses_points_outside_the_support_as_the_oracle(make, v):
    fan = make()
    assert not in_support(fan, vec(v))
    message = "subdivision point lies outside the support"
    assert outcome(lambda: stellar_subdivide(fan, vec(v))) == (PreconditionError, message)
    assert outcome(lambda: facet_stellar_subdivide(fan, vec(v))) == (PreconditionError, message)


def _interior_point(fan, rng):
    """A positive int combination of one maximal cone's marks, drawn as the
    structure benchmark draws its stellar point."""
    cone = rng.choice(fan.maximal_cones)
    coeffs = [rng.randint(1, 5) for _ in cone]
    return vec([sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone)) for j in range(fan.ambient_dim)])


@pytest.mark.parametrize(
    "make,point",
    [
        (LARGE_BERGMAN_FANS["U(4,6)"], lambda fan: _interior_point(fan, random.Random("stellar/U(4,6)"))),
        (lambda: coordinate_skeleton_fan().fan, lambda fan: vec([1, 0, 0])),
    ],
    ids=["U(4,6)-interior", "skeleton-ray"],
)
def test_stellar_reads_only_maximal_cone_records(make, point):
    """On a fresh fan, stellar_subdivide reads v's coordinates in each
    maximal cone's quotient record and builds no other: the facet route
    built 123 records for U(4,6)'s 120 cones at an interior point, and 17
    for the skeleton's 12 at (1, 0, 0)."""
    fan = make()
    stellar_subdivide(fan, point(fan))
    assert set(fan._quotients) == set(fan.maximal_cones)


def test_stellar_wall_point_splits_every_cone_around_the_wall():
    """U(4,6) at the sum of the marks of its first 2-cone, a wall point:
    four maximal cones contain it, each splits in two, and 120 cones become
    124, each new one on the new ray."""
    fan = LARGE_BERGMAN_FANS["U(4,6)"]()
    tau = fan.cones(2)[0]
    v = vec([sum(col) for col in zip(*(fan.rays[i] for i in tau))])
    assert v == vec([-1, -2, -2, -2, -2])
    res = stellar_subdivide(fan, v)
    split = {parent for c, parent in res.containment.items() if res.new_ray in c}
    assert split == set(fan.incident[tau]) and len(split) == 4
    assert len(res.fan.maximal_cones) == 124


_TRIANGLE_RAYS = (vec([1, 0]), vec([0, 1]), vec([-1, -1]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: fraction_fan(2, _TRIANGLE_RAYS, ((1, 0),)),
            PreconditionError,
            "maximal cones must be sorted tuples without repeats",
        ),
        (
            lambda: fraction_fan(2, _TRIANGLE_RAYS, ([0, 1],)),
            PreconditionError,
            "maximal cones must be sorted tuples without repeats",
        ),
        (
            lambda: fraction_fan(2, _TRIANGLE_RAYS, ((1, 1),)),
            PreconditionError,
            "maximal cones must be sorted tuples without repeats",
        ),
        (lambda: fraction_fan(2, _TRIANGLE_RAYS, ((0, 1), (0, 1))), PreconditionError, "duplicate maximal cone"),
        (lambda: fraction_fan(2, _TRIANGLE_RAYS, ((0, 3),)), PreconditionError, "cone refers to a missing ray"),
        (lambda: fraction_fan(2, _TRIANGLE_RAYS, ((-1, 0),)), PreconditionError, "cone refers to a missing ray"),
        (
            lambda: fraction_fan(2, (vec([1, 0, 0]),), ((0,),)),
            DimensionError,
            "ray mark has wrong ambient dimension",
        ),
    ],
    ids=[
        "unsorted-cone",
        "list-cone",
        "repeating-cone",
        "duplicate-cone",
        "missing-ray",
        "negative-ray-index",
        "mark-of-wrong-dimension",
    ],
)
def test_fan_refusals(call, error, message):
    """Each refusal raises its exception type with its message."""
    assert outcome(call) == (error, message)


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
