"""validate's walls route on complete fans, against the pairs route.

The route proves the fan condition of a pure fan of n-ray cones in R^n by
exact sign tests: every wall lies in two maximal cones on opposite sides of
its hyperplane, and one point off every wall's hyperplane lies in exactly
one maximal cone.  It runs no LP.  On every complete fixture it accepts and
the pairs route, one separating LP per pair of maximal cones, agrees; on
the controls it declines and the pairs route names the overlaps.
"""

import functools
import itertools
import json
import random

import pytest

from lorfan import cli, io
from lorfan import fan as fan_module
from lorfan import fixtures
from lorfan.fan import (
    ROUTE_PAIRS,
    ROUTE_REGULAR,
    ROUTE_WALLS,
    MarkedFan,
    _covered_once,
    _generic_point,
    _meet_in_shared_face,
    _wall_normals,
    candidate_divisor,
    is_complete,
    validate,
)
from lorfan.linalg import vec
from lorfan.lorentzian import is_lorentzian
from lorfan.weights import check_balancing

from helpers import (
    cone_contains,
    exact_facets,
    face_fan_double_cover,
    face_fan_points,
    fraction_fan,
    random_face_fan,
    rank,
    stellar_twisted_prism,
    triangle_double_cover,
    twisted_prism_times_line,
)

FACE_FAN_SEEDS = range(6)
COMPLETE_FANS = {
    "triangle": lambda: fixtures.triangle_fan().fan,
    "line": lambda: fixtures.line_fan().fan,
    "triangle_x_line": lambda: fixtures.triangle_times_line().fan,
    "twisted_prism": lambda: fixtures.twisted_prism_fan().fan,
    "twisted_prism_x_line": twisted_prism_times_line,
    **{f"stellar_twisted_prism-{seed}": functools.partial(stellar_twisted_prism, seed) for seed in range(4)},
    **{f"face-{seed}": (lambda seed=seed: random_face_fan(seed).fan) for seed in FACE_FAN_SEEDS},
    # 71 cones in R^4, where the pairs route solves 2485 LPs
    "face4-0": lambda: random_face_fan(0, count=20, d=4).fan,
}


def _lp_count(monkeypatch) -> list:
    """One entry per program fan.py solves from now on."""
    original = fan_module.strict_feasible
    calls = []
    monkeypatch.setattr(fan_module, "strict_feasible", lambda rows, dim: calls.append(dim) or original(rows, dim))
    return calls


def _overlapping_pairs(fan) -> list:
    return [(c1, c2) for c1, c2 in itertools.combinations(fan.maximal_cones, 2) if not _meet_in_shared_face(fan, c1, c2)]


@pytest.mark.parametrize("name", sorted(COMPLETE_FANS))
def test_walls_route_accepts_and_pairs_agree(name, monkeypatch):
    """The walls route accepts with no LP, the pairs route finds no overlap,
    and validate names the first route that proves the fan condition."""
    fan = COMPLETE_FANS[name]()
    lps = _lp_count(monkeypatch)
    assert _covered_once(fan) and lps == []
    assert _overlapping_pairs(fan) == []
    report = validate(fan)
    assert report.valid
    assert report.fan_condition_route == (ROUTE_REGULAR if fan.regular(candidate_divisor(fan)) else ROUTE_WALLS)


def test_walls_route_decides_some_face_fans_and_the_twisted_prism_family():
    routes = {name: validate(build()).fan_condition_route for name, build in COMPLETE_FANS.items()}
    assert routes["twisted_prism"] == routes["twisted_prism_x_line"] == ROUTE_WALLS
    assert all(routes[f"stellar_twisted_prism-{seed}"] == ROUTE_WALLS for seed in range(4))
    # c_F fits some face fans and not others
    assert {routes[f"face-{seed}"] for seed in FACE_FAN_SEEDS} == {ROUTE_REGULAR, ROUTE_WALLS}


@pytest.mark.parametrize("seed", FACE_FAN_SEEDS)
def test_face_fans_are_lorentzian(seed):
    """A face fan of a simplicial polytope with the origin inside is the
    normal fan of the polar polytope: its weight balances, is_lorentzian says
    yes, and its witness passes fan.regular on a fresh copy of the fan."""
    tf = random_face_fan(seed)
    assert check_balancing(tf.fan, tf.weight) == ()
    cert = is_lorentzian(tf)
    assert cert.verdict and cert.quasiprojective
    fresh = MarkedFan(tf.fan.ambient_dim, tf.fan.int_marks, tf.fan.maximal_cones)
    assert fresh.regular(cert.witness)


def test_exact_facets_refuses_a_point_on_a_facet():
    """The redraw rule's check: (4, 4, 4) lies on the plane of the facet
    through 12 e_1, 12 e_2 and 12 e_3."""
    from scipy.spatial import ConvexHull

    points = face_fan_points(random.Random(0), 0, 3)
    assert exact_facets(points, ConvexHull(points).simplices) is not None
    points.append((4, 4, 4))
    assert exact_facets(points, ConvexHull(points).simplices) is None


# ---------------------------------------------------------------------------
# controls: the walls route declines and the pairs route names the overlaps


def folded_fan() -> MarkedFan:
    """cone(e1, e2), cone(e2, (1, 1)) and cone(e1, (1, 1)): each ray lies in
    two cones, but at e1 and at e2 both cones lie on the same side."""
    rays = (vec([1, 0]), vec([0, 1]), vec([1, 1]))
    return fraction_fan(2, rays, ((0, 1), (0, 2), (1, 2)))


def three_cone_wall() -> MarkedFan:
    """The triangle fan with cone(e1, (1, -1)) added: the wall e1 lies in
    three cones, and the new cone lies inside cone(e1, -e1 - e2)."""
    rays = (vec([1, 0]), vec([0, 1]), vec([-1, -1]), vec([1, -1]))
    return fraction_fan(2, rays, ((0, 1), (0, 2), (0, 3), (1, 2)))


def test_double_cover_is_covered_twice():
    """Wall by wall the double cover passes: two cones at each wall, on
    opposite sides.  The generic point lies in two cones, so the pairs
    route decides, and its report keeps its overlaps."""
    fan = triangle_double_cover()
    assert is_complete(fan)
    normals = _wall_normals(fan)
    assert normals is not None
    p = _generic_point(normals)
    assert sum(cone_contains(fan, c, p) for c in fan.maximal_cones) == 2
    assert not _covered_once(fan)
    report = validate(fan)
    assert report.fan_condition_route == ROUTE_PAIRS and not report.fan_condition
    assert report.failures == tuple(f"cones {c1} and {c2} overlap beyond their shared face" for c1, c2 in _overlapping_pairs(fan))


@pytest.mark.parametrize("build, overlaps", [(folded_fan, [((0, 1), (0, 2)), ((0, 1), (1, 2))]), (three_cone_wall, [((0, 2), (0, 3))])])
def test_controls_reach_the_pairs_route(build, overlaps):
    """The folded fan passes the wall counts and fails the side test; the
    wall in three cones fails the counts."""
    fan = build()
    assert is_complete(fan) is (build is folded_fan)
    if build is folded_fan:
        assert _wall_normals(fan) is None
    assert not _covered_once(fan)
    report = validate(fan)
    assert report.fan_condition_route == ROUTE_PAIRS and not report.fan_condition
    assert _overlapping_pairs(fan) == overlaps
    assert report.failures == tuple(f"cones {c1} and {c2} overlap beyond their shared face" for c1, c2 in overlaps)


@pytest.mark.parametrize("seed", FACE_FAN_SEEDS)
def test_face_fan_double_cover_is_refused(seed, tmp_path, capsys):
    """A face fan with the new cones of the hull of its vertices less one
    covers that vertex's star twice: the walls route declines, the pairs
    route names the overlaps, and `lorfan validate` exits 3."""
    fan = face_fan_double_cover(seed)
    assert not _covered_once(fan)
    report = validate(fan)
    assert report.simplicial and report.pure and report.all_rays_used
    assert report.fan_condition_route == ROUTE_PAIRS and not report.fan_condition
    overlaps = _overlapping_pairs(fan)
    assert overlaps and report.failures == tuple(f"cones {c1} and {c2} overlap beyond their shared face" for c1, c2 in overlaps)
    path = tmp_path / "fan.json"
    path.write_text(io.dumps(io.fan_to_json(fan)))
    assert cli.main(["validate", "--fan", str(path)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["fan_condition"] is False and out["valid"] is False


# ---------------------------------------------------------------------------
# the generic point


@pytest.mark.parametrize("name", sorted(COMPLETE_FANS))
def test_generic_point_misses_every_wall(name):
    """p is on no wall's hyperplane: with any wall's marks it has full rank,
    in Fractions."""
    fan = COMPLETE_FANS[name]()
    p = _generic_point(_wall_normals(fan))
    n = fan.ambient_dim
    for tau in fan.cones(n - 1):
        assert rank([fan.rays[i] for i in tau] + [vec(p)]) == n, tau


def test_naive_point_lies_on_a_wall_of_the_triangle():
    """(1, 1) lies on the line through the ray (-1, -1), a wall of the
    triangle fan; the generic point does not."""
    fan = fixtures.triangle_fan().fan
    assert rank([fan.rays[2], vec([1, 1])]) == 1
    p = _generic_point(_wall_normals(fan))
    assert p[0] == 1 and p[1] > 2
    assert all(rank([fan.rays[i], vec(p)]) == 2 for i in range(3))


def test_generic_point_against_random_and_extreme_normals():
    """normal . p is never zero, for random int normals and for normals
    whose polynomial has a root near Cauchy's bound, such as t - M and
    t^2 - M t - M."""
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(1, 5)
        bound = rng.choice((1, 3, 50, 10**6))
        normals = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        normals = [u for u in normals if any(u)] or [[1] * n]
        p = _generic_point(normals)
        assert len(p) == n and p[0] == 1
        assert all(sum(a * x for a, x in zip(u, p)) for u in normals)
    for m in (1, 2, 7, 10**9):
        for u in ([-m, 1], [-m, -m, 1], [m, -m, -m, 1], [-m, 0, 0, 1], [0, -m, 1]):
            p = _generic_point([u])
            assert sum(a * x for a, x in zip(u, p)) != 0
            assert p[1] == m + 2
