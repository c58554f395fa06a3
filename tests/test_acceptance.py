"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Tolerances are zero unless a runtime bound is stated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from lorfan.convexity import classify_convexity, find_strictly_convex
from lorfan.fan import stellar_subdivide
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    two_disjoint_triangles,
)
from lorfan.linalg import inertia, vec
from lorfan.lorentzian import af_report, is_lorentzian, volume_polynomial
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.ops import polytope_bridge, product_tropical, tropical_modification
from lorfan.weights import (
    check_balancing,
    mixed_degree,
    pullback_divisor,
    quadratic_form,
    transport_weight,
)

from helpers import random_balanced_2fan, shoelace_of_vertex_list, skeleton_weight, smooth_complete_2fan


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def convex_pair(rng, fan, w1, w2):
    """Random nonnegative rational combinations of two strictly convex
    divisors; convexity is re-verified downstream by af_report."""

    def combo():
        s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        t = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        return tuple(s * a + t * b for a, b in zip(w1, w2))

    return combo(), combo()


def test_criterion_1_triangle_volume_form():
    with criterion(1, "triangle fan volume form is the rank-one square"):
        start = time.monotonic()
        tf = triangle_fan()
        matrix = quadratic_form(tf.fan, tf.weight)
        ones = Fraction(1)
        assert matrix == tuple(tuple(ones for _ in range(3)) for _ in range(3))
        assert inertia(matrix).astuple() == (1, 0, 2)
        assert time.monotonic() - start < 1.0


def test_criterion_2_coordinate_skeleton():
    with criterion(2, "coordinate 2-skeleton: Lorentzian, inertia (1,2,3), product weight balances"):
        start = time.monotonic()
        tf = coordinate_skeleton_fan()
        cert = is_lorentzian(tf)
        assert cert.verdict
        assert cert.star_records[0].inertia.astuple() == (1, 2, 3)
        assert check_balancing(tf.fan, skeleton_weight(1, 2, 3)) == ()
        assert time.monotonic() - start < 1.0


def test_criterion_3_bergman_fans():
    with criterion(3, "Bergman fans of U23, U24, U34, M(K4): balanced and Lorentzian"):
        start = time.monotonic()
        matroids = (
            uniform_matroid(2, 3),
            uniform_matroid(2, 4),
            uniform_matroid(3, 4),
            complete_graph_matroid(4),
        )
        for m in matroids:
            tf = bergman_fan(m)
            assert check_balancing(tf.fan, tf.weight) == ()
            assert is_lorentzian(tf).verdict
        assert time.monotonic() - start < 30.0


def test_criterion_4_subdivision_identity():
    with criterion(4, "planar subdivision identity and eigenvalue count, 20 seeded fans"):
        rng = random.Random(20250810)
        for _ in range(20):
            tf = random_balanced_2fan(rng)
            fan = tf.fan
            sigma = fan.maximal_cones[rng.randrange(len(fan.maximal_cones))]
            a1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            a2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            r1, r2 = sigma
            v = vec(
                [a1 * x + a2 * y for x, y in zip(fan.rays[r1], fan.rays[r2])]
            )
            res = stellar_subdivide(fan, v)
            fine = transport_weight(tf, res.fan, res.containment)
            coarse_poly = volume_polynomial(tf)
            fine_poly = volume_polynomial(fine)
            nrays = len(fan.rays)
            expected = {
                tuple(list(expo) + [0]): coeff for expo, coeff in coarse_poly.items()
            }
            terms = {res.new_ray: Fraction(1), res.ray_map[r1]: -a1, res.ray_map[r2]: -a2}
            factor = tf.weight[sigma] / (a1 * a2)
            for i, ci in terms.items():
                for j, cj in terms.items():
                    expo = [0] * (nrays + 1)
                    expo[i] += 1
                    expo[j] += 1
                    key = tuple(expo)
                    expected[key] = expected.get(key, Fraction(0)) - factor * ci * cj
            expected = {k: c for k, c in expected.items() if c != 0}
            assert fine_poly == expected
            p_coarse = inertia(quadratic_form(tf.fan, tf.weight)).p
            p_fine = inertia(quadratic_form(fine.fan, fine.weight)).p
            assert p_coarse == p_fine


def test_criterion_5_pinched_fan_detected():
    with criterion(5, "disjoint triangles: verdict no with origin pinch, non-unimodal sequence"):
        tf = two_disjoint_triangles()
        cert = is_lorentzian(tf)
        assert not cert.verdict
        assert () in cert.pinch_report.pinched_at
        d1 = vec([1, 1, 1, 0, 0, 0])
        d2 = vec([0, 0, 0, 1, 1, 1])
        report = af_report(tf, d1, d2)
        v2, middle, v1 = report.sequence
        assert v1 > 0 and v2 > 0 and middle == 0
        assert not report.unimodal


AF_FIXTURES = (
    ("triangle", triangle_fan),
    ("coordinate-skeleton", coordinate_skeleton_fan),
    ("triangle-x-line", triangle_times_line),
    ("spindle", spindle_fan),
    ("bergman-U34", lambda: bergman_fan(uniform_matroid(3, 4))),
    ("bergman-K4", lambda: bergman_fan(complete_graph_matroid(4))),
    ("bergman-fano", lambda: bergman_fan(fano_matroid())),
)


def test_criterion_6_af_suite():
    with criterion(6, "AF gap and log-concavity: 50 seeded convex pairs per Lorentzian fixture"):
        rng = random.Random(46)
        for name, build in AF_FIXTURES:
            tf = build()
            fan = tf.fan
            w1 = find_strictly_convex(fan)
            assert w1 is not None, name
            w2 = tuple(2 * v for v in w1)
            bump = vec([Fraction(1, 4)] * len(fan.rays))
            eps = Fraction(1)
            while not classify_convexity(
                fan, tuple(a + eps * b for a, b in zip(w2, bump)), strict=True
            ).strictly_convex:
                eps /= 2
            w2 = tuple(a + eps * b for a, b in zip(w2, bump))
            aux_count = max(tf.dimension - 2, 0)
            for _ in range(50):
                d1, d2 = convex_pair(rng, fan, w1, w2)
                aux = [convex_pair(rng, fan, w1, w2)[0] for _ in range(aux_count)]
                report = af_report(tf, d1, d2, aux)
                assert report.af_gap >= 0, name
                assert report.log_concave, name
                assert report.unimodal, name


def test_criterion_7_refinement_invariance():
    with criterion(7, "mixed degrees invariant under three chained subdivisions"):
        rng = random.Random(77)
        for build in (coordinate_skeleton_fan, triangle_times_line):
            base = build()
            divisors = [
                vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in base.fan.rays])
                for _ in range(base.dimension)
            ]
            expected = mixed_degree(base.fan, base.weight, divisors)
            current = base
            for _ in range(3):
                cone = current.fan.maximal_cones[
                    rng.randrange(len(current.fan.maximal_cones))
                ]
                v = vec(
                    [sum(col) for col in zip(*(current.fan.rays[i] for i in cone))]
                )
                res = stellar_subdivide(current.fan, v)
                current = transport_weight(current, res.fan, res.containment)
            pulled = [pullback_divisor(base.fan, z, current.fan) for z in divisors]
            assert mixed_degree(current.fan, current.weight, pulled) == expected


STELLAR_FIXTURES = (
    ("triangle", triangle_fan),
    ("coordinate-skeleton", coordinate_skeleton_fan),
    ("triangle-x-line", triangle_times_line),
    ("spindle", spindle_fan),
    ("disjoint-triangles", two_disjoint_triangles),
    ("bergman-K4", lambda: bergman_fan(complete_graph_matroid(4))),
)


def test_criterion_8_stellar_stability():
    with criterion(8, "verdicts agree across one stellar subdivision; witnesses persist"):
        for name, build in STELLAR_FIXTURES:
            tf = build()
            sigma = tf.fan.maximal_cones[0]
            v = vec([sum(col) for col in zip(*(tf.fan.rays[i] for i in sigma))])
            res = stellar_subdivide(tf.fan, v)
            fine = transport_weight(tf, res.fan, res.containment)
            coarse_cert = is_lorentzian(tf)
            fine_cert = is_lorentzian(fine)
            assert coarse_cert.verdict == fine_cert.verdict, name
            if coarse_cert.quasiprojective:
                assert find_strictly_convex(res.fan) is not None, name


def test_criterion_9_products_and_modifications():
    with criterion(9, "product verdict is the conjunction; modifications preserve verdicts"):
        t, l = triangle_fan(), line_fan()
        product = product_tropical(t, l)
        factors = is_lorentzian(t).verdict and is_lorentzian(l).verdict
        assert is_lorentzian(product).verdict is True
        assert is_lorentzian(product).verdict == factors
        rng = random.Random(99)
        for build in (triangle_fan, coordinate_skeleton_fan, spindle_fan, two_disjoint_triangles):
            tf = build()
            witness = find_strictly_convex(tf.fan)
            from lorfan.lorentzian import sample_strictly_convex

            z = sample_strictly_convex(tf.fan, witness, rng)
            modified = tropical_modification(tf, z)
            assert is_lorentzian(modified).verdict == is_lorentzian(tf).verdict, build.__name__


def test_criterion_10_polytope_oracle():
    with criterion(10, "triangle polytope degree 4 vs area 2; five seeded pairs match shoelace"):
        fan = triangle_fan().fan
        rhs = [Fraction(0), Fraction(1), Fraction(1)]
        res = polytope_bridge(fan, [rhs, rhs])
        assert res.degree == 4

        from helpers import polytope_vertices

        verts = polytope_vertices(fan, rhs)
        assert shoelace_of_vertex_list(fan, verts) == 2
        assert res.euclidean_value == 2

        rng = random.Random(1010)
        from lorfan.lorentzian import sample_strictly_convex

        for _ in range(5):
            pfan, _ = smooth_complete_2fan(rng, rng.randint(0, 5))
            witness = find_strictly_convex(pfan)
            p = sample_strictly_convex(pfan, witness, rng)
            q = sample_strictly_convex(pfan, witness, rng)
            s = tuple(a + b for a, b in zip(p, q))
            areas = {
                key: shoelace_of_vertex_list(pfan, polytope_vertices(pfan, z))
                for key, z in (("p", p), ("q", q), ("s", s))
            }
            mixed_area = (areas["s"] - areas["p"] - areas["q"]) / 2
            deg = polytope_bridge(pfan, [p, q]).degree
            # recorded normalization: euclidean = degree / 2!
            assert deg == 2 * mixed_area
