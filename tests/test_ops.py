import random
from fractions import Fraction

import pytest

from lorfan.convexity import find_strictly_convex
from lorfan.errors import ConvexityError, PreconditionError
from lorfan.fan import candidate_divisor
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    two_disjoint_triangles,
)
from lorfan.lorentzian import is_lorentzian, sample_strictly_convex
from lorfan.matroids import bergman_fan, complete_graph_matroid
from lorfan.ops import (
    is_complete,
    polytope_bridge,
    product_tropical,
    act_divisor_fan,
    tropical_modification,
)
from lorfan.linalg import vec
from lorfan.weights import MinkowskiWeight, TropicalFan, check_balancing, mixed_degree

from helpers import polygon_area, polytope_vertices, shoelace_of_vertex_list, smooth_complete_2fan, triangle_double_cover


def test_product_tropical_unit_weights():
    tf = product_tropical(triangle_fan(), line_fan())
    assert tf.fan.dimension == 3
    assert all(v == 1 for v in tf.weight.values.values())
    assert check_balancing(tf.fan, tf.weight) == ()


def test_product_tropical_bilinear_in_weights():
    t = triangle_fan()
    doubled = product_tropical(
        t, line_fan()
    )
    from lorfan.weights import MinkowskiWeight, TropicalFan

    t2 = TropicalFan(
        t.fan, MinkowskiWeight(2, {c: 2 * v for c, v in t.weight.values.items()})
    )
    p = product_tropical(t2, line_fan())
    assert all(
        p.weight[c] == 2 * doubled.weight[c] for c in p.fan.maximal_cones
    )


def test_product_lorentzian():
    assert is_lorentzian(product_tropical(triangle_fan(), line_fan())).verdict


def test_act_divisor_on_triangle():
    tf = triangle_fan()
    out = act_divisor_fan(tf, vec([1, 1, 1]))
    assert out.fan.dimension == 1
    # iterating the action must reproduce deg(D^2) = 9 = 3+3+3
    assert sorted(out.weight.values.values()) == [3, 3, 3]
    assert check_balancing(out.fan, out.weight) == ()


def test_act_divisor_positivity_on_bergman():
    tf = bergman_fan(complete_graph_matroid(4))
    witness = find_strictly_convex(tf.fan)
    out = act_divisor_fan(tf, witness)
    assert all(v > 0 for v in out.weight.values.values())
    assert check_balancing(out.fan, out.weight) == ()


def test_act_divisor_rejects_nonstrict():
    tf = triangle_fan()
    with pytest.raises(ConvexityError):
        act_divisor_fan(tf, vec([0, 0, 0]))


def test_strict_ops_refuse_negated_candidate():
    # on a Bergman fan z is c_F, strictly convex, so -z is not
    tf = bergman_fan(complete_graph_matroid(4))
    neg = tuple(-v for v in candidate_divisor(tf.fan))
    for op, message in (
        (act_divisor_fan, "divisor action requires a strictly convex divisor"),
        (tropical_modification, "tropical modification requires a strictly convex divisor"),
    ):
        with pytest.raises(ConvexityError) as excinfo:
            op(tf, neg)
        assert str(excinfo.value) == message
        cert = excinfo.value.certificate
        assert cert.divisor == neg and not cert.strictly_convex and cert.failing


@pytest.mark.parametrize("op, message", [
    (act_divisor_fan, "divisor action needs a fan"),
    (tropical_modification, "tropical modification needs a fan"),
])
def test_strict_ops_refuse_double_cover(op, message):
    # without the validate gate both returned a weighted fan for this non-fan
    fan = triangle_double_cover()
    tf = TropicalFan(fan, MinkowskiWeight(2, {c: Fraction(1) for c in fan.maximal_cones}))
    with pytest.raises(PreconditionError) as excinfo:
        op(tf, vec([1] * 6))
    assert type(excinfo.value) is PreconditionError
    assert str(excinfo.value) == f"{message}: cones (0, 1) and (2, 4) overlap beyond their shared face"


def test_act_preserves_lorentzian():
    tf = triangle_times_line()
    witness = find_strictly_convex(tf.fan)
    out = act_divisor_fan(tf, witness)
    assert is_lorentzian(out).verdict


def test_modification_of_line_is_tropical_line():
    tf = line_fan()
    out = tropical_modification(tf, vec([1, 1]))
    assert out.fan.ambient_dim == 2
    assert set(out.fan.rays) == {
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    }
    assert sorted(out.weight.values.values()) == [1, 1, 2]
    assert check_balancing(out.fan, out.weight) == ()


def test_modification_of_triangle():
    tf = triangle_fan()
    out = tropical_modification(tf, vec([1, 1, 1]))
    assert out.fan.ambient_dim == 3
    assert out.fan.dimension == 2
    down_cones = [c for c in out.fan.maximal_cones if 3 in c]
    assert len(down_cones) == 3
    assert all(out.weight[c] == 3 for c in down_cones)
    assert check_balancing(out.fan, out.weight) == ()


def test_modification_preserves_verdict():
    rng = random.Random(73)
    for build in (triangle_fan, coordinate_skeleton_fan, spindle_fan, two_disjoint_triangles):
        tf = build()
        witness = find_strictly_convex(tf.fan)
        z = sample_strictly_convex(tf.fan, witness, rng)
        out = tropical_modification(tf, z)
        assert is_lorentzian(out).verdict == is_lorentzian(tf).verdict, build.__name__


def test_is_complete():
    assert is_complete(triangle_fan().fan)
    assert not is_complete(coordinate_skeleton_fan().fan)
    assert not is_complete(spindle_fan().fan)


def test_polytope_vertices_triangle():
    fan = triangle_fan().fan
    verts = polytope_vertices(fan, [Fraction(1), Fraction(1), Fraction(0)])
    assert verts[(0, 1)] == (Fraction(1), Fraction(1))
    assert set(verts.values()) == {
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    }


def test_polytope_bridge_triangle_oracle():
    fan = triangle_fan().fan
    rhs = [Fraction(0), Fraction(1), Fraction(1)]
    res = polytope_bridge(fan, [rhs, rhs])
    assert res.degree == 4
    assert polygon_area(fan, rhs) == 2
    assert res.euclidean_value == 2


def test_polytope_bridge_point():
    fan = triangle_fan().fan
    rhs = [Fraction(0)] * 3
    assert polytope_bridge(fan, [rhs, rhs]).degree == 0


def test_polytope_bridge_arity_and_completeness():
    fan = triangle_fan().fan
    with pytest.raises(PreconditionError):
        polytope_bridge(fan, [[Fraction(1)] * 3])
    with pytest.raises(PreconditionError):
        polytope_bridge(spindle_fan().fan, [[Fraction(1)] * 4] * 2)


def test_polytope_bridge_refuses_double_cover():
    # wall counts alone call the double cover complete; its degree with all
    # right-hand sides one would read 18, twice the triangle's 9
    fan = triangle_double_cover()
    assert is_complete(fan)
    with pytest.raises(PreconditionError, match="overlap") as excinfo:
        polytope_bridge(fan, [[Fraction(1)] * 6] * 2)
    assert str(excinfo.value) == (
        "mixed volumes need a fan: cones (0, 1) and (2, 4) overlap beyond their shared face"
    )
    assert polytope_bridge(triangle_fan().fan, [[Fraction(1)] * 3] * 2).degree == 9


def test_minkowski_sum_linearity():
    rng = random.Random(79)
    fan, _ = smooth_complete_2fan(rng, 4)
    witness = find_strictly_convex(fan)
    p = sample_strictly_convex(fan, witness, rng)
    q = sample_strictly_convex(fan, witness, rng)
    s = tuple(a + b for a, b in zip(p, q))
    deg_pp = polytope_bridge(fan, [p, p]).degree
    deg_qq = polytope_bridge(fan, [q, q]).degree
    deg_pq = polytope_bridge(fan, [p, q]).degree
    deg_ss = polytope_bridge(fan, [s, s]).degree
    assert deg_ss == deg_pp + 2 * deg_pq + deg_qq


def test_mixed_areas_match_shoelace_polarization():
    rng = random.Random(83)
    for _ in range(3):
        fan, _ = smooth_complete_2fan(rng, rng.randint(0, 5))
        witness = find_strictly_convex(fan)
        p = sample_strictly_convex(fan, witness, rng)
        q = sample_strictly_convex(fan, witness, rng)
        s = tuple(a + b for a, b in zip(p, q))
        areas = {}
        for name, rhs in (("p", p), ("q", q), ("s", s)):
            verts = polytope_vertices(fan, rhs)
            areas[name] = shoelace_of_vertex_list(fan, verts)
        mixed_area = (areas["s"] - areas["p"] - areas["q"]) / 2
        deg_pq = polytope_bridge(fan, [p, q]).degree
        # recorded normalization: euclidean = degree / n!
        assert deg_pq == 2 * mixed_area


def test_polytope_af_inequality_on_complete_lorentzian_fan():
    rng = random.Random(89)
    fan, tf = smooth_complete_2fan(rng, 4)
    assert is_lorentzian(tf).verdict
    witness = find_strictly_convex(fan)
    for _ in range(3):
        p = sample_strictly_convex(fan, witness, rng)
        q = sample_strictly_convex(fan, witness, rng)
        mixed = polytope_bridge(fan, [p, q]).degree
        assert mixed * mixed >= polytope_bridge(fan, [p, p]).degree * polytope_bridge(fan, [q, q]).degree
