import random
import re
from fractions import Fraction

import pytest

from lorfan.errors import BalancingError, DimensionError, PreconditionError
from lorfan.fan import MarkedFan, Quotient, StellarSubdivision, star, stellar_subdivide
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    origin_fan,
    spindle_fan,
    triangle_fan,
    triangle_times_line,
    twisted_prism_fan,
    two_disjoint_triangles,
)
from lorfan.linalg import over_lcd, vec
from lorfan.matroids import bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.ops import product_tropical
from lorfan.weights import (
    MinkowskiWeight,
    TropicalFan,
    _in_span,
    _mark_sum,
    acted_weights,
    check_balancing,
    constant_weight,
    divisor_action,
    indicator_divisor,
    mixed_degree,
    mixed_degrees,
    pullback_divisor,
    push_divisor_to_star,
    quadratic_form,
    star_forms,
    star_weight,
    transport_weight,
    weight,
)

from helpers import (
    NON_PURE_FANS,
    fraction_fan,
    fraction_pullback_divisor,
    fraction_transport_weight,
    linear_divisor,
    outcome,
    random_fans,
    record_check_balancing,
    rescale_divisor,
    rescale_marking,
    SCALES,
    TROPICAL_FANS,
    TROPICAL_LADDER,
    rescaled_tropical,
    skeleton_weight,
    star_fan_forms,
    stellar_points,
    unused_ray_fan,
    zero_divisor_balancing,
)


def rand_divisor(rng, fan):
    return vec([Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in fan.rays])


def test_triangle_unit_weight_is_balanced():
    tf = triangle_fan()
    assert check_balancing(tf.fan, tf.weight) == ()


def test_skeleton_product_weight_is_balanced():
    tf = coordinate_skeleton_fan()
    w = skeleton_weight(1, 2, 3)
    assert sorted(set(w.values.values())) == [2, 3, 6]
    assert check_balancing(tf.fan, w) == ()


def test_broken_weight_reports_shared_rays():
    tf = triangle_fan()
    w = weight(2, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
    failing = check_balancing(tf.fan, w)
    assert set(failing) == {(0,), (1,)}


def _perturbed(rng, w: MinkowskiWeight) -> MinkowskiWeight:
    """w with one seeded cone's weight raised by a seeded positive amount."""
    values = dict(w.values)
    cone = rng.choice(sorted(values))
    values[cone] += Fraction(rng.randint(1, 3), rng.randint(1, 2))
    return MinkowskiWeight(w.degree, values)


def test_check_balancing_matches_zero_divisor_action():
    # every ray star of the two largest Bergman fans, with its balanced weight
    # and with a seeded unbalanced one, and the random fans, with unit and
    # seeded weights: the same failing cones, in the same order, as the
    # divisor action of the zero divisor
    rng = random.Random(7)
    cases = []
    for matroid in (uniform_matroid(4, 6), complete_graph_matroid(5)):
        tf = bergman_fan(matroid)
        for (ray,) in tf.fan.cones(1):
            stf = star_weight(tf, (ray,))
            cases += [(stf.fan, stf.weight), (stf.fan, _perturbed(rng, stf.weight))]
    for fan in random_fans():
        unit = MinkowskiWeight(fan.dimension, {c: Fraction(1) for c in fan.cones(fan.dimension)})
        cases += [(fan, unit), (fan, _perturbed(rng, unit))]
    failing = 0
    for fan, w in cases:
        found = check_balancing(fan, w)
        assert found == zero_divisor_balancing(fan, w)
        failing += bool(found)
    assert 0 < failing < len(cases)


# the ladder: the stock and small Bergman fans, U(4,6) and M(K5), each also
# with rescaled marks that leave the integers
SPAN_LADDER = {**TROPICAL_LADDER, "M(K5)": lambda: bergman_fan(complete_graph_matroid(5))}


def _span_cases():
    """(name, fan, weight) for the span tests: the ladder, its rescaled
    copies and the 4-dim triangle x triangle, whose walls are 3-cones, every
    ray star of the Bergman fans, and the random fans, each
    with its balanced (or unit) weight and with a seeded perturbation."""
    rng = random.Random("span tests")
    tropical = [(name, SPAN_LADDER[name]()) for name in SPAN_LADDER]
    tropical.append(("triangle x triangle", product_tropical(triangle_fan(), triangle_fan())))
    tropical += [
        (f"{name}-{kind}", rescaled_tropical(name, kind)) for name in TROPICAL_LADDER for kind in SCALES
    ]
    for name in ("M(K4)", "Fano", "U(3,5)", "U(4,6)", "M(K5)"):
        tf = SPAN_LADDER[name]()
        tropical += [(f"{name} star {ray}", star_weight(tf, (ray,))) for ray in range(len(tf.fan.int_marks))]
    cases = []
    for name, tf in tropical:
        cases += [(name, tf.fan, tf.weight), (f"{name} perturbed", tf.fan, _perturbed(rng, tf.weight))]
    for seed, fan in enumerate(random_fans()):
        unit = MinkowskiWeight(fan.dimension, {c: Fraction(1) for c in fan.cones(fan.dimension)})
        cases += [(f"random-{seed}", fan, unit), (f"random-{seed} perturbed", fan, _perturbed(rng, unit))]
    return cases


def test_span_tests_match_the_record_oracle():
    """At every codimension-one cone tau of every case, `_in_span` (no record
    of tau at the origin, a ray or a 2-cone) agrees with tau's quotient
    record, read on a copy of the fan, at the mark sum and at a seeded point
    of span(tau); and `check_balancing` with `record_check_balancing`."""
    rng = random.Random("span points")
    seen = {}
    for name, fan, w in _span_cases():
        oracle = MarkedFan(fan.ambient_dim, fan.int_marks, fan.maximal_cones)
        assert check_balancing(fan, w) == record_check_balancing(oracle, w), name
        for tau in fan.cones(w.degree - 1) if w.degree else ():
            ws, _ = over_lcd([w[sigma] for sigma, _ in fan.cofaces[tau]])
            total, _ = _mark_sum(fan, ws, tau)
            # a seeded int combination of tau's mark numerators
            coeffs = [rng.randint(-3, 3) for _ in tau]
            inside = [sum(c * fan.int_marks[i][0][j] for c, i in zip(coeffs, tau)) for j in range(fan.ambient_dim)]
            for point in (total, inside):
                expected = oracle.quotient(tau).in_span(point)
                assert _in_span(fan, tau, point) is expected, (name, tau, point)
                seen[len(tau), expected] = seen.get((len(tau), expected), 0) + 1
    # every size of cone the shortcut covers, in and out of the span, and a larger one
    assert {(k, v) for k in (0, 1, 2) for v in (True, False)} <= set(seen)
    assert (3, True) in seen


def test_span_tests_refuse_dependent_marks_like_the_record():
    """A 2-face on parallel marks raises the record's refusal, at the same
    cone; a 3-cone on dependent marks still reads the record."""
    rays = (vec([1, 0, 0]), vec([2, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1]))
    fan = fraction_fan(3, rays, ((0, 1, 2), (1, 2, 3)))
    w = constant_weight(fan)
    message = re.escape("cone (0, 1) has dependent marks")
    assert outcome(lambda: record_check_balancing(fan, w)) == (PreconditionError, "cone (0, 1) has dependent marks")
    with pytest.raises(PreconditionError, match=message):
        check_balancing(fan, w)
    with pytest.raises(PreconditionError, match=message):
        _in_span(fan, (0, 1), [1, 0, 0])
    flat = fraction_fan(3, (vec([1, 0, 0]), vec([0, 1, 0]), vec([1, 1, 0]), vec([0, 0, 1])), ((0, 1, 2, 3),))
    with pytest.raises(PreconditionError, match=re.escape("cone (0, 1, 2) has dependent marks")):
        _in_span(flat, (0, 1, 2), [1, 0, 0])


def test_check_balancing_missing_value():
    tf = triangle_fan()
    w = MinkowskiWeight(2, {(0, 1): Fraction(1)})
    with pytest.raises(PreconditionError):
        check_balancing(tf.fan, w)


def test_divisor_action_line_fan():
    tf = line_fan()
    out = divisor_action(tf.fan, tf.weight, vec([1, 1]))
    assert out.degree == 0
    assert out[()] == 2


def test_divisor_action_indicator_on_triangle():
    # the action of a single ray indicator yields the unit weight on every ray,
    # which is the only outcome consistent with balancing
    tf = triangle_fan()
    out = divisor_action(tf.fan, tf.weight, indicator_divisor(tf.fan, 0))
    assert [out[(i,)] for i in range(3)] == [1, 1, 1]
    assert check_balancing(tf.fan, out) == ()


def test_divisor_action_kills_linear_functions():
    tf = triangle_fan()
    z = linear_divisor(tf.fan, vec([5, -3]))
    out = divisor_action(tf.fan, tf.weight, z)
    assert all(v == 0 for v in out.values.values())


def test_divisor_action_rejects_unbalanced():
    tf = triangle_fan()
    broken = weight(2, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
    with pytest.raises(BalancingError):
        divisor_action(tf.fan, broken, vec([1, 1, 1]))


def test_divisor_action_output_balanced_random():
    rng = random.Random(31)
    for tf in (triangle_fan(), coordinate_skeleton_fan(), triangle_times_line()):
        for _ in range(5):
            z = rand_divisor(rng, tf.fan)
            out = divisor_action(tf.fan, tf.weight, z)
            assert check_balancing(tf.fan, out) == ()


def test_mixed_degree_pair_of_indicators():
    tf = triangle_fan()
    degree = mixed_degree(
        tf.fan,
        tf.weight,
        [indicator_divisor(tf.fan, 0), indicator_divisor(tf.fan, 1)],
    )
    assert degree == 1


def test_mixed_degree_all_ones_squared():
    tf = triangle_fan()
    ones = vec([1, 1, 1])
    assert mixed_degree(tf.fan, tf.weight, [ones, ones]) == 9


def test_mixed_degree_with_linear_factor_vanishes():
    tf = coordinate_skeleton_fan()
    z = linear_divisor(tf.fan, vec([2, -1, 7]))
    other = vec([1, 2, 3, 4, 5, 6])
    assert mixed_degree(tf.fan, tf.weight, [z, other]) == 0


def test_mixed_degree_arity():
    tf = triangle_fan()
    with pytest.raises(PreconditionError):
        mixed_degree(tf.fan, tf.weight, [vec([1, 1, 1])])


def test_mixed_degree_symmetric_multilinear():
    rng = random.Random(37)
    tf = triangle_times_line()
    for _ in range(4):
        a, b, c = (rand_divisor(rng, tf.fan) for _ in range(3))
        perm = [b, c, a]
        assert mixed_degree(tf.fan, tf.weight, [a, b, c]) == mixed_degree(
            tf.fan, tf.weight, perm
        )
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = tuple(s * v for v in a)
        summed = tuple(x + y for x, y in zip(a, b))
        d0 = mixed_degree(tf.fan, tf.weight, [a, b, c])
        assert mixed_degree(tf.fan, tf.weight, [scaled, b, c]) == s * d0
        assert (
            mixed_degree(tf.fan, tf.weight, [summed, b, c])
            == d0 + mixed_degree(tf.fan, tf.weight, [b, b, c])
        )


TROPICAL_FIXTURES = {
    "triangle": triangle_fan,
    "line": line_fan,
    "skeleton": coordinate_skeleton_fan,
    "triangle_x_line": triangle_times_line,
    "two_triangles": two_disjoint_triangles,
    "spindle": spindle_fan,
    "origin": lambda: origin_fan(2),
    "twisted_prism": twisted_prism_fan,
    "M(K4)": lambda: bergman_fan(complete_graph_matroid(4)),
    "Fano": lambda: bergman_fan(fano_matroid()),
    "U(3,5)": lambda: bergman_fan(uniform_matroid(3, 5)),
}


def iterated_action(fan, w, divisors):
    for z in divisors:
        w = divisor_action(fan, w, z)
    return w[()]


@pytest.mark.parametrize("name", sorted(TROPICAL_FIXTURES))
def test_mixed_degrees_match_separate_calls(name):
    tf = TROPICAL_FIXTURES[name]()
    rng = random.Random(name)
    divisors = [rand_divisor(rng, tf.fan) for _ in range(3)]
    sequences = [tuple(rng.randrange(3) for _ in range(tf.dimension)) for _ in range(8)]
    sequences += sequences[:2]
    values = mixed_degrees(tf.fan, tf.weight, divisors, sequences)
    assert len(values) == len(sequences)
    for seq, value in zip(sequences, values):
        chosen = [divisors[i] for i in seq]
        assert value == mixed_degree(tf.fan, tf.weight, chosen) == iterated_action(tf.fan, tf.weight, chosen)


def test_mixed_degrees_raise_like_separate_calls():
    """Each prefix acts with all its followers at once, yet the error raised
    is the first that the separate calls, in sequence order, raise."""
    tf = triangle_fan()
    ones, short = vec([1, 1, 1]), vec([1, 1])
    broken = weight(2, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
    cases = [
        (broken, [(0, 0)], BalancingError),
        (tf.weight, [(0, 0), (0, 1)], DimensionError),
        # an earlier sequence reaches the unbalanced weight before a later
        # one reaches the short divisor, as first or as second divisor
        (broken, [(0, 0), (1, 0)], BalancingError),
        (broken, [(0, 0), (0, 1)], BalancingError),
        (broken, [(1, 0), (0, 0)], DimensionError),
        (broken, [(0, 0), (0,)], BalancingError),
        (broken, [(0,), (0, 0)], PreconditionError),
        (broken, [(0, 0), (2, 0)], BalancingError),
    ]
    for w, sequences, error in cases:
        with pytest.raises(error) as separate:
            for seq in sequences:
                mixed_degree(tf.fan, w, [[ones, short][i] for i in seq])
        with pytest.raises(error) as shared:
            mixed_degrees(tf.fan, w, [ones, short], sequences)
        assert str(shared.value) == str(separate.value)


def test_star_weight_of_triangle_at_ray():
    tf = triangle_fan()
    out = star_weight(tf, (0,))
    assert out.fan.dimension == 1
    assert all(v == 1 for v in out.weight.values.values())


def test_star_weight_at_origin():
    tf = triangle_fan()
    out = star_weight(tf, ())
    assert out.weight.values == tf.weight.values


def test_star_weight_of_product_along_line_factor():
    tf = triangle_times_line()
    # the line factor contributes rays 3 (up) and 4 (down)
    out = star_weight(tf, (3,))
    assert out.fan.dimension == 2
    assert len(out.fan.rays) == 3
    assert check_balancing(out.fan, out.weight) == ()
    assert all(v == 1 for v in out.weight.values.values())


def test_reduction_to_star_fan():
    # degrees with a ray indicator factor drop to the star of that ray
    rng = random.Random(41)
    for tf in (coordinate_skeleton_fan(), triangle_times_line()):
        d = tf.dimension
        for ray in (0, 1):
            sd = star(tf.fan, (ray,))
            stf = star_weight(tf, (ray,), sd)
            for _ in range(3):
                divs = [rand_divisor(rng, tf.fan) for _ in range(d - 1)]
                lhs = mixed_degree(
                    tf.fan, tf.weight, divs + [indicator_divisor(tf.fan, ray)]
                )
                pushed = [push_divisor_to_star(sd, z) for z in divs]
                rhs = mixed_degree(stf.fan, stf.weight, pushed)
                assert lhs == rhs


# the stock fixtures (the twisted prism has non-unit weights), the Bergman
# ladder through U(5,8), the two four-dimensional products, and every copy
# of TROPICAL_FANS rescaled ray by ray
STAR_FORM_FANS = dict(TROPICAL_FANS)
STAR_FORM_FANS.update({
    "U(3,6)": lambda: bergman_fan(uniform_matroid(3, 6)),
    "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6)),
    "M(K5)": lambda: bergman_fan(complete_graph_matroid(5)),
    "U(5,8)": lambda: bergman_fan(uniform_matroid(5, 8)),
    "triangle x triangle": lambda: product_tropical(triangle_fan(), triangle_fan()),
    "triangle_x_line x line": lambda: product_tropical(triangle_times_line(), line_fan()),
})
STAR_FORM_FANS.update({
    f"{name}-{kind}": (lambda name=name, kind=kind: rescaled_tropical(name, kind))
    for name in TROPICAL_FANS for kind in SCALES
})


@pytest.mark.parametrize("name", STAR_FORM_FANS)
def test_star_forms_match_star_fans(name):
    """The forms read off the parent fan are those of the star fans, cone
    for cone in the same order and entry by entry."""
    tf = STAR_FORM_FANS[name]()
    forms = list(star_forms(tf.fan, tf.weight))
    assert forms == star_fan_forms(tf)
    d = tf.dimension
    assert [tau for tau, _ in forms] == list(tf.fan.cones(d - 2) if d >= 2 else ())


@pytest.mark.parametrize("name", ["triangle", "skeleton", "triangle_x_line", "twisted_prism", "M(K4)"])
def test_star_forms_refuse_unbalanced_weight_like_star_fans(name):
    """With one maximal cone's weight doubled, both routes refuse, and the
    parent-fan route names check_balancing's first failing cone."""
    tf = TROPICAL_FANS[name]()
    values = dict(tf.weight.values)
    values[tf.fan.maximal_cones[0]] *= 2
    broken = TropicalFan(tf.fan, MinkowskiWeight(tf.dimension, values))
    failing = check_balancing(broken.fan, broken.weight)
    assert failing
    with pytest.raises(BalancingError):
        star_fan_forms(broken)
    with pytest.raises(BalancingError, match=re.escape(f"weight is unbalanced at cone {failing[0]}")):
        list(star_forms(broken.fan, broken.weight))


def test_star_forms_below_degree_two_are_none():
    """A weight of degree one or zero has no (k-2)-cones, and nothing of it
    is read: not even its balancing."""
    fan = triangle_fan().fan
    assert list(star_forms(fan, weight(1, {(0,): 1, (1,): 5}))) == []
    assert list(star_forms(fan, weight(0, {(): 1}))) == []


def test_quadratic_form_keeps_a_row_for_a_ray_in_no_cone():
    """At the origin the rows are every ray, as the star there is the fan
    itself: a ray in no cone keeps a zero row and column."""
    fan = unused_ray_fan()
    w = weight(2, {c: 1 for c in fan.maximal_cones})
    one, zero = Fraction(1), Fraction(0)
    assert quadratic_form(fan, w) == ((one, one, one, zero),) * 3 + ((zero,) * 4,)


def test_rescale_identity():
    tf = triangle_fan()
    out = rescale_marking(tf, [1, 1, 1])
    assert out.fan.rays == tf.fan.rays
    assert out.weight.values == tf.weight.values


def test_rescale_halves_weights_on_scaled_ray():
    tf = triangle_fan()
    out = rescale_marking(tf, [2, 1, 1])
    assert out.fan.rays[0] == vec([2, 0])
    assert out.weight[(0, 1)] == Fraction(1, 2)
    assert out.weight[(0, 2)] == Fraction(1, 2)
    assert out.weight[(1, 2)] == 1
    assert check_balancing(out.fan, out.weight) == ()


def test_rescale_preserves_mixed_degrees():
    rng = random.Random(43)
    tf = coordinate_skeleton_fan()
    lam = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in tf.fan.rays]
    out = rescale_marking(tf, lam)
    for _ in range(4):
        divs = [rand_divisor(rng, tf.fan) for _ in range(2)]
        scaled = [rescale_divisor(z, lam) for z in divs]
        assert mixed_degree(tf.fan, tf.weight, divs) == mixed_degree(
            out.fan, out.weight, scaled
        )


def test_transport_unimodular_split():
    tf = triangle_fan()
    res = stellar_subdivide(tf.fan, vec([1, 1]))
    fine = transport_weight(tf, res.fan, res.containment)
    assert all(v == 1 for v in fine.weight.values.values())
    assert check_balancing(fine.fan, fine.weight) == ()


def test_transport_doubled_mark():
    # doubling the new ray's mark halves the weight on its cones, matching
    # the rescaling equivalence; anything else breaks balancing
    tf = triangle_fan()
    res = stellar_subdivide(tf.fan, vec([1, 1]))
    doubled = fraction_fan(
        ambient_dim=2,
        rays=tuple(
            vec([2 * x for x in u]) if i == res.new_ray else u
            for i, u in enumerate(res.fan.rays)
        ),
        maximal_cones=res.fan.maximal_cones,
    )
    fine = transport_weight(tf, doubled, res.containment)
    for c in doubled.maximal_cones:
        expected = Fraction(1, 2) if res.new_ray in c else 1
        assert fine.weight[c] == expected
    assert check_balancing(doubled, fine.weight) == ()


def test_transport_refuses_dependent_fine_marks():
    # the fine cone on (1, 0) and (2, 0) has determinant zero; it once
    # raised a bare ZeroDivisionError
    tf = triangle_fan()
    fine = fraction_fan(
        ambient_dim=2,
        rays=tf.fan.rays + (vec([2, 0]),),
        maximal_cones=tuple(sorted(tf.fan.maximal_cones + ((0, 3),))),
    )
    containment = {(0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 1), (1, 2): (1, 2)}
    with pytest.raises(PreconditionError, match=r"fine cone \(0, 3\) has linearly dependent marks"):
        transport_weight(tf, fine, containment)


def test_transport_nonunimodular_split_balances():
    tf = triangle_fan()
    res = stellar_subdivide(tf.fan, vec([2, 1]))
    fine = transport_weight(tf, res.fan, res.containment)
    assert check_balancing(fine.fan, fine.weight) == ()


def test_transport_trivial_refinement():
    tf = coordinate_skeleton_fan()
    fine = transport_weight(tf, tf.fan, {c: c for c in tf.fan.maximal_cones})
    assert fine.weight.values == tf.weight.values


def test_transport_rejects_wrong_containment():
    tf = triangle_fan()
    res = stellar_subdivide(tf.fan, vec([1, 1]))
    bad = {c: (1, 2) for c in res.fan.maximal_cones}
    with pytest.raises(PreconditionError):
        transport_weight(tf, res.fan, bad)


def test_transport_preserves_mixed_degrees():
    rng = random.Random(47)
    tf = triangle_fan()
    res = stellar_subdivide(tf.fan, vec([2, 1]))
    fine = transport_weight(tf, res.fan, res.containment)
    for _ in range(5):
        divs = [rand_divisor(rng, tf.fan) for _ in range(2)]
        pulled = [pullback_divisor(tf.fan, z, fine.fan) for z in divs]
        assert mixed_degree(tf.fan, tf.weight, divs) == mixed_degree(
            fine.fan, fine.weight, pulled
        )


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", list(TROPICAL_LADDER))
def test_transport_and_pullback_match_fraction_oracles(name, kind):
    """On the trivial refinement and at the points of the stellar facet
    oracle, the transported weight and pulled-back divisors equal those of
    the Fraction oracles, which find each fine cone's parent by its
    barycentre and so also check `containment`."""
    tf = TROPICAL_LADDER[name]() if kind is None else rescaled_tropical(name, kind)
    rng = random.Random(f"transport/{name}")
    refinements = [(tf.fan, {c: c for c in tf.fan.maximal_cones})]
    for v in stellar_points(tf.fan, random.Random(name)):
        res = outcome(lambda: stellar_subdivide(tf.fan, v))
        # the origin and points off the support are refused
        if isinstance(res, StellarSubdivision):
            refinements.append((res.fan, res.containment))
    assert len(refinements) > 1 or tf.dimension == 0
    for fine, containment in refinements:
        expected = fraction_transport_weight(tf, fine).weight.values
        assert transport_weight(tf, fine, containment).weight.values == expected
        for z in (rand_divisor(rng, tf.fan), rand_divisor(rng, tf.fan)):
            assert pullback_divisor(tf.fan, z, fine) == fraction_pullback_divisor(tf.fan, z, fine)


def test_pullback_reads_kept_rays_by_mark(monkeypatch):
    """On the U(4,6) wall subdivision every kept ray takes z at its coarse
    ray, so only the new ray is read in a coarse quotient record."""
    tf = bergman_fan(uniform_matroid(4, 6))
    res = stellar_subdivide(tf.fan, vec([-1, -2, -2, -2, -2]))
    z = rand_divisor(random.Random("pullback/U(4,6)"), tf.fan)
    expected = fraction_pullback_divisor(tf.fan, z, res.fan)
    assert all(expected[new] == z[old] for old, new in res.ray_map.items())
    calls = []
    in_span = Quotient.in_span
    monkeypatch.setattr(Quotient, "in_span", lambda q, nums: calls.append(nums) or in_span(q, nums))
    assert pullback_divisor(tf.fan, z, res.fan) == expected
    assert calls == [res.fan.int_marks[res.new_ray][0]]


# ---------------------------------------------------------------------------
# refusals


_ONES = (Fraction(1),) * 3
_OFF_SKELETON = fraction_fan(3, (vec([1, 1, 1]), vec([1, 0, 0])), ((0, 1),))
_ONE_RAY_IN_NO_CONE = fraction_fan(3, (vec([1, 0, 0]), vec([0, 1, 0])), ((0,),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: quadratic_form(triangle_fan().fan, weight(1, {(0,): 1, (1,): 1, (2,): 1})),
            PreconditionError,
            "a quadratic form needs a weight of degree two",
        ),
        (
            lambda: acted_weights(triangle_fan().fan, triangle_fan().weight, [_ONES], [(0, 0, 0)]),
            PreconditionError,
            "divisor action needs a weight of degree at least one",
        ),
        (
            lambda: push_divisor_to_star(star(triangle_fan().fan, (0,)), _ONES[:2]),
            DimensionError,
            "divisor has one value per ray",
        ),
        (
            lambda: pullback_divisor(triangle_fan().fan, _ONES[:2], triangle_fan().fan),
            DimensionError,
            "divisor has one value per ray",
        ),
        (
            lambda: pullback_divisor(coordinate_skeleton_fan().fan, _ONES * 2, _OFF_SKELETON),
            PreconditionError,
            "fine ray lies outside the coarse support",
        ),
        (
            lambda: pullback_divisor(_ONE_RAY_IN_NO_CONE, _ONES[:2], fraction_fan(3, (vec([0, 1, 0]),), ((0,),))),
            PreconditionError,
            "fine ray lies outside the coarse support",
        ),
        (
            lambda: pullback_divisor(coordinate_skeleton_fan().fan, _ONES * 2, triangle_fan().fan),
            DimensionError,
            "refinement lives in a different ambient space",
        ),
        (
            lambda: pullback_divisor(triangle_fan().fan, _ONES, fraction_fan(3, (vec([1, 0, 5]),), ((0,),))),
            DimensionError,
            "refinement lives in a different ambient space",
        ),
        (
            lambda: transport_weight(triangle_fan(), line_fan().fan, {(0,): (0, 1), (1,): (0, 2)}),
            DimensionError,
            "refinement lives in a different ambient space",
        ),
        (
            lambda: transport_weight(triangle_fan(), fraction_fan(2, (vec([1, 0]),), ((0,),)), {(0,): (0, 1)}),
            PreconditionError,
            "refinement must have the same dimension",
        ),
        (
            lambda: transport_weight(triangle_fan(), triangle_fan().fan, {(0, 1): (0, 7)}),
            PreconditionError,
            "fine cone (0, 1) maps to (0, 7), not a maximal cone of the coarse fan",
        ),
        (
            lambda: transport_weight(triangle_fan(), triangle_fan().fan, {(0, 2): (0, 2)}),
            PreconditionError,
            "fine cone (0, 1) has no coarse cone in the containment map",
        ),
        (
            lambda: transport_weight(triangle_fan(), triangle_fan().fan, {(0, 1): (0, 2)}),
            PreconditionError,
            "fine cone (0, 1) is not contained in coarse cone (0, 2)",
        ),
        (
            lambda: MinkowskiWeight(2, {(0,): Fraction(1)}),
            DimensionError,
            "weight key has wrong cone dimension",
        ),
        (
            lambda: TropicalFan(triangle_fan().fan, weight(1, {(0,): 1, (1,): 1, (2,): 1})),
            PreconditionError,
            "tropical weight must have top degree",
        ),
    ],
    ids=[
        "quadratic-form-below-degree-two",
        "acting-past-degree-zero",
        "push-divisor-of-wrong-length",
        "pullback-divisor-of-wrong-length",
        "pullback-ray-outside-the-support",
        "pullback-ray-on-a-coarse-ray-in-no-cone",
        "pullback-to-a-smaller-ambient-space",
        "pullback-to-a-larger-ambient-space",
        "transport-to-another-ambient-space",
        "transport-to-a-lower-dimension",
        "transport-to-a-cone-that-is-not-maximal",
        "transport-cone-missing-from-the-map",
        "transport-cone-outside-its-parent",
        "weight-key-of-wrong-size",
        "tropical-weight-below-top-degree",
    ],
)
def test_weights_refusals(call, error, message):
    """Each refusal raises its exception type with its message."""
    assert outcome(call) == (error, message)


@pytest.mark.parametrize("name", list(NON_PURE_FANS))
def test_non_pure_fan_refuses_nonpositive_top_weight(name):
    """The unit weight lies on the top maximal cones only, and a zero or
    negative value on one of them is refused."""
    fan = NON_PURE_FANS[name]()
    top = [c for c in fan.maximal_cones if len(c) == fan.dimension]
    assert constant_weight(fan).values == dict.fromkeys(top, 1)
    for value in (0, -1):
        values = {**dict.fromkeys(top, Fraction(1)), top[-1]: Fraction(value)}
        assert outcome(lambda: TropicalFan(fan, MinkowskiWeight(fan.dimension, values))) == (
            PreconditionError,
            f"weight must be positive; cone {top[-1]} fails",
        )
