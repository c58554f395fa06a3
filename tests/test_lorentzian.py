import random
from fractions import Fraction

import pytest

from lorfan import fan as fan_module
from lorfan import lorentzian as lorentzian_module
from lorfan.convexity import ROUTE_CANDIDATE, ROUTE_JOINT_LP, classify_convexity, find_strictly_convex
from lorfan.errors import BalancingError, ConvexityError, PreconditionError
from lorfan.fan import candidate_divisor, stellar_subdivide
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
from lorfan.linalg import inertia, vec
from lorfan.matroids import bergman_fan, complete_graph_matroid, uniform_matroid
from lorfan.ops import product_tropical

from helpers import (
    SCALES,
    TROPICAL_FANS,
    classify_af_report,
    fraction_fan,
    hessian_of_quadratic,
    indicator_pairing_form,
    indicator_volume_polynomial,
    linear_divisor,
    poly_eval,
    rescaled_tropical,
    triangle_double_cover,
)
from lorfan.lorentzian import (
    af_report,
    definition_sample_check,
    is_log_concave,
    is_lorentzian,
    is_unimodal,
    volume_polynomial,
)
from lorfan.weights import (
    MinkowskiWeight,
    TropicalFan,
    check_balancing,
    mixed_degree,
    quadratic_form,
    transport_weight,
)


def volume_form(tf):
    return quadratic_form(tf.fan, tf.weight)


def test_triangle_volume_form_is_rank_one():
    matrix = volume_form(triangle_fan())
    assert matrix == tuple(tuple(Fraction(1) for _ in range(3)) for _ in range(3))
    assert inertia(matrix).astuple() == (1, 0, 2)


def test_spindle_volume_form_signature():
    assert inertia(volume_form(spindle_fan())).astuple() == (1, 1, 2)


def test_skeleton_volume_form_signature():
    matrix = volume_form(coordinate_skeleton_fan())
    assert inertia(matrix).astuple() == (1, 2, 3)
    # diagonal vanishes: opposite cones cancel around every axis
    assert all(matrix[i][i] == 0 for i in range(6))


def test_volume_polynomial_matches_2d_form():
    for tf in (triangle_fan(), coordinate_skeleton_fan(), spindle_fan()):
        poly = volume_polynomial(tf)
        H = hessian_of_quadratic(poly, len(tf.fan.rays))
        assert H == volume_form(tf)


def test_volume_polynomial_product_factorization():
    tf = triangle_times_line()
    poly = volume_polynomial(tf)
    # must equal 3 * (z0+z1+z2)^2 * (z3+z4)
    expected = {}
    for i in range(3):
        for j in range(3):
            for k in (3, 4):
                expo = [0] * 5
                expo[i] += 1
                expo[j] += 1
                expo[k] += 1
                key = tuple(expo)
                expected[key] = expected.get(key, 0) + 0
    # build exactly: 3 * sum_{i<=j} c_ij z_i z_j * (z3+z4)
    expected = {}
    from itertools import combinations_with_replacement

    for (i, j) in combinations_with_replacement(range(3), 2):
        coeff = Fraction(3) * (1 if i == j else 2)
        for k in (3, 4):
            expo = [0] * 5
            expo[i] += 1
            expo[j] += 1
            expo[k] += 1
            expected[tuple(expo)] = coeff
    assert poly == expected


def test_volume_polynomial_vanishes_on_linear_functionals():
    rng = random.Random(61)
    for tf in (triangle_fan(), triangle_times_line()):
        poly = volume_polynomial(tf)
        for _ in range(5):
            phi = vec([rng.randint(-4, 4) for _ in range(tf.fan.ambient_dim)])
            z = linear_divisor(tf.fan, phi)
            assert poly_eval(poly, z) == 0


def test_volume_polynomial_dimension_cap():
    tf = triangle_times_line()
    big = tf
    from lorfan.fan import product_fan
    from lorfan.weights import TropicalFan, constant_weight

    f = product_fan(big.fan, triangle_times_line().fan)
    with pytest.raises(PreconditionError):
        volume_polynomial(TropicalFan(f, constant_weight(f)))


# the stock fixtures, Bergman fans up to dimension three, the rescaled fans,
# and the two four-dimensional products, whose prefixes have two indices
VOLUME_FANS = dict(TROPICAL_FANS)
VOLUME_FANS.update({
    "U(3,6)": lambda: bergman_fan(uniform_matroid(3, 6)),
    "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6)),
    "triangle x triangle": lambda: product_tropical(triangle_fan(), triangle_fan()),
    "triangle_x_line x line": lambda: product_tropical(triangle_times_line(), line_fan()),
})
VOLUME_FANS.update({
    f"{name}-{kind}": (lambda name=name, kind=kind: rescaled_tropical(name, kind))
    for name in TROPICAL_FANS for kind in SCALES
})


@pytest.mark.parametrize("name", VOLUME_FANS)
def test_volume_polynomial_matches_indicator_oracle(name):
    tf = VOLUME_FANS[name]()
    assert volume_polynomial(tf) == indicator_volume_polynomial(tf)


@pytest.mark.parametrize("name", ["line", "triangle", "triangle_x_line"])
def test_volume_polynomial_refuses_unbalanced_weight_like_oracle(name):
    # one maximal cone's weight doubled; the quadratic form names the cone
    # as the indicator action does
    tf = TROPICAL_FANS[name]()
    values = dict(tf.weight.values)
    values[tf.fan.maximal_cones[0]] *= 2
    broken = TropicalFan(tf.fan, MinkowskiWeight(tf.dimension, values))
    tau = check_balancing(broken.fan, broken.weight)[0]
    with pytest.raises(BalancingError) as new:
        volume_polynomial(broken)
    with pytest.raises(BalancingError) as old:
        indicator_volume_polynomial(broken)
    assert str(old.value) == f"weight is unbalanced at cone {tau}"
    assert str(new.value) == str(old.value)


NO_STAR_FAN_CASES = {
    "triangle_x_line": triangle_times_line,
    "twisted_prism": twisted_prism_fan,
    "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6)),
    "M(K5)": lambda: bergman_fan(complete_graph_matroid(5)),
}


@pytest.mark.parametrize("name", NO_STAR_FAN_CASES)
def test_is_lorentzian_builds_no_star_fan(name, monkeypatch):
    """The verdict reads every star form off the parent fan: with `star` and
    `star_weight` refused, it gives the certificate it gives with them."""
    expected = is_lorentzian(NO_STAR_FAN_CASES[name]())

    def refuse(*args):
        raise AssertionError("the Lorentzian verdict built a star fan")

    monkeypatch.setattr(lorentzian_module, "star", refuse)
    monkeypatch.setattr(lorentzian_module, "star_weight", refuse)
    assert is_lorentzian(NO_STAR_FAN_CASES[name]()) == expected


def test_is_lorentzian_skeleton():
    cert = is_lorentzian(coordinate_skeleton_fan())
    assert cert.verdict
    assert cert.quasiprojective
    assert cert.star_records[0].inertia.astuple() == (1, 2, 3)


def test_is_lorentzian_fixtures():
    assert is_lorentzian(triangle_fan()).verdict
    assert is_lorentzian(line_fan()).verdict
    assert is_lorentzian(spindle_fan()).verdict
    assert is_lorentzian(triangle_times_line()).verdict
    assert is_lorentzian(origin_fan()).verdict


LARGE_MATROIDS = {"U(4,6)": lambda: uniform_matroid(4, 6), "M(K5)": lambda: complete_graph_matroid(5)}


@pytest.mark.parametrize("name", sorted(LARGE_MATROIDS))
def test_large_bergman_fans_are_lorentzian_by_the_candidate(monkeypatch, name):
    # the largest fans of the ladder: validate takes the regular route, so
    # no pair LP runs, and the candidate divisor is the witness
    pair_lps = []
    pairs = fan_module._meet_in_shared_face
    monkeypatch.setattr(fan_module, "_meet_in_shared_face", lambda *args: pair_lps.append(args) or pairs(*args))
    tf = bergman_fan(LARGE_MATROIDS[name]())
    cert = is_lorentzian(tf)
    assert pair_lps == []
    assert cert.verdict and cert.quasiprojective
    assert cert.witness_route == ROUTE_CANDIDATE
    assert cert.witness == candidate_divisor(tf.fan)
    assert cert.pinch_report.unpinched
    assert len(cert.star_records) == len(tf.fan.cones(tf.dimension - 2))
    assert all(r.inertia.p == 1 for r in cert.star_records)


def test_is_lorentzian_refuses_double_cover():
    # wall by wall it looks like the triangle fan, and without the validate
    # gate it was certified quasiprojective
    fan = triangle_double_cover()
    tf = TropicalFan(fan, MinkowskiWeight(2, {c: Fraction(1) for c in fan.maximal_cones}))
    with pytest.raises(PreconditionError, match="overlap") as excinfo:
        is_lorentzian(tf)
    assert str(excinfo.value) == (
        "the Lorentzian test needs a fan: cones (0, 1) and (2, 4) overlap beyond their shared face"
    )


def test_disjoint_triangles_not_lorentzian():
    cert = is_lorentzian(two_disjoint_triangles())
    assert not cert.verdict
    assert cert.quasiprojective
    assert () in cert.pinch_report.pinched_at


def test_lorentzian_invariant_under_rescaling():
    from helpers import rescale_marking

    rng = random.Random(67)
    for tf in (coordinate_skeleton_fan(), two_disjoint_triangles()):
        lam = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in tf.fan.rays]
        assert is_lorentzian(rescale_marking(tf, lam)).verdict == is_lorentzian(tf).verdict


def test_af_equal_arguments_triangle():
    tf = triangle_fan()
    ones = vec([1, 1, 1])
    report = af_report(tf, ones, ones)
    assert report.af_gap == 0
    assert report.sequence == (9, 9, 9)
    assert report.log_concave and report.unimodal


def test_af_disjoint_supports_not_unimodal():
    tf = two_disjoint_triangles()
    d1 = vec([1, 1, 1, 0, 0, 0])
    d2 = vec([0, 0, 0, 1, 1, 1])
    report = af_report(tf, d1, d2)
    assert report.sequence[0] > 0 and report.sequence[2] > 0
    assert report.sequence[1] == 0
    assert not report.unimodal


def test_af_rejects_nonconvex():
    tf = triangle_fan()
    with pytest.raises(ConvexityError):
        af_report(tf, vec([-1, 0, 0]), vec([1, 1, 1]))


def _af_inputs():
    """triangle x line with a strictly convex d1, a second convex d2, and the
    negated d1, which is not convex.  d2 is drawn on a second copy of the
    fan, so the fan of the reports keeps no verdict on it."""
    from lorfan.lorentzian import sample_strictly_convex

    tf = triangle_times_line()
    d1 = find_strictly_convex(tf.fan)
    d2 = sample_strictly_convex(triangle_times_line().fan, d1, random.Random(5))
    return tf, d1, d2, tuple(-v for v in d1)


def test_af_checks_each_distinct_divisor_once(monkeypatch):
    """Each distinct divisor is decided once per fan, however often it is
    passed: `_regular` once, and classify_convexity only after `_regular`
    fails.  The candidate divisor's verdict is already kept on the fan by
    find_strictly_convex, a regular divisor is proved by `_regular`, with no
    LP from the points it tries first, and the zero divisor, convex but not
    strictly, by classify_convexity after `_regular`'s first program, on 2
    rows, has no point."""
    from lorfan import convexity

    tf, _, d2, _ = _af_inputs()
    c = candidate_divisor(tf.fan)
    zero = (Fraction(0),) * len(c)
    decisions, sizes = [], []
    regular, classify = fan_module._regular, convexity.classify_convexity
    feasible = fan_module.strict_feasible

    def counted_feasible(rows, dim):
        sizes.append(len(rows))
        return feasible(rows, dim)

    def counted_regular(fan, z, kept):
        decisions.append(("regular", tuple(z)))
        return regular(fan, z, kept)

    def counted_classify(fan, z, strict=False):
        decisions.append(("classify", tuple(z)))
        return classify(fan, z, strict=strict)

    monkeypatch.setattr(fan_module, "_regular", counted_regular)
    monkeypatch.setattr(fan_module, "strict_feasible", counted_feasible)
    monkeypatch.setattr(convexity, "classify_convexity", counted_classify)
    report = af_report(tf, c, d2, [d2])
    assert decisions == [("regular", tuple(d2))]
    assert sizes == []
    w = tf.weight
    mixed, sq1, sq2 = (mixed_degree(tf.fan, w, seq) for seq in ([c, d2, d2], [c, c, d2], [d2, d2, d2]))
    assert report.af_gap == mixed * mixed - sq1 * sq2
    assert report.sequence == tuple(mixed_degree(tf.fan, w, [c] * k + [d2] * (3 - k)) for k in range(4))

    decisions.clear()
    af_report(tf, zero, c, [zero])
    assert decisions == [("regular", zero), ("classify", zero)]
    assert sizes == [2]

    # the verdicts stay on the fan: a second report decides nothing again
    decisions.clear()
    assert af_report(tf, c, d2, [d2]) == report
    assert decisions == []


def test_af_refuses_double_cover():
    # without the validate gate this non-fan got an AF gap of 0
    fan = triangle_double_cover()
    tf = TropicalFan(fan, MinkowskiWeight(2, {c: Fraction(1) for c in fan.maximal_cones}))
    ones = vec([1] * 6)
    with pytest.raises(PreconditionError) as excinfo:
        af_report(tf, ones, ones)
    assert str(excinfo.value) == (
        "AF reports need a fan: cones (0, 1) and (2, 4) overlap beyond their shared face"
    )


@pytest.mark.parametrize("length", [2, 4])
def test_af_refuses_wrong_length_divisors(length):
    tf = triangle_fan()
    ones, wrong = vec([1, 1, 1]), vec([1] * length)
    for d1, d2 in ((wrong, ones), (ones, wrong)):
        with pytest.raises(PreconditionError) as excinfo:
            af_report(tf, d1, d2)
        assert type(excinfo.value) is PreconditionError
        assert str(excinfo.value) == "divisor has one value per ray"


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", list(TROPICAL_FANS))
def test_af_routes_match_classify_oracle(name, kind):
    """On each fixture, as given and rescaled ray by ray, with its candidate
    divisor, a sampled divisor (strictly convex when the fan has a strictly
    convex divisor) and the sample negated: `_regular` implies strict
    convexity, and af_report agrees with the classify-only oracle on its
    values, or on the certificate of its ConvexityError."""
    from lorfan.lorentzian import sample_strictly_convex

    tf = TROPICAL_FANS[name]() if kind is None else rescaled_tropical(name, kind)
    fan = tf.fan
    rng = random.Random(f"af-routes/{name}/{kind}")
    witness = find_strictly_convex(fan)
    if witness is None:
        sampled = vec(rng.randint(-2, 6) for _ in fan.rays)
    else:
        sampled = sample_strictly_convex(fan, witness, rng)
    divisors = [candidate_divisor(fan), sampled, tuple(-v for v in sampled)]
    for z in divisors:
        if fan_module._regular(fan, z, {}) is not None:
            assert classify_convexity(fan, z, strict=True).strictly_convex
    if fan.dimension < 2:
        return
    for d1, d2 in zip(divisors, divisors[1:] + divisors[:1]):
        aux = [d1] * (fan.dimension - 2)
        try:
            expected = classify_af_report(tf, d1, d2, aux)
        except ConvexityError as exc:
            with pytest.raises(ConvexityError) as excinfo:
                af_report(tf, d1, d2, aux)
            assert excinfo.value.certificate == exc.certificate
        else:
            assert af_report(tf, d1, d2, aux) == expected


def test_af_rejects_nonconvex_auxiliary(tmp_path, capsys):
    from lorfan import io
    from lorfan.cli import main

    tf, d1, d2, bad = _af_inputs()
    with pytest.raises(ConvexityError) as excinfo:
        af_report(tf, d1, d2, [bad])
    cert = excinfo.value.certificate
    assert cert.divisor == bad and not cert.convex and cert.failing

    paths = {}
    for name, payload in (
        ("fan", io.tropical_to_json(tf)),
        ("d1", io.divisor_to_json(d1)),
        ("d2", io.divisor_to_json(d2)),
        ("aux", {"divisors": [io.divisor_to_json(bad)]}),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(io.dumps(payload))
    argv = ["af"] + [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
    assert main(argv) == 3
    assert "not convex" in capsys.readouterr().err


def test_af_gap_nonnegative_on_lorentzian_samples():
    from lorfan.lorentzian import sample_strictly_convex

    rng = random.Random(71)
    for tf in (triangle_fan(), coordinate_skeleton_fan(), triangle_times_line()):
        witness = find_strictly_convex(tf.fan)
        aux_count = max(tf.dimension - 2, 0)
        for _ in range(3):
            d1 = sample_strictly_convex(tf.fan, witness, rng)
            d2 = sample_strictly_convex(tf.fan, witness, rng)
            aux = [sample_strictly_convex(tf.fan, witness, rng) for _ in range(aux_count)]
            report = af_report(tf, d1, d2, aux)
            assert report.af_gap >= 0
            assert report.log_concave and report.unimodal


def test_sequence_shape_helpers():
    assert is_unimodal([1, 2, 2, 1])
    assert not is_unimodal([2, 1, 2])
    assert is_log_concave([1, 3, 9, 26])
    assert not is_log_concave([1, 1, 2])


def test_definition_sample_check_skeleton():
    tf = coordinate_skeleton_fan()
    report = definition_sample_check(tf, find_strictly_convex(tf.fan), samples=2, seed=9)
    assert report.all_lorentzian_signs
    # with no auxiliary divisors the origin record is the volume form itself
    origin = next(r for r in report.records if r.cone == ())
    assert all(p == 1 for p in origin.positive_counts)


def test_definition_sample_check_product():
    tf = triangle_times_line()
    report = definition_sample_check(tf, find_strictly_convex(tf.fan), samples=2, seed=10)
    assert report.all_lorentzian_signs


def test_definition_sample_check_cross_validates_bergman():
    from lorfan.matroids import bergman_fan, complete_graph_matroid

    tf = bergman_fan(complete_graph_matroid(4))
    cert = is_lorentzian(tf)
    assert cert.verdict
    report = definition_sample_check(tf, cert.witness, samples=1, seed=11)
    assert report.all_lorentzian_signs


def test_definition_sample_check_sees_pinch_signature():
    tf = two_disjoint_triangles()
    report = definition_sample_check(tf, find_strictly_convex(tf.fan), samples=1, seed=3)
    # pinched fan: the origin star exposes more than one positive eigenvalue
    origin = next(r for r in report.records if r.cone == ())
    assert any(p != 1 for p in origin.positive_counts)


def test_definition_sample_check_requires_quasiprojective():
    # the twisted prism has no strictly convex divisor, so no witness
    from lorfan.fixtures import twisted_prism_fan

    with pytest.raises(PreconditionError):
        definition_sample_check(twisted_prism_fan(), None, samples=1, seed=3)


def test_definition_sample_check_requires_a_sample():
    tf = coordinate_skeleton_fan()
    witness = find_strictly_convex(tf.fan)
    for samples in (0, -1):
        with pytest.raises(PreconditionError):
            definition_sample_check(tf, witness, samples=samples, seed=3)


def test_definition_sample_check_requires_strictly_convex_witness():
    tf = triangle_fan()
    for z in ([0, 0, 0], [-1, 0, 0], [1, 1]):
        with pytest.raises(PreconditionError):
            definition_sample_check(tf, vec(z), samples=1, seed=3)


def test_refusals_of_negated_candidate_carry_certificates():
    # on a Bergman fan z is c_F, strictly convex, so -z is not even convex
    tf = bergman_fan(complete_graph_matroid(4))
    neg = tuple(-v for v in candidate_divisor(tf.fan))
    with pytest.raises(ConvexityError) as excinfo:
        af_report(tf, neg, neg)
    assert str(excinfo.value) == "input divisor is not convex"
    assert not excinfo.value.certificate.convex
    # the sampling refusal is a ConvexityError too, with its certificate
    with pytest.raises(ConvexityError) as excinfo:
        definition_sample_check(tf, neg, samples=1, seed=3)
    assert str(excinfo.value) == "sampling requires a strictly convex witness"
    cert = excinfo.value.certificate
    assert cert.divisor == neg and cert.strict_requested
    assert not cert.strictly_convex and cert.failing


def test_twisted_prism_is_not_quasiprojective():
    from lorfan.fan import validate
    from lorfan.fixtures import twisted_prism_fan

    tf = twisted_prism_fan()
    assert validate(tf.fan).valid
    assert check_balancing(tf.fan, tf.weight) == ()
    assert find_strictly_convex(tf.fan) is None
    cert = is_lorentzian(tf)
    assert not cert.verdict
    assert not cert.quasiprojective
    assert cert.witness_route == ROUTE_JOINT_LP
    # breaking the cyclic symmetry on one quad face restores a witness
    rays = tf.fan.rays
    cones = [(0, 1, 2), (3, 4, 5)]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        if k < 2:
            cones.append(tuple(sorted((i, j, 3 + j))))
            cones.append(tuple(sorted((i, 3 + j, 3 + i))))
        else:
            cones.append(tuple(sorted((i, j, 3 + i))))
            cones.append(tuple(sorted((j, 3 + j, 3 + i))))
    untwisted = fraction_fan(3, rays, tuple(sorted(cones)))
    assert find_strictly_convex(untwisted) is not None


def test_u46_subdivision_decided_by_cuts():
    """U(4,6) starred at v = (31/6, 0, 7/2, 5/2, 0): 42 rays and 122 maximal
    cones.  The candidate divisor fails there, and the joint program, 714
    rows by 669 columns, once took minutes; the cuts find a witness."""
    tf = bergman_fan(uniform_matroid(4, 6))
    res = stellar_subdivide(tf.fan, vec([Fraction(31, 6), 0, Fraction(7, 2), Fraction(5, 2), 0]))
    fine = transport_weight(tf, res.fan, res.containment)
    assert (len(fine.fan.rays), len(fine.fan.maximal_cones)) == (42, 122)
    cert = is_lorentzian(fine)
    assert cert.verdict
    assert cert.witness_route == ROUTE_JOINT_LP
    assert classify_convexity(fine.fan, cert.witness, strict=True).strictly_convex


def test_stellar_invariance_of_verdict():
    for tf in (triangle_fan(), coordinate_skeleton_fan(), two_disjoint_triangles()):
        sigma = tf.fan.maximal_cones[0]
        v = vec([sum(col) for col in zip(*(tf.fan.rays[i] for i in sigma))])
        res = stellar_subdivide(tf.fan, v)
        fine = transport_weight(tf, res.fan, res.containment)
        assert check_balancing(fine.fan, fine.weight) == ()
        assert is_lorentzian(fine).verdict == is_lorentzian(tf).verdict


def test_subdivision_identity_on_triangle():
    # subdividing a 2-cone at a1*u1 + a2*u2 subtracts a square from the
    # volume polynomial and keeps the positive eigenvalue count
    tf = triangle_fan()
    a1, a2 = Fraction(2), Fraction(1)
    v = vec([a1 * x + a2 * y for x, y in zip(tf.fan.rays[0], tf.fan.rays[1])])
    res = stellar_subdivide(tf.fan, v)
    fine = transport_weight(tf, res.fan, res.containment)
    coarse_poly = volume_polynomial(tf)
    fine_poly = volume_polynomial(fine)
    eta = res.new_ray
    expected = {}
    for expo, coeff in coarse_poly.items():
        expected[tuple(list(expo) + [0])] = coeff
    correction = {}
    # (z_eta - a1 z_0 - a2 z_1)^2 expanded over 4 rays
    terms = {eta: Fraction(1), 0: -a1, 1: -a2}
    for i, ci in terms.items():
        for j, cj in terms.items():
            expo = [0] * 4
            expo[i] += 1
            expo[j] += 1
            key = tuple(expo)
            correction[key] = correction.get(key, Fraction(0)) + ci * cj
    w = tf.weight[(0, 1)]
    for key, c in correction.items():
        expected[key] = expected.get(key, Fraction(0)) - w / (a1 * a2) * c
    expected = {k: v for k, v in expected.items() if v != 0}
    assert fine_poly == expected


def test_bilinear_degree_form_equals_volume_form():
    # pairing ray indicators through the degree map reproduces the quadratic
    # volume form entry by entry on two-dimensional fans
    from lorfan.fan import star
    from lorfan.lorentzian import sample_strictly_convex
    from lorfan.matroids import bergman_fan, complete_graph_matroid, uniform_matroid
    from lorfan.weights import divisor_action, push_divisor_to_star, quadratic_form, star_weight

    for tf in (triangle_fan(), coordinate_skeleton_fan(), spindle_fan()):
        assert indicator_pairing_form(tf.fan, tf.weight) == volume_form(tf)
    # on every star of dimension at least two, the one-pass form of the
    # weight cut down by strictly convex auxiliary divisors matches too
    rng = random.Random(29)
    checked = 0
    for tf in (
        coordinate_skeleton_fan(),
        triangle_times_line(),
        bergman_fan(complete_graph_matroid(4)),
        bergman_fan(uniform_matroid(3, 5)),
    ):
        witness = find_strictly_convex(tf.fan)
        for tau in tf.fan.all_cones():
            sd = star(tf.fan, tau)
            if sd.fan.dimension < 2:
                continue
            star_witness = push_divisor_to_star(sd, witness)
            w = star_weight(tf, tau, sd).weight
            for _ in range(sd.fan.dimension - 2):
                w = divisor_action(sd.fan, w, sample_strictly_convex(sd.fan, star_witness, rng))
            assert quadratic_form(sd.fan, w) == indicator_pairing_form(sd.fan, w)
            checked += 1
    # the skeleton's origin, triangle x line's origin and its 5 rays, and
    # the origins of M(K4) and U(3,5)
    assert checked == 9


def test_quadratic_form_refuses_unbalanced_weight():
    from lorfan.errors import BalancingError
    from lorfan.weights import quadratic_form

    fan = triangle_fan().fan
    values = dict(zip(fan.cones(2), (1, 1, 2)))
    with pytest.raises(BalancingError):
        quadratic_form(fan, MinkowskiWeight(2, {c: Fraction(v) for c, v in values.items()}))


def test_mixed_degree_positive_on_strictly_convex():
    from lorfan.lorentzian import sample_strictly_convex
    from lorfan.weights import mixed_degree

    rng = random.Random(101)
    for tf in (triangle_fan(), coordinate_skeleton_fan(), triangle_times_line(), spindle_fan()):
        witness = find_strictly_convex(tf.fan)
        divs = [
            sample_strictly_convex(tf.fan, witness, rng) for _ in range(tf.dimension)
        ]
        assert mixed_degree(tf.fan, tf.weight, divs) > 0


def test_mixed_degree_nonnegative_on_convex():
    # convex-but-not-strict inputs: restrictions of linear functions added to
    # strictly convex witnesses stay convex; degrees stay nonnegative
    from lorfan.lorentzian import sample_strictly_convex
    from lorfan.weights import mixed_degree

    rng = random.Random(103)
    for tf in (triangle_fan(), coordinate_skeleton_fan()):
        witness = find_strictly_convex(tf.fan)
        for _ in range(3):
            divs = []
            for _ in range(tf.dimension):
                if rng.random() < 0.5:
                    phi = vec([rng.randint(-3, 3) for _ in range(tf.fan.ambient_dim)])
                    divs.append(linear_divisor(tf.fan, phi))
                else:
                    divs.append(sample_strictly_convex(tf.fan, witness, rng))
            assert mixed_degree(tf.fan, tf.weight, divs) >= 0


def test_skeleton_volume_polynomial_aggregated_form():
    # Vol = 2(z0+z1)(z2+z3) + 2(z0+z1)(z4+z5) + 2(z2+z3)(z4+z5), the signed
    # axis pairs entering only through their sums
    tf = coordinate_skeleton_fan()
    poly = volume_polynomial(tf)
    expected = {}
    groups = ((0, 1), (2, 3), (4, 5))
    for ga, gb in ((0, 1), (0, 2), (1, 2)):
        for i in groups[ga]:
            for j in groups[gb]:
                expo = [0] * 6
                expo[i] += 1
                expo[j] += 1
                expected[tuple(expo)] = Fraction(2)
    assert poly == expected


def test_star_weights_balanced_across_all_apexes():
    from lorfan.fan import star
    from lorfan.weights import star_weight

    for tf in (coordinate_skeleton_fan(), triangle_times_line(), spindle_fan()):
        for k in range(tf.dimension):
            for apex in tf.fan.cones(k):
                stf = star_weight(tf, apex)
                assert check_balancing(stf.fan, stf.weight) == (), (apex,)


def test_complete_planar_fans_are_lorentzian():
    # the planar case of the classical mixed-area inequalities
    import sys

    sys.path.insert(0, "tests")
    from helpers import random_balanced_2fan

    rng = random.Random(107)
    for _ in range(6):
        tf = random_balanced_2fan(rng)
        cert = is_lorentzian(tf)
        assert cert.verdict
        assert cert.star_records[0].inertia.p == 1


def test_iterated_action_reproduces_mixed_degree():
    from lorfan.lorentzian import sample_strictly_convex
    from lorfan.ops import act_divisor_fan
    from lorfan.weights import divisor_action, mixed_degree

    rng = random.Random(109)
    tf = triangle_times_line()
    witness = find_strictly_convex(tf.fan)
    divs = [sample_strictly_convex(tf.fan, witness, rng) for _ in range(3)]
    expected = mixed_degree(tf.fan, tf.weight, divs)
    current = tf
    for z in divs[:-1]:
        current = act_divisor_fan(current, z)
        restricted_rays = current.fan.rays
        # divisors restrict along surviving rays, which keep their marks
        keep = [tf.fan.rays.index(u) for u in restricted_rays]
        divs = [tuple(d[i] for i in keep) for d in divs]
    final = divisor_action(current.fan, current.weight, divs[-1])
    assert final[()] == expected
