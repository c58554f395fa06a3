"""The integer quotient records, neighborhood records and divisor action
against the Fraction constructions they replaced (`tests/helpers.py`), on the
stock fixtures, the Bergman fans of the benchmark ladder, the random fans,
rescaled markings whose marks leave the integers, and non-pure fans."""

import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from lorfan import cli, io
from lorfan import fan as fan_module
from lorfan import weights as weights_module
from lorfan.convexity import find_strictly_convex
from lorfan.errors import BalancingError, DimensionError, InternalError, PreconditionError
from lorfan.fan import MarkedFan, is_unpinched, star, stellar_subdivide, validate
from lorfan.fixtures import triangle_fan
from lorfan.linalg import fractions, over_lcd, vec
from lorfan.lorentzian import is_lorentzian
from lorfan.matroids import _flat_mark, bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.ops import act_divisor_fan, product_tropical, tropical_modification
from lorfan.weights import (
    MinkowskiWeight,
    _act,
    _mark_coordinates,
    _mark_sum,
    acted_weights,
    check_balancing,
    constant_weight,
    divisor_action,
    mixed_degrees,
    quadratic_form,
    star_weight,
    transport_weight,
)

from helpers import (
    BERGMAN_FANS,
    LARGE_BERGMAN_FANS,
    NON_PURE_FANS,
    SCALES,
    STOCK_FANS,
    TROPICAL_FANS,
    cone_contains,
    cone_coordinates,
    dependent_marks_fan,
    dot,
    elimination_quotient,
    fraction_action_at,
    fraction_excess,
    fraction_mark_sum,
    fraction_neighborhood,
    fraction_quotient,
    fraction_transport_weight,
    neighborhood_coords,
    neighborhood_images,
    outcome,
    particulars,
    random_fan,
    rescaled_random,
    rescale_marking,
    rescaled_tropical,
    sequential_acted_weights,
    stellar_points,
    zero_divisor_balancing,
)

FANS = {**STOCK_FANS, **BERGMAN_FANS, **LARGE_BERGMAN_FANS}
FANS["U(3,6)"] = lambda: bergman_fan(uniform_matroid(3, 6)).fan
FANS.update({f"random-{seed}": (lambda seed=seed: random_fan(seed)) for seed in range(40)})
FANS.update({
    f"{name}-{kind}": (lambda name=name, kind=kind: rescaled_tropical(name, kind).fan)
    for name in TROPICAL_FANS for kind in SCALES
})
FANS.update({
    f"random-{seed}-{kind}": (lambda seed=seed, kind=kind: rescaled_random(seed, kind))
    for seed in range(0, 40, 4) for kind in SCALES
})


def rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def record_rows(q):
    return itertools.chain(q.particular_rows, q.annihilator_rows)


@pytest.mark.parametrize("name", sorted(FANS))
def test_records_match_fraction_oracle(name):
    """Every quotient record equals the Fraction reduction of [marks |
    identity], over one positive denominator in lowest terms; project,
    in_span, coordinates and functional agree with the Fraction rows at every
    ray; every neighborhood record and pushed divisor agrees too."""
    fan = FANS[name]()
    rng = random.Random(name)
    z = tuple(rational(rng) for _ in fan.rays)
    for tau in fan.all_cones():
        q = fan.quotient(tau)
        expected = fraction_quotient(fan, tau)
        assert (q.pivots, particulars(q), q.annihilators) == expected
        assert q.den > 0 and math.gcd(q.den, *itertools.chain.from_iterable(record_rows(q))) == 1
        _, psis, annihilators = expected
        on_cone = [rational(rng) for _ in tau]
        w = [rational(rng) for _ in annihilators]
        combination = [
            sum((c * row[j] for c, row in zip(on_cone + w, psis + annihilators)), Fraction(0))
            for j in range(fan.ambient_dim)
        ]
        assert fractions(*q.functional(*over_lcd(on_cone + w))) == tuple(combination)
        assert fractions(*q.functional(*over_lcd(on_cone))) == tuple(
            sum((c * row[j] for c, row in zip(on_cone, psis)), Fraction(0)) for j in range(fan.ambient_dim)
        )
        for u in fan.rays:
            nums, d = over_lcd(u)
            image = tuple(dot(a, u) for a in annihilators)
            inside = not any(image)
            coords = tuple(dot(psi, u) for psi in psis)
            assert fractions(q.project(nums), q.den * d) == image
            assert q.in_span(nums) is inside
            assert fractions(q.coordinates(nums), q.den * d) == coords
            assert cone_coordinates(fan, tau, u) == (coords if inside else None)
            assert cone_contains(fan, tau, u) == (inside and min(coords, default=0) >= 0)
        hood = fan.neighborhood(tau)
        assert (neighborhood_images(hood), neighborhood_coords(hood)) == fraction_neighborhood(fan, tau, hood.rays)
        for image, coords, d in zip(hood.image_rows, hood.coord_rows, hood.dens):
            assert d > 0 and math.gcd(d, *image, *coords) == 1
        assert hood.excess(z) == fraction_excess(fan, tau, hood.rays, z)


def test_rescaled_records_leave_the_integers():
    """The rescaled markings reach records and neighborhood rows over
    denominators above one, with negative entries."""
    dens, hood_dens, negative = set(), set(), False
    for name in TROPICAL_FANS:
        for kind in SCALES:
            fan = rescaled_tropical(name, kind).fan
            for tau in fan.all_cones():
                q = fan.quotient(tau)
                dens.add(q.den)
                negative |= any(v < 0 for row in record_rows(q) for v in row)
                hood_dens.update(fan.neighborhood(tau).dens)
    assert max(dens) > 1 and max(hood_dens) > 1 and negative


ACTION_FANS = dict(TROPICAL_FANS)
ACTION_FANS.update({
    f"{name}-{kind}": (lambda name=name, kind=kind: rescaled_tropical(name, kind))
    for name in TROPICAL_FANS for kind in SCALES
})


def _check_actions(fan, w, rng) -> set:
    """The mark sums and their coordinates against the Fraction oracle at
    every cone of each degree: `_act` of each of three random rational
    divisors on the rows of the cones where the weight is balanced gives the
    oracle's values there, and the oracle gives None where it is not.  The
    weight is acted on down to degree zero or the first unbalanced weight,
    where divisor_action raises, and acted_weights is compared with
    sequential Fraction actions, values and errors, on random index
    sequences that include one divisor of the wrong length.  Returns whether
    None and whether a value were compared."""
    divisors = [tuple(rational(rng) for _ in fan.rays) for _ in range(3)]
    for divs in (divisors, [*divisors, divisors[0][1:]]):
        sequences = [tuple(rng.randrange(len(divs)) for _ in range(rng.randint(0, w.degree))) for _ in range(6)]
        assert outcome(lambda: acted_weights(fan, w, divs, sequences)) == outcome(
            lambda: sequential_acted_weights(fan, w, divs, sequences)
        )
    compared = set()
    while w.degree >= 1:
        rows = list(_mark_coordinates(fan, w))
        assert [row[0] for row in rows] == list(fan.cones(w.degree - 1))
        expected = {}
        for tau, ws, on_tau, _, _ in rows:
            wn, wd = over_lcd([w[sigma] for sigma, _ in fan.cofaces[tau]])
            assert ws == wn
            total, md = _mark_sum(fan, ws, tau)
            assert tuple(Fraction(v, wd * md) for v in total) == fraction_mark_sum(fan, w, tau)
            expected[tau] = [fraction_action_at(fan, w, tau, z) for z in divisors]
            if on_tau is None:
                assert expected[tau] == [None] * len(divisors)
        balanced = [row for row in rows if row[2] is not None]
        acted = [_act(fan, w, z, balanced) for z in divisors]
        for i, v in enumerate(acted):
            assert v.degree == w.degree - 1
            assert v.values == {tau: expected[tau][i] for tau, *_ in balanced}
        compared.update(on_tau is None for _, _, on_tau, _, _ in rows)
        unbalanced = tuple(tau for tau, _, on_tau, _, _ in rows if on_tau is None)
        assert check_balancing(fan, w) == zero_divisor_balancing(fan, w) == unbalanced
        if unbalanced:
            for z in divisors:
                with pytest.raises(BalancingError, match=re.escape(f"weight is unbalanced at cone {unbalanced[0]}")):
                    divisor_action(fan, w, z)
            break
        for z, v in zip(divisors, acted):
            assert divisor_action(fan, w, z) == v
        w = acted[0]
    return compared


@pytest.mark.parametrize("name", sorted(ACTION_FANS))
def test_divisor_action_matches_fraction_oracle(name):
    tf = ACTION_FANS[name]()
    _check_actions(tf.fan, tf.weight, random.Random(name))


def _random_weight(fan, rng):
    d = fan.dimension
    return MinkowskiWeight(d, {c: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for c in fan.cones(d)})


def test_divisor_action_on_random_weights_matches_fraction_oracle():
    """Random top weights on the 40 random fans and on rescaled copies: they
    are unbalanced at some cones and not at others, so both branches are
    compared."""
    compared = set()
    for seed in range(40):
        rng = random.Random(seed)
        for fan in (random_fan(seed), rescaled_random(seed, "mixed")):
            compared |= _check_actions(fan, _random_weight(fan, rng), rng)
    assert compared == {True, False}


@pytest.mark.parametrize("name", sorted(NON_PURE_FANS))
def test_divisor_action_on_non_pure_fans_matches_fraction_oracle(name):
    """Random weights of every degree on the non-pure fans: some cone's
    first maximal cone has a smaller dimension than the fan, and some cone
    has no cofaces."""
    fan = NON_PURE_FANS[name]()
    compared = set()
    for seed in range(12):
        rng = random.Random(seed)
        for k in range(1, fan.dimension + 1):
            w = MinkowskiWeight(k, {c: Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for c in fan.cones(k)})
            compared |= _check_actions(fan, w, rng)
    assert compared == {True, False}
    assert any(len(fan.incident[tau][0]) < fan.dimension for tau in fan.all_cones())
    assert any(not fan.cofaces[tau] for tau in fan.all_cones())


def test_dependent_maximal_cone_refuses_the_action():
    """The action reads the first maximal cone's record; when that cone's
    marks are dependent every entry point refuses with PreconditionError,
    like the elimination of the cone itself."""
    fan = dependent_marks_fan()
    w = MinkowskiWeight(2, {(0, 1): Fraction(1), (0, 2): Fraction(1)})
    ones = vec([1, 1, 1])
    calls = (
        lambda: divisor_action(fan, w, ones),
        lambda: mixed_degrees(fan, w, [ones], [(0, 0)]),
        lambda: acted_weights(fan, w, [ones], [(0,)]),
        lambda: quadratic_form(fan, w),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match=re.escape("cone (0, 1) has dependent marks")):
            call()


def test_partial_weight_raises_cone_by_cone():
    """A weight unbalanced at the first ray of the triangle fan and missing
    its value on the cone over the other two: every entry point raises the
    BalancingError of the first ray, as acting cone by cone does, and not
    the missing value met further on."""
    tf = triangle_fan()
    w = MinkowskiWeight(2, {(0, 1): Fraction(2), (0, 2): Fraction(1)})
    ones = vec([1, 1, 1])
    assert outcome(lambda: sequential_acted_weights(tf.fan, w, [ones], [(0,)])) == (
        BalancingError,
        "weight is unbalanced at cone (0,)",
    )
    for call in (
        lambda: divisor_action(tf.fan, w, ones),
        lambda: acted_weights(tf.fan, w, [ones, ones], [(0,), (1,)]),
        lambda: mixed_degrees(tf.fan, w, [ones], [(0, 0)]),
    ):
        assert outcome(call) == (BalancingError, "weight is unbalanced at cone (0,)")


def test_dependent_marks_are_refused_by_the_one_elimination():
    """validate decides simpliciality from the quotient record's
    elimination; a cone on dependent marks has no record."""
    fan = MarkedFan(
        ambient_dim=2,
        rays=((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))),
        maximal_cones=((0, 1), (0, 2)),
    )
    report = validate(fan)
    assert not report.simplicial
    assert report.failures == ("cone (0, 1) has linearly dependent marks",)
    assert report.fan_condition_route is None
    with pytest.raises(PreconditionError):
        fan.quotient((0, 1))
    assert fan.quotient((0, 2)).den == 1


@pytest.mark.parametrize("name", ["skeleton", "M(K4)", "U(3,5)"])
def test_validate_eliminates_each_maximal_cone_once(name, monkeypatch):
    """On the regular route validate runs one elimination per maximal cone:
    the one that decides simpliciality builds the record the LPs read."""
    calls = []
    eliminate = fan_module.eliminate

    def counting(rows, dens):
        calls.append(len(rows))
        return eliminate(rows, dens)

    monkeypatch.setattr(fan_module, "eliminate", counting)
    fan = TROPICAL_FANS[name]().fan
    report = validate(fan)
    assert report.valid and report.fan_condition_route == "regular"
    assert calls == [len(c) for c in fan.maximal_cones]


# the stock fixtures and the Bergman ladder up to M(K5), each as given and
# rescaled ray by ray
RECORD_LADDER = {
    **TROPICAL_FANS,
    "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6)),
    "M(K5)": lambda: bergman_fan(complete_graph_matroid(5)),
}


def _record_fan(name, kind):
    tf = RECORD_LADDER[name]()
    if kind is not None:
        tf = rescale_marking(tf, SCALES[kind](random.Random(f"{name}/{kind}"), len(tf.fan.rays)))
    return tf.fan


def _fields(q):
    return q.pivots, q.den, q.particular_rows, q.annihilator_rows


def _check_records(fan):
    """Every cone's record equals the elimination's field by field, and the
    fan's int marks are over_lcd of its Fraction rays.  Returns the sizes of
    the cones compared."""
    assert fan.int_marks == tuple((tuple(nums), d) for nums, d in map(over_lcd, fan.rays))
    sizes = set()
    for tau in fan.all_cones():
        assert _fields(fan.quotient(tau)) == _fields(elimination_quotient(fan, tau))
        sizes.add(len(tau))
    return sizes


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", list(RECORD_LADDER))
def test_ray_records_and_inherited_int_marks_match_the_elimination(name, kind):
    """On the fan, every ray star and every stellar subdivision at
    `helpers.stellar_points` inside the support: each cone's record equals
    the elimination's, the closed form on every ray among them, and each
    derived fan's `int_marks`, handed over from its parent's records, equal
    over_lcd of its Fraction rays.  At each ray the neighborhood record and
    the star, its projection included, are those that the elimination's
    record of the ray gives."""
    fan = _record_fan(name, kind)
    sizes = _check_records(fan)
    oracle = MarkedFan(fan.ambient_dim, fan.rays, fan.maximal_cones)
    for r in range(len(fan.rays)):
        sd = star(fan, (r,))
        assert "int_marks" in vars(sd.fan)
        sizes |= _check_records(sd.fan)
        oracle._quotients[(r,)] = elimination_quotient(oracle, (r,))
        expected = star(oracle, (r,))
        assert fan.neighborhood((r,)) == oracle.neighborhood((r,))
        assert sd.projection == expected.projection == oracle.quotient((r,)).annihilators
        assert (sd.fan, sd.fan.int_marks, sd.lift) == (expected.fan, expected.fan.int_marks, expected.lift)
    for v in stellar_points(fan, random.Random(name)):
        try:
            fine = stellar_subdivide(fan, v).fan
        except PreconditionError:
            continue
        assert "int_marks" in vars(fine)
        sizes |= _check_records(fine)
    assert 1 in sizes or fan.dimension == 0


def test_subdivision_chain_reuses_kept_records_and_weights(monkeypatch):
    """A seeded chain of stellar subdivisions of M(K5), the weight
    transported at each step.  Each kept cone starts with its parent's
    record, equal to the elimination's, and keeps its parent's weight; so a
    step eliminates only the cones the step before added, and takes a
    determinant only for the cones it adds."""
    counts = {"eliminate": 0, "det": 0}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(fan_module, "eliminate", counted("eliminate", fan_module.eliminate))
    monkeypatch.setattr(weights_module, "det", counted("det", weights_module.det))
    rng = random.Random(33)
    tf = bergman_fan(complete_graph_matroid(5))
    coarse_added = tf.fan.maximal_cones  # a fresh fan holds no record
    for _ in range(12):
        coarse = tf
        c = rng.choice(coarse.fan.maximal_cones)
        face = rng.sample(c, rng.randint(2, len(c)))
        scales = [rng.randint(1, 3) for _ in face]
        v = vec([sum(a * x for a, x in zip(scales, col)) for col in zip(*(coarse.fan.rays[i] for i in face))])
        counts.update(eliminate=0, det=0)
        res = stellar_subdivide(coarse.fan, v)
        fine = res.fan
        kept = {c for c in fine.maximal_cones if res.new_ray not in c}
        assert set(fine._quotients) == kept
        tf = transport_weight(coarse, fine, res.containment)
        added = tuple(c for c in fine.maximal_cones if c not in kept)
        assert counts == {"eliminate": len(coarse_added), "det": len(added)}
        for c in kept:
            assert _fields(fine.quotient(c)) == _fields(elimination_quotient(fine, c))
            assert tf.weight[c] == coarse.weight[res.containment[c]]
        assert tf.weight.values == fraction_transport_weight(coarse, fine).weight.values
        coarse_added = added


def test_ray_records_of_random_marks_match_the_elimination():
    """Seeded random marks in R^1 to R^5 with zero, negative and rational
    leading entries, entries sharing factors with their denominator, and the
    pivot at the last column (in R^1 the codim is 0).  The closed-form
    record equals the elimination's through its dense views, field by
    field, and method by method at a random point and at points of the
    span; `functional` with w omitted, partial and full."""
    rng = random.Random(29)
    leads, pivots = set(), set()
    for _ in range(400):
        n = rng.randint(1, 5)
        u = [Fraction(rng.choice((0, 0, rng.randint(-12, 12))), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(n)]
        if not any(u):
            continue
        fan = MarkedFan(n, (tuple(u),), ((0,),))
        lead = next(x for x in u if x)
        leads.add((lead < 0, lead.denominator > 1, u[0] == 0))
        q, expected = fan.quotient((0,)), elimination_quotient(fan, (0,))
        assert type(q) is fan_module.RayQuotient
        assert _fields(q) == _fields(expected)
        assert (q.annihilators, q.codim) == (expected.annihilators, expected.codim)
        pivots.add((n, q.pivot == n - 1))
        nums = fan.int_marks[0][0]
        for x in ([rng.randint(-7, 7) for _ in range(n)], [3 * v for v in nums], [-v for v in nums]):
            assert q.project(x) == expected.project(x)
            assert q.in_span(x) is expected.in_span(x)
            assert q.coordinates(x) == expected.coordinates(x)
        assert q.in_span(nums)
        for k in range(n + 1):
            coefficients, d = [rng.randint(-7, 7) for _ in range(k)], rng.randint(1, 5)
            assert q.functional(coefficients, d) == expected.functional(coefficients, d)
    assert leads == set(itertools.product((False, True), repeat=3))
    assert {(1, True), (5, True), (5, False)} <= pivots


def test_functional_refuses_more_coefficients_than_rows():
    """Both record kinds refuse more than k + codim coefficients, rather than
    drop the extra ones."""
    fan = triangle_fan().fan
    for cone in ((0,), (0, 1), ()):
        q = fan.quotient(cone)
        full = [1] * (len(q.pivots) + q.codim)
        q.functional(full, 1)
        with pytest.raises(InternalError, match="more coefficients"):
            q.functional(full + [1], 1)
    assert type(fan.quotient((0,))) is fan_module.RayQuotient
    assert type(fan.quotient((0, 1))) is fan_module.Quotient


def _u3_bergman_fan(n):
    """The Bergman fan of U(3,n) from its flats, the singletons and the pairs,
    each pair's ray spanning a cone with each of its singletons' rays, in
    `bergman_fan`'s order; `uniform_matroid(3, 50)` alone checks its 19 600
    bases for over a second."""
    flats = [1 << i for i in range(n)] + [1 << i | 1 << j for i, j in itertools.combinations(range(n), 2)]
    index = {f: k for k, f in enumerate(flats)}
    cones = sorted((index[1 << a], index[1 << i | 1 << j]) for i, j in itertools.combinations(range(n), 2) for a in (i, j))
    return MarkedFan(n - 1, tuple(_flat_mark(n, f) for f in flats), tuple(cones))


def test_ray_records_stay_linear_in_the_ambient_dimension():
    """A scale guard: on the Bergman fan of U(3,50), 1275 rays in R^49,
    `check_balancing` reads a record at every ray and `star` builds one at
    every ray.  Under `tracemalloc`, dense records of 48 rows of 49 ints
    took 28 MB for the first; closed-form ones take some 1 MB, and the
    stars 4 MB for the neighborhood records that the fan keeps."""
    assert _u3_bergman_fan(7) == bergman_fan(uniform_matroid(3, 7)).fan
    fan = _u3_bergman_fan(50)
    w = constant_weight(fan)
    fan.cofaces, fan.int_marks
    tracemalloc.start()
    try:
        assert check_balancing(fan, w) == ()
        balancing = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for r in range(len(fan.rays)):
            star(fan, (r,))
        stars = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fan._quotients) == len(fan.rays) == 1275
    assert balancing < 4_000_000 and stars < 10_000_000


# ---------------------------------------------------------------------------
# fans built on int marks


def _bergman_rays(m):
    """The Bergman fan's Fraction marks from its flats: the indicator vector
    less its coordinate 0, without coordinate 0."""
    return tuple(vec([(f >> i & 1) - (f & 1) for i in range(1, m.n)]) for _, f in m._proper_flats)


def _parsed():
    tf = rescaled_tropical("U(3,5)", "rational")
    data = json.loads(io.dumps(io.tropical_to_json(tf)))
    marks = tuple(tuple(Fraction(x) for x in u) for u in data["rays"])
    return io.tropical_from_json(data), marks


def _star():
    tf = rescaled_tropical("M(K4)", "mixed")
    sd = star(tf.fan, (3,))
    images, _ = fraction_neighborhood(tf.fan, (3,), sd.lift)
    return star_weight(tf, (3,), sd), images


def _stellar():
    coarse = rescaled_tropical("U(3,5)", "mixed")
    c = coarse.fan.maximal_cones[4]
    v = vec([2 * x + y for x, y in zip(*(coarse.fan.rays[i] for i in c))])
    res = stellar_subdivide(coarse.fan, v)
    kept = sorted(res.ray_map, key=res.ray_map.get)
    return transport_weight(coarse, res.fan, res.containment), tuple(coarse.fan.rays[i] for i in kept) + (v,)


def _product():
    t, l = TROPICAL_FANS["triangle"](), rescale_marking(TROPICAL_FANS["line"](), [Fraction(2, 3), 3])
    marks = [u + (Fraction(0),) for u in t.fan.rays] + [(Fraction(0),) * 2 + u for u in l.fan.rays]
    return product_tropical(t, l), tuple(marks)


def _bergman():
    m = fano_matroid()
    return bergman_fan(m), _bergman_rays(m)


def _modified():
    tf = rescaled_tropical("U(3,5)", "rational")
    z = find_strictly_convex(tf.fan)
    marks = tuple(u + (v,) for u, v in zip(tf.fan.rays, z)) + (vec([0, 0, 0, 0, -1]),)
    return tropical_modification(tf, z), marks


def _skeleton():
    tf = TROPICAL_FANS["skeleton"]()
    z = find_strictly_convex(tf.fan)
    acted = act_divisor_fan(tf, z)
    return acted, tuple(tf.fan.rays)


INT_MARKED = {
    "parsed": _parsed,
    "star": _star,
    "stellar": _stellar,
    "product": _product,
    "Bergman": _bergman,
    "modification": _modified,
    "skeleton": _skeleton,
}


@pytest.mark.parametrize("kind", sorted(INT_MARKED))
def test_int_marked_fans_make_fractions_only_when_read(kind):
    """Parsed, star, stellar, product, Bergman and `ops` fans are built on
    int marks: `validate`, `check_balancing`, `is_unpinched` and a
    `lorentzian` report, its marking included, make no Fraction mark.  Read,
    `rays` equals the Fraction marks of the old construction, and the fan
    built from those compares and hashes equal."""
    tf, marks = INT_MARKED[kind]()
    fan = tf.fan
    assert validate(fan).valid
    assert check_balancing(fan, tf.weight) == ()
    is_unpinched(fan)
    cert = is_lorentzian(tf)
    marking = [io.mark_to_json(mark) for mark in cert.marking]
    assert "rays" not in vars(fan)
    assert fan.rays == marks and all(type(x) is Fraction for u in fan.rays for x in u)
    assert marking == [[io.rat_to_str(x) for x in u] for u in marks]
    built = MarkedFan(fan.ambient_dim, marks, fan.maximal_cones)
    assert built == fan and hash(built) == hash(fan) and {fan: kind}[built] == kind
    assert built.int_marks == fan.int_marks


def test_int_and_fraction_constructors_agree():
    """`MarkedFan.from_int_marks` and the Fraction constructor validate alike,
    give equal fans on equal marks and unequal ones on scaled marks, and
    both fans are immutable."""
    rays = (vec([1, Fraction(1, 2)]), vec([0, 1]), vec([-1, Fraction(-3, 2)]))
    marks = (((2, 1), 2), ((0, 1), 1), ((-2, -3), 2))
    cones = ((0, 1), (0, 2), (1, 2))
    a, b = MarkedFan(2, rays, cones), MarkedFan.from_int_marks(2, marks, cones)
    assert a == b and hash(a) == hash(b) and a.int_marks == marks and b.rays == rays
    assert MarkedFan.from_int_marks(2, (((4, 2), 2),) + marks[1:], cones) != a
    assert MarkedFan(2, (vec([2, 1]),) + rays[1:], cones) != a
    assert a != rays and MarkedFan(3, tuple(u + (0,) for u in rays), cones) != a
    for build, bad in [
        (lambda: MarkedFan(2, (vec([1, 0, 0]),), ((0,),)), "ray mark has wrong ambient dimension"),
        (lambda: MarkedFan.from_int_marks(2, (((1, 0, 0), 1),), ((0,),)), "ray mark has wrong ambient dimension"),
        (lambda: MarkedFan(2, (vec([0, 0]),), ((0,),)), "ray marks must be nonzero"),
        (lambda: MarkedFan.from_int_marks(2, (((0, 0), 1),), ((0,),)), "ray marks must be nonzero"),
        (lambda: MarkedFan.from_int_marks(2, marks, ((0, 3),)), "cone refers to a missing ray"),
        (lambda: MarkedFan.from_int_marks(-1, (), ((),)), "ambient dimension must be nonnegative"),
    ]:
        with pytest.raises((DimensionError, PreconditionError), match=re.escape(bad)):
            build()
    for fan in (a, b):
        with pytest.raises(AttributeError):
            fan.int_marks = marks
        with pytest.raises(AttributeError):
            del fan.maximal_cones


def test_cli_reports_make_no_fraction_marks(tmp_path, monkeypatch, capsys):
    """The fans `lorentzian`, `validate` and `balance` parse hold no Fraction
    mark when the report is written; the marking prints from the ints."""
    parsed = []
    original = io.fan_from_json

    def recording(data):
        fan, w = original(data)
        parsed.append(fan)
        return fan, w

    monkeypatch.setattr(io, "fan_from_json", recording)
    tf = rescaled_tropical("M(K4)", "rational")
    path = tmp_path / "fan.json"
    path.write_text(io.dumps(io.tropical_to_json(tf)))
    for command in ("lorentzian", "validate", "balance"):
        assert cli.main([command, "--fan", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "rays" not in vars(parsed[-1])
    assert report["balanced"] is True
    assert len(parsed) == 3
