"""Sampling strictly convex divisors from a witness's certificate.

`definition_sample_check` certifies the pushed witness once per star and
proves each draw from that certificate's per-cone functionals
(`convexity.strict_by_shift`); a cone whose shifted functional has a slack
at most 0 solves its own program.  The oracle proves every draw with a full
classify_convexity pass (`helpers.classify_sample_strictly_convex`).
"""

import random
from fractions import Fraction

import pytest

from lorfan import convexity, lorentzian
from lorfan import fan as fan_module
from lorfan.convexity import classify_convexity, find_strictly_convex, strict_by_shift, witness_slacks
from lorfan.errors import ConvexityError, PreconditionError
from lorfan.fan import MarkedFan, star
from lorfan.fixtures import triangle_fan, triangle_times_line
from lorfan.lorentzian import definition_sample_check, sample_strictly_convex
from lorfan.matroids import bergman_fan, complete_graph_matroid
from lorfan.weights import push_divisor_to_star

from helpers import (
    SCALES,
    TROPICAL_FANS,
    classify_sample_strictly_convex,
    rescaled_tropical,
    shifted_slacks,
)

# the fixtures with a strictly convex divisor and a star of dimension two
SAMPLED = [n for n in TROPICAL_FANS if n not in ("line", "origin", "twisted_prism")]
SEEDS = (1, 2, 3)


def _tropical(name, kind):
    return TROPICAL_FANS[name]() if kind is None else rescaled_tropical(name, kind)


def _stars(tf):
    """(star fan, pushed witness, its certificate) for each star of
    dimension at least two, in definition_sample_check's order."""
    fan = tf.fan
    witness = find_strictly_convex(fan)
    out = []
    for tau in sorted(fan.all_cones()):
        if len(tau) > fan.dimension - 2:
            continue
        sd = star(fan, tau)
        if sd.fan.dimension < 2:
            continue
        star_witness = push_divisor_to_star(sd, witness)
        out.append((sd.fan, star_witness, classify_convexity(sd.fan, star_witness, strict=True)))
    return out


def _count(monkeypatch, module, name):
    """Wrap module.name; the list it returns gets each call's arguments."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", SAMPLED)
def test_draws_from_slacks_match_classify_oracle(name, kind):
    """On every star of dimension at least two, as given and rescaled ray
    by ray, the draws proved from the certificate are the oracle's, value
    for value, and leave the random state where the oracle does."""
    stars = _stars(_tropical(name, kind))
    assert stars
    for fan, witness, certificate in stars:
        slacks = witness_slacks(fan, certificate)
        for seed in SEEDS:
            rng, oracle = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert sample_strictly_convex(fan, witness, rng, slacks) == classify_sample_strictly_convex(
                    fan, witness, oracle
                )
            assert rng.getstate() == oracle.getstate()
            # without slacks every draw is proved by classify_convexity
            assert sample_strictly_convex(fan, witness, random.Random(seed)) == classify_sample_strictly_convex(
                fan, witness, random.Random(seed)
            )


@pytest.mark.parametrize("name", ["M(K4)", "Fano", "U(3,5)"])
def test_bergman_misses_fall_back_cone_by_cone(name, monkeypatch):
    """On a Bergman fan some draws miss at some cones, each miss solves
    fewer programs than the fan has cones, and the draws stay the
    oracle's."""
    fan, witness, certificate = _stars(TROPICAL_FANS[name]())[0]
    slacks = witness_slacks(fan, certificate)
    expected = [classify_sample_strictly_convex(fan, witness, random.Random(seed)) for seed in range(12)]
    solved = _count(monkeypatch, convexity, "_witness_at_cone")
    per_draw = []
    for seed in range(12):
        before = len(solved)
        assert sample_strictly_convex(fan, witness, random.Random(seed), slacks) == expected[seed]
        per_draw.append(len(solved) - before)
    assert any(per_draw)
    assert max(per_draw) < len(fan.all_cones())


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", ["skeleton", "triangle_x_line", "two_triangles", "M(K4)", "Fano", "U(3,5)"])
def test_definition_sample_check_matches_classify_oracle(name, kind, monkeypatch):
    tf = _tropical(name, kind)
    witness = find_strictly_convex(tf.fan)
    report = definition_sample_check(tf, witness, samples=2, seed=7)

    def oracle(fan, witness, rng, slacks=None):
        return classify_sample_strictly_convex(fan, witness, rng)

    monkeypatch.setattr(lorentzian, "sample_strictly_convex", oracle)
    assert definition_sample_check(tf, witness, samples=2, seed=7) == report


def test_triangle_x_line_draws_solve_no_program(monkeypatch):
    """On triangle x line the shifted functional proves every cone of
    every draw: no per-cone program and no LP."""
    stars = _stars(triangle_times_line())
    solved = _count(monkeypatch, convexity, "_witness_at_cone")
    lps = _count(monkeypatch, convexity, "strict_feasible")
    for fan, witness, certificate in stars:
        slacks = witness_slacks(fan, certificate)
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(4):
                sample_strictly_convex(fan, witness, rng, slacks)
    assert solved == [] and lps == []


def _expected_solves(fan, certificate, scale, bump, halvings):
    """The cones strict_by_shift solves, from Fraction slacks: each whose
    shifted functional has a slack at most 0, up to the first that is not
    strict; and whether the divisor is strictly convex."""
    eps = Fraction(1, 2**halvings)
    z = tuple(scale * w + eps * b for w, b in zip(certificate.divisor, bump))
    verdict = classify_convexity(fan, z, strict=True)
    solves = []
    for cw, slacks in zip(certificate.witnesses, shifted_slacks(fan, certificate, scale, bump, halvings)):
        if slacks is None or min(slacks, default=1) <= 0:
            solves.append(cw.cone)
            if cw.cone in verdict.failing:
                break
    return solves, verdict.strictly_convex


def test_mk4_misses_solve_only_cones_whose_shifted_slack_fails(monkeypatch):
    """Each program a draw on M(K4) solves is at a cone whose shifted
    functional, recomputed in Fractions at that draw's scale, bump and
    halving, has a slack at most 0, and every such cone is solved up to the
    first that is not strict."""
    fan, witness, certificate = _stars(TROPICAL_FANS["M(K4)"]())[0]
    slacks = witness_slacks(fan, certificate)
    solved = _count(monkeypatch, convexity, "_witness_at_cone")
    rng = random.Random(4)
    misses = 0
    for _ in range(16):
        replay = random.Random()
        replay.setstate(rng.getstate())
        del solved[:]
        sample_strictly_convex(fan, witness, rng, slacks)
        got = [args[2] for args in solved]
        scale = replay.randint(1, 4)
        bump = [Fraction(replay.randint(0, 12), 4) for _ in fan.rays]
        expected = []
        for halvings in range(14):
            solves, strict = _expected_solves(fan, certificate, scale, bump, halvings)
            expected += solves
            if strict:
                break
        assert got == expected
        misses += bool(expected)
    assert misses


def test_zero_shifted_slack_goes_to_its_program(monkeypatch):
    """On the cone of e1 and e2, where every divisor is strictly convex, a
    bump whose shifted slack at cone (0,) is exactly 0 sends that cone to
    its program; a quarter of that bump gives a positive slack there and no
    program."""
    fan = MarkedFan(
        ambient_dim=2,
        rays=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        maximal_cones=((0, 1),),
    )
    witness = (Fraction(1), Fraction(2))
    certificate = classify_convexity(fan, witness, strict=True)
    slacks = witness_slacks(fan, certificate)
    cone = fan.all_cones().index((0,))
    (s, d), = slacks.cones[cone][1]
    # the excess of the bump at ray 1 over cone (0,) is its value there
    bump = (Fraction(0), Fraction(-3 * s, d))
    assert shifted_slacks(fan, certificate, 3, bump, 0)[cone] == (0,)
    solved = _count(monkeypatch, convexity, "_witness_at_cone")
    for halvings in (0, 2):
        z = tuple(3 * w + b / 2**halvings for w, b in zip(witness, bump))
        del solved[:]
        excess = [hood.rows(bump) for hood, _ in slacks.cones]
        assert strict_by_shift(fan, slacks, z, 3, excess, halvings)
        got = [args[2] for args in solved]
        expected, strict = _expected_solves(fan, certificate, 3, bump, halvings)
        assert strict and got == expected
        assert ((0,) in expected) is (halvings == 0)


def test_slacks_of_another_divisor_refused():
    tf = triangle_fan()
    witness = find_strictly_convex(tf.fan)
    slacks = witness_slacks(tf.fan, classify_convexity(tf.fan, witness, strict=True))
    with pytest.raises(PreconditionError):
        sample_strictly_convex(tf.fan, tuple(2 * v for v in witness), random.Random(1), slacks)


def test_witness_check_tries_regular_first(monkeypatch):
    """A witness for which `_regular` holds needs no classify_convexity
    pass on the fan: the one certificate per star is the only one.  The
    witness from find_strictly_convex is the candidate divisor, whose
    verdict the fan already keeps, so `_regular` is not run again."""
    for tf in (bergman_fan(complete_graph_matroid(4)), triangle_times_line()):
        witness = find_strictly_convex(tf.fan)
        assert tf.fan.regular(witness)
        classified = _count(monkeypatch, convexity, "classify_convexity")
        star_certificates = _count(monkeypatch, lorentzian, "classify_convexity")
        regular = _count(monkeypatch, fan_module, "_regular")
        report = definition_sample_check(tf, witness, samples=1, seed=3)
        assert regular == []
        assert classified == []
        assert len(star_certificates) == len(report.records)
        monkeypatch.undo()


@pytest.mark.parametrize("values", [[1, 1], [1, 1, 1, 1]])
def test_witness_of_wrong_length_refused(values):
    tf = triangle_fan()
    with pytest.raises(PreconditionError) as excinfo:
        definition_sample_check(tf, tuple(map(Fraction, values)), samples=1, seed=3)
    assert type(excinfo.value) is PreconditionError
    assert str(excinfo.value) == "divisor has one value per ray"


@pytest.mark.parametrize("values", [[0, 0, 0], [-1, 0, 0], [1, 1, -2]])
def test_non_strict_witness_carries_classify_certificate(values):
    tf = triangle_fan()
    z = tuple(map(Fraction, values))
    assert fan_module._regular(tf.fan, z, {}) is None
    with pytest.raises(ConvexityError) as excinfo:
        definition_sample_check(tf, z, samples=1, seed=3)
    assert str(excinfo.value) == "sampling requires a strictly convex witness"
    assert excinfo.value.certificate == classify_convexity(tf.fan, z, strict=True)


def test_stars_built_only_for_cones_of_codimension_two(monkeypatch):
    tf = triangle_times_line()
    built = _count(monkeypatch, lorentzian, "star")
    report = definition_sample_check(tf, find_strictly_convex(tf.fan), samples=1, seed=3)
    cones = [args[1] for args in built]
    assert cones == [r.cone for r in report.records]
    assert all(len(c) <= tf.dimension - 2 for c in cones)
