"""Sampling strictly convex divisors around a witness.

`sample_strictly_convex` decides each draw as `require_convex` does: by
`fan.regular`, whose first kept record, shifted to the draw, proves it with
no program where it can, and else by classify_convexity(strict=True).
`definition_sample_check` proves each star's pushed witness first, so its
record, when it has one, is the one later draws shift.  The oracle proves
every draw with a full classify_convexity pass
(`helpers.classify_sample_strictly_convex`), and the draws must be its own.
Each star then makes all its draws and acts with them in one
`acted_weights` call; the oracle of that is the loop that draws and acts
sample by sample (`helpers.sequential_sample_check`).
"""

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lorfan import convexity, lorentzian, weights
from lorfan import fan as fan_module
from lorfan.cli import main
from lorfan.convexity import classify_convexity, find_strictly_convex
from lorfan.errors import BalancingError, ConvexityError, PreconditionError
from lorfan.fan import star, validate
from lorfan.fixtures import origin_fan, triangle_fan, triangle_times_line
from lorfan.lorentzian import definition_sample_check, sample_strictly_convex
from lorfan.matroids import bergman_fan, complete_graph_matroid, uniform_matroid
from lorfan.ops import product_tropical
from lorfan.weights import MinkowskiWeight, TropicalFan, constant_weight, push_divisor_to_star

from helpers import (
    SCALES,
    TROPICAL_FANS,
    classify_sample_strictly_convex,
    non_pure_space,
    rescaled_tropical,
    sequential_sample_check,
    triangle_double_cover,
)

INPUTS = Path(__file__).parent / "golden" / "inputs"

# the fixtures with a strictly convex divisor and a star of dimension two
SAMPLED = [n for n in TROPICAL_FANS if n not in ("line", "origin", "twisted_prism")]
SEEDS = (1, 2, 3)


def _tropical(name, kind):
    return TROPICAL_FANS[name]() if kind is None else rescaled_tropical(name, kind)


def _stars(tf):
    """(star fan, pushed witness) for each star of dimension at least two,
    in definition_sample_check's order."""
    fan = tf.fan
    witness = find_strictly_convex(fan)
    out = []
    for tau in sorted(fan.all_cones()):
        if len(tau) > fan.dimension - 2:
            continue
        sd = star(fan, tau)
        if sd.fan.dimension < 2:
            continue
        out.append((sd.fan, push_divisor_to_star(sd, witness)))
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


def _lorentzian_samples(name, samples, seed):
    """`lorfan lorentzian --samples` on a golden input fan, quietly."""
    argv = ["lorentzian", "--fan", str(INPUTS / f"{name}.json"), "--samples", str(samples), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", SAMPLED)
def test_draws_from_slacks_match_classify_oracle(name, kind):
    """On every star of dimension at least two, as given and rescaled ray
    by ray, the draws are the oracle's, value for value, and leave the
    random state where the oracle does.  As in definition_sample_check, the
    star fan decides its pushed witness first; where that witness is not
    regular, the first regular draw's record is the one later draws shift."""
    stars = _stars(_tropical(name, kind))
    assert stars
    for fan, witness in stars:
        fan.regular(witness)
        for seed in SEEDS:
            rng, oracle = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert sample_strictly_convex(fan, witness, rng) == classify_sample_strictly_convex(
                    fan, witness, oracle
                )
            assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", ["skeleton", "triangle_x_line", "two_triangles", "M(K4)", "Fano", "U(3,5)"])
def test_definition_sample_check_matches_classify_oracle(name, kind, monkeypatch):
    tf = _tropical(name, kind)
    witness = find_strictly_convex(tf.fan)
    report = definition_sample_check(tf, witness, samples=2, seed=7)
    monkeypatch.setattr(lorentzian, "sample_strictly_convex", classify_sample_strictly_convex)
    assert definition_sample_check(_tropical(name, kind), witness, samples=2, seed=7) == report


@pytest.mark.parametrize(
    "name,samples,seed,lps",
    [
        ("skeleton", 3, 21, 0),
        ("triangle_x_line", 3, 21, 0),
        ("mk4", 2, 5, 0),
        ("fano", 2, 5, 0),
    ],
)
def test_lorentzian_samples_strict_feasible_count(name, samples, seed, lps, monkeypatch):
    """The LPs of a whole `lorentzian --samples` run, pinned: the free
    iterates of `_regular` (the point shifted from the witness's record on
    each star, w = 0 and the relaxation step) prove every draw.  Proving
    each star's witness and draws from its certificate's functionals
    solved 7, 38, 19 and 39."""
    solved = _count(monkeypatch, fan_module, "strict_feasible")
    solved += _count(monkeypatch, convexity, "strict_feasible")
    _lorentzian_samples(name, samples, seed)
    assert len(solved) == lps


def test_rescaled_u35_reaches_the_classify_fallback(monkeypatch):
    """On U(3,5) rescaled ray by ray, the cut loop's witness is not
    regular, so its star (the fan itself) keeps no record of it, and some
    draws other than the witness are proved strictly convex by
    classify_convexity's per-cone programs after `_regular` finds no
    record."""
    regular = _count(monkeypatch, fan_module, "_regular")
    per_cone = _count(monkeypatch, convexity, "_witness_at_cone")
    verdicts = []
    decide = lorentzian.is_strictly_convex

    def counted(fan, z):
        verdicts.append((tuple(z), decide(fan, z)))
        return verdicts[-1][1]

    monkeypatch.setattr(lorentzian, "is_strictly_convex", counted)
    _lorentzian_samples("u35_q", 2, 5)
    decided = {args[1]: None for args in regular}
    fallback = {tuple(args[1]) for args in per_cone}
    witness = verdicts[0][0]
    assert witness in decided and witness in fallback
    assert fallback <= decided.keys()
    assert any(strict and z != witness and z in fallback for z, strict in verdicts)


def test_rescaled_fano_draws_stop_at_the_first_failing_cone(monkeypatch):
    """On Fano rescaled ray by ray, each draw that `fan.regular` does not
    prove, such as a rejected halving of its bump, is decided cone by cone
    and refused at its first cone without a strict witness:
    `definition_sample_check` at seed 1 solves 103 per-cone programs, where
    a classify_convexity pass per such draw solves 300 for the same
    report."""
    witness = find_strictly_convex(rescaled_tropical("Fano", "rational").fan)
    solved = _count(monkeypatch, convexity, "strict_feasible")
    report = definition_sample_check(rescaled_tropical("Fano", "rational"), witness, samples=2, seed=1)
    assert len(solved) == 103
    del solved[:]
    monkeypatch.setattr(
        lorentzian,
        "is_strictly_convex",
        lambda fan, z: fan.regular(z) or classify_convexity(fan, z, strict=True).strictly_convex,
    )
    assert definition_sample_check(rescaled_tropical("Fano", "rational"), witness, samples=2, seed=1) == report
    assert len(solved) == 300


@pytest.mark.parametrize("witness", [(), (Fraction(1), Fraction(1))])
def test_sample_witness_of_wrong_length_refused(witness):
    with pytest.raises(PreconditionError) as excinfo:
        sample_strictly_convex(triangle_fan().fan, witness, random.Random(1))
    assert str(excinfo.value) == "divisor has one value per ray"


def test_origin_fan_samples_the_empty_divisor():
    assert sample_strictly_convex(origin_fan(2).fan, (), random.Random(1)) == ()


def test_witness_check_tries_regular_first(monkeypatch):
    """A witness for which `_regular` holds needs no classify_convexity
    pass on the fan, and the witness from find_strictly_convex is the
    candidate divisor, whose verdict the fan already keeps, so `_regular`
    does not run on it again.  Each star fan decides its pushed witness
    before any draw, so the first record it keeps is the witness's."""
    for tf in (bergman_fan(complete_graph_matroid(4)), triangle_times_line()):
        witness = find_strictly_convex(tf.fan)
        assert tf.fan.regular(witness)
        classified = _count(monkeypatch, convexity, "classify_convexity")
        per_cone = _count(monkeypatch, convexity, "_witness_at_cone")
        regular = _count(monkeypatch, fan_module, "_regular")
        pushed = _count(monkeypatch, lorentzian, "push_divisor_to_star")
        report = definition_sample_check(tf, witness, samples=1, seed=3)
        monkeypatch.undo()
        assert classified == []
        assert per_cone == []
        assert tuple(witness) not in [z for fan, z, _ in regular if fan is tf.fan]
        assert len(pushed) == len(report.records)
        for sd, _ in pushed:
            if sd.fan is not tf.fan:
                first = next(z for fan, z, _ in regular if fan is sd.fan)
                assert first == push_divisor_to_star(sd, witness)


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


@pytest.mark.parametrize("make", [triangle_double_cover, non_pure_space])
def test_sampling_refuses_what_is_not_a_fan_before_any_draw(make, monkeypatch):
    """After the sample count and the witness, sampling gates on
    `require_fan`, as the Lorentzian test does, before the witness's
    convexity check or any draw."""
    fan = make()
    tf = TropicalFan(fan, constant_weight(fan))
    draws = _count(monkeypatch, lorentzian, "sample_strictly_convex")
    classified = _count(monkeypatch, lorentzian, "require_convex")
    with pytest.raises(PreconditionError) as excinfo:
        definition_sample_check(tf, (Fraction(1),) * len(fan.rays), samples=1, seed=3)
    assert type(excinfo.value) is PreconditionError
    assert str(excinfo.value) == f"sampling needs a fan: {validate(fan).failures[0]}"
    assert draws == [] and classified == []


def test_stars_built_only_for_cones_of_codimension_two(monkeypatch):
    tf = triangle_times_line()
    built = _count(monkeypatch, lorentzian, "star")
    report = definition_sample_check(tf, find_strictly_convex(tf.fan), samples=1, seed=3)
    cones = [args[1] for args in built]
    assert cones == [r.cone for r in report.records]
    assert all(len(c) <= tf.dimension - 2 for c in cones)


# ---------------------------------------------------------------------------
# draws first, one action pass per star


def _matches_sequential(make, seeds, counts):
    """definition_sample_check and the sample-by-sample oracle, each on a
    fresh fan, give equal reports."""
    witness = find_strictly_convex(make().fan)
    for seed in seeds:
        for samples in counts:
            report = definition_sample_check(make(), witness, samples, seed)
            assert report == sequential_sample_check(make(), witness, samples, seed), (seed, samples)


@pytest.mark.parametrize("kind", [None, *SCALES])
@pytest.mark.parametrize("name", [n for n in TROPICAL_FANS if n != "twisted_prism"])
def test_definition_sample_check_matches_sequential_oracle(name, kind):
    _matches_sequential(lambda: _tropical(name, kind), (1, 5, 9), (1, 2, 3))


def test_triangle_squared_matches_sequential_oracle():
    """The 4-dim star at the origin acts with auxiliary sequences of length two."""
    _matches_sequential(lambda: product_tropical(triangle_fan(), triangle_fan()), (1, 5, 9), (1, 2, 3))


def test_u46_matches_sequential_oracle():
    _matches_sequential(lambda: bergman_fan(uniform_matroid(4, 6)), (5,), (2,))


def _coin_negated(monkeypatch):
    """From here on each draw is negated or not by a fixed sequence of coin
    flips, so a report tells which draws acted as auxiliary and which as
    top divisors."""
    draw, coins = lorentzian.sample_strictly_convex, random.Random("coins")

    def signed(*args):
        z = draw(*args)
        return tuple(-v for v in z) if coins.randint(0, 1) else z

    monkeypatch.setattr(lorentzian, "sample_strictly_convex", signed)


@pytest.mark.parametrize(
    "make",
    [triangle_times_line, lambda: product_tropical(triangle_fan(), triangle_fan())],
    ids=["triangle_x_line", "triangle_x_triangle"],
)
def test_signed_draws_match_sequential_oracle(make, monkeypatch):
    """With draws negated by coin flips, the two paths agree only if they
    make their draws in the same order and act with each draw in the same
    place; the reports also show signs that are not Lorentzian."""
    witness = find_strictly_convex(make().fan)
    for seed in (1, 5):
        for samples in (1, 2, 3):
            _coin_negated(monkeypatch)
            report = definition_sample_check(make(), witness, samples, seed)
            monkeypatch.undo()
            _coin_negated(monkeypatch)
            assert report == sequential_sample_check(make(), witness, samples, seed), (seed, samples)
            monkeypatch.undo()
            assert not report.all_lorentzian_signs


def test_negated_draws_give_negative_top_degrees(monkeypatch):
    """With every draw negated, the 3-dim star of triangle x line at the
    origin has negative top degrees (three negated divisors) and its 2-dim
    ray stars keep positive ones, on both paths."""
    draw = lorentzian.sample_strictly_convex
    monkeypatch.setattr(lorentzian, "sample_strictly_convex", lambda *args: tuple(-v for v in draw(*args)))
    witness = find_strictly_convex(triangle_times_line().fan)
    report = definition_sample_check(triangle_times_line(), witness, 2, 5)
    assert report == sequential_sample_check(triangle_times_line(), witness, 2, 5)
    assert [(r.cone, r.top_degrees_positive) for r in report.records][:2] == [((), False), ((0,), True)]
    assert [r.top_degrees_positive for r in report.records].count(False) == 1
    assert not report.all_lorentzian_signs


def test_star_weight_marks_made_once_per_star(monkeypatch):
    """Mark-coordinate passes of `lorentzian --samples 3 --seed 1` on
    triangle x line: once per star weight, once per acted prefix and once per
    distinct auxiliary sequence's quadratic form, 35, with 8 inertias: the
    five 2-dim ray stars take one form each, and the 3-dim origin star one
    per sample.  A form per sample took 45 passes and 18 inertias; acting
    sample by sample forms the star weight's mark sums twice per sample, 60.
    (On U(4,6) the latter two take 297 and 384.)"""
    witness = find_strictly_convex(triangle_times_line().fan)
    passes = _count(monkeypatch, weights, "_mark_coordinates")
    inertias = _count(monkeypatch, lorentzian, "inertia")
    report = definition_sample_check(triangle_times_line(), witness, 3, 1)
    assert len(passes) == 35
    assert len(inertias) == 8
    del passes[:]
    assert sequential_sample_check(triangle_times_line(), witness, 3, 1) == report
    assert len(passes) == 60


@pytest.mark.parametrize("make", [triangle_fan, triangle_times_line])
def test_unbalanced_star_weight_raises_as_the_oracle(make):
    """An unbalanced weight is refused with the oracle's BalancingError and
    message, now after the star's draws rather than the first sample's."""
    tf = make()
    values = dict(tf.weight.values)
    values[max(values)] *= 2
    unbalanced = TropicalFan(tf.fan, MinkowskiWeight(tf.weight.degree, values))
    witness = find_strictly_convex(tf.fan)
    with pytest.raises(BalancingError) as excinfo:
        definition_sample_check(unbalanced, witness, 2, 5)
    with pytest.raises(BalancingError) as oracle:
        sequential_sample_check(unbalanced, witness, 2, 5)
    assert str(excinfo.value) == str(oracle.value)
