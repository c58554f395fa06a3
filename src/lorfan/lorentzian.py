"""Volume polynomials, the Lorentzian decision procedure, and AF reports.

The decision procedure is the two-dimensional characterization: a positive
balanced fan is Lorentzian iff it is quasiprojective, no star of codimension
at least two disconnects away from the origin, and the quadratic volume form
of every codimension-two star has exactly one positive eigenvalue.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .convexity import is_strictly_convex, require_convex, strictly_convex_witness
from .errors import InternalError, PreconditionError
from .fan import Cone, MarkedFan, PinchReport, is_unpinched, require_fan, star
from .linalg import Inertia, Mat, ONE, inertia
from .weights import (
    Divisor,
    TropicalFan,
    acted_weights,
    indicator_divisor,
    mixed_degrees,
    push_divisor_to_star,
    quadratic_form,
    star_forms,
    star_weight,
)


# ---------------------------------------------------------------------------
# volume polynomials


Polynomial = dict  # exponent tuple over rays -> Fraction


def volume_polynomial(tf: TropicalFan) -> Polynomial:
    """Dense homogeneous volume polynomial, as exponent-tuple -> coefficient.

    The coefficient of a monomial is its multinomial times the mixed degree
    of its ray indicators.  The divisor action is linear and commutative, so
    in dimension d >= 2 each sorted (d-2)-multiset of indicators acts on the
    weight once (`acted_weights` shares common prefixes), and the quadratic
    form of the degree-two weight it leaves holds the mixed degrees of every
    monomial that extends the multiset by two rays no smaller than its last.
    In dimension one the polynomial is the indicators' mixed degrees.
    Desk scale only (dimension at most four).
    """
    fan = tf.fan
    w = tf.weight
    d = fan.dimension
    if d > 4:
        raise PreconditionError("volume polynomials are supported up to dimension four")
    nrays = len(fan.int_marks)
    if d == 0:
        return {(): w[()]}
    indicators = [indicator_divisor(fan, i) for i in range(nrays)]
    if d == 1:
        degrees = mixed_degrees(fan, w, indicators, [(r,) for r in range(nrays)])
        return {tuple(int(i == r) for i in range(nrays)): v for r, v in enumerate(degrees) if v}
    prefixes = list(itertools.combinations_with_replacement(range(nrays), d - 2))
    acted = acted_weights(fan, w, indicators, prefixes)
    return _forms_polynomial((prefix, quadratic_form(fan, v)) for prefix, v in zip(prefixes, acted))


def _forms_polynomial(forms) -> Polynomial:
    """The polynomial that quadratic forms give, from (prefix, form) pairs.

    `form` is the quadratic form of the degree-two weight that the
    indicators of the sorted multiset `prefix` leave.  Its entry (j, k), for
    j <= k and j no smaller than the prefix's last index, is the mixed
    degree of prefix + (j, k); each nonzero one, times its multinomial, is
    the coefficient of that monomial.
    """
    poly = {}
    for prefix, form in forms:
        nrays = len(form)
        first = prefix[-1] if prefix else 0
        for j in range(first, nrays):
            for k in range(j, nrays):
                if form[j][k] == 0:
                    continue
                expo = [0] * nrays
                for i in (*prefix, j, k):
                    expo[i] += 1
                multi = math.factorial(len(prefix) + 2)
                for e in expo:
                    multi //= math.factorial(e)
                poly[tuple(expo)] = multi * form[j][k]
    return poly


# ---------------------------------------------------------------------------
# the decision procedure


class StarInertiaRecord(NamedTuple):
    cone: Cone
    inertia: Inertia
    matrix: Mat


class LorentzianCertificate(NamedTuple):
    verdict: bool
    quasiprojective: bool
    witness: Optional[Divisor]
    witness_route: str  # the route strictly_convex_witness reports
    pinch_report: PinchReport
    star_records: tuple[StarInertiaRecord, ...]
    # inertia records depend on the marks, so the certificate pins them
    # down, as the fan's int marks
    marking: tuple = ()


def is_lorentzian(tf: TropicalFan) -> LorentzianCertificate:
    """Certificate-producing Lorentzian test.

    Quasiprojectivity is witnessed by an exact strictly convex divisor, the
    candidate divisor when it checks out and else what the Benders cuts of
    strictly_convex_witness find, a witness or a proof that none exists;
    the star condition demands exactly one positive eigenvalue of the
    quadratic volume form of every codimension-two star.  Fans of dimension
    at most one are Lorentzian exactly when quasiprojective.  Input that
    fails validate is refused: the characterization holds only for fans.
    """
    fan = tf.fan
    require_fan(fan, "the Lorentzian test needs a fan")
    witness, route = strictly_convex_witness(fan)
    quasiprojective = witness is not None
    pinch = is_unpinched(fan)
    records = [StarInertiaRecord(tau, inertia(m), m) for tau, m in star_forms(fan, tf.weight)]
    verdict = (
        quasiprojective
        and pinch.unpinched
        and all(r.inertia.p == 1 for r in records)
    )
    return LorentzianCertificate(
        verdict=verdict,
        quasiprojective=quasiprojective,
        witness=witness,
        witness_route=route,
        pinch_report=pinch,
        star_records=tuple(records),
        marking=fan.int_marks,
    )


# ---------------------------------------------------------------------------
# sequence shape


def is_log_concave(seq: Sequence[Fraction]) -> bool:
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )


def is_unimodal(seq: Sequence[Fraction]) -> bool:
    decreasing = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            decreasing = True
        elif b > a and decreasing:
            return False
    return True


# ---------------------------------------------------------------------------
# AF reports


class AFReport(NamedTuple):
    divisors: tuple[Divisor, Divisor]
    auxiliary: tuple[Divisor, ...]
    af_gap: Fraction
    sequence: tuple[Fraction, ...]
    log_concave: bool
    unimodal: bool


def af_report(
    tf: TropicalFan,
    d1: Divisor,
    d2: Divisor,
    aux: Sequence[Divisor] = (),
) -> AFReport:
    """Alexandrov-Fenchel gap and full degree sequence for a convex pair.

    The gap is deg(D1 D2 aux)^2 - deg(D1^2 aux) deg(D2^2 aux); the sequence
    runs through deg(D1^k D2^(d-k)).  Input that fails validate is refused,
    and each distinct divisor passes `require_convex` once.  The degrees
    share their common prefixes of divisor actions.
    """
    fan = tf.fan
    d = fan.dimension
    if d < 2:
        raise PreconditionError("AF reports need dimension at least two")
    if len(aux) != d - 2:
        raise PreconditionError(f"need {d - 2} auxiliary divisors, got {len(aux)}")
    aux = tuple(aux)
    index = {}
    for z in (d1, d2, *aux):
        if len(z) != len(fan.int_marks):
            raise PreconditionError("divisor has one value per ray")
        index.setdefault(tuple(z), len(index))
    require_fan(fan, "AF reports need a fan")
    for z in index:
        require_convex(fan, z, False, "input divisor is not convex")
    i1, i2, *rest = (index[tuple(z)] for z in (d1, d2, *aux))
    sequences = [(i1, i2, *rest), (i1, i1, *rest), (i2, i2, *rest)]
    sequences += [(i1,) * k + (i2,) * (d - k) for k in range(d + 1)]
    mixed, sq1, sq2, *seq = mixed_degrees(fan, tf.weight, list(index), sequences)
    seq = tuple(seq)
    return AFReport(
        divisors=(tuple(d1), tuple(d2)),
        auxiliary=aux,
        af_gap=mixed * mixed - sq1 * sq2,
        sequence=seq,
        log_concave=is_log_concave(seq),
        unimodal=is_unimodal(seq),
    )


# ---------------------------------------------------------------------------
# definition-level sampling


# halvings of the random bump before sampling gives up
_MAX_HALVINGS = 14


def sample_strictly_convex(fan: MarkedFan, witness: Divisor, rng: random.Random) -> Divisor:
    """A random strictly convex divisor: scale*witness + eps*bump, for a
    random scale in 1..4, a random nonnegative bump and the first eps in
    1, 1/2, 1/4, ... at which the draw is strictly convex.

    Each draw is decided by `convexity.is_strictly_convex`: by
    `fan.regular`, whose first kept record, shifted to the draw, costs no
    program where the draw stays near a multiple of its divisor, and else
    cone by cone up to the first cone without a strict witness.  It gives
    classify_convexity's exact verdict, so the draws are those of a
    classify_convexity pass per draw.
    """
    if len(witness) != len(fan.int_marks):
        raise PreconditionError("divisor has one value per ray")
    if not witness:
        return ()
    scale = Fraction(rng.randint(1, 4))
    base = tuple(scale * v for v in witness)
    bump = tuple(Fraction(rng.randint(0, 12), 4) for _ in range(len(fan.int_marks)))
    eps = ONE
    for _ in range(_MAX_HALVINGS):
        candidate = tuple(b + eps * p for b, p in zip(base, bump))
        if is_strictly_convex(fan, candidate):
            return candidate
        eps /= 2
    raise InternalError("sampling failed to produce a strictly convex divisor")


class StarSampleRecord(NamedTuple):
    cone: Cone
    positive_counts: tuple[int, ...]
    top_degrees_positive: bool


class SampleCheckReport(NamedTuple):
    seed: int
    samples: int
    records: tuple[StarSampleRecord, ...]

    @property
    def all_lorentzian_signs(self) -> bool:
        return all(
            all(p == 1 for p in r.positive_counts) and r.top_degrees_positive
            for r in self.records
        )


def definition_sample_check(
    tf: TropicalFan, witness: Optional[Divisor], samples: int, seed: int
) -> SampleCheckReport:
    """Necessary-condition sampling straight from the defining property.

    For each star of dimension at least two and random strictly convex
    auxiliary divisors, the bilinear mixed-degree form on the ray basis must
    show exactly one positive eigenvalue, and sampled top degrees must be
    positive.  Complements the exact decision procedure.  The samples are
    drawn around `witness`, a strictly convex divisor on the fan, such as the
    witness of the fan's Lorentzian certificate, which must pass
    `require_convex`.

    Input that fails validate is refused, so the stars of dimension two or
    more are those of the cones with at most d - 2 rays, and no other star
    is built.  On each star the pushed witness is proved first, as every
    draw is (see sample_strictly_convex), so when `fan.regular` holds for
    it, its record is the one that later draws on the star shift.  Then
    every draw of the star is made, each sample's d - 2 auxiliary divisors
    before its d top ones, and one `acted_weights` call acts with all of
    them, so the star weight's mark sums are made once.  Each distinct
    auxiliary sequence takes one quadratic form and one inertia, one per
    star on a two-dimensional star, whose auxiliary sequences are empty.
    """
    fan = tf.fan
    if samples < 1:
        raise PreconditionError("sampling needs at least one sample")
    if witness is None:
        raise PreconditionError("sampling requires a quasiprojective fan")
    require_fan(fan, "sampling needs a fan")
    require_convex(fan, witness, True, "sampling requires a strictly convex witness")
    rng = random.Random(seed)
    records = []
    for tau in sorted(fan.all_cones()):
        if len(tau) > fan.dimension - 2:
            continue
        sd = star(fan, tau)
        d_star = sd.fan.dimension
        stf = star_weight(tf, tau, sd)
        star_witness = push_divisor_to_star(sd, witness)
        if not is_strictly_convex(sd.fan, star_witness):
            raise InternalError("pushed witness lost strict convexity on a star")
        per_sample = 2 * d_star - 2
        draws = [sample_strictly_convex(sd.fan, star_witness, rng) for _ in range(samples * per_sample)]
        starts = range(0, len(draws), per_sample)
        aux = [tuple(range(s, s + d_star - 2)) for s in starts]
        tops = [range(s + d_star - 2, s + per_sample) for s in starts]
        distinct = list(dict.fromkeys(aux))
        acted = acted_weights(sd.fan, stf.weight, draws, distinct + tops)
        p_of = {seq: inertia(quadratic_form(sd.fan, v)).p for seq, v in zip(distinct, acted)}
        p_counts = tuple(p_of[seq] for seq in aux)
        tops_positive = all(v[()] > 0 for v in acted[len(distinct):])
        records.append(StarSampleRecord(cone=tau, positive_counts=p_counts, top_degrees_positive=tops_positive))
    return SampleCheckReport(seed=seed, samples=samples, records=tuple(records))
