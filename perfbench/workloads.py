"""The three workloads: their set-up, their op lists and their output checks.

Set-up builds every fan inside the repository (stock fixtures and Bergman
fans of matroids), writes fans and divisors to JSON, and returns the op list.
Each op parses its fans from that JSON, so no op reuses an object another op
built.  Every check runs after the op's timer stops and compares the output
against an independent oracle where one exists (numpy for inertia, exact
recomputation for log-concavity, a library call for re-verification).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from harness import CheckFailed, Op

STOCK = {
    "triangle": "triangle_fan",
    "skeleton": "coordinate_skeleton_fan",
    "triangle_x_line": "triangle_times_line",
    "spindle": "spindle_fan",
    "two_triangles": "two_disjoint_triangles",
    "twisted_prism": "twisted_prism_fan",
}

# fans whose Lorentzian verdict is "no", and why
NOT_QUASIPROJECTIVE = {"twisted_prism"}
PINCHED_AT = {"two_triangles": [""]}  # pinched at the origin, whose cone key is ""

# d2 perturbs this multiple of the strictly convex d1.  With the factor the
# first candidate of sample_strictly_convex is strictly convex on every fan
# here (for every seed from 1 to 30), so d2 has quarter-integer values and
# set-up cost does not depend on the seed.
D2_WITNESS_SCALE = 8


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


def matroid(lf, name: str):
    """The matroid named like "M(K5)", "U(4,6)" or "Fano"."""
    if name == "Fano":
        return lf.matroids.fano_matroid()
    if m := re.fullmatch(r"M\(K(\d+)\)", name):
        return lf.matroids.complete_graph_matroid(int(m[1]))
    if m := re.fullmatch(r"U\((\d+),(\d+)\)", name):
        return lf.matroids.uniform_matroid(int(m[1]), int(m[2]))
    raise ValueError(f"unknown matroid {name!r}")


class Inputs:
    """Builds the named fans and writes set-up data into the work directory.

    A fan is a stock fixture by its name here, or the Bergman fan of a named
    matroid.  Each fan, matroid and file is made once per set-up.
    """

    def __init__(self, lf, work: Path):
        self.lf = lf
        self.work = work
        self.matroids = {}
        self.fans = {}

    def write(self, stem: str, obj) -> str:
        path = self.work / f"{stem}.json"
        path.write_text(self.lf.io.dumps(obj) + "\n")
        return str(path)

    def matroid(self, name: str):
        if name not in self.matroids:
            self.matroids[name] = matroid(self.lf, name)
        return self.matroids[name]

    def fan(self, name: str):
        """(tropical fan, JSON path) of the named fan."""
        if name not in self.fans:
            if name in STOCK:
                tf = getattr(self.lf.fixtures, STOCK[name])()
            else:
                tf = self.lf.matroids.bergman_fan(self.matroid(name))
            self.fans[name] = (tf, self.write(slug(name), self.lf.io.tropical_to_json(tf)))
        return self.fans[name]

    def convex(self, name: str):
        """A strictly convex divisor: c_F = |F|(n-|F|) on the proper flats of a
        Bergman fan, the joint-LP witness on a stock fixture."""
        if name in STOCK:
            return self.lf.convexity.find_strictly_convex(self.fan(name)[0].fan)
        m = self.matroid(name)
        return tuple(Fraction(len(f) * (m.n - len(f))) for f in m.proper_flats())

    def divisor(self, stem: str, z) -> str:
        return self.write(stem, self.lf.io.divisor_to_json(z))


def load(lf, path: str):
    return lf.io.tropical_from_json(lf.io.load_json_file(path))


def cli_op(lf, work: Path, name: str, argv: list[str], check) -> Op:
    """An op that runs the lorfan CLI in-process and checks its JSON report."""
    out = work / f"out-{slug(name)}.json"

    def run():
        return lf.cli.main(["--out", str(out), *argv])

    def verify(code):
        expect(code == 0, f"exit code {code}")
        payload = json.loads(out.read_text())
        out.unlink()
        check(payload)

    return Op(name, run, verify)


# ---------------------------------------------------------------------------
# independent oracles


def numpy_inertia(matrix) -> list[int]:
    """(positive, negative, zero) eigenvalue counts by floating point."""
    a = np.array([[float(Fraction(x)) for x in row] for row in matrix], dtype=float)
    if a.size == 0:
        return [0, 0, 0]
    ev = np.linalg.eigvalsh(a)
    tol = 1e-9 * max(1.0, float(np.abs(a).max())) * len(a)
    return [int((ev > tol).sum()), int((ev < -tol).sum()), int((np.abs(ev) <= tol).sum())]


def log_concave(seq) -> bool:
    return all(seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))


def check_volume_form(payload) -> None:
    """A Lorentzian 2-fan's volume form: inertia by the oracle with one positive
    eigenvalue, and the polynomial equals z.M.z."""
    matrix = payload["matrix"]
    expect(list(payload["inertia"]) == numpy_inertia(matrix), "inertia differs from the numpy oracle")
    expect(payload["inertia"][0] == 1, "a Lorentzian 2-fan needs exactly one positive eigenvalue")
    n = len(matrix)
    from_matrix = {}
    for i in range(n):
        for j in range(i, n):
            v = Fraction(matrix[i][j]) * (1 if i == j else 2)
            if v:
                expo = [0] * n
                expo[i] += 1
                expo[j] += 1
                from_matrix[",".join(map(str, expo))] = v
    poly = {k: Fraction(v) for k, v in payload["polynomial"].items()}
    expect(poly == from_matrix, "volume polynomial disagrees with the volume form")


def check_balanced(lf, tf, what: str) -> None:
    expect(lf.weights.check_balancing(tf.fan, tf.weight) == (), f"{what} is not balanced")


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Certify:
    """`lorfan lorentzian` on the certify ladder: joint strict-convexity LP plus star inertia."""

    lorentzian: tuple = (
        "triangle", "skeleton", "triangle_x_line", "spindle", "two_triangles",
        "twisted_prism", "M(K4)", "Fano", "U(3,5)", "U(3,6)",
    )
    sampled: tuple = ("skeleton", "triangle_x_line")
    samples: int = 3
    largest: str = "lorentzian U(3,6)"
    name: str = "certify"

    def setup(self, lf, work: Path, seed: int) -> list[Op]:
        inputs = Inputs(lf, work)
        ops = []
        for fan in self.lorentzian:
            _, path = inputs.fan(fan)
            ops.append(cli_op(lf, work, f"lorentzian {fan}", ["lorentzian", "--fan", path],
                              self._checker(lf, fan, path, None)))
        for fan in self.sampled:
            _, path = inputs.fan(fan)
            argv = ["lorentzian", "--fan", path, "--samples", str(self.samples), "--seed", str(seed)]
            ops.append(cli_op(lf, work, f"lorentzian {fan} --samples {self.samples}", argv,
                              self._checker(lf, fan, path, seed)))
        return ops

    def _checker(self, lf, fan: str, path: str, seed):
        qp = fan not in NOT_QUASIPROJECTIVE
        verdict = "yes" if qp and fan not in PINCHED_AT else "no"

        def check(payload):
            expect(payload["verdict"] == verdict, f"verdict {payload['verdict']}, expected {verdict}")
            expect(payload["quasiprojective"] is qp, f"quasiprojective {payload['quasiprojective']}")
            expect(payload["pinches"]["pinched_at"] == PINCHED_AT.get(fan, []), "wrong pinch locations")
            witness = payload["witness"]
            expect((witness is not None) == qp, "a witness exactly when quasiprojective")
            if witness is not None:
                tf = load(lf, path)
                z = tuple(Fraction(v) for v in witness)
                cert = lf.convexity.classify_convexity(tf.fan, z, strict=True)
                expect(cert.strictly_convex, "witness does not re-verify as strictly convex")
            for cone, star in payload["stars"].items():
                expect(list(star["inertia"]) == numpy_inertia(star["matrix"]),
                       f"star {cone!r} inertia differs from the numpy oracle")
                if verdict == "yes":
                    expect(star["inertia"][0] == 1, f"star {cone!r} of a Lorentzian fan has p != 1")
            if seed is not None:
                sampling = payload["sampling"]
                expect(sampling["seed"] == seed and sampling["samples"] == self.samples,
                       "sampling report does not record its seed and size")
                expect(sampling["all_lorentzian_signs"], "sampled signs contradict the verdict")

        return check


@dataclass(frozen=True)
class Degrees:
    """`lorfan af` and `lorfan volpoly`: mixed degrees and per-cone convexity, no joint LP."""

    af: tuple = ("M(K4)", "Fano", "U(3,6)", "U(4,6)", "M(K5)")
    volpoly: tuple = ("M(K4)", "Fano")
    largest: str = "af M(K5)"
    name: str = "degrees"

    def setup(self, lf, work: Path, seed: int) -> list[Op]:
        inputs = Inputs(lf, work)
        ops = []
        for fan in self.af:
            tf, path = inputs.fan(fan)
            d1 = inputs.convex(fan)
            if not lf.convexity.classify_convexity(tf.fan, d1, strict=True).strictly_convex:
                raise RuntimeError(f"d1 is not strictly convex on {fan}")
            rng = random.Random(f"degrees/{fan}/{seed}")
            witness = tuple(D2_WITNESS_SCALE * v for v in d1)
            d2 = lf.lorentzian.sample_strictly_convex(tf.fan, witness, rng)
            argv = ["af", "--fan", path, "--d1", inputs.divisor(f"{slug(fan)}-d1", d1),
                    "--d2", inputs.divisor(f"{slug(fan)}-d2", d2)]
            if tf.dimension > 2:
                aux = {"divisors": [lf.io.divisor_to_json(d1)] * (tf.dimension - 2)}
                argv += ["--aux", inputs.write(f"{slug(fan)}-aux", aux)]
            ops.append(cli_op(lf, work, f"af {fan}", argv, self._af_checker(tf.dimension, d1, d2)))
        for fan in self.volpoly:
            _, path = inputs.fan(fan)
            ops.append(cli_op(lf, work, f"volpoly {fan}", ["volpoly", "--fan", path], check_volume_form))
        return ops

    @staticmethod
    def _af_checker(d: int, d1, d2):
        echoed = [[str(v) for v in d1], [str(v) for v in d2]]

        def check(payload):
            expect(payload["divisors"] == echoed, "report does not echo its divisors")
            expect(Fraction(payload["af_gap"]) >= 0, "negative AF gap on a Lorentzian fan")
            seq = [Fraction(v) for v in payload["sequence"]]
            expect(len(seq) == d + 1 and all(v > 0 for v in seq), "degree sequence has a wrong length or sign")
            expect(log_concave(seq) and payload["log_concave"] is True, "sequence is not log-concave")

        return check


@dataclass(frozen=True)
class Structure:
    """Validation, stars, pinches and balancing: thousands of tiny LPs, most infeasible."""

    validate: tuple = ("skeleton", "twisted_prism", "M(K4)", "Fano", "U(3,5)", "U(3,6)")
    stars: tuple = ("M(K5)", "U(4,6)")
    stellar: str = "U(4,6)"
    product: tuple = ("triangle", "U(3,5)")
    modify: str = "U(3,5)"
    cli_bergman: str = "M(K5)"
    cli_balance: str = "U(4,6)"
    cli_star: tuple = ("M(K5)", "0")
    cli_volpoly: str = "U(3,5)"
    largest: str = "validate U(3,6)"
    name: str = "structure"

    def setup(self, lf, work: Path, seed: int) -> list[Op]:
        inputs = Inputs(lf, work)
        ops = []
        for fan in self.validate:
            _, path = inputs.fan(fan)
            ops.append(cli_op(lf, work, f"validate {fan}", ["validate", "--fan", path],
                              lambda payload: expect(payload["valid"] is True, "a ladder fan fails validation")))
        for fan in self.stars:
            ops.append(self._stars_op(lf, fan, inputs.fan(fan)[1]))
        ops.append(self._stellar_op(lf, inputs, seed))
        ops.append(self._product_op(lf, inputs))
        ops.append(self._modify_op(lf, inputs))
        ops.extend(self._cli_ops(lf, inputs, work))
        return ops

    @staticmethod
    def _stars_op(lf, fan: str, path: str) -> Op:
        def run():
            tf = load(lf, path)
            rows = []
            for ray in range(len(tf.fan.rays)):
                sd = lf.fan.star(tf.fan, (ray,))
                stf = lf.weights.star_weight(tf, (ray,), sd)
                pinch = lf.fan.is_unpinched(sd.fan)
                rows.append((pinch.unpinched, lf.weights.check_balancing(stf.fan, stf.weight), stf.dimension))
            return tf.dimension, rows

        def check(result):
            d, rows = result
            expect(all(unpinched for unpinched, _, _ in rows), "a star of a matroid fan is pinched")
            expect(all(failing == () for _, failing, _ in rows), "a star weight is unbalanced")
            expect(all(dim == d - 1 for _, _, dim in rows), "a ray star has the wrong dimension")

        return Op(f"stars {fan}", run, check)

    def _stellar_op(self, lf, inputs: Inputs, seed: int) -> Op:
        tf, path = inputs.fan(self.stellar)
        rng = random.Random(f"structure/stellar/{seed}")
        cone = rng.choice(tf.fan.maximal_cones)
        coeffs = [rng.randint(1, 5) for _ in cone]
        point = tuple(sum(c * tf.fan.rays[i][j] for c, i in zip(coeffs, cone)) for j in range(tf.fan.ambient_dim))
        z = inputs.convex(self.stellar)

        def run():
            coarse = load(lf, path)
            sub = lf.fan.stellar_subdivide(coarse.fan, point)
            return coarse, sub, lf.weights.transport_weight(coarse, sub.fan, sub.containment)

        def check(result):
            coarse, sub, fine = result
            check_balanced(lf, fine, "the transported weight")
            added = len(sub.fan.maximal_cones) - len(coarse.fan.maximal_cones)
            expect(added == len(cone) - 1, "an interior point must split exactly one maximal cone")
            pulled = lf.weights.pullback_divisor(coarse.fan, z, sub.fan)
            d = coarse.dimension
            before = lf.weights.mixed_degree(coarse.fan, coarse.weight, [z] * d)
            after = lf.weights.mixed_degree(fine.fan, fine.weight, [pulled] * d)
            expect(before == after, "subdivision changed a mixed degree")

        return Op(f"stellar {self.stellar}", run, check)

    def _product_op(self, lf, inputs: Inputs) -> Op:
        paths = [inputs.fan(fan)[1] for fan in self.product]

        def run():
            factors = [load(lf, p) for p in paths]
            return factors, lf.ops.product_tropical(*factors)

        def check(result):
            (a, b), prod = result
            check_balanced(lf, prod, "the product")
            expect(len(prod.fan.maximal_cones) == len(a.fan.maximal_cones) * len(b.fan.maximal_cones),
                   "the product has the wrong number of cones")

        return Op("product " + " x ".join(self.product), run, check)

    def _modify_op(self, lf, inputs: Inputs) -> Op:
        _, path = inputs.fan(self.modify)
        z_path = inputs.divisor(f"{slug(self.modify)}-c", inputs.convex(self.modify))

        def run():
            base = load(lf, path)
            z = lf.io.divisor_from_json(lf.io.load_json_file(z_path))
            return base, lf.ops.tropical_modification(base, z)

        def check(result):
            base, lifted = result
            check_balanced(lf, lifted, "the modification")
            expect(lifted.fan.ambient_dim == base.fan.ambient_dim + 1, "the modification is not one dimension up")

        return Op(f"modify {self.modify}", run, check)

    def _cli_ops(self, lf, inputs: Inputs, work: Path) -> list[Op]:
        m = inputs.matroid(self.cli_bergman)
        matroid_path = inputs.write(f"{slug(self.cli_bergman)}-matroid",
                                    {"n": m.n, "bases": sorted(sorted(b) for b in m.bases)})
        expected = lf.io.tropical_to_json(inputs.fan(self.cli_bergman)[0])
        _, balance_path = inputs.fan(self.cli_balance)
        star_fan, star_cone = self.cli_star
        star_tf, star_path = inputs.fan(star_fan)
        apex = len(lf.io.key_to_cone(star_cone))

        def check_star(payload):
            tf = lf.io.tropical_from_json(payload)
            check_balanced(lf, tf, "the star")
            expect(tf.dimension == star_tf.dimension - apex, "the star has the wrong dimension")

        return [
            cli_op(lf, work, f"cli bergman {self.cli_bergman}", ["bergman", "--matroid", matroid_path],
                   lambda payload: expect(payload == expected, "bergman output differs from the library fan")),
            cli_op(lf, work, f"cli balance {self.cli_balance}", ["balance", "--fan", balance_path],
                   lambda payload: expect(payload["balanced"] is True, "a matroid fan reads unbalanced")),
            cli_op(lf, work, f"cli star {star_fan} at {star_cone}",
                   ["star", "--fan", star_path, "--cone", star_cone], check_star),
            cli_op(lf, work, f"cli volpoly {self.cli_volpoly}", ["volpoly", "--fan", inputs.fan(self.cli_volpoly)[1]],
                   check_volume_form),
        ]


WORKLOADS = {w.name: w for w in (Certify(), Degrees(), Structure())}
