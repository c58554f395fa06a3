"""Golden CLI reports.

Every case runs one `lorfan` command through `cli.main` on input files stored
under `tests/golden/inputs/` and compares what it prints, byte for byte, with
`tests/golden/<case>.json`, and its exit code with the one the case expects
(0, or 3 for `validate` on a non-fan).  The reports include the per-cone
witnesses, the strictly convex witness and the star records, so any change
to a cone index, a quotient convention or an LP row order shows up here.

To compare every stored report with a fresh run, without pytest, run from the
repository root:

    PYTHONPATH=src python tests/test_golden_cli.py --check

It exits 1 and names the first case whose report differs.  To rewrite the
stored inputs and reports (only when a report is meant to change), run

    PYTHONPATH=src python tests/test_golden_cli.py

The module imports no pytest: its parametrized tests get their cases from
`pytest_generate_tests`, so the check runs on interpreters without pytest.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from lorfan.cli import main
from lorfan.convexity import ROUTE_CANDIDATE, ROUTE_JOINT_LP, classify_convexity
from lorfan.io import fan_from_json

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

STOCK = {
    "triangle": "triangle_fan",
    "line": "line_fan",
    "skeleton": "coordinate_skeleton_fan",
    "triangle_x_line": "triangle_times_line",
    "spindle": "spindle_fan",
    "two_triangles": "two_disjoint_triangles",
    "origin": "origin_fan",
    "twisted_prism": "twisted_prism_fan",
}
MATROIDS = {"mk4": "M(K4)", "fano": "Fano", "u35": "U(3,5)"}
FANS = tuple(STOCK) + tuple(MATROIDS)
# matroids whose `lorfan bergman` report is pinned, from their bases
BERGMAN = dict(MATROIDS, u46="U(4,6)", mk5="M(K5)")
# Bergman fans whose only case is `lorfan volpoly`: a three-dimensional fan
VOLPOLY = {"u46": "U(4,6)"}
# three-dimensional Bergman fans with an `lorfan af` case: d1 = aux = c_F and
# d2 a fixed draw around 8 c_F, whose cones differ from c_F's off the
# multiples of c_F
AF_BERGMAN = {"u46": "U(4,6)", "mk5": "M(K5)"}
# three-dimensional Bergman fans with a `lorfan validate` case; on M(K5) 120
# maximal cones reach the regular route's program
VALIDATE = ("u46", "mk5")
# three-dimensional Bergman fans with a `lorfan lorentzian` case, whose 41 and
# 50 codimension-two stars pin star forms beyond the plane
LORENTZIAN_BERGMAN = ("u46", "mk5")

DIM = {
    "triangle": 2, "line": 1, "skeleton": 2, "triangle_x_line": 3, "spindle": 2,
    "two_triangles": 2, "origin": 0, "twisted_prism": 3, "mk4": 2, "fano": 2, "u35": 2,
}
# fans with a strictly convex divisor
CONVEX = [f for f in FANS if f != "twisted_prism"]
# the sampling check of the definition, at a fixed seed: stock fans, fans with
# rescaled marks, and Bergman fans; on rescaled U(3,5) the witness is not
# regular, and some draws are proved by classify_convexity; two_triangles is
# a "no" (its origin star has two positive eigenvalues), and on the 4-dim
# triangle_x_triangle auxiliary sequences of length two act
SAMPLED = [
    "skeleton", "triangle_x_line", "mk4", "skeleton_q", "triangle_x_line_q", "fano", "u35_q",
    "two_triangles", "u46", "triangle_x_triangle",
]
# products of two stored input fans (`lorfan product`), with sampled cases only
PRODUCTS = {"triangle_x_triangle": ("triangle", "triangle")}
# fans whose marks are rescaled ray by ray (`helpers.rescale_marking`) by these
# rational and mixed scales, so that marks, weights and divisors leave the
# integers; each takes its divisors from the unscaled fan's, rescaled alike
RESCALED = {
    "skeleton_q": ("skeleton", ("1/2", "3/2", "2/3", "1", "2", "3/2")),
    "triangle_x_line_q": ("triangle_x_line", ("2/3", "1", "1/2", "3/2", "2")),
    "u35_q": (
        "u35",
        ("1", "3/4", "4/5", "5/2", "1/3", "3/2", "5/4", "1/2", "1/5", "1/3", "5/4", "1/2", "5/4", "3/2", "1/5"),
    ),
}
# Bergman fans with a `lorfan stellar` case at a wall point: the sum of the
# marks of the first 2-cone, which lies in several maximal cones (four on
# U(4,6), whose 120 cones become 124)
WALL = ("u46",)
# fans read off a stored `lorfan stellar` report, whose subdivision defeats
# the candidate divisor: `validate` decides them by the pairs route
SUBDIVIDED = {"u35_stellar": "stellar-u35"}
# cone sets that are not fans, from `helpers`, each with a `lorfan validate`
# case that exits 3: overlapping cones found by the pairs route, dependent
# marks (route null), a ray in no cone, and maximal cones of two dimensions
NON_FANS = {
    "double_cover": "triangle_double_cover",
    "dependent_marks": "dependent_marks_fan",
    "unused_ray": "unused_ray_fan",
    "non_pure_plane": "non_pure_plane",
}
# complete fans with a `lorfan mixedvol` case: one polytope per dimension,
# whose right-hand sides are the fan's divisors of these names
MIXEDVOL = {"triangle": ("c", "c2"), "triangle_x_line": ("c", "c2", "c")}


def _cases():
    """(case name, argv) pairs; "@name" stands for tests/golden/inputs/name.json."""
    cases = []
    for f in FANS:
        fan = f"@{f}"
        cases += [
            (f"lorentzian-{f}", ["lorentzian", "--fan", fan]),
            (f"volpoly-{f}", ["volpoly", "--fan", fan]),
            (f"balance-{f}", ["balance", "--fan", fan]),
            (f"star-{f}-apex", ["star", "--fan", fan, "--cone", ""]),
            (f"validate-{f}", ["validate", "--fan", fan]),
        ]
        if DIM[f] >= 1:
            cases.append((f"star-{f}-ray0", ["star", "--fan", fan, "--cone", "0"]))
            cases.append((f"stellar-{f}", ["stellar", "--fan", fan, "--point", f"@{f}-point"]))
    for f in SAMPLED:
        argv = ["lorentzian", "--fan", f"@{f}", "--samples", "2", "--seed", "5"]
        cases.append((f"lorentzian-{f}-samples", argv))
    cases.append(("star-triangle_x_line-cone01", ["star", "--fan", "@triangle_x_line", "--cone", "0,1"]))
    cases.append(("stellar-triangle-on-ray", ["stellar", "--fan", "@triangle", "--point", "3,0"]))
    for f in CONVEX:
        fan = f"@{f}"
        cases.append((f"degree-{f}", ["degree", "--fan", fan, "--divisors", f"@{f}-degree"]))
        if DIM[f] == 0:
            continue
        for z in ("c", "neg"):
            cases.append((f"convexity-{f}-{z}", ["convexity", "--fan", fan, "--divisor", f"@{f}-{z}", "--strict"]))
        cases.append((f"modify-{f}", ["modify", "--fan", fan, "--divisor", f"@{f}-c"]))
        cases.append((f"act-{f}", ["act", "--fan", fan, "--divisor", f"@{f}-c"]))
        if DIM[f] >= 2:
            argv = ["af", "--fan", fan, "--d1", f"@{f}-c", "--d2", f"@{f}-c2"]
            if DIM[f] > 2:
                argv += ["--aux", f"@{f}-aux"]
            cases.append((f"af-{f}", argv))
    for a, b in (("triangle", "line"), ("line", "line"), ("mk4", "line"), ("origin", "spindle")):
        cases.append((f"product-{a}-{b}", ["product", "--fan", f"@{a}", "--fan2", f"@{b}"]))
    for f in BERGMAN:
        cases.append((f"bergman-{f}", ["bergman", "--matroid", f"@{f}-matroid"]))
    for f in VOLPOLY:
        cases.append((f"volpoly-{f}", ["volpoly", "--fan", f"@{f}"]))
    for f in AF_BERGMAN:
        argv = ["af", "--fan", f"@{f}", "--d1", f"@{f}-c", "--d2", f"@{f}-d2", "--aux", f"@{f}-aux"]
        cases.append((f"af-{f}", argv))
    for f in VALIDATE:
        cases.append((f"validate-{f}", ["validate", "--fan", f"@{f}"]))
    for f in WALL:
        cases.append((f"stellar-{f}-wall", ["stellar", "--fan", f"@{f}", "--point", f"@{f}-wall-point"]))
    for f in LORENTZIAN_BERGMAN:
        cases.append((f"lorentzian-{f}", ["lorentzian", "--fan", f"@{f}"]))
    for f, (base, _) in RESCALED.items():
        fan = f"@{f}"
        cases += [
            (f"validate-{f}", ["validate", "--fan", fan]),
            (f"balance-{f}", ["balance", "--fan", fan]),
            (f"star-{f}-ray0", ["star", "--fan", fan, "--cone", "0"]),
            (f"convexity-{f}-c", ["convexity", "--fan", fan, "--divisor", f"@{f}-c", "--strict"]),
            (f"act-{f}", ["act", "--fan", fan, "--divisor", f"@{f}-c"]),
            (f"lorentzian-{f}", ["lorentzian", "--fan", fan]),
            (f"volpoly-{f}", ["volpoly", "--fan", fan]),
            (f"degree-{f}", ["degree", "--fan", fan, "--divisors", f"@{f}-degree"]),
            (f"stellar-{f}", ["stellar", "--fan", fan, "--point", f"@{f}-point"]),
        ]
        argv = ["af", "--fan", fan, "--d1", f"@{f}-c", "--d2", f"@{f}-c2"]
        if DIM[base] > 2:
            argv += ["--aux", f"@{f}-aux"]
        cases.append((f"af-{f}", argv))
    cases.append(("star-triangle_x_line_q-cone01", ["star", "--fan", "@triangle_x_line_q", "--cone", "0,1"]))
    for f in SUBDIVIDED:
        cases.append((f"validate-{f}", ["validate", "--fan", f"@{f}"]))
        cases.append((f"lorentzian-{f}", ["lorentzian", "--fan", f"@{f}"]))
    for f in NON_FANS:
        cases.append((f"validate-{f}", ["validate", "--fan", f"@{f}"]))
    for f, names in MIXEDVOL.items():
        argv = ["mixedvol"]
        for z in names:
            argv += ["--polytope", f"@{f}-polytope-{z}"]
        cases.append((f"mixedvol-{f}", argv))
    return cases


# the exit code of each case: 0, but 3 for `validate` on a non-fan
EXIT = {f"validate-{f}": 3 for f in NON_FANS}
CASES = [(name, argv, EXIT.get(name, 0)) for name, argv in _cases()]


def _resolve(argv):
    """Input references become paths; a point reference becomes its text."""
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = INPUTS / f"{arg[1:]}.json"
            arg = json.loads(path.read_text())["point"] if arg.endswith("-point") else str(path)
        out.append(arg)
    return out


def _report(argv):
    """Exit code and printed report of one CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_resolve(argv))
    return code, out.getvalue()


def test_golden_report(name, argv, exit_code):
    code, out = _report(argv)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.json").read_text()


# ---------------------------------------------------------------------------
# per-cone witnesses, re-checked by dot products alone


def _rats(values):
    return [Fraction(v) for v in values]


WITNESS_CASES = [(f, z, strict) for f in CONVEX for z in ("c", "c2", "neg") for strict in (False, True)]


def test_emitted_witnesses_recheck(fan_name, z_name, strict):
    """Each functional `lorfan convexity` prints equals z on its cone's rays
    and is at most z (below z under --strict) on the cone's neighborhood rays;
    a cone without one is listed as failing."""
    argv = ["convexity", "--fan", f"@{fan_name}", "--divisor", f"@{fan_name}-{z_name}"]
    code, out = _report(argv + ["--strict"] if strict else argv)
    assert code == 0
    report = json.loads(out)
    fan = json.loads((INPUTS / f"{fan_name}.json").read_text())
    rays = [_rats(u) for u in fan["rays"]]
    maximal = [set(c) for c in fan["maximal_cones"]]
    z = _rats(json.loads((INPUTS / f"{fan_name}-{z_name}.json").read_text())["values"])
    assert report["strict_requested"] is strict
    for key, functional in report["witnesses"].items():
        cone = {int(i) for i in key.split(",")} if key else set()
        if functional is None:
            assert key in report["failing_cones"]
            continue
        phi = _rats(functional)
        neighbors = set().union(*(c for c in maximal if cone <= c)) - cone
        for i in cone:
            assert sum(p * x for p, x in zip(phi, rays[i])) == z[i], (key, i)
        for i in neighbors:
            value = sum(p * x for p, x in zip(phi, rays[i]))
            assert value < z[i] if strict else value <= z[i], (key, i)
    if report["verdict"] in ("convex", "strictly-convex"):
        assert report["failing_cones"] == []
        assert None not in report["witnesses"].values()


LORENTZIAN_CASES = [(name, argv[2][1:]) for name, argv, _ in CASES if argv[0] == "lorentzian"]


def test_stored_lorentzian_witnesses_recheck(name, fan_name):
    """The witness of each stored `lorfan lorentzian` report is strictly
    convex on its fan, and null exactly when the joint program has shown
    that the fan admits none."""
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    fan, _ = fan_from_json(json.loads((INPUTS / f"{fan_name}.json").read_text()))
    assert report["quasiprojective"] is (report["witness"] is not None)
    assert report["witness_route"] in (ROUTE_CANDIDATE, ROUTE_JOINT_LP)
    if report["witness"] is None:
        assert report["witness_route"] == ROUTE_JOINT_LP
    else:
        z = _rats(report["witness"])
        assert classify_convexity(fan, z, strict=True).strictly_convex


# (argument names, cases, ids) of each parametrized test
PARAMETERS = {
    "test_golden_report": ("name,argv,exit_code", CASES, [name for name, _, _ in CASES]),
    "test_emitted_witnesses_recheck": (
        "fan_name,z_name,strict",
        WITNESS_CASES,
        [f"{f}-{z}{'-strict' if s else ''}" for f, z, s in WITNESS_CASES],
    ),
    "test_stored_lorentzian_witnesses_recheck": (
        "name,fan_name", LORENTZIAN_CASES, [name for name, _ in LORENTZIAN_CASES]
    ),
}


def pytest_generate_tests(metafunc):
    if metafunc.function.__name__ in PARAMETERS:
        names, values, ids = PARAMETERS[metafunc.function.__name__]
        metafunc.parametrize(names, values, ids=ids)


# ---------------------------------------------------------------------------
# check and regeneration


def check() -> int:
    """Run every case and compare its report with the stored one: 0 when all
    match, else 1 after naming the first case that differs."""
    for name, argv, exit_code in CASES:
        code, out = _report(argv)
        if code != exit_code or out != (GOLDEN / f"{name}.json").read_text():
            print(f"golden report {name} differs (exit code {code})")
            return 1
    print(f"{len(CASES)} golden reports match")
    return 0


def _write(path: Path, obj) -> None:
    from lorfan.io import dumps

    path.write_text(dumps(obj) + "\n")


def _matroid(name: str):
    from lorfan import matroids

    return {
        "M(K4)": lambda: matroids.complete_graph_matroid(4),
        "M(K5)": lambda: matroids.complete_graph_matroid(5),
        "Fano": matroids.fano_matroid,
        "U(3,5)": lambda: matroids.uniform_matroid(3, 5),
        "U(4,6)": lambda: matroids.uniform_matroid(4, 6),
    }[name]()


def write_inputs() -> None:
    """Fans from the stock fixtures and Bergman fans; divisors per fan;
    the bases of each matroid in BERGMAN.

    `c` is strictly convex: c_F = |F|(n-|F|) on the proper flats of a Bergman
    fan, the joint program's witness on a stock fixture.  `c2` = 2c, `neg` = -c, and
    the degree case pairs c with c2.  The stellar point is the sum of the marks
    of the first maximal cone, an interior point of that cone.
    """
    from lorfan import fixtures, matroids
    from lorfan import io as lio
    from helpers import joint_lp_witness

    INPUTS.mkdir(parents=True, exist_ok=True)
    for f in FANS:
        if f in STOCK:
            tf = getattr(fixtures, STOCK[f])()
            c = joint_lp_witness(tf.fan)
        else:
            m = _matroid(MATROIDS[f])
            tf = matroids.bergman_fan(m)
            c = tuple(Fraction(len(F) * (m.n - len(F))) for F in m.proper_flats())
        _write(INPUTS / f"{f}.json", lio.tropical_to_json(tf))
        d = tf.dimension
        if d >= 1:
            _write_point(f"{f}-point", tf.fan, tf.fan.maximal_cones[0])
        if c is None:
            continue
        c2 = tuple(2 * v for v in c)
        _write(INPUTS / f"{f}-c.json", lio.divisor_to_json(c))
        _write(INPUTS / f"{f}-c2.json", lio.divisor_to_json(c2))
        _write(INPUTS / f"{f}-neg.json", lio.divisor_to_json(tuple(-v for v in c)))
        degree = [c, c2] + [c] * (d - 2) if d >= 2 else [c] * d
        _write(INPUTS / f"{f}-degree.json", {"divisors": [lio.divisor_to_json(z) for z in degree]})
        if d > 2:
            _write(INPUTS / f"{f}-aux.json", {"divisors": [lio.divisor_to_json(c)] * (d - 2)})
    for f, name in BERGMAN.items():
        m = _matroid(name)
        _write(INPUTS / f"{f}-matroid.json", {"n": m.n, "bases": sorted(sorted(b) for b in m.bases)})
    for f, name in VOLPOLY.items():
        _write(INPUTS / f"{f}.json", lio.tropical_to_json(matroids.bergman_fan(_matroid(name))))
    write_af_inputs()
    write_wall_inputs()
    write_rescaled_inputs()
    write_subdivided_inputs()
    write_product_inputs()
    write_non_fan_inputs()
    write_mixedvol_inputs()


def _write_point(name: str, fan, cone) -> None:
    """The sum of the cone's marks, as the text of a `--point` input."""
    from lorfan import io as lio

    point = [sum(fan.rays[i][j] for i in cone) for j in range(fan.ambient_dim)]
    _write(INPUTS / f"{name}.json", {"point": ",".join(lio.rat_to_str(x) for x in point)})


def write_af_inputs() -> None:
    """Each AF_BERGMAN fan with c = c_F, one aux divisor c and d2 drawn by
    `sample_strictly_convex` around 8c from a seeded generator."""
    import random

    from lorfan import matroids
    from lorfan import io as lio
    from lorfan.lorentzian import sample_strictly_convex

    for f, name in AF_BERGMAN.items():
        m = _matroid(name)
        tf = matroids.bergman_fan(m)
        c = tuple(Fraction(len(F) * (m.n - len(F))) for F in m.proper_flats())
        d2 = sample_strictly_convex(tf.fan, tuple(8 * v for v in c), random.Random(f"golden/{f}"))
        _write(INPUTS / f"{f}.json", lio.tropical_to_json(tf))
        _write(INPUTS / f"{f}-c.json", lio.divisor_to_json(c))
        _write(INPUTS / f"{f}-d2.json", lio.divisor_to_json(d2))
        _write(INPUTS / f"{f}-aux.json", {"divisors": [lio.divisor_to_json(c)]})


def write_wall_inputs() -> None:
    """Each WALL fan's point: the sum of the marks of its first 2-cone."""
    from lorfan import io as lio

    for f in WALL:
        tf = lio.tropical_from_json(json.loads((INPUTS / f"{f}.json").read_text()))
        _write_point(f"{f}-wall-point", tf.fan, tf.fan.cones(2)[0])


def write_subdivided_inputs() -> None:
    """Each SUBDIVIDED fan: the refined fan and weights of its stellar report."""
    for f, report in SUBDIVIDED.items():
        data = json.loads((GOLDEN / f"{report}.json").read_text())
        _write(INPUTS / f"{f}.json", {k: data[k] for k in ("ambient_dim", "maximal_cones", "rays", "weights")})


def write_product_inputs() -> None:
    """Each PRODUCTS fan: the product of its two stored factors."""
    from lorfan import io as lio
    from lorfan.ops import product_tropical

    for f, (a, b) in PRODUCTS.items():
        factors = [lio.tropical_from_json(json.loads((INPUTS / f"{g}.json").read_text())) for g in (a, b)]
        _write(INPUTS / f"{f}.json", lio.tropical_to_json(product_tropical(*factors)))


def write_non_fan_inputs() -> None:
    """Each NON_FANS cone set, without weights."""
    import helpers
    from lorfan import io as lio

    for f, make in NON_FANS.items():
        _write(INPUTS / f"{f}.json", lio.fan_to_json(getattr(helpers, make)()))


def write_mixedvol_inputs() -> None:
    """Each MIXEDVOL fan's polytopes: its stored fan, without weights, and
    the values of one of its stored divisors as right-hand sides."""
    from lorfan import io as lio

    for f, names in MIXEDVOL.items():
        fan, _ = lio.fan_from_json(json.loads((INPUTS / f"{f}.json").read_text()))
        for z in set(names):
            rhs = json.loads((INPUTS / f"{f}-{z}.json").read_text())["values"]
            _write(INPUTS / f"{f}-polytope-{z}.json", {"fan": lio.fan_to_json(fan), "rhs": rhs})


def write_rescaled_inputs() -> None:
    """Each RESCALED fan with its divisors: the unscaled fan's `c`, `c2`,
    degree and aux divisors, each rescaled by the same scales; its stellar
    point is the sum of the rescaled marks of its first maximal cone."""
    from helpers import rescale_divisor, rescale_marking
    from lorfan import io as lio

    for f, (base, scale) in RESCALED.items():
        tf = rescale_marking(lio.tropical_from_json(json.loads((INPUTS / f"{base}.json").read_text())), scale)
        _write(INPUTS / f"{f}.json", lio.tropical_to_json(tf))
        _write_point(f"{f}-point", tf.fan, tf.fan.maximal_cones[0])
        for z in ("c", "c2"):
            values = lio.divisor_from_json(json.loads((INPUTS / f"{base}-{z}.json").read_text()))
            _write(INPUTS / f"{f}-{z}.json", lio.divisor_to_json(rescale_divisor(values, scale)))
        for z in ("degree", "aux") if DIM[base] > 2 else ("degree",):
            divisors = lio.divisors_from_json(json.loads((INPUTS / f"{base}-{z}.json").read_text()))
            rescaled = [lio.divisor_to_json(rescale_divisor(v, scale)) for v in divisors]
            _write(INPUTS / f"{f}-{z}.json", {"divisors": rescaled})


def regenerate() -> None:
    write_inputs()
    for name, argv, exit_code in CASES:
        code, out = _report(argv)
        if code != exit_code:
            raise SystemExit(f"{name}: exit code {code}, expected {exit_code}")
        (GOLDEN / f"{name}.json").write_text(out)
    print(f"wrote {len(CASES)} reports to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    regenerate()
