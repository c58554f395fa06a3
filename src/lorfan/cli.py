"""Command-line interface.

Each command builds the JSON report it prints from its verdict's record;
`io` owns the data formats the reports embed (rationals, cone keys, fans
with weights) and the formats of every input file.

Exit codes: 0 verdict computed (even a negative one), 2 input error,
3 precondition failure, 4 internal invariant breach or any other unexpected
error.  The one exception is `validate`, which exits 3 when the fan fails
validation, per the documented contract.  `degree`, `lorentzian`, `af`,
`act`, `modify`, `mixedvol` and `volpoly` exit 3 on input that fails
validate; `balance` reports on any weighted cone set.  `bergman`, `product`
and `modify` exit 2 before they build a fan whose ambient_dim would pass
`io.MAX_AMBIENT_DIM`, so every fan lorfan prints reads back.  Randomized
subcommands require an explicit --seed.

`main` builds the subparser of the command that argv names, and all of
them when argv names none or an unknown one; the usage line lists every
command either way, so help and error output do not depend on it.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import io
from .convexity import classify_convexity
from .errors import InputError, InternalError, LorfanError, PreconditionError
from .fan import require_fan, star, stellar_subdivide, validate
from .linalg import inertia
from .lorentzian import _forms_polynomial, af_report, definition_sample_check, is_lorentzian, volume_polynomial
from .matroids import bergman_fan
from .ops import polytope_bridge, product_tropical, act_divisor_fan, tropical_modification
from .weights import TropicalFan, check_balancing, mixed_degree, quadratic_form, star_weight, transport_weight

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _emit(args, payload) -> None:
    text = io.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_tropical(path):
    return io.tropical_from_json(io.load_json_file(path))


def _load_fan(path):
    return io.fan_from_json(io.load_json_file(path))


def _parse_point(text):
    return tuple(io.str_to_rat(p) for p in text.split(","))


def _rats(row):
    return [io.rat_to_str(x) for x in row]


def _keys(cones):
    return [io.cone_to_key(c) for c in cones]


def cmd_validate(args):
    fan, _ = _load_fan(args.fan)
    report = validate(fan)
    _emit(args, {**report._asdict(), "valid": report.valid})
    return EXIT_OK if report.valid else EXIT_PRECONDITION


def cmd_balance(args):
    fan, weight = _load_fan(args.fan)
    if weight is None:
        raise InputError("fan file carries no weights")
    failing = check_balancing(fan, weight)
    _emit(args, {
        "balanced": not failing,
        "failing_cones": _keys(failing),
    })
    return EXIT_OK


def cmd_degree(args):
    tf = _load_tropical(args.fan)
    divisors = io.divisors_from_json(io.load_json_file(args.divisors))
    require_fan(tf.fan, "mixed degrees need a fan")
    value = mixed_degree(tf.fan, tf.weight, divisors)
    _emit(args, {"degree": io.rat_to_str(value)})
    return EXIT_OK


def cmd_convexity(args):
    fan, _ = _load_fan(args.fan)
    z = io.divisor_from_json(io.load_json_file(args.divisor))
    cert = classify_convexity(fan, z, strict=args.strict)
    _emit(args, {
        "verdict": cert.verdict,
        "strict_requested": cert.strict_requested,
        "failing_cones": _keys(cert.failing),
        "witnesses": {
            io.cone_to_key(w.cone): None if w.functional is None else _rats(w.functional)
            for w in cert.witnesses
        },
    })
    return EXIT_OK


def cmd_lorentzian(args):
    if args.samples < 0:
        raise InputError("--samples must not be negative")
    if args.samples and args.seed is None:
        raise InputError("--samples requires an explicit --seed")
    tf = _load_tropical(args.fan)
    cert = is_lorentzian(tf)
    payload = {
        "verdict": "yes" if cert.verdict else "no",
        "marking": [_rats(u) for u in cert.marking],
        "quasiprojective": cert.quasiprojective,
        "witness": None if cert.witness is None else _rats(cert.witness),
        "witness_route": cert.witness_route,
        "pinches": {
            "unpinched": cert.pinch_report.unpinched,
            "pinched_at": _keys(cert.pinch_report.pinched_at),
        },
        "stars": {
            io.cone_to_key(r.cone): {
                "inertia": list(r.inertia.astuple()),
                "matrix": [_rats(row) for row in r.matrix],
            }
            for r in cert.star_records
        },
    }
    if args.samples:
        report = definition_sample_check(tf, cert.witness, samples=args.samples, seed=args.seed)
        payload["sampling"] = {
            "seed": report.seed,
            "samples": report.samples,
            "all_lorentzian_signs": report.all_lorentzian_signs,
            "stars": {
                io.cone_to_key(r.cone): {
                    "positive_counts": list(r.positive_counts),
                    "top_degrees_positive": r.top_degrees_positive,
                }
                for r in report.records
            },
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_af(args):
    tf = _load_tropical(args.fan)
    d1 = io.divisor_from_json(io.load_json_file(args.d1))
    d2 = io.divisor_from_json(io.load_json_file(args.d2))
    aux = io.divisors_from_json(io.load_json_file(args.aux)) if args.aux else []
    report = af_report(tf, d1, d2, aux)
    _emit(args, {
        "af_gap": io.rat_to_str(report.af_gap),
        "sequence": _rats(report.sequence),
        "log_concave": report.log_concave,
        "unimodal": report.unimodal,
        "divisors": [_rats(z) for z in report.divisors],
        "auxiliary": [_rats(z) for z in report.auxiliary],
    })
    return EXIT_OK


def cmd_bergman(args):
    matroid = io.matroid_from_json(io.load_json_file(args.matroid))
    tf = bergman_fan(matroid)
    _emit(args, io.tropical_to_json(tf))
    return EXIT_OK


def cmd_product(args):
    tf1 = _load_tropical(args.fan)
    tf2 = _load_tropical(args.fan2)
    io.require_ambient_dim(tf1.fan.ambient_dim + tf2.fan.ambient_dim)
    _emit(args, io.tropical_to_json(product_tropical(tf1, tf2)))
    return EXIT_OK


def cmd_star(args):
    fan, weight = _load_fan(args.fan)
    apex = io.key_to_cone(args.cone)
    sd = star(fan, apex)
    if weight is not None:
        weight = star_weight(TropicalFan(fan, weight), apex, sd).weight
    payload = io.fan_to_json(sd.fan, weight)
    payload["lift"] = list(sd.lift)
    payload["projection"] = [_rats(row) for row in sd.projection]
    _emit(args, payload)
    return EXIT_OK


def cmd_stellar(args):
    fan, weight = _load_fan(args.fan)
    point = _parse_point(args.point)
    result = stellar_subdivide(fan, point)
    transported = None
    if weight is not None:
        transported = transport_weight(
            TropicalFan(fan, weight), result.fan, result.containment
        ).weight
    payload = io.fan_to_json(result.fan, transported)
    payload["containment"] = {io.cone_to_key(c): io.cone_to_key(p) for c, p in result.containment.items()}
    payload["ray_map"] = {str(old): new for old, new in result.ray_map.items()}
    payload["new_ray"] = result.new_ray
    _emit(args, payload)
    return EXIT_OK


def cmd_modify(args):
    tf = _load_tropical(args.fan)
    io.require_ambient_dim(tf.fan.ambient_dim + 1)
    z = io.divisor_from_json(io.load_json_file(args.divisor))
    _emit(args, io.tropical_to_json(tropical_modification(tf, z)))
    return EXIT_OK


def cmd_act(args):
    tf = _load_tropical(args.fan)
    z = io.divisor_from_json(io.load_json_file(args.divisor))
    _emit(args, io.tropical_to_json(act_divisor_fan(tf, z)))
    return EXIT_OK


def cmd_mixedvol(args):
    polytopes = [io.polytope_from_json(io.load_json_file(p)) for p in args.polytope]
    fan = polytopes[0][0]
    for other, _ in polytopes[1:]:
        if other.rays != fan.rays or other.maximal_cones != fan.maximal_cones:
            raise PreconditionError("polytopes must share one normal fan")
    result = polytope_bridge(fan, [rhs for _, rhs in polytopes])
    _emit(args, {
        "degree": io.rat_to_str(result.degree),
        "dimension": result.dimension,
        "euclidean_value": io.rat_to_str(result.euclidean_value),
        "convention": result.convention,
    })
    return EXIT_OK


def cmd_volpoly(args):
    tf = _load_tropical(args.fan)
    require_fan(tf.fan, "volume polynomials need a fan")
    if tf.dimension == 2:
        matrix = quadratic_form(tf.fan, tf.weight)
        payload = {
            "matrix": [_rats(row) for row in matrix],
            "inertia": list(inertia(matrix).astuple()),
        }
        polynomial = _forms_polynomial([((), matrix)])
    else:
        payload = {"matrix": None, "inertia": None}
        polynomial = volume_polynomial(tf)
    payload["polynomial"] = {",".join(map(str, e)): io.rat_to_str(c) for e, c in polynomial.items()}
    _emit(args, payload)
    return EXIT_OK


REQUIRED = {"required": True}

# each command's function and flags, in the order of the usage line
COMMANDS = {
    "validate": (cmd_validate, {"fan": REQUIRED}),
    "balance": (cmd_balance, {"fan": REQUIRED}),
    "degree": (cmd_degree, {"fan": REQUIRED, "divisors": REQUIRED}),
    "convexity": (cmd_convexity, {"fan": REQUIRED, "divisor": REQUIRED, "strict": {"action": "store_true"}}),
    "lorentzian": (cmd_lorentzian, {"fan": REQUIRED, "samples": {"type": int, "default": 0}, "seed": {"type": int}}),
    "af": (cmd_af, {"fan": REQUIRED, "d1": REQUIRED, "d2": REQUIRED, "aux": {}}),
    "bergman": (cmd_bergman, {"matroid": REQUIRED}),
    "product": (cmd_product, {"fan": REQUIRED, "fan2": REQUIRED}),
    "star": (cmd_star, {"fan": REQUIRED, "cone": REQUIRED}),
    "stellar": (cmd_stellar, {"fan": REQUIRED, "point": REQUIRED}),
    "modify": (cmd_modify, {"fan": REQUIRED, "divisor": REQUIRED}),
    "act": (cmd_act, {"fan": REQUIRED, "divisor": REQUIRED}),
    "mixedvol": (cmd_mixedvol, {"polytope": {"action": "append", "required": True}}),
    "volpoly": (cmd_volpoly, {"fan": REQUIRED}),
}


def command_named(argv) -> str | None:
    """The command that argv names, or None when it names none or an unknown
    one.  Anything before the command other than --out and its value, such
    as --help or an abbreviated option, also gives None."""
    args = iter(argv)
    for arg in args:
        if arg == "--out":
            next(args, None)
        elif not arg.startswith("--out="):
            return arg if arg in COMMANDS else None
    return None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or with only the named
    command's.  The usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="lorfan",
        description="Exact certificates for tropical fans: balancing, convexity, "
        "Lorentzian verdicts, Alexandrov-Fenchel reports, and mixed volumes.",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    # argparse prints the names it has parsers for; with one, name them all
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (fn, flags) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(fn=fn)
        if name == "stellar":
            # points with a negative leading coordinate ("-1,2") must parse as values
            p._negative_number_matcher = re.compile(r"^-[\d,/\-]+$")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(command_named(argv)).parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PreconditionError, LorfanError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # anything else is a bug; report it in one line
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
