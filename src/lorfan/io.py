"""JSON formats for the data lorfan reads and writes: rationals, cone keys,
fans with their weights, divisors, matroids and polytopes.

Rationals travel as strings "p/q" ("p" when the denominator is one); cone
keys are comma-joined ascending ray indices.  Serialization is canonical:
lowest terms, sorted keys, stable orderings, so emitted files round-trip to
equal objects.  The reports of the commands are not formats of this module:
each command in `cli` builds its own from these pieces.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import InputError
from .fan import Mark, MarkedFan, cone_key, int_mark
from . import matroids
from .weights import Divisor, MinkowskiWeight, TropicalFan


# the largest ambient_dim a fan file may give: the origin's quotient record
# alone is an ambient_dim x ambient_dim identity
MAX_AMBIENT_DIM = 1024


def require_ambient_dim(dim: int) -> int:
    """dim, refused past MAX_AMBIENT_DIM: also for a fan that a command is
    about to write, so that lorfan can read back every fan it prints."""
    if dim > MAX_AMBIENT_DIM:
        raise InputError(f"ambient_dim {dim} exceeds the limit of {MAX_AMBIENT_DIM}")
    return dim


def rat_to_str(x: Fraction) -> str:
    return str(x) if type(x) is Fraction else str(Fraction(x))


def mark_to_json(mark: Mark) -> list[str]:
    """An int mark nums / d as `rat_to_str` strings, made without Fractions."""
    nums, d = mark
    if d == 1:
        return [str(x) for x in nums]
    out = []
    for x in nums:
        g = gcd(x, d)
        out.append(str(x // g) if g == d else f"{x // g}/{d // g}")
    return out


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def str_to_rat(s) -> Fraction:
    """A rational from a string "p/q" or "p", or from a JSON integer.

    Decimal and exponent forms are refused: "1e999999999" would otherwise
    build a billion-digit integer.  The numerator and denominator that the
    pattern matched are parsed as ints, the way Fraction(s) would.
    """
    if type(s) is int:
        return Fraction(s)
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise InputError(f'bad rational {s!r:.40}: expected a string "p/q" or "p", or an integer')
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}: {exc}") from None


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON list, not {x!r:.40}")
    return x


def _int(x, what: str) -> int:
    if type(x) is not int:  # bool is a subclass of int
        raise InputError(f"{what} must be a JSON integer, not {x!r:.40}")
    return x


def cone_to_key(cone) -> str:
    return ",".join(str(i) for i in cone)


def _cone(indices: list, what: str):
    """The sorted cone on the given ray indices, refused when one repeats."""
    cone = cone_key(indices)
    if len(cone) != len(indices):
        raise InputError(f"{what} repeats a ray: {indices!r:.40}")
    return cone


def key_to_cone(key: str):
    key = key.strip()
    if not key:
        return ()
    try:
        indices = [int(p) for p in key.split(",")]
    except ValueError as exc:
        raise InputError(f"bad cone key {key!r}: {exc}") from None
    return _cone(indices, "a cone key")


def fan_to_json(fan: MarkedFan, weight: Optional[MinkowskiWeight] = None) -> dict:
    out = {
        "ambient_dim": fan.ambient_dim,
        "rays": [mark_to_json(mark) for mark in fan.int_marks],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
    }
    if weight is not None:
        out["weights"] = {
            cone_to_key(c): rat_to_str(v) for c, v in sorted(weight.values.items())
        }
    return out


def fan_from_json(data) -> tuple[MarkedFan, Optional[MinkowskiWeight]]:
    # `str_to_rat` of each distinct string, once; only strings are keys, since
    # True, 1.0 and 1 are equal keys and two of them must be refused
    parsed = {}

    def rat(x) -> Fraction:
        if type(x) is not str:
            return str_to_rat(x)
        q = parsed.get(x)
        if q is None:
            q = parsed[x] = str_to_rat(x)
        return q

    try:
        ambient = require_ambient_dim(_int(data["ambient_dim"], "ambient_dim"))
        marks = tuple(int_mark([rat(x) for x in _list(u, "a ray")]) for u in _list(data["rays"], "rays"))
        cones = tuple(sorted(
            _cone([_int(i, "a ray index") for i in _list(c, "a cone")], "a cone")
            for c in _list(data["maximal_cones"], "maximal_cones")
        ))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed fan: {exc}") from None
    fan = MarkedFan.from_int_marks(ambient, marks, cones)
    weight = None
    if "weights" in data and data["weights"] is not None:
        if not isinstance(data["weights"], dict):
            raise InputError("weights must be a JSON object from cone keys to rationals")
        values = {}
        maximal = set(cones)
        for k, v in data["weights"].items():
            cone = key_to_cone(k)
            # a top weight names maximal cones only, and leaves the face index unbuilt
            if cone not in maximal and cone not in fan.incident:
                raise InputError(f"weight key {k!r:.40} names no cone of the fan")
            if cone in values:
                raise InputError(f"two weight keys name the cone {cone_to_key(cone)!r:.40}")
            values[cone] = rat(v)
        if values:
            degrees = {len(c) for c in values}
            if len(degrees) != 1:
                raise InputError("weight keys must share one cone dimension")
            weight = MinkowskiWeight(degrees.pop(), values)
        else:
            weight = MinkowskiWeight(fan.dimension, {})
    return fan, weight


def tropical_to_json(tf: TropicalFan) -> dict:
    return fan_to_json(tf.fan, tf.weight)


def tropical_from_json(data) -> TropicalFan:
    fan, weight = fan_from_json(data)
    if weight is None:
        raise InputError("fan file carries no weights")
    return TropicalFan(fan, weight)


def divisor_to_json(z: Divisor) -> dict:
    return {"values": [rat_to_str(v) for v in z]}


def divisor_from_json(data) -> Divisor:
    try:
        return tuple(str_to_rat(v) for v in _list(data["values"], "divisor values"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed divisor: {exc}") from None


def divisors_from_json(data) -> list[Divisor]:
    if isinstance(data, list):
        return [divisor_from_json(d) for d in data]
    if isinstance(data, dict) and "divisors" in data:
        return [divisor_from_json(d) for d in _list(data["divisors"], "divisors")]
    return [divisor_from_json(data)]


def matroid_from_json(data) -> matroids.Matroid:
    """The matroid of a file, whose Bergman fan lives in R^(n - 1): n - 1 past
    MAX_AMBIENT_DIM is refused after the loop check and before the exchange
    check, which is quadratic in the number of bases."""
    try:
        n = _int(data["n"], "n")
        bases = [
            tuple(_int(e, "a basis element") for e in _list(b, "a basis"))
            for b in _list(data["bases"], "bases")
        ]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed matroid: {exc}") from None
    for b in bases:
        if len(set(b)) != len(b):
            raise InputError(f"a basis repeats an element: {list(b)!r:.40}")
    m = matroids.loopless_matroid(n, bases)
    require_ambient_dim(n - 1)
    matroids._check_exchange(m)
    return m


def polytope_from_json(data) -> tuple[MarkedFan, tuple[Fraction, ...]]:
    try:
        fan, _ = fan_from_json(data["fan"])
        rhs = tuple(str_to_rat(v) for v in _list(data["rhs"], "rhs"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polytope: {exc}") from None
    return fan, rhs


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or nesting too deep
        raise InputError(f"malformed JSON in {path}: {exc}") from None
