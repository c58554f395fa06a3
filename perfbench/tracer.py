"""Spans around the calls into each lorfan layer, recorded from outside.

A layer is one module of the package.  While installed, the tracer replaces
every public function of every layer module, and ``MarkedFan.cones``, by a
wrapper that records a span: name, parent span, start and end.  A function
imported by name into another module (``convexity.strict_feasible``,
``lorentzian.inertia``) is replaced in that namespace too, so the span is
recorded whichever module the call comes from.  Private helpers are not
wrapped; their time counts as self time of the public function that calls
them.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("linalg", "lp", "fan", "weights", "convexity", "lorentzian", "matroids", "ops", "io", "cli")

# methods that are layer boundaries although they are not module functions
METHODS = (("fan", "MarkedFan", "cones"),)

PARSE = frozenset(
    f"io.{n}"
    for n in (
        "load_json_file", "fan_from_json", "tropical_from_json", "divisor_from_json",
        "divisors_from_json", "matroid_from_json", "polytope_from_json", "str_to_rat",
        "key_to_cone",
    )
)

def lorfan_modules() -> dict:
    """The loaded lorfan package and its modules, by name."""
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "lorfan" or name.startswith("lorfan."))
    }


# Span record: [name, parent index, start, end, child seconds, extra]
NAME, PARENT, START, END, CHILD, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.record = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _install(self) -> None:
        modules = lorfan_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"lorfan.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(mod, attr, wrappers[fn])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[f"lorfan.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{attr}", getattr(cls, attr)))

    @contextmanager
    def installed(self):
        """Wrappers in place for the duration; spans are kept only while recording."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    @contextmanager
    def recording(self):
        self.record = True
        try:
            yield
        finally:
            self.record = False

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.record:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD] += end - span[START]
            if observe is not None:
                span[EXTRA] = observe(spans, span, args, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, so a caller can slice out one pass."""
        return len(self.spans)

    def dump(self, path, passes: dict[str, tuple[int, int]]) -> None:
        """Write spans as gzipped JSON lines: a header naming the fields, then
        one list per span, tagged by the pass it belongs to."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["pass", "id", "name", "parent", "start", "end", "extra"]) + "\n")
            for tag, (lo, hi) in passes.items():
                for i in range(lo, hi):
                    s = self.spans[i]
                    fh.write(json.dumps([tag, i, s[NAME], s[PARENT], s[START], s[END], s[EXTRA]]) + "\n")


def _observe_inertia(spans, span, args, result):
    return {"n": len(args[0])}


def _observe_lp_max(spans, span, args, result):
    objective, equalities, inequalities = args[:3]
    parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
    # under strict_feasible an optimum with nonpositive slack is also no witness
    witness = result.status == "optimal" and not (parent == "lp.strict_feasible" and result.value <= 0)
    return {"vars": len(objective), "rows": len(equalities) + len(inequalities), "witness": witness}


def _observe_dumps(spans, span, args, result):
    return {"bytes": len(result.encode()) + 1}  # the CLI adds a newline


OBSERVERS = {
    "linalg.inertia": _observe_inertia,
    "lp.lp_max": _observe_lp_max,
    "io.dumps": _observe_dumps,
}


CALLS = (
    "linalg.inertia", "linalg.rref", "linalg.solve_linear", "lp.lp_max", "lp.strict_feasible",
    "lp.linear_feasible", "convexity.classify_convexity", "convexity.find_strictly_convex",
    "weights.divisor_action", "weights.mixed_degree", "fan.star", "fan.cones", "cli.main",
)
SELF = (
    "linalg.inertia", "linalg.char_poly", "linalg.rref", "lp.lp_max", "convexity.classify_convexity",
    "convexity.find_strictly_convex", "weights.divisor_action", "weights.check_balancing",
    "fan.validate", "fan.star", "fan.is_unpinched", "lorentzian.is_lorentzian",
    "lorentzian.volume_poly_2d", "lorentzian.af_report", "lorentzian.volume_polynomial",
    "matroids.bergman_fan", "ops.product_tropical", "ops.tropical_modification", "cli.main",
)
EXTRAS = (
    "linalg.inertia.max_n", "lp.lp_max.max_vars", "lp.lp_max.max_rows", "lp.lp_max.no_witness_frac",
    "io.parse_s", "io.emit_s", "io.out_bytes",
)
# every per-layer metric a traced run reports, in report order
PER_LAYER = (
    tuple(f"{n}.calls" for n in CALLS)
    + tuple(f"{n}.self_s" for n in SELF)
    + EXTRAS
    + tuple(f"{layer}.self_s" for layer in LAYERS)
    + ("matroids.bergman_fan.setup_s", "trace.overhead_s")
)


def self_times(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Total self time by span name over spans[lo:hi]."""
    out = defaultdict(float)
    for s in spans[lo:hi]:
        out[s[NAME]] += (s[END] - s[START]) - s[CHILD]
    return out


def summarize(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of spans[lo:hi], which hold one pass of a workload.

    Parent indices are positions in the whole list, hence the bounds.
    """
    window = spans[lo:hi]
    calls = defaultdict(int)
    for s in window:
        calls[s[NAME]] += 1
    self_s = self_times(spans, lo, hi)
    parse_s = emit_s = 0.0
    for s in window:
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if s[NAME].startswith("io.") and not parent.startswith("io."):
            if s[NAME] in PARSE:
                parse_s += s[END] - s[START]
            else:
                emit_s += s[END] - s[START]
    extra = defaultdict(list)
    for s in window:
        if s[EXTRA] is not None:
            extra[s[NAME]].append(s[EXTRA])
    lp = extra["lp.lp_max"]

    out = {f"{n}.calls": calls[n] for n in CALLS}
    out.update({f"{n}.self_s": self_s[n] for n in SELF})
    out["linalg.inertia.max_n"] = max((e["n"] for e in extra["linalg.inertia"]), default=0)
    out["lp.lp_max.max_vars"] = max((e["vars"] for e in lp), default=0)
    out["lp.lp_max.max_rows"] = max((e["rows"] for e in lp), default=0)
    out["lp.lp_max.no_witness_frac"] = sum(not e["witness"] for e in lp) / len(lp) if lp else 0.0
    out["io.parse_s"] = parse_s
    out["io.emit_s"] = emit_s
    out["io.out_bytes"] = sum(e["bytes"] for e in extra["io.dumps"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith((".calls", ".max_n", ".max_vars", ".max_rows")):
        return "count"
    if name.endswith("_frac"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"
