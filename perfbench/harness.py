"""The closed loop that runs a workload's op list and turns it into metrics.

One process, one thread.  Each run sets the workload up several times (so
set-up time is a median too), then repeats the op list, one pass after the
other, for the requested number of seconds.  Every op runs on fans parsed
fresh from JSON, with every lorfan cache cleared first, under a deadline, and
its output is checked after its timer stops.

The host is shared, and how fast it runs pure Python drifts by up to a factor
of two within minutes.  So a fixed pure-Python reference kernel, independent
of lorfan, is timed right before, every SAMPLE_EVERY_S during (from a timer
signal, with its time taken off the op's) and right after every op and every
set-up, and the end-to-end times are reported in reference seconds: measured
time divided by the host slowdown those readings show.  A change to lorfan
moves them in full; a slower host moves them far less.  The run log gives the
raw times too.
"""

from __future__ import annotations

import gc
import importlib
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from tracer import LAYERS, PER_LAYER, Tracer, lorfan_modules, self_times, summarize, unit

# set-up runs at least SETUP_MIN times, and again while the total is under
# SETUP_BUDGET_S, up to SETUP_MAX times: cheap set-ups get more samples.  Once
# SETUP_CAP_S has gone into set-up no further one starts, so that a slow
# set-up leaves time for the passes.
SETUP_MIN = 2
SETUP_MAX = 9
SETUP_BUDGET_S = 4.0
SETUP_CAP_S = 40.0
OP_DEADLINE_S = 60.0
RUN_CAP_S = 165.0  # hard stop for the whole process, below the 180 s exit limit
# the reference kernel's time on an idle core of a 2-core Intel Xeon host
# (CPython 3.11); a host that runs it in twice this time is taken as twice as slow
REFERENCE_S = 0.0075
SAMPLE_EVERY_S = 0.2

END_TO_END_UNITS = {
    "wall_s": "s",
    "largest_s": "s",
    "ok_frac": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An op's output did not match what the benchmark expects."""


class OpTimeout(Exception):
    """An op ran past its deadline."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class OpRecord:
    name: str
    status: str  # ok | check-failed | error | timeout
    seconds: float
    detail: str = ""
    host: float = 1.0  # host slowdown around the op, from the reference kernel

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.host


def _reference_work() -> None:
    """Fixed pure-Python work of lorfan's kind: exact rational elimination and tuple-keyed counting."""
    rng = random.Random(0)
    n = 12
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts: dict = {}
    for i in range(5000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1


def reference_seconds() -> float:
    """Time of the reference kernel now; the collector is off so lorfan's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class OpClock:
    """Times one op under a deadline and reads the host's speed before, during and after it.

    A timer signal checks the deadline and, when sampling, times the reference
    kernel every SAMPLE_EVERY_S; the time spent in the signal handler is not
    counted as the op's.  Traced passes do not sample, so that spans hold only
    lorfan's work.
    """

    def __init__(self, deadline: float, sample: bool = True):
        self.deadline = deadline
        self.sample = sample
        self.readings = [reference_seconds()]
        self.paused = 0.0
        self.elapsed = 0.0

    @property
    def host(self) -> float:
        """Host slowdown: the mean kernel time over its time on an idle core."""
        return statistics.fmean(self.readings) / REFERENCE_S

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if not self.sample or t0 >= self.end:
            raise OpTimeout()
        self.readings.append(reference_seconds())
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        self.end = self.t0 + self.deadline
        interval = SAMPLE_EVERY_S if self.sample else self.deadline
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self.t0 - self.paused
        signal.signal(signal.SIGALRM, self.previous)
        self.readings.append(reference_seconds())
        return False


def import_lorfan():
    """Import lorfan and its modules from scratch, so every set-up pays for the import."""
    for name in lorfan_modules():
        del sys.modules[name]
    for name in LAYERS + ("fixtures",):
        importlib.import_module(f"lorfan.{name}")
    return sys.modules["lorfan"]


def lorfan_caches() -> list:
    """Every function cache in the lorfan modules, found by its cache_clear."""
    return [
        obj for mod in lorfan_modules().values() for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


class Runner:
    def __init__(self, workload, seed: int, work_dir, started: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = started
        self.caches: list = []
        self.ops: list[Op] = []
        self.tracer: Tracer | None = None  # records spans around op.run() when set

    def remaining(self) -> float:
        return RUN_CAP_S - (time.perf_counter() - self.started)

    def setup_once(self, lf=None, sample: bool = True) -> OpRecord:
        """Set the workload up; import lorfan afresh unless given the package."""
        with OpClock(self.remaining(), sample) as clock:
            lf = lf or import_lorfan()
            self.ops = self.workload.setup(lf, self.work_dir, self.seed)
        self.caches = lorfan_caches()
        return OpRecord("set-up", "ok", clock.elapsed, host=clock.host)

    def setup(self) -> list[OpRecord]:
        records = [self.setup_once()]
        while (spent := sum(r.seconds for r in records)) < SETUP_CAP_S and (
            len(records) < SETUP_MIN or (len(records) < SETUP_MAX and spent < SETUP_BUDGET_S)
        ):
            records.append(self.setup_once())
        return records

    def run_op(self, op: Op) -> OpRecord:
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()  # every op starts from the same collector state
        deadline = min(OP_DEADLINE_S, self.remaining())
        if deadline <= 0:
            return OpRecord(op.name, "timeout", 0.0, "run cap reached before the op started")
        status, detail = "ok", ""
        clock = OpClock(deadline, sample=self.tracer is None)
        try:
            with clock, self.tracer.recording() if self.tracer else nullcontext():
                result = op.run()
        except OpTimeout:
            status, detail = "timeout", f"deadline {deadline:.0f} s"
        except Exception as exc:  # an op that raises is a failed op, reported with its error
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        record = OpRecord(op.name, status, clock.elapsed, detail, clock.host)
        if status == "ok":
            try:
                op.check(result)
            except Exception as exc:  # a check that cannot read the output fails the op too
                record.status, record.detail = "check-failed", f"{type(exc).__name__}: {exc}"
        return record

    def run_pass(self) -> list[OpRecord]:
        return [self.run_op(op) for op in self.ops]

    def run_traced_pass(self, tracer: Tracer) -> tuple[list[OpRecord], tuple[int, int]]:
        """A pass with spans recorded around each op; returns the span bounds too."""
        lo = tracer.mark()
        self.tracer = tracer
        try:
            with tracer.installed():
                records = self.run_pass()
        finally:
            self.tracer = None
        return records, (lo, tracer.mark())


def op_medians(passes: list[list[OpRecord]], raw: bool = False) -> dict[str, tuple[float, int]]:
    """Each op's median time in reference seconds (or raw) over the passes, with its sample count."""
    times: dict[str, list[float]] = {}
    for records in passes:
        for op in records:
            times.setdefault(op.name, []).append(op.seconds if raw else op.ref_seconds)
    return {name: (statistics.median(t), len(t)) for name, t in times.items()}


def op_list_seconds(passes: list[list[OpRecord]], raw: bool = False) -> float:
    """Time to run the op list once: the sum of every op's median time.

    Medians per op drop a burst of host noise that hits one op in one pass;
    a median of pass totals keeps it whenever bursts hit most passes.
    """
    return sum(median for median, _ in op_medians(passes, raw).values())


def run(workload, seed: int, seconds: float, trace: bool, work_dir, span_path=None, log=print) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    started = time.perf_counter()
    runner = Runner(workload, seed, work_dir, started)
    tracer = Tracer()
    if trace:
        # one set-up, traced, gives the set-up side of the per-layer numbers
        lf = import_lorfan()
        setup_lo = tracer.mark()
        with tracer.installed(), tracer.recording():
            setups = [runner.setup_once(lf, sample=False)]
        setup_span = (setup_lo, tracer.mark())
    else:
        setups = runner.setup()

    plain: list[list[OpRecord]] = []
    traced: list[list[OpRecord]] = []
    traced_spans: list[tuple[int, int]] = []
    loop_start = time.perf_counter()
    while True:
        # a round is one pass, or an untraced and a traced pass when tracing
        round_start = time.perf_counter()
        plain.append(runner.run_pass())
        if trace:
            records, bounds = runner.run_traced_pass(tracer)
            traced.append(records)
            traced_spans.append(bounds)
        now = time.perf_counter()
        if now - loop_start + (now - round_start) > seconds or runner.remaining() < 2 * (now - round_start):
            break

    records = [op for p in plain + traced for op in p]
    failed = [op for op in records if op.status != "ok"]
    medians = op_medians(plain)
    raw_medians = op_medians(plain, raw=True)

    log(f"workload {workload.name}  seed {seed}  caches cold: {len(runner.caches)} cleared before each op")
    log(f"set-up {len(setups)}x: " + " ".join(f"{r.seconds:.3f}" for r in setups) + " s; host slowdown "
        + " ".join(f"{r.host:.2f}" for r in setups))
    log(f"passes untraced {len(plain)} traced {len(traced)}; pass totals: "
        + " ".join(f"{sum(op.seconds for op in p):.3f}" for p in plain) + " s; host slowdown (median) "
        + " ".join(f"{statistics.median(op.host for op in p):.2f}" for p in plain))
    for name, (median, n) in medians.items():
        log(f"  {name:40s} median {median:.4f} ref-s  raw {raw_medians[name][0]:.4f} s  n={n}")
    log(f"ops attempted {len(records)} failed {len(failed)} fail_frac {len(failed) / len(records):.4f}")
    for op in failed:
        log(f"  FAILED {op.name}: {op.status} {op.detail}")

    if trace:
        per_pass = [summarize(tracer.spans, lo, hi) for lo, hi in traced_spans]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["matroids.bergman_fan.setup_s"] = self_times(tracer.spans, *setup_span)["matroids.bergman_fan"]
        values["trace.overhead_s"] = op_list_seconds(traced) - op_list_seconds(plain)
        top = sorted(self_times(tracer.spans, *traced_spans[0]).items(), key=lambda kv: -kv[1])[:6]
        log("largest self times (first traced pass): " + ", ".join(f"{n} {s:.3f}" for n, s in top))
        if span_path is not None:
            tracer.dump(span_path, {"setup": setup_span, "pass": traced_spans[0]})
            log(f"spans written to {span_path}")
        out_metrics = {name: {"value": values[name], "unit": unit(name)} for name in PER_LAYER}
    else:
        values = {
            "wall_s": op_list_seconds(plain),
            "largest_s": medians[workload.largest][0],
            "ok_frac": 1 - len(failed) / len(records),
            "setup_s": statistics.median(r.ref_seconds for r in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out_metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END_UNITS.items()}
        log(f"wall_s sums per-op medians over n={len(plain)} passes (raw {op_list_seconds(plain, raw=True):.4f} s); "
            f"largest_s is {workload.largest}; times are in reference seconds")

    correct = not any(op.status in ("check-failed", "error") for op in records)
    return {"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": out_metrics}
