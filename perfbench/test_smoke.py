"""Smoke test of the benchmark itself.

A reduced run of each workload, on the triangle fan, must pass every output
check and emit exactly the metrics BENCHMARK.json names, with their units,
both untraced and traced.  Run it from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from tracer import lorfan_modules  # noqa: E402
from workloads import WORKLOADS, Certify, Degrees, Structure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REDUCED = [
    Certify(lorentzian=("triangle",), sampled=("triangle",), largest="lorentzian triangle"),
    Degrees(af=("triangle",), volpoly=("triangle",), largest="af triangle"),
    Structure(
        validate=("triangle",),
        stars=("triangle",),
        stellar="triangle",
        product=("triangle", "triangle"),
        modify="triangle",
        cli_bergman="U(2,3)",
        cli_balance="triangle",
        cli_star=("triangle", "0"),
        cli_volpoly="triangle",
        largest="validate triangle",
    ),
]


@pytest.fixture
def restore_lorfan():
    """The harness imports lorfan afresh; give later tests in the same pytest process their modules back."""
    saved = lorfan_modules()
    yield
    for name in lorfan_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", REDUCED, ids=lambda w: w.name)
def test_reduced_run(workload, trace, tmp_path, restore_lorfan):
    spans = tmp_path / "spans.jsonl.gz"
    result = harness.run(workload, 1, 0.1, bool(trace), tmp_path, spans if trace else None, log=lambda *_: None)

    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        assert spans.is_file()
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in units)


def test_op_clock_samples_the_host_and_enforces_its_deadline():
    with pytest.raises(harness.OpTimeout):
        with harness.OpClock(0.5) as clock:
            while True:
                pass
    # before, at least one reading while the op ran, and after
    assert len(clock.readings) >= 3 and clock.host > 0
    assert 0 < clock.elapsed < 0.5 + harness.SAMPLE_EVERY_S
