import json
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from lorfan import cli, io, lorentzian, matroids
from lorfan import fan as fan_module
from lorfan.cli import main
from lorfan.errors import InputError, InternalError
from lorfan.fixtures import (
    coordinate_skeleton_fan,
    line_fan,
    origin_fan,
    triangle_fan,
    triangle_times_line,
    twisted_prism_fan,
    two_disjoint_triangles,
)
from lorfan.linalg import ONE
from lorfan.matroids import bergman_fan, complete_graph_matroid
from lorfan.weights import MinkowskiWeight, TropicalFan, divisor_action, quadratic_form

from helpers import triangle_double_cover


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(io.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_round_trip():
    for tf in (triangle_fan(), coordinate_skeleton_fan(), two_disjoint_triangles()):
        blob = io.dumps(io.tropical_to_json(tf))
        fan, weight = io.fan_from_json(json.loads(blob))
        assert fan == tf.fan
        assert weight.values == tf.weight.values
        assert io.dumps(io.fan_to_json(fan, weight)) == blob


def test_rational_strings():
    assert io.rat_to_str(Fraction(3, 1)) == "3"
    assert io.rat_to_str(Fraction(-6, 4)) == "-3/2"
    assert io.str_to_rat("7/2") == Fraction(7, 2)
    with pytest.raises(Exception):
        io.str_to_rat("1/0")


def test_cli_degree_all_ones(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    div_file = write(
        tmp_path,
        "divs.json",
        {"divisors": [{"values": ["1", "1", "1"]}, {"values": ["1", "1", "1"]}]},
    )
    code, out, _ = run(capsys, "degree", "--fan", fan_file, "--divisors", div_file)
    assert code == 0
    assert json.loads(out)["degree"] == "9"


def test_cli_lorentzian_yes(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(coordinate_skeleton_fan()))
    code, out, _ = run(capsys, "lorentzian", "--fan", fan_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert payload["stars"][""]["inertia"] == [1, 2, 3]


def test_cli_lorentzian_no_with_pinch(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(two_disjoint_triangles()))
    code, out, _ = run(capsys, "lorentzian", "--fan", fan_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "no"
    assert "" in payload["pinches"]["pinched_at"]


def test_cli_lorentzian_sampling_needs_seed(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    code, _, err = run(capsys, "lorentzian", "--fan", fan_file, "--samples", "1")
    assert code == 2
    assert "seed" in err


def test_cli_lorentzian_sampling_needs_seed_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(tf):
        raise AssertionError("is_lorentzian ran before the --seed check")

    monkeypatch.setattr(cli, "is_lorentzian", refuse)
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    code, out, err = run(capsys, "lorentzian", "--fan", fan_file, "--samples", "1")
    assert code == 2
    assert out == ""
    assert err == "input error: --samples requires an explicit --seed\n"


def test_cli_lorentzian_refuses_negative_samples(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(coordinate_skeleton_fan()))
    code, out, err = run(capsys, "lorentzian", "--fan", fan_file, "--samples", "-1", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_cli_validate_broken_fan(tmp_path, capsys):
    broken = {
        "ambient_dim": 2,
        "rays": [["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"]],
        "maximal_cones": [[0, 1], [2, 3]],
    }
    path = write(tmp_path, "broken.json", broken)
    code, out, _ = run(capsys, "validate", "--fan", path)
    assert code == 3
    assert json.loads(out)["failures"]


def test_cli_validate_good_fan(tmp_path, capsys):
    path = write(tmp_path, "fan.json", io.fan_to_json(triangle_fan().fan))
    code, out, _ = run(capsys, "validate", "--fan", path)
    assert code == 0
    assert json.loads(out)["valid"]


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--fan", str(path))
    assert code == 2


def test_cli_arity_mismatch_exit_code(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    div_file = write(tmp_path, "one.json", {"values": ["1", "1", "1"]})
    code, _, err = run(capsys, "degree", "--fan", fan_file, "--divisors", div_file)
    assert code == 3


def test_cli_bergman_and_balance(tmp_path, capsys):
    matroid_file = write(
        tmp_path,
        "m.json",
        {"n": 6, "bases": [sorted(b) for b in complete_graph_matroid(4).bases]},
    )
    code, out, _ = run(capsys, "bergman", "--matroid", matroid_file)
    assert code == 0
    fan_json = json.loads(out)
    assert len(fan_json["rays"]) == 13
    fan_file = write(tmp_path, "bergman.json", fan_json)
    code, out, _ = run(capsys, "balance", "--fan", fan_file)
    assert code == 0
    assert json.loads(out)["balanced"]


def test_cli_balance_refuses_a_face_on_dependent_marks(tmp_path, capsys):
    """The 2-face {0, 1} of the first cone has parallel marks: balancing
    there is undefined, and the refusal names that face."""
    fan_file = write(tmp_path, "dependent.json", {
        "ambient_dim": 3,
        "rays": [["1", "0", "0"], ["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "maximal_cones": [[0, 1, 2], [1, 2, 3]],
        "weights": {"0,1,2": "1", "1,2,3": "1"},
    })
    code, out, err = run(capsys, "balance", "--fan", fan_file)
    assert code == 3
    assert out == ""
    assert "cone (0, 1) has dependent marks" in err


def test_cli_product_star_stellar(tmp_path, capsys):
    t_file = write(tmp_path, "t.json", io.tropical_to_json(triangle_fan()))
    l_file = write(tmp_path, "l.json", io.tropical_to_json(line_fan()))
    code, out, _ = run(capsys, "product", "--fan", t_file, "--fan2", l_file)
    assert code == 0
    product = json.loads(out)
    assert len(product["maximal_cones"]) == 6

    code, out, _ = run(capsys, "star", "--fan", t_file, "--cone", "0")
    assert code == 0
    star_payload = json.loads(out)
    assert star_payload["lift"] == [1, 2]

    code, out, _ = run(capsys, "stellar", "--fan", t_file, "--point", "1,1")
    assert code == 0
    stellar = json.loads(out)
    assert stellar["new_ray"] == 3
    assert len(stellar["maximal_cones"]) == 4
    assert set(stellar["weights"].values()) == {"1"}


def test_cli_convexity_af_act_modify(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    ones = write(tmp_path, "ones.json", {"values": ["1", "1", "1"]})
    bad = write(tmp_path, "bad.json", {"values": ["-1", "0", "0"]})

    code, out, _ = run(capsys, "convexity", "--fan", fan_file, "--divisor", ones, "--strict")
    assert code == 0
    assert json.loads(out)["verdict"] == "strictly-convex"

    code, out, _ = run(capsys, "af", "--fan", fan_file, "--d1", ones, "--d2", ones)
    assert code == 0
    assert json.loads(out)["sequence"] == ["9", "9", "9"]

    code, _, err = run(capsys, "act", "--fan", fan_file, "--divisor", bad)
    assert code == 3

    code, out, _ = run(capsys, "modify", "--fan", fan_file, "--divisor", ones)
    assert code == 0
    assert json.loads(out)["ambient_dim"] == 3


def test_cli_mixedvol_and_volpoly(tmp_path, capsys):
    fan_json = io.fan_to_json(triangle_fan().fan)
    p_file = write(tmp_path, "p.json", {"fan": fan_json, "rhs": ["0", "1", "1"]})
    code, out, _ = run(capsys, "mixedvol", "--polytope", p_file, "--polytope", p_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == "4"
    assert payload["euclidean_value"] == "2"

    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    code, out, _ = run(capsys, "volpoly", "--fan", fan_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["inertia"] == [1, 0, 2]
    assert payload["polynomial"]["1,1,0"] == "2"


def test_cli_volpoly_builds_the_form_once(tmp_path, capsys, monkeypatch):
    """On a two-dimensional fan the printed matrix and the polynomial come
    from one quadratic form."""
    calls = []

    def counting(fan, w):
        calls.append(w)
        return quadratic_form(fan, w)

    monkeypatch.setattr(cli, "quadratic_form", counting)
    monkeypatch.setattr(lorentzian, "quadratic_form", counting)
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(bergman_fan(complete_graph_matroid(4))))
    code, out, _ = run(capsys, "volpoly", "--fan", fan_file)
    assert code == 0
    assert json.loads(out)["inertia"] == [1, 7, 5]
    assert len(calls) == 1


def test_cli_mixedvol_refuses_double_cover(tmp_path, capsys):
    fan_json = io.fan_to_json(triangle_double_cover())
    p_file = write(tmp_path, "p.json", {"fan": fan_json, "rhs": ["1"] * 6})
    code, out, err = run(capsys, "mixedvol", "--polytope", p_file, "--polytope", p_file)
    assert code == 3
    assert out == ""
    assert "overlap" in err


def double_cover_file(tmp_path):
    """The triangle double cover with unit weights, written as a fan file."""
    fan = triangle_double_cover()
    weights = {c: ONE for c in fan.maximal_cones}
    return write(tmp_path, "fan.json", io.tropical_to_json(TropicalFan(fan, MinkowskiWeight(2, weights))))


def test_cli_degree_refuses_double_cover(tmp_path, capsys):
    # without the validate gate this non-fan got degree 18, twice the triangle's
    fan_file = double_cover_file(tmp_path)
    ones = {"values": ["1"] * 6}
    div_file = write(tmp_path, "divs.json", {"divisors": [ones, ones]})
    code, out, err = run(capsys, "degree", "--fan", fan_file, "--divisors", div_file)
    assert code == 3
    assert out == ""
    assert "mixed degrees need a fan" in err and "overlap" in err


def test_cli_lorentzian_refuses_double_cover(tmp_path, capsys):
    # without the validate gate this non-fan was reported quasiprojective
    code, out, err = run(capsys, "lorentzian", "--fan", double_cover_file(tmp_path))
    assert code == 3
    assert out == ""
    assert "overlap" in err


def test_cli_volpoly_refuses_double_cover(tmp_path, capsys):
    # without the validate gate this non-fan got inertia (3, 1, 2)
    code, out, err = run(capsys, "volpoly", "--fan", double_cover_file(tmp_path))
    assert code == 3
    assert out == ""
    assert "volume polynomials need a fan" in err and "overlap" in err


def test_cli_af_refuses_double_cover(tmp_path, capsys):
    # without the validate gate this non-fan got an AF gap of 0
    fan_file = double_cover_file(tmp_path)
    ones = write(tmp_path, "ones.json", {"values": ["1"] * 6})
    code, out, err = run(capsys, "af", "--fan", fan_file, "--d1", ones, "--d2", ones)
    assert code == 3
    assert out == ""
    assert "AF reports need a fan" in err and "overlap" in err


@pytest.mark.parametrize("command, message", [
    ("act", "divisor action needs a fan"),
    ("modify", "tropical modification needs a fan"),
])
def test_cli_act_and_modify_refuse_double_cover(tmp_path, capsys, command, message):
    # without the validate gate both emitted a weighted fan for this non-fan
    ones = write(tmp_path, "ones.json", {"values": ["1"] * 6})
    code, out, err = run(capsys, command, "--fan", double_cover_file(tmp_path), "--divisor", ones)
    assert code == 3
    assert out == ""
    assert f"{message}: cones (0, 1) and (2, 4) overlap beyond their shared face" in err


def test_cli_lorentzian_samples_runs_regular_once(capsys, monkeypatch):
    """validate proves the candidate divisor; the witness and the sampling
    gate read that verdict off the fan, so `_regular` decides the candidate
    once and the run solves the LPs of that one pass and no more: none on
    M(K4), where the particular functional passes at every maximal cone.
    The only star is the fan itself, so the draws are decided on it too,
    each once, by the candidate's record shifted, with no LP."""
    golden = Path(__file__).parent / "golden"
    path = str(golden / "inputs" / "mk4.json")
    calls, solved = [], []
    regular, feasible = fan_module._regular, fan_module.strict_feasible

    def counted_regular(fan, z, kept):
        calls.append(z)
        return regular(fan, z, kept)

    def counted_feasible(rows, dim):
        solved.append(len(rows))
        return feasible(rows, dim)

    monkeypatch.setattr(fan_module, "strict_feasible", counted_feasible)
    fan, _ = io.fan_from_json(io.load_json_file(path))
    candidate = fan_module.candidate_divisor(fan)
    assert regular(fan, candidate, {}) is not None
    one_pass, solved[:] = solved[:], []
    assert one_pass == []
    monkeypatch.setattr(fan_module, "_regular", counted_regular)
    code, out, _ = run(capsys, "lorentzian", "--fan", path, "--samples", "2", "--seed", "5")
    assert code == 0
    assert out == (golden / "lorentzian-mk4-samples.json").read_text()
    assert calls[0] == candidate
    assert len(set(calls)) == len(calls)
    assert solved == one_pass


@pytest.mark.parametrize("length", [2, 4])
def test_cli_af_refuses_wrong_length_divisors(tmp_path, capsys, length):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    ones = write(tmp_path, "ones.json", {"values": ["1"] * 3})
    wrong = write(tmp_path, "wrong.json", {"values": ["1"] * length})
    for d1, d2 in ((wrong, ones), (ones, wrong)):
        code, out, err = run(capsys, "af", "--fan", fan_file, "--d1", d1, "--d2", d2)
        assert code == 3
        assert out == ""
        assert err == "precondition failure: divisor has one value per ray\n"


def test_cli_star_refuses_dependent_marks_at_apex(tmp_path, capsys):
    # ray 0 moved onto the line of ray 2: cone (0, 2) is no longer simplicial
    payload = io.tropical_to_json(triangle_fan())
    payload["rays"][0] = ["1", "1"]
    fan_file = write(tmp_path, "fan.json", payload)
    code, out, err = run(capsys, "star", "--fan", fan_file, "--cone", "0")
    assert code == 3
    assert out == ""
    assert "not simplicial" in err


def test_cli_out_file(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(out_file), "lorentzian", "--fan", fan_file)
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["verdict"] == "yes"


def test_reports_deterministic(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(coordinate_skeleton_fan()))
    first = run(capsys, "lorentzian", "--fan", fan_file, "--samples", "2", "--seed", "5")
    second = run(capsys, "lorentzian", "--fan", fan_file, "--samples", "2", "--seed", "5")
    assert first == second


def test_cli_stellar_accepts_negative_points(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    code, out, _ = run(capsys, "stellar", "--fan", fan_file, "--point", "-1,-1")
    assert code == 0
    payload = json.loads(out)
    assert ["-1", "-1"] in payload["rays"]


# ---------------------------------------------------------------------------
# the input boundary: badly typed JSON exits 2, anything unexpected exits 4


def _fan_json(**changes):
    payload = io.tropical_to_json(triangle_fan())
    payload.update(changes)
    return payload


def test_divisor_string_values_rejected(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", _fan_json())
    div_file = write(tmp_path, "d.json", {"values": "111"})
    code, _, err = run(capsys, "convexity", "--fan", fan_file, "--divisor", div_file)
    assert code == 2
    assert "list" in err


def test_string_ray_rejected(tmp_path, capsys):
    fan_file = write(tmp_path, "fan.json", _fan_json(rays=["10", ["0", "1"], ["-1", "-1"]]))
    code, _, err = run(capsys, "balance", "--fan", fan_file)
    assert code == 2
    assert "list" in err


def test_ambient_dim_must_be_an_integer(tmp_path, capsys):
    with pytest.raises(InputError):
        io.fan_from_json(_fan_json(ambient_dim="two"))
    fan_file = write(tmp_path, "fan.json", _fan_json(ambient_dim="two"))
    code, _, err = run(capsys, "validate", "--fan", fan_file)
    assert code == 2
    assert "Traceback" not in err


def test_matroid_size_must_be_an_integer(tmp_path, capsys):
    m_file = write(tmp_path, "m.json", {"n": "x", "bases": [[0, 1]]})
    code, _, _ = run(capsys, "bergman", "--matroid", m_file)
    assert code == 2


def test_matroid_basis_with_a_repeated_element_refused(tmp_path, capsys):
    data = {"n": 3, "bases": [[0, 1], [1, 2], [0, 2], [0, 0, 1]]}
    with pytest.raises(InputError):
        io.matroid_from_json(data)
    code, out, err = run(capsys, "bergman", "--matroid", write(tmp_path, "m.json", data))
    assert code == 2
    assert out == ""
    assert "repeats" in err


def test_matroid_loops_refused_before_any_n_bit_work(tmp_path, capsys):
    """A huge n with one basis is refused from the union of the bases: quickly,
    with the loop count and the first few loops in one short line."""
    m_file = write(tmp_path, "m.json", {"n": 1000000, "bases": [[0]]})
    start = time.perf_counter()
    code, out, err = run(capsys, "bergman", "--matroid", m_file)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.encode()) < 1024
    assert "999999 loops" in err and "[1, 2, 3, 4, 5]" in err


def test_matroid_past_the_ambient_limit_refused_before_the_exchange_check(tmp_path, capsys, monkeypatch):
    """A rank-one matroid on 3000 elements has no loop, and its Bergman fan
    would live in R^2999: the refusal comes before the exchange check, which
    is quadratic in the number of bases."""

    def exchange_check(m):
        raise AssertionError("the exchange check ran")

    monkeypatch.setattr(matroids, "_check_exchange", exchange_check)
    m_file = write(tmp_path, "m.json", {"n": 3000, "bases": [[e] for e in range(3000)]})
    code, out, err = run(capsys, "bergman", "--matroid", m_file)
    assert code == 2
    assert out == ""
    assert err == "input error: ambient_dim 2999 exceeds the limit of 1024\n"


@pytest.mark.parametrize("where", ["ambient_dim", "ray", "cone", "weight", "divisor", "matroid"])
def test_booleans_rejected(tmp_path, capsys, where):
    fan = _fan_json()
    divisor = {"values": ["1", "1", "1"]}
    if where == "ambient_dim":
        fan["ambient_dim"] = True
    elif where == "ray":
        fan["rays"][0][0] = True
    elif where == "cone":
        fan["maximal_cones"][0] = [False, True]
    elif where == "weight":
        fan["weights"]["0,1"] = True
    elif where == "divisor":
        divisor["values"][0] = True
    if where == "matroid":
        m_file = write(tmp_path, "m.json", {"n": 3, "bases": [[0, True]]})
        code, _, _ = run(capsys, "bergman", "--matroid", m_file)
    else:
        fan_file = write(tmp_path, "fan.json", fan)
        div_file = write(tmp_path, "d.json", divisor)
        code, _, _ = run(capsys, "convexity", "--fan", fan_file, "--divisor", div_file)
    assert code == 2


@pytest.mark.parametrize("where", ["ray", "weight"])
@pytest.mark.parametrize("bad", [True, False, 1.0, None, [1]], ids=["true", "false", "1.0", "null", "list"])
def test_non_string_rationals_refused_after_equal_ones(tmp_path, capsys, where, bad):
    """A file parses each distinct rational string once, keyed on the string
    alone: a value equal to an earlier 1, "1", 0 or "0" as a Python key is
    still refused with its own message."""
    fan = _fan_json()
    fan["rays"][:2] = [[1, "0"], [0, "1"]]
    fan["weights"].update({"0,1": 0, "0,2": "0"} if bad is False else {"0,1": 1, "0,2": "1"})
    if where == "ray":
        fan["rays"][2][0] = bad
    else:
        fan["weights"]["1,2"] = bad
    with pytest.raises(InputError):
        io.fan_from_json(json.loads(io.dumps(fan)))
    code, out, err = run(capsys, "validate", "--fan", write(tmp_path, "fan.json", fan))
    assert code == 2
    assert out == ""
    assert err == f'input error: bad rational {bad!r}: expected a string "p/q" or "p", or an integer\n'


def test_exponent_and_decimal_rationals_refused():
    start = time.perf_counter()
    for text in ("1e999999999", "1E5", "0.5", "1/2e3", "inf", "nan", ""):
        with pytest.raises(InputError):
            io.str_to_rat(text)
    assert time.perf_counter() - start < 0.5
    assert io.str_to_rat(" -3/6") == Fraction(-1, 2)
    assert io.str_to_rat(4) == 4


def test_internal_error_exits_4_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(fan, **_):
        raise InternalError("an invariant failed")

    monkeypatch.setattr(cli, "validate", broken)
    fan_file = write(tmp_path, "fan.json", _fan_json())
    assert run(capsys, "validate", "--fan", fan_file) == (4, "", "internal error: an invariant failed\n")


def test_unexpected_error_exits_4_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(fan, **_):
        raise KeyError("first line\nsecond line")

    monkeypatch.setattr(cli, "validate", broken)
    fan_file = write(tmp_path, "fan.json", _fan_json())
    code, _, err = run(capsys, "validate", "--fan", fan_file)
    assert code == 4
    assert len(err.strip().splitlines()) == 1
    assert "KeyError" in err


# argv that stop in the parser: help, a missing or unknown command, and
# errors of the main parser and of a command's own
PARSER_ARGV = [
    ["--help"], ["-h"], [], ["nosuch"], ["nosuch", "--fan", "x"], ["--out", "x.json"], ["--out"],
    ["--ou", "x", "af"], ["--", "af"], ["--out", "-x", "af"], ["af", "--help"], ["af"],
    ["af", "--fan", "f.json", "--bogus"], ["af", "--fan", "a", "--d1", "b", "--d2"],
    ["--out", "x.json", "stellar", "--help"], ["stellar", "--fan", "f", "--point"],
    ["--out=x.json", "volpoly", "--fan", "f", "extra"], ["balance", "--fan", "f", "validate"],
    ["mixedvol"], ["mixedvol", "--help"], ["lorentzian", "--samples", "x", "--fan", "f"],
    ["validate"], ["convexity", "--help"],
]


def parser_outcome(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_cli_parser_of_one_command_prints_like_the_full_parser(capsys, monkeypatch, argv):
    lazy = parser_outcome(capsys, argv)
    monkeypatch.setattr(cli, "command_named", lambda argv: None)
    assert lazy == parser_outcome(capsys, argv)


def test_cli_builds_only_the_named_command(tmp_path, capsys, monkeypatch):
    import argparse

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    fan_file = write(tmp_path, "fan.json", io.tropical_to_json(triangle_fan()))
    out_file = str(tmp_path / "out.json")
    assert run(capsys, "--out", out_file, "validate", "--fan", fan_file)[0] == 0
    assert built == ["validate"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == list(cli.COMMANDS)
    assert cli.command_named(["--out=x", "af"]) == "af"
    assert cli.command_named(["--out", "af", "volpoly"]) == "volpoly"
    assert cli.command_named(["--o", "x", "af"]) is None
    assert cli.command_named(["nosuch"]) is None


def test_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit):
        main(["--jobs", "2", "validate", "--fan", "x.json"])


def test_overlong_json_integer_exits_2(tmp_path, capsys):
    """An integer one digit past the interpreter's digit limit is refused as
    input, not reported as an internal error."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no digit limit on int parsing")
    path = tmp_path / "fan.json"
    path.write_text('{"ambient_dim": 1, "rays": [[%s]], "maximal_cones": [[0]]}' % ("9" * (limit + 1)))
    code, out, err = run(capsys, "validate", "--fan", str(path))
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err and "internal error" not in err


def test_unreadable_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--fan", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "cannot read" in err and "internal error" not in err


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "fan.json"
    depth = 10 * sys.getrecursionlimit()
    path.write_text("[" * depth + "]" * depth)
    code, out, err = run(capsys, "validate", "--fan", str(path))
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err and "internal error" not in err


@pytest.mark.parametrize(
    "fan, argv",
    [
        (_fan_json(maximal_cones=[[0, 1], [0, 2], [1, 2, 1]]), ("validate",)),
        (_fan_json(weights={"0,1": "1", "0,2": "1", "1,2,1": "1"}), ("balance",)),
        (_fan_json(), ("star", "--cone", "0,0")),
    ],
    ids=["maximal-cone", "weight-key", "star-apex"],
)
def test_cone_repeating_a_ray_refused(tmp_path, capsys, fan, argv):
    fan_file = write(tmp_path, "fan.json", fan)
    code, out, err = run(capsys, argv[0], "--fan", fan_file, *argv[1:])
    assert code == 2
    assert out == ""
    assert "repeats a ray" in err


def test_weight_key_naming_no_cone_refused(tmp_path, capsys):
    fan = _fan_json()
    fan["weights"]["7,9"] = "1"
    with pytest.raises(InputError):
        io.fan_from_json(fan)
    code, out, err = run(capsys, "balance", "--fan", write(tmp_path, "fan.json", fan))
    assert code == 2
    assert out == ""
    assert "'7,9' names no cone of the fan" in err


def test_top_weight_file_leaves_the_face_index_unbuilt():
    """The keys of a top weight are maximal cones, so reading a Bergman fan
    and validating it lists no faces."""
    blob = json.loads(io.dumps(io.tropical_to_json(bergman_fan(complete_graph_matroid(5)))))
    fan, weight = io.fan_from_json(blob)
    assert fan_module.validate(fan).valid
    assert weight.degree == fan.dimension
    assert "incident" not in vars(fan) and "_cones_by_dim" not in vars(fan)


def test_weight_on_lower_faces_read_through_the_face_index():
    """An acted weight lives on the rays of the triangle fan, which are not
    maximal cones: the file reads back equal."""
    tf = triangle_fan()
    acted = divisor_action(tf.fan, tf.weight, (ONE, ONE, 2 * ONE))
    fan, weight = io.fan_from_json(json.loads(io.dumps(io.fan_to_json(tf.fan, acted))))
    assert weight == acted and weight.degree == 1
    assert "incident" in vars(fan)


def test_negative_ambient_dimension_refused(tmp_path, capsys):
    fan = {"ambient_dim": -1, "rays": [], "maximal_cones": [[]]}
    code, out, err = run(capsys, "validate", "--fan", write(tmp_path, "fan.json", fan))
    assert code == 3
    assert out == ""
    assert "ambient dimension must be nonnegative" in err


def test_ambient_dim_past_the_limit_refused_before_any_allocation(tmp_path, capsys):
    """A 57-byte fan in R^(10**9) is refused with exit 2 while its
    ambient_dim is read, before any ray, cone or record is made; the limit
    itself is accepted."""
    fan = {"ambient_dim": 10**9, "rays": [], "maximal_cones": [[]]}
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            io.fan_from_json(fan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    message = "input error: ambient_dim 1000000000 exceeds the limit of 1024\n"
    assert run(capsys, "validate", "--fan", write(tmp_path, "fan.json", fan)) == (2, "", message)
    fan["ambient_dim"] = io.MAX_AMBIENT_DIM + 1
    with pytest.raises(InputError, match="ambient_dim 1025 exceeds the limit of 1024"):
        io.fan_from_json(fan)
    fan["ambient_dim"] = io.MAX_AMBIENT_DIM
    assert io.fan_from_json(fan)[0].ambient_dim == 1024


def _origin_json(ambient_dim):
    return {"ambient_dim": ambient_dim, "rays": [], "maximal_cones": [[]], "weights": {"": "1"}}


@pytest.mark.parametrize(
    "files, argv, ambient_dim",
    [
        ({"m": {"n": 1026, "bases": [[i] for i in range(1026)]}}, ["bergman", "--matroid", "@m"], 1025),
        ({"a": _origin_json(600), "b": _origin_json(500)}, ["product", "--fan", "@a", "--fan2", "@b"], 1100),
        ({"a": _origin_json(1024), "d": {"values": []}}, ["modify", "--fan", "@a", "--divisor", "@d"], 1025),
    ],
    ids=["bergman", "product", "modify"],
)
def test_output_fan_past_the_ambient_limit_refused(tmp_path, capsys, files, argv, ambient_dim):
    """A command whose fan would not read back is refused with exit 2 before
    it builds the fan: `bergman` on a loopless matroid on n elements writes
    R^(n-1), `product` the sum of its factors' dimensions and `modify` one
    more than its fan's."""
    paths = {k: write(tmp_path, f"{k}.json", v) for k, v in files.items()}
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    message = f"input error: ambient_dim {ambient_dim} exceeds the limit of {io.MAX_AMBIENT_DIM}\n"
    assert run(capsys, *argv) == (2, "", message)


def test_output_fan_at_the_ambient_limit_reads_back(tmp_path, capsys):
    """The product of origin fans in R^600 and R^424 lies in R^1024, which
    `validate` reads."""
    fans = [write(tmp_path, f"{n}.json", _origin_json(n)) for n in (600, 424)]
    code, out, _ = run(capsys, "product", "--fan", fans[0], "--fan2", fans[1])
    assert code == 0
    assert json.loads(out)["ambient_dim"] == io.MAX_AMBIENT_DIM
    product = tmp_path / "product.json"
    product.write_text(out)
    assert run(capsys, "validate", "--fan", str(product))[0] == 0


def test_two_weight_keys_on_one_cone_refused(tmp_path, capsys):
    fan = _fan_json(weights={"0,1": "1", "1,0": "2", "0,2": "1", "1,2": "1"})
    code, out, err = run(capsys, "balance", "--fan", write(tmp_path, "fan.json", fan))
    assert code == 2
    assert out == ""
    assert "two weight keys name the cone '0,1'" in err


_BARE_TRIANGLE = io.fan_to_json(triangle_fan().fan)


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        ({"fan": _BARE_TRIANGLE}, ["balance", "--fan", "@fan"], 2, "input error: fan file carries no weights"),
        ({"fan": _BARE_TRIANGLE}, ["lorentzian", "--fan", "@fan"], 2, "input error: fan file carries no weights"),
        (
            {"fan": _fan_json()},
            ["star", "--fan", "@fan", "--cone", "a"],
            2,
            "input error: bad cone key 'a': invalid literal for int() with base 10: 'a'",
        ),
        (
            {"fan": _fan_json(weights={"0,1": "1", "0,2": "1", "2": "1"})},
            ["balance", "--fan", "@fan"],
            2,
            "input error: weight keys must share one cone dimension",
        ),
        (
            {"fan": _fan_json(), "d": {"value": ["1", "1", "1"]}},
            ["convexity", "--fan", "@fan", "--divisor", "@d"],
            2,
            "input error: malformed divisor: 'values'",
        ),
        ({"m": {"n": 3}}, ["bergman", "--matroid", "@m"], 2, "input error: malformed matroid: 'bases'"),
        ({"p": {"fan": _BARE_TRIANGLE}}, ["mixedvol", "--polytope", "@p"], 2, "input error: malformed polytope: 'rhs'"),
        (
            {
                "p": {"fan": _BARE_TRIANGLE, "rhs": ["0", "1", "1"]},
                "q": {"fan": io.fan_to_json(line_fan().fan), "rhs": ["1", "1"]},
            },
            ["mixedvol", "--polytope", "@p", "--polytope", "@q"],
            3,
            "precondition failure: polytopes must share one normal fan",
        ),
        (
            {"fan": _fan_json()},
            ["stellar", "--fan", "@fan", "--point", "1,1,1"],
            3,
            "precondition failure: subdivision point has wrong dimension",
        ),
        (
            {"fan": {"ambient_dim": 2, "rays": [["1", "0"]], "maximal_cones": []}},
            ["validate", "--fan", "@fan"],
            3,
            "precondition failure: a fan needs at least one maximal cone (possibly the origin)",
        ),
        (
            {"fan": _fan_json(rays=[["0", "0"], ["0", "1"], ["-1", "-1"]])},
            ["validate", "--fan", "@fan"],
            3,
            "precondition failure: ray marks must be nonzero",
        ),
        (
            {"fan": io.tropical_to_json(line_fan()), "d": {"values": ["1", "1"]}},
            ["af", "--fan", "@fan", "--d1", "@d", "--d2", "@d"],
            3,
            "precondition failure: AF reports need dimension at least two",
        ),
        (
            {"fan": io.tropical_to_json(triangle_times_line()), "d": {"values": ["1"] * 5}},
            ["af", "--fan", "@fan", "--d1", "@d", "--d2", "@d"],
            3,
            "precondition failure: need 1 auxiliary divisors, got 0",
        ),
        (
            {"fan": io.tropical_to_json(origin_fan(2)), "d": {"values": []}},
            ["act", "--fan", "@fan", "--divisor", "@d"],
            3,
            "precondition failure: cannot act on a zero-dimensional fan",
        ),
        (
            {"fan": io.tropical_to_json(origin_fan(2)), "d": {"values": []}},
            ["modify", "--fan", "@fan", "--divisor", "@d"],
            3,
            "precondition failure: cannot modify a zero-dimensional fan",
        ),
        (
            {"p": {"fan": _BARE_TRIANGLE, "rhs": ["1", "1"]}},
            ["mixedvol", "--polytope", "@p", "--polytope", "@p"],
            3,
            "precondition failure: one right-hand side per ray required",
        ),
        (
            {"p": {"fan": io.fan_to_json(twisted_prism_fan().fan), "rhs": ["1"] * 6}},
            ["mixedvol", "--polytope", "@p", "--polytope", "@p", "--polytope", "@p"],
            3,
            "precondition failure: the unit weight does not balance on this fan",
        ),
        (
            {"m": {"n": 0, "bases": [[]]}},
            ["bergman", "--matroid", "@m"],
            3,
            "precondition failure: Bergman fans require rank at least one",
        ),
        ({"m": {"n": 2, "bases": []}}, ["bergman", "--matroid", "@m"], 3, "precondition failure: a matroid needs at least one basis"),
        ({"m": {"n": 2, "bases": [[0, 5]]}}, ["bergman", "--matroid", "@m"], 3, "precondition failure: basis element out of range"),
        (
            {"m": {"n": 4, "bases": [[0, 1], [2, 3]]}},
            ["bergman", "--matroid", "@m"],
            3,
            "precondition failure: exchange axiom fails for [0, 1], [2, 3] at 0",
        ),
    ],
    ids=[
        "balance-without-weights",
        "lorentzian-without-weights",
        "star-bad-cone-key",
        "weight-keys-of-mixed-dimension",
        "divisor-without-values",
        "matroid-without-bases",
        "polytope-without-rhs",
        "mixedvol-over-two-fans",
        "stellar-point-of-wrong-dimension",
        "no-maximal-cones",
        "zero-ray-mark",
        "af-on-a-one-dimensional-fan",
        "af-without-its-auxiliary-divisor",
        "act-on-the-origin-fan",
        "modify-on-the-origin-fan",
        "mixedvol-with-a-short-rhs",
        "mixedvol-with-an-unbalanced-unit-weight",
        "bergman-of-rank-zero",
        "bergman-without-bases",
        "bergman-element-out-of-range",
        "bergman-exchange-axiom-fails",
    ],
)
def test_cli_refusals(tmp_path, capsys, files, argv, code, message):
    """Each refusal exits with its code, prints nothing and names its
    reason in one line; "@name" stands for the file written from files[name]."""
    paths = {name: write(tmp_path, f"{name}.json", payload) for name, payload in files.items()}
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    assert run(capsys, *argv) == (code, "", message + "\n")
