"""Fuzzing the CLI boundary with mutated fixture JSON.

Each example takes a fixture's JSON and the input files one command needs,
mutates one node of one file (replacing it with a small int, a string, a
list, null or a bool, or dropping it from its object or list) and runs the
command through `cli.main`.  Whatever the input, the CLI must answer with a
verdict (0), an input error (2) or a precondition failure (3), never with an
internal error (4) or a traceback.
"""

import contextlib
import io as stdio
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from lorfan import fixtures, io
from lorfan.cli import main

FIXTURES = {
    "triangle": fixtures.triangle_fan,
    "skeleton": fixtures.coordinate_skeleton_fan,
    "line": fixtures.line_fan,
}
COMMANDS = ("validate", "balance", "convexity", "star", "degree")
CONE_KEYS = ("", "0", "1", "0,1", "5", "x")

DROP = object()
REPLACEMENTS = st.one_of(
    st.integers(-3, 3),
    st.text(alphabet="01-/x ", max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "1/2"])), max_size=3),
    st.none(),
    st.booleans(),
    st.just(DROP),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(doc, path, value):
    if not path:
        return None if value is DROP else value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _inputs(name, command):
    """The JSON documents of one command, keyed by the option naming their file."""
    tf = FIXTURES[name]()
    ones = io.divisor_to_json([1] * len(tf.fan.rays))
    docs = {"fan": io.tropical_to_json(tf)}
    if command == "convexity":
        docs["divisor"] = ones
    if command == "degree":
        docs["divisors"] = {"divisors": [ones] * tf.dimension}
    return docs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_survives_mutated_json(data):
    name = data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    docs = _inputs(name, command)
    target = data.draw(st.sampled_from(sorted(docs)), label="file")
    path = data.draw(st.sampled_from(list(_paths(docs[target]))), label="path")
    docs[target] = _mutate(docs[target], path, data.draw(REPLACEMENTS, label="value"))

    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for option, doc in docs.items():
            file = os.path.join(tmp, f"{option}.json")
            with open(file, "w") as fh:
                json.dump(doc, fh)
            argv += [f"--{option}", file]
        if command == "star":
            argv += ["--cone", data.draw(st.sampled_from(CONE_KEYS), label="cone")]
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
