"""The result records of lorfan are NamedTuples.

A dataclass costs several times a NamedTuple's class creation at import, and
every CLI process pays for it, so a class stays a dataclass only when it
needs one: it validates in `__post_init__` or keeps `cached_property` records
in its `__dict__`.  The two scans read the source with `ast` and import nothing.
"""

import ast
import pathlib

from lorfan.fan import StellarSubdivision, stellar_subdivide
from lorfan.fixtures import triangle_fan
from lorfan.linalg import Inertia, vec

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lorfan"


def _name(node) -> str:
    """The last name of a decorator or base: `dataclass(frozen=True)` and
    `functools.cached_property` give `dataclass` and `cached_property`."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _classes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def test_every_dataclass_validates_or_caches():
    plain = []
    for file, cls in _classes():
        if "dataclass" not in map(_name, cls.decorator_list):
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        validates = any(m.name == "__post_init__" for m in methods)
        caches = any("cached_property" in map(_name, m.decorator_list) for m in methods)
        if not (validates or caches):
            plain.append(f"{file}:{cls.name}")
    assert plain == [], "make these NamedTuples"


def test_no_record_field_shadows_a_tuple_method():
    shadowing = [
        f"{file}:{cls.name}.{stmt.target.id}"
        for file, cls in _classes()
        if "NamedTuple" in map(_name, cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and hasattr(tuple, stmt.target.id)
    ]
    assert shadowing == []


def test_records_unpack_and_compare_as_tuples():
    res = stellar_subdivide(triangle_fan().fan, vec([1, 1]))
    assert isinstance(res, StellarSubdivision)
    fan, containment, ray_map, new_ray = res
    assert res == (fan, containment, ray_map, new_ray) and len(res) == 4
    assert Inertia(1, 0, 2) == (1, 0, 2) == Inertia(1, 0, 2).astuple()
