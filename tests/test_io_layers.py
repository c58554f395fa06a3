"""`io` holds the data formats only.

Each command of `cli` builds its own report, so `io` needs no record class of
the layers that compute verdicts.  The scan reads `src/lorfan/io.py` with
`ast` and imports nothing.
"""

import ast
import pathlib

IO = pathlib.Path(__file__).resolve().parent.parent / "src" / "lorfan" / "io.py"

# the lorfan modules whose classes and functions the data formats build or read
ALLOWED = {"errors", "fan", "matroids", "weights"}
# report serializers that each had one caller in `cli`
REPORTS = {
    "validation_to_json", "pinch_to_json", "convexity_to_json", "lorentzian_to_json", "af_to_json",
    "samples_to_json", "mixedvol_to_json", "stellar_to_json", "polynomial_to_json",
}


def _tree():
    return ast.parse(IO.read_text(), str(IO))


def _lorfan_imports(tree) -> set:
    """The lorfan modules that io imports, relatively or by full name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif node.module and node.module.startswith("lorfan."):
                out.add(node.module.split(".")[1])
            elif node.module == "lorfan":
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("lorfan."))
    return out


def test_io_imports_only_the_data_layers():
    assert _lorfan_imports(_tree()) <= ALLOWED


def test_io_defines_no_report_serializer():
    defined = {n.name for n in ast.walk(_tree()) if isinstance(n, ast.FunctionDef)}
    assert defined & REPORTS == set()
