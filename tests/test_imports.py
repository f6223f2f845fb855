"""Import boundaries between the source modules."""

import ast
from pathlib import Path

import mptypes

SRC = Path(mptypes.__file__).parent


def imports_laurent(tree: ast.AST) -> bool:
    """Whether the module imports `laurent`, relatively or as mptypes.laurent."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["mptypes", "laurent"] for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("laurent", "mptypes.laurent"):
                return True
            if module in ("", "mptypes") and any(a.name == "laurent" for a in node.names):
                return True
    return False


def test_only_counting_and_sampling_import_laurent():
    # graded elements are read through their exponents; Laurent matrices
    # are built only for counting residues (measures) and probe samples (orbits)
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        if path.stem != "laurent" and imports_laurent(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"measures", "orbits"}
