"""Import boundaries between the source modules."""

import ast
import importlib
from pathlib import Path

import mptypes

SRC = Path(mptypes.__file__).parent


def names_from_laurent(path: Path) -> list:
    """The names a module imports from `laurent`, relatively or as
    mptypes.laurent; a whole-module import counts as the name `laurent`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += ["laurent" for a in node.names if a.name.split(".")[:2] == ["mptypes", "laurent"]]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("laurent", "mptypes.laurent"):
                names += [a.name for a in node.names]
            elif module in ("", "mptypes"):
                names += ["laurent" for a in node.names if a.name == "laurent"]
    return names


def test_only_counting_and_sampling_import_laurent():
    # graded elements are read through their exponents; Laurent matrices
    # are built only for counting residues (measures), and orbits only reads
    # them, in jordan_type
    importers = {
        path.stem for path in SRC.glob("*.py") if path.stem != "laurent" and names_from_laurent(path)
    }
    assert importers == {"measures", "orbits"}


def test_importers_use_only_matrices_and_series_kernels():
    # one Laurent representation: matrices of bare series, handled by the ser_* kernels
    for stem in ("measures", "orbits"):
        names = names_from_laurent(SRC / f"{stem}.py")
        assert all(n in ("LMatrix", "Series") or n.startswith("ser_") for n in names), (stem, names)


def imports_random(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            return True
    return False


def test_the_modules_that_import_random_are_pinned():
    # the minimality certificate and the witness search draw nothing, so
    # orbits and measures are not among them; random block elements of the
    # reductive quotient are drawn only by the tests, so graded is not either
    importers = {path.stem for path in SRC.glob("*.py") if imports_random(path)}
    assert importers == {"cli", "finite_types", "selftest"}


def imported_names(path: Path) -> set:
    """Every name a module binds by an import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {a.asname or a.name for a in node.names}
    return names


def test_finite_types_neither_classifies_nor_builds_a_lattice():
    # the fork identity reads the restricted and free positions of a
    # decomposition that `refine` built
    names = imported_names(SRC / "finite_types.py")
    assert "Decomposition" in names
    assert not names & {"enumerate_and_classify", "mp_lattice", "refine", "apartment"}


def unused_imports(path: Path) -> list:
    """The names a module imports but never reads: every name bound by an
    import (its alias, or the first component of a dotted module) must
    occur as a name somewhere in the module; `__future__` imports bind
    none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    # no linter runs on the sources, so an import left behind by a deletion
    # is caught here
    unused = {path.stem: unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in unused.items() if names} == {}


def test_unused_imports_finds_a_leftover(tmp_path):
    module = tmp_path / "leftover.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random\n"
        "from .apartment import GradedSupport, graded_support as support\n"
        "def f(cfg, x):\n"
        "    return support(cfg, x, 0), os.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["random", "GradedSupport"]


def test_every_exported_name_exists():
    # a name removed from a module must leave its `__all__` too
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        mod = importlib.import_module(f"mptypes.{path.stem}")
        if hasattr(mod, "__all__"):
            missing = [name for name in mod.__all__ if not hasattr(mod, name)]
            assert not missing, (path.stem, missing)
            checked += 1
    assert checked >= 10
