"""Import boundaries between the source modules."""

import ast
import importlib
import os
import subprocess
import sys
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


def imports_module(path: Path, module: str) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == module:
            return True
    return False


def test_the_modules_that_import_random_are_pinned():
    # the minimality certificate and the witness search draw nothing, so
    # orbits and measures are not among them; random block elements of the
    # reductive quotient are drawn only by the tests, so graded is not either
    importers = {path.stem for path in SRC.glob("*.py") if imports_module(path, "random")}
    assert importers == {"cli", "finite_types", "selftest"}


def test_no_module_imports_dataclasses():
    # `record` builds every value class: importing `dataclasses` (and the
    # `inspect` it pulls in) would cost each CLI start more than a job
    assert [path.stem for path in SRC.glob("*.py") if imports_module(path, "dataclasses")] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps the site's own start-up imports out of the count
    code = "import sys, mptypes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


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


# definitions no command reaches yet, each with the item that keeps it
UNREACHED_ALLOWED = {
    "finite_types.hom_dim": "the multiplicity kernel, for ROADMAP items 5 and 7",
    "jsonio.mult_vector_to_json": "computed multiplicity vectors, for ROADMAP item 5",
    "measures.clear_count_cache": "perfbench's worker, until ROADMAP item 4",
}


def _names_read(nodes) -> set:
    """Every name the nodes read, imports aside: a bare name as itself, an
    attribute `x.name` as ".name"."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
    return out


def unreached_definitions(src: Path) -> dict:
    """The top-level functions, classes and methods of the modules in src
    that neither `cli.main` nor module-level code (every statement outside
    a function body; an import reads no name) reaches, with their line counts.  A
    reached body reaches each top-level definition whose name it reads, as
    a name or an attribute, and each method whose name it reads as an
    attribute (`x.name`: a local variable of the same name does not count);
    a dunder method is reached with its class.  Matching by name alone can
    only over-count what is reached."""
    defs = {}  # qualname -> (name, names its body reads, lines, class qualname)
    names = set()
    for path in sorted(src.glob("*.py")):
        top = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.append(node)
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                top += node.decorator_list + [node.args]
                defs[qual] = (node.name, _names_read(node.body), node, None)
                continue
            top += node.decorator_list + node.bases + node.keywords
            defs[qual] = (node.name, set(), node, None)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    top += item.decorator_list + [item.args]
                    defs[f"{qual}.{item.name}"] = (item.name, _names_read(item.body), item, qual)
                else:
                    top.append(item)
        names |= _names_read(top)
    reached, new = set(), {"cli.main"}
    while new:
        reached |= new
        for q in new:
            names |= defs[q][1]
        new = {
            q for q, (name, _, _, cls) in defs.items()
            if q not in reached
            and (
                cls in reached if name.startswith("__") and name.endswith("__")
                else "." + name in names or (cls is None and name in names)
            )
        }
    return {
        q: node.end_lineno - node.lineno + 1
        for q, (_, _, node, _) in sorted(defs.items())
        if q not in reached
    }


def test_every_definition_is_reached_from_a_command():
    # code that no command runs leaves the program: a test-only reference
    # moves next to its tests, and anything else is deleted
    unreached = unreached_definitions(SRC)
    assert set(unreached) == set(UNREACHED_ALLOWED), f"unreached (lines): {unreached}"


def test_unreached_definitions_finds_what_no_command_reaches(tmp_path):
    # `grown` in main is a local variable: it reaches no method Box.grown
    (tmp_path / "cli.py").write_text(
        "from .util import helper, unused\n"
        "def main():\n"
        "    grown = 1\n"
        "    return Box(grown).size\n",
        encoding="utf-8",
    )
    (tmp_path / "util.py").write_text(
        "TABLE = {'k': helper}\n"
        "def helper(v):\n"
        "    return v\n"
        "def unused():\n"
        "    return helper(0)\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "    def grown(self):\n"
        "        return Box(self.size + 1)\n"
        "class Lone:\n"
        "    def __len__(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert unreached_definitions(tmp_path) == {
        "util.Box.grown": 2,
        "util.Lone": 3,
        "util.Lone.__len__": 2,
        "util.recursive": 2,
        "util.unused": 2,
    }
