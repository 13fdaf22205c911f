"""The runtime imports nothing outside the standard library.

sympy, numpy and pytest are installed next to the package, so an import
of one of them would go unnoticed until a bare install; this test reads
every module under ``src/carnot`` and checks its imports by name.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "carnot"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside carnot
            yield "carnot" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in imported_roots(tree):
            assert root == "carnot" or root in sys.stdlib_module_names, (path.name, root)
