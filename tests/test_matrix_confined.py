"""Only the automorphism code uses the dense ``Matrix``.

A degree-zero map is kept as its values, the convention of
``Level.actions``; ``Matrix`` is the value type of graded automorphisms
alone.  This test reads every module under ``src/carnot`` and lists
those that import the name or read it as an attribute.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "carnot"


def uses_matrix(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "Matrix" for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Matrix":
            return True
    return False


def test_only_the_automorphism_modules_use_matrix():
    users = {path.stem for path in SRC.rglob("*.py")
             if uses_matrix(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))}
    # exact_linalg defines Matrix; these two build and check automorphisms
    assert users <= {"group_realization", "cli"}, sorted(users)
