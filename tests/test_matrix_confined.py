"""Dense values stay where they are needed.

A level element is kept as its values, each the sparse ``{t: c}`` of
``Level.actions``; ``Matrix`` is the value type of graded automorphisms
alone.  The jets hold their parts in the same form, and
``Level.coordinates_of_values`` takes it.  The dense tuple of a value,
indexed by the same local coordinates t, is a test-only view
(``tests.conftest.dense_action``); ``src`` writes a value out densely
only to print it.  These tests read every module under
``src/carnot`` and list those that import ``Matrix`` or read it as an
attribute, and those that call a method named ``action``.
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


def calls_action(tree):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "action" for node in ast.walk(tree))


def modules_where(predicate):
    return {path.stem for path in SRC.rglob("*.py")
            if predicate(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))}


def test_only_the_automorphism_modules_use_matrix():
    users = modules_where(uses_matrix)
    # exact_linalg defines Matrix; these two build and check automorphisms
    assert users <= {"group_realization", "cli"}, sorted(users)


def test_no_module_reads_a_level_value_densely():
    # reports, tables and jet checks read Level.actions, the nonzero
    # components of each value
    assert not modules_where(calls_action), sorted(modules_where(calls_action))
