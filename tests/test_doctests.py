import doctest
import importlib
import pkgutil

import carnot

MODULES = ["carnot"] + [f"carnot.{m.name}" for m in pkgutil.iter_modules(carnot.__path__)]


def test_docstring_examples_hold():
    results = [doctest.testmod(importlib.import_module(name)) for name in MODULES]
    assert sum(r.failed for r in results) == 0
    # not vacuous: some module carries an example
    assert sum(r.attempted for r in results) > 0
