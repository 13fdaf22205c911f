"""The benchmark tracer still finds every name it wraps.

``bench/tracer.py`` patches functions and methods by name where their call
sites look them up; a rename or move in ``src/`` makes its install fail.
"""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, BENCH)
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCH)
    owners = []
    for where, attr, _ in tracer.PATCHES:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        owners.append((getattr(owner, cls) if cls else owner, attr))
    before = [owner.__dict__[attr] for owner, attr in owners]
    t = tracer.Tracer()
    try:
        t.install()
        assert all(owner.__dict__[attr] is not old
                   for (owner, attr), old in zip(owners, before))
    finally:
        t.uninstall()
    assert [owner.__dict__[attr] for owner, attr in owners] == before
