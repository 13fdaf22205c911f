"""The benchmark tracer still finds every name it wraps, and its call sites.

``bench/tracer.py`` patches functions and methods by name where their call
sites look them up; a rename or move in ``src/`` makes its install fail,
and a call that goes around a patch makes its metric read zero.
"""

import importlib
import io
import os
import sys
from contextlib import redirect_stdout

from carnot import bundled_spec
from carnot.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def import_tracer():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCH)


def test_tracer_installs_and_uninstalls():
    tracer = import_tracer()
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


def test_verify_and_oracle_reach_the_contact_pde_patches():
    tracer = import_tracer()
    engel = bundled_spec("engel.alg")
    with tracer.Tracer() as t, redirect_stdout(io.StringIO()):
        assert main(["verify", engel]) == 0
        assert main(["oracle", engel, "--degree", "2"]) == 0
    metrics = tracer.layer_metrics(t.spans, t.counts)
    for name in ("contact_pde.oracle_block_s", "contact_pde.residual_s",
                 "contact_pde.oracle_yield", "contact_pde.jet_s"):
        assert metrics[name] > 0, name
