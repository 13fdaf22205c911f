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


def test_oracle_counts_one_residual_call_per_ansatz_column():
    # the traced ansatz columns are the unit fields of every homogeneous
    # block, graded degree -step .. 2; the yield is 5 fields over them.
    # verify's defects and jets read the same residuals but add no column.
    from carnot.cli import parse_spec_file, spec_algebra
    tracer = import_tracer()
    engel = bundled_spec("engel.alg")
    g = spec_algebra(parse_spec_file(engel))
    weights = [-w for w in g.weights]
    # component w of a block of degree delta takes the monomials of degree delta + w
    columns = sum(len(list(_exponents(weights, delta + w)))
                  for delta in range(-g.step, 3) for w in weights)
    with tracer.Tracer() as t, redirect_stdout(io.StringIO()):
        assert main(["verify", engel]) == 0
        assert main(["oracle", engel, "--degree", "2"]) == 0
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert t.counts["contact_pde.ansatz_columns"] == columns == 94
    assert metrics["contact_pde.oracle_yield"] == 5 / 94


def _exponents(weights, degree):
    """Exponent tuples of weighted degree ``degree``, by brute force."""
    if degree < 0:
        return
    if not weights:
        if degree == 0:
            yield ()
        return
    for e in range(degree // weights[0] + 1):
        for rest in _exponents(weights[1:], degree - e * weights[0]):
            yield (e,) + rest
