"""The benchmark tracer still finds every name it wraps, and its call sites.

``bench/tracer.py`` patches functions and methods by name where their call
sites look them up; a rename or move in ``src/`` makes its install fail,
and a call that goes around a patch makes its metric read zero.
"""

import ast
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


def test_cli_calls_every_name_patched_on_it():
    # a patch on carnot.cli wraps the name the CLI looks up; an import that
    # is no longer called leaves its metric at zero without failing install
    tracer = import_tracer()
    patched = {attr for where, attr, _ in tracer.PATCHES if where == "carnot.cli"}
    path = os.path.join(os.path.dirname(BENCH), "src", "carnot", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert len(patched) == 13
    assert patched <= called, sorted(patched - called)


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
    # block that is solved, graded degree -step .. 1: block 1 of engel is
    # zero, so block 2 is known to be zero and is not solved.  The yield is
    # 5 fields over them.  verify's defects and jets read the same
    # residuals but add no column.
    from carnot.cli import parse_spec_file, spec_algebra
    tracer = import_tracer()
    engel = bundled_spec("engel.alg")
    g = spec_algebra(parse_spec_file(engel))
    weights = [-w for w in g.weights]
    # component w of a block of degree delta takes the monomials of degree delta + w
    columns = sum(len(list(_exponents(weights, delta + w)))
                  for delta in range(-g.step, 2) for w in weights)
    with tracer.Tracer() as t, redirect_stdout(io.StringIO()):
        assert main(["verify", engel]) == 0
        assert main(["oracle", engel, "--degree", "2"]) == 0
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert t.counts["contact_pde.ansatz_columns"] == columns == 53
    assert metrics["contact_pde.oracle_yield"] == 5 / 53


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


def test_tracer_counts_the_bracket_and_similarity_call_sites():
    # verify's [u,X] = u(X) check makes one bracket_vec call per level and
    # negative element: R^3 + co(3) has levels 4 + 3, H_1 has 2 + 2 + 1, and
    # both have 3 negative elements; verify engel makes two similarity
    # checks: the family of dilations, with its scale symbolic, and one
    # automorphism (verify pushes the family of left translations forward
    # itself, for its homomorphism check, and reads its factor off those
    # columns)
    tracer = import_tracer()
    cases = [(["prolong", bundled_spec("r3_co3.alg")], "prolongation.bracket_vec_calls", 21),
             (["prolong", bundled_spec("heisenberg.alg")], "prolongation.bracket_vec_calls", 15),
             (["verify", bundled_spec("engel.alg")], "group_realization.similarity_calls", 2)]
    for argv, name, count in cases:
        with tracer.Tracer() as t, redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert t.counts[name] == count, argv


def test_tracer_counts_one_elimination_per_kernel():
    # each kernel is one rref call: r3_gl's degree-0 system and levels 1
    # and 2; heisenberg's degree-0 system, g0 with its conditions and
    # levels 1 to 3, plus the generation check of layer -2 that
    # constructing the algebra makes; validating engel is that check
    # alone, for each of layers -2 and -3.  On verify and oracle too the
    # generation matrix is eliminated only at construction.  verify engel
    # adds its degree-0 system, g0, level 1 and the rank check of its
    # automorphism, made once, when the first-layer block is extended; its
    # realization, a series in the bracket table, the pushforward of its
    # translation family and its two similarity checks, of the dilation
    # family and the automorphism, eliminate nothing.
    # oracle cartan_235 --degree 2 solves ansatz blocks -3 .. 1 only:
    # block 1 is zero, so block 2 is known to be zero without an
    # elimination; its realization eliminates nothing either
    tracer = import_tracer()
    golden = os.path.join(os.path.dirname(__file__), "golden")
    cases = [(["prolong", os.path.join(golden, "r3_gl.alg")], 3),
             (["prolong", bundled_spec("heisenberg.alg")], 6),
             (["validate", bundled_spec("engel.alg")], 2),
             (["verify", bundled_spec("engel.alg")], 6),
             (["oracle", os.path.join(golden, "cartan_235.alg"), "--degree", "2"], 12)]
    for argv, count in cases:
        with tracer.Tracer() as t, redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert t.counts["exact_linalg.rref_calls"] == count, argv
