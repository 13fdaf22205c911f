"""The coefficient convention: a coefficient that is never reported is an
``int`` when it is integral and a ``Fraction`` only otherwise; a value
that reaches a report stays a ``Fraction``."""

import random
from fractions import Fraction

import pytest

from carnot.cli import (Report, _prolong, _rand_point, parse_spec_file, run_verify,
                        spec_constraint, spec_recipe)
from carnot.exact_linalg import SparseRows, Subspace, nullspace, rref, solve
from carnot.group_realization import left_invariant_frame
from carnot.prolongation import degree_zero_matrix
from .conftest import BUNDLED, GENERATED, assert_int_when_integral, spec_file


def assert_fractions(values):
    values = list(values)
    assert values
    for x in values:
        assert type(x) is Fraction, (x, type(x))


def _pipeline(name):
    spec = parse_spec_file(spec_file(name))
    g, ders, g0, s, rep = _prolong(spec, spec.max_k)
    return spec, g, ders, g0, s


@pytest.mark.parametrize("name", BUNDLED + GENERATED + ("g2_full", "h1_der", "r3_gl"))
def test_unreported_coefficients_are_ints_when_integral(name):
    spec, g, ders, g0, s = _pipeline(name)
    coefficients = [c for row in g.rows for terms in row for _, c in terms]
    if s.bracket_table is not None:
        coefficients += [c for row in s.bracket_table for terms in row for _, c in terms]
    m = len(g.layer_indices(1))
    coefficients += [c for row in spec_constraint(spec).first_layer_rows(m) for c in row.values()]
    frame = left_invariant_frame(spec_recipe(spec, g))
    coefficients += [c for col in frame.columns for p in col for c in p.terms.values()]
    for j in range(g.dim):
        for exp in frame.ring.monomials_upto(3):
            coefficients += [d for _, d in frame.derivative_terms(j, exp)]
    assert_int_when_integral(coefficients)


def test_non_integral_constants_stay_fractions():
    spec, g, ders, g0, s = _pipeline("half_constants")
    assert {c for row in g.rows for terms in row for _, c in terms} == {Fraction(1, 2),
                                                                        Fraction(-1, 2)}
    frame = left_invariant_frame(spec_recipe(spec, g))
    assert any(type(c) is Fraction for col in frame.columns for p in col for c in p.terms.values())
    assert any(type(c) is Fraction for row in s.bracket_table for terms in row for _, c in terms)


def test_elimination_returns_fractions_from_integer_rows():
    m = SparseRows([{0: 2, 1: 4, 2: 6}, {1: 3, 2: -3}, {0: 1, 2: 5}], 4)
    ech, rank, pivots = rref(m)
    assert_fractions(x for row in ech.entries for x in row.values())
    assert_fractions(x for row in nullspace(m).basis for x in row.values())
    assert_fractions(x for row in Subspace.from_vectors(m.entries, 4).basis
                     for x in row.values())
    # row 1 / 2 - row 3 = 2/3 row 2, so b1 / 2 - b3 = 2/3 b2 is consistent
    (solution,) = solve(m, [[2, 3, -1]])
    assert_fractions(solution)


@pytest.mark.parametrize("name", BUNDLED + GENERATED)
def test_level_actions_are_fractions(name):
    spec, g, ders, g0, s = _pipeline(name)
    for lvl in [ders, g0] + s.levels:
        assert_fractions(c for values in lvl.actions for value in values for c in value.values())
    assert_fractions(x for values in g0.actions
                     for row in degree_zero_matrix(g, values) for x in row)


@pytest.mark.parametrize("name", ["engel", "half_constants"])
def test_reported_numbers_of_verify_are_fractions(name):
    report = Report()
    assert run_verify(parse_spec_file(spec_file(name)), report, 10) == 0
    items = dict(report.items)
    assert type(items["epsilon"]) is Fraction
    assert_fractions(items["dilation_scales"])
    assert_fractions(x for row in items["automorphism_block"] for x in row)
    assert_fractions(_rand_point(random.Random(0), 6))
