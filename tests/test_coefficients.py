"""The coefficient convention: a coefficient that is never reported as a
number is an ``int`` when it is integral and a ``Fraction`` only
otherwise, the results of elimination and the level bases and actions
included; a value that reaches a report as a number stays a
``Fraction``.  :func:`~carnot.prolongation.degree_zero_matrix` is the
report boundary of the level values: ``prolong`` prints its entries."""

import json
from fractions import Fraction

import pytest

from carnot.cli import (Report, _prolong, main, parse_spec_file, run_verify,
                        spec_constraint, spec_recipe)
from carnot.contact_pde import solve_polynomial_conformal
from carnot.exact_linalg import SparseRows, Subspace, nullspace, rref, solve
from carnot.group_realization import left_invariant_frame, realize_tau
from carnot.prolongation import degree_zero_matrix
from .conftest import (BUNDLED, GENERATED, GOLDEN, TERMINATING, assert_int_when_integral,
                       named_spec, spec_file)


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
    # only where a division by the pivot is not exact: every integral
    # result of rref, nullspace, solve, from_vectors and coordinates_of is
    # an int
    m = SparseRows([{0: 2, 1: 4, 2: 6}, {1: 3, 2: -3}, {0: 1, 2: 5}], 4)
    ech, rank, pivots = rref(m)
    assert ech.entries[:rank] == [{0: 1, 2: 5}, {1: 1, 2: -1}]
    assert_int_when_integral(x for row in ech.entries for x in row.values())
    # a division by the pivot that is not exact stays a Fraction
    ech, rank, pivots = rref(SparseRows([{0: 2, 1: 1, 2: 4}], 3))
    assert ech.entries == [{0: 1, 1: Fraction(1, 2), 2: 2}]
    assert_int_when_integral(ech.entries[0].values())
    assert_int_when_integral(x for row in nullspace(m).basis for x in row.values())
    space = Subspace.from_vectors(m.entries, 4)
    assert_int_when_integral(x for row in space.basis for x in row.values())
    assert_int_when_integral(space.coordinates_of({0: 3, 1: 6, 2: 9}))
    assert_int_when_integral(space.coordinates_of({0: Fraction(1, 2), 2: Fraction(5, 2)}))
    # row 1 / 2 - row 3 = 2/3 row 2, so b1 / 2 - b3 = 2/3 b2 is consistent;
    # its solution holds int zeros at the free column
    (solution,) = solve(m, [[2, 3, -1]])
    assert_int_when_integral(solution)
    (solution,) = solve(m, [[6, 3, 1]])
    assert_int_when_integral(solution)


@pytest.mark.parametrize("name", BUNDLED + GENERATED)
def test_level_actions_are_fractions(name):
    # only at the report boundary: the actions follow the coefficient
    # convention, and degree_zero_matrix, which prolong prints, converts
    spec, g, ders, g0, s = _pipeline(name)
    for lvl in [ders, g0] + s.levels:
        assert_int_when_integral(c for values in lvl.actions
                                 for value in values for c in value.values())
    assert_fractions(x for values in g0.actions
                     for row in degree_zero_matrix(g, values) for x in row)


def test_non_integral_elimination_results_stay_fractions():
    # on half_constants the realized fields and the oracle's fields
    # (nullspace) have non-integral coefficients
    spec, g, ders, g0, s = _pipeline("half_constants")
    frame = left_invariant_frame(spec_recipe(spec, g))
    for fields in (realize_tau(s, frame),
                   solve_polynomial_conformal(frame, spec_constraint(spec), 3).fields):
        coefficients = [c for fld in fields for p in fld.components for c in p.terms.values()]
        assert_int_when_integral(coefficients)
        assert any(type(c) is Fraction for c in coefficients)


@pytest.mark.parametrize("name", TERMINATING + ("h2", "h3", "r4", "r8"))
def test_realized_fields_are_ints_when_integral(name):
    # the negative fields come from products of the law's Fractions and the
    # level fields from the series' 1/n!: both make integral Fractions,
    # which realize_tau hands on as ints
    spec = named_spec(name)
    g, ders, g0, s, rep = _prolong(spec, spec.max_k)
    frame = left_invariant_frame(spec_recipe(spec, g))
    assert_int_when_integral(c for fld in realize_tau(s, frame)
                             for p in fld.components for c in p.terms.values())


@pytest.mark.parametrize("name", BUNDLED + GENERATED
                         + tuple(sorted(p.stem for p in GOLDEN.glob("*.alg")
                                        if p.stem not in GENERATED)))
def test_struct_prolong_prints_g0_entries_as_strings(name, capsys):
    assert main(["prolong", spec_file(name), "--format", "struct"]) == 0
    report = json.loads(capsys.readouterr().out)
    entries = [x for key, rows in report.items() if key.startswith("g0_basis_")
               for row in rows for x in row]
    assert entries
    assert all(type(x) is str for x in entries), entries


@pytest.mark.parametrize("name", ["engel", "half_constants"])
def test_reported_numbers_of_verify_are_fractions(name):
    report = Report()
    assert run_verify(parse_spec_file(spec_file(name)), report, 10) == 0
    items = dict(report.items)
    assert type(items["epsilon"]) is Fraction
    assert_fractions(x for row in items["automorphism_block"] for x in row)
