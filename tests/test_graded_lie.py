from fractions import Fraction
from functools import partial

import pytest

from carnot.graded_lie import (AntisymmetryViolation, DuplicateBracket, GenerationFailure,
                               GradedLieAlgebra, GradingViolation, InvalidAlgebra,
                               JacobiViolation, build_algebra)
from .conftest import (BUNDLED, FULL_DERIVATIONS, GOLDEN, assert_int_when_integral, basis_vector,
                       cartan_235_spec, free_step_two_spec, make_abelian, make_engel,
                       make_heisenberg, make_heisenberg_n, spec_file)


def test_engel_layer_dims(engel):
    assert engel.layer_dims == [2, 1, 1]
    assert engel.step == 3
    assert engel.names == ("X1", "X2", "Y", "Z")


def test_heisenberg_valid():
    h = make_heisenberg()
    assert h.layer_dims == [2, 1]


def test_grading_violation_rejected():
    with pytest.raises(GradingViolation):
        build_algebra([["X1", "X2"], ["Y"]], {("X1", "X2"): [(1, "X1")]})


def test_engel_brackets(engel):
    e = partial(basis_vector, engel)
    assert engel.bracket(e(0), e(1)) == [0, 0, 1, 0]       # [X1,X2] = Y
    assert engel.bracket(e(1), e(2)) == [0, 0, 0, 0]       # [X2,Y] = 0
    assert engel.bracket(e(0), e(2)) == [0, 0, 0, 1]       # [X1,Y] = Z


def test_bracket_bilinear(engel):
    a = [Fraction(2), Fraction(-1), Fraction(3), Fraction(0)]
    b = [Fraction(1, 2), Fraction(5), Fraction(0), Fraction(7)]
    left = engel.bracket(a, b)
    manual = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            for k, c in engel.rows[i][j]:
                manual[k] += a[i] * b[j] * c
    assert left == manual


def test_jacobi_checked_on_all_triples(engel):
    e = partial(basis_vector, engel)
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                s = engel.bracket(e(i), engel.bracket(e(j), e(k)))
                t = engel.bracket(e(j), engel.bracket(e(k), e(i)))
                u = engel.bracket(e(k), engel.bracket(e(i), e(j)))
                assert all(x + y + z == 0 for x, y, z in zip(s, t, u))


def test_jacobi_violation_rejected():
    # [X3,[X1,X2]] = Z has no compensating term
    with pytest.raises(JacobiViolation, match=r"^Jacobi fails on \(X1,X2,X3\)$"):
        build_algebra(
            [["X1", "X2", "X3"], ["Y12", "Y13"], ["Z"]],
            {("X1", "X2"): [(1, "Y12")], ("X1", "X3"): [(1, "Y13")],
             ("X3", "Y12"): [(1, "Z")]})


def test_duplicate_bracket_rejected():
    with pytest.raises(DuplicateBracket):
        build_algebra([["X1", "X2"], ["Y"]],
                      {("X1", "X2"): [(1, "Y")], ("X2", "X1"): [(-1, "Y")]})


def test_self_bracket_rejected():
    with pytest.raises(AntisymmetryViolation):
        build_algebra([["X1", "X2"], ["Y"]], {("X1", "X1"): [(1, "Y")]})


def test_generation_engel_heisenberg():
    # construction keeps the proof: [X1,X2] = Y, and on Engel [X1,Y] = Z
    assert make_engel().spanned_by == {2: ((1, 0, 1),), 3: ((1, 0, 2),)}
    assert make_heisenberg().spanned_by == {2: ((1, 0, 1),)}


def test_generation_failure_on_disconnected_sum():
    with pytest.raises(GenerationFailure):
        build_algebra([["A"], ["B"]], {})


@pytest.mark.parametrize("names, weights, entries", [
    pytest.param(["A", "B"], [-1, -2], {}, id="disconnected"),
    pytest.param(["X1", "X2", "Y", "Z"], [-1, -1, -2, -3], {(0, 1, 2): 1, (1, 0, 2): -1},
                 id="layer_3_unreached"),
    pytest.param(["X1", "X2", "Y1", "Y2"], [-1, -1, -2, -2], {(0, 1, 2): 1, (1, 0, 2): -1},
                 id="layer_2_half_spanned"),
])
def test_direct_construction_of_a_non_generated_algebra_fails(names, weights, entries):
    # the constructor checks generation, with build_algebra's message
    with pytest.raises(GenerationFailure) as exc:
        GradedLieAlgebra(names, weights, _rows(len(names), entries))
    assert str(exc.value) == "layer -1 does not generate the lower layers"


def test_rational_coefficients_in_brackets():
    g = build_algebra([["X1", "X2"], ["Y"]], {("X1", "X2"): [(Fraction(1, 2), "Y")]})
    assert g.bracket(basis_vector(g, 0), basis_vector(g, 1)) == [0, 0, Fraction(1, 2)]


def test_deterministic_structure():
    a = make_engel()
    b = make_engel()
    assert a.rows == b.rows
    assert a.names == b.names


def test_abelian_layers():
    g = make_abelian(3)
    assert g.layer_dims == [3]
    assert g.spanned_by == {}


def _rows(n, entries):
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in entries.items():
        rows[i][j].append((k, c))
    return rows


@pytest.mark.parametrize("entries, error, message", [
    ({(0, 0, 2): 1}, AntisymmetryViolation, "[A,A] != 0"),
    ({(0, 1, 2): 1}, AntisymmetryViolation, "[A,B] != -[B,A]"),
    ({(1, 0, 2): 1}, AntisymmetryViolation, "[A,B] != -[B,A]"),
    ({(0, 1, 0): 1, (1, 0, 0): -1}, GradingViolation,
     "[A,B] has component A of weight -1, expected -2"),
    # antisymmetry is checked on every pair before the grading
    ({(0, 2, 1): 1, (2, 0, 1): -1, (1, 2, 2): 5}, AntisymmetryViolation, "[B,C] != -[C,B]"),
])
def test_direct_construction_violation_messages(entries, error, message):
    with pytest.raises(error) as exc:
        GradedLieAlgebra(["A", "B", "C"], [-1, -1, -2], _rows(3, entries))
    assert str(exc.value) == message


def test_engel_rows():
    # [X1,X2] = Y and [X1,Y] = Z, stored once per orientation
    rows = make_engel().rows
    nonzero = {(i, j): row for i, r in enumerate(rows) for j, row in enumerate(r) if row}
    assert nonzero == {(0, 1): ((2, 1),), (1, 0): ((2, -1),),
                       (0, 2): ((3, 1),), (2, 0): ((3, -1),)}


def test_direct_construction_normalizes_rows():
    # repeated components add up, zeros drop, and a coefficient is an int
    # when it is integral: 1/2 + 1/2 is stored as 1
    rows = _rows(3, {(0, 1, 2): "1/2", (1, 0, 2): -1})
    rows[0][1] += [(2, Fraction(1, 2)), (0, 0)]
    g = GradedLieAlgebra(["A", "B", "C"], [-1, -1, -2], rows)
    assert g.rows[0][1] == ((2, 1),)
    assert_int_when_integral(c for row in g.rows for entry in row for _, c in entry)
    assert g.rows[2] == ((), (), ())


@pytest.mark.parametrize("rows, message", [
    ([[(), ()], [(), ()]], "bracket table must be 3x3"),
    ([[(), (), ()], [(), ()], [(), (), ()]], "bracket table must be 3x3"),
    (_rows(3, {(0, 1, 3): 1, (1, 0, 3): -1}), "[A,B] has component index 3 outside the basis"),
    (_rows(3, {(0, 1, -1): 1}), "[A,B] has component index -1 outside the basis"),
])
def test_direct_construction_rejects_malformed_tables(rows, message):
    with pytest.raises(InvalidAlgebra) as exc:
        GradedLieAlgebra(["A", "B", "C"], [-1, -1, -2], rows)
    assert str(exc.value) == message


def test_bracket_accepts_polynomial_coefficients(engel):
    from carnot.polynomials import PolyRing
    ring = PolyRing(("x", "y"), (1, 1))
    x, y = ring.var(0), ring.var(1)
    zero = ring.zero()
    out = engel.bracket([x, y, zero, zero], [zero, ring.one(), x, zero])
    assert out[2] == x
    assert out[3] == x * x


def _spec_algebra(text):
    from carnot.cli import parse_spec_text, spec_algebra
    return spec_algebra(parse_spec_text(text))


def _file_algebra(name):
    from carnot.cli import parse_spec_file, spec_algebra
    return spec_algebra(parse_spec_file(spec_file(name)))


PROOF_CASES = [pytest.param(lambda name=name: _file_algebra(name), id=name)
               for name in BUNDLED + tuple(sorted(p.stem for p in GOLDEN.glob("*.alg")))]
PROOF_CASES += [
    pytest.param(lambda: make_heisenberg_n(2), id="h2"),
    pytest.param(lambda: _spec_algebra(free_step_two_spec(3, FULL_DERIVATIONS)), id="free_3"),
    pytest.param(lambda: _spec_algebra(cartan_235_spec(FULL_DERIVATIONS)), id="cartan_235_text"),
]


@pytest.mark.parametrize("make", PROOF_CASES)
def test_spanned_by_proves_generation(make):
    # every element below layer -1, in layer order, is a combination of
    # brackets of layer -1 with the layer just above it
    g = make()
    below = [t for d in range(2, g.step + 1) for t in g.layer_indices(d)]
    assert list(g.spanned_by) == below
    for t, terms in g.spanned_by.items():
        total = [Fraction(0)] * g.dim
        for c, i, j in terms:
            assert c and g.weights[i] == -1 and g.weights[j] == g.weights[t] + 1
            total = [x + c * y for x, y in
                     zip(total, g.bracket(basis_vector(g, i), basis_vector(g, j)))]
        assert total == basis_vector(g, t)
