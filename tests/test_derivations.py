from fractions import Fraction

import pytest
import sympy

from carnot.exact_linalg import Subspace, span_equal, sparse_row, vec_zero
from carnot.graded_lie import build_algebra
from carnot.prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix, prolong_step,
                                 strata_derivations)
from .conftest import (apply_rows, basis_vector, dense_action, dense_values_matrix, make_abelian,
                       make_engel, make_heisenberg, sparse_values, values_of, zero_matrices)


def packed_dim(g):
    return sum(d * d for d in g.layer_dims)


def from_packed(g, v):
    """Full rows of the block map whose blocks, layer by layer and row by
    row, are ``v``."""
    rows = [vec_zero(g.dim) for _ in range(g.dim)]
    pos = 0
    for depth in range(1, g.step + 1):
        layer = g.layer_indices(depth)
        d = len(layer)
        for r, gr in enumerate(layer):
            for c, gc in enumerate(layer):
                rows[gr][gc] = v[pos + r * d + c]
        pos += d * d
    return rows


def packed(g, values):
    """Sparse values ``{r: c}`` on g_- written in the packed layout of
    :func:`from_packed`."""
    out = []
    for depth in range(1, g.step + 1):
        layer = g.layer_indices(depth)
        for r in range(len(layer)):
            out.extend(values[j].get(r, 0) for j in layer)
    return out


def brute_force_derivations(g):
    """Independent oracle: assemble the derivation system over ALL ordered
    pairs (including diagonal) straight from the definition, one
    elementary block map per unknown.  Its kernel and the echelon basis of
    that kernel come from sympy, so no elimination code is shared with
    carnot."""
    total = packed_dim(g)
    rows = []
    for i in range(g.dim):
        for j in range(g.dim):
            for comp in range(g.dim):
                row = vec_zero(total)
                for u in range(total):
                    v = vec_zero(total)
                    v[u] = Fraction(1)
                    d = from_packed(g, v)
                    lhs = apply_rows(d, g.bracket(basis_vector(g, i), basis_vector(g, j)))[comp]
                    r1 = g.bracket(apply_rows(d, basis_vector(g, i)), basis_vector(g, j))[comp]
                    r2 = g.bracket(basis_vector(g, i), apply_rows(d, basis_vector(g, j)))[comp]
                    row[u] = lhs - r1 - r2
                if any(row):
                    rows.append(row)
    kernel = sympy.Matrix(len(rows), total, [sympy.Rational(x.numerator, x.denominator)
                                            for row in rows for x in row]).nullspace()
    if not kernel:
        return Subspace.from_vectors([], total)
    echelon, pivots = sympy.Matrix.hstack(*kernel).T.rref()
    basis = [sparse_row([Fraction(int(x.p), int(x.q)) for x in echelon.row(r)])
             for r in range(len(kernel))]
    return Subspace(total, basis, pivots)


def make_h2():
    return build_algebra([["X1", "X2", "Y1", "Y2"], ["T"]],
                         {("X1", "Y1"): [(1, "T")], ("X2", "Y2"): [(1, "T")]})


def make_free_3_2():
    return build_algebra([["X1", "X2", "X3"], ["Y12", "Y13", "Y23"]],
                         {("X1", "X2"): [(1, "Y12")], ("X1", "X3"): [(1, "Y13")],
                          ("X2", "X3"): [(1, "Y23")]})


def commutator(a, b):
    """ab - ba of two maps given by full rows."""
    def product(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
                for i in range(len(x))]

    xy, yx = product(a, b), product(b, a)
    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]


@pytest.mark.parametrize("maker,expected_dim", [
    (make_engel, 3),
    (make_heisenberg, 4),
    (lambda: make_abelian(2), 4),
    (make_h2, 11),
    (make_free_3_2, 9),
])
def test_derivation_dims_against_brute_force(maker, expected_dim):
    g = maker()
    ders = prolong_step(g, [], 0)
    assert ders.dim == expected_dim
    vectors = [sparse_row(packed(g, values)) for values in ders.actions]
    assert span_equal(Subspace.from_vectors(vectors, packed_dim(g)), brute_force_derivations(g))


def test_engel_derivation_shape(engel):
    ders = strata_derivations(engel)
    for full in zero_matrices(ders):
        d11, d12, d21, d22 = full[0][0], full[0][1], full[1][0], full[1][1]
        assert d12 == 0
        assert full[2][2] == d11 + d22
        assert full[3][3] == 2 * d11 + d22


def test_derivation_law_holds_exactly(engel):
    for m in zero_matrices(strata_derivations(engel)):
        for i in range(engel.dim):
            for j in range(engel.dim):
                lhs = apply_rows(m, engel.bracket(basis_vector(engel, i), basis_vector(engel, j)))
                rhs1 = engel.bracket(apply_rows(m, basis_vector(engel, i)), basis_vector(engel, j))
                rhs2 = engel.bracket(basis_vector(engel, i), apply_rows(m, basis_vector(engel, j)))
                assert lhs == [a + b for a, b in zip(rhs1, rhs2)]


def test_engel_conformal_g0_is_the_weight_map(engel):
    g0 = constrain_g0(strata_derivations(engel), GZeroConstraint.conformal())
    assert g0.dim == 1
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    assert zero_matrices(g0)[0] == expected


def test_heisenberg_conformal_g0_dim():
    g = make_heisenberg()
    g0 = constrain_g0(strata_derivations(g), GZeroConstraint.conformal())
    assert g0.dim == 2


def test_full_derivations_constraint_is_identity(engel):
    ders = strata_derivations(engel)
    assert constrain_g0(ders, GZeroConstraint.full_derivations()) is ders


def test_conformal_block_identity():
    # B + B^t = (2/m) tr(B) I for every constrained basis element
    for maker in (make_heisenberg, lambda: make_abelian(3)):
        g = maker()
        first = g.layer_indices(1)
        m = len(first)
        g0 = constrain_g0(strata_derivations(g), GZeroConstraint.conformal())
        for full in zero_matrices(g0):
            b = [[full[r][c] for c in first] for r in first]
            tr = sum((b[i][i] for i in range(m)), Fraction(0))
            for i in range(m):
                for j in range(m):
                    lhs = b[i][j] + b[j][i]
                    rhs = Fraction(2, m) * tr if i == j else Fraction(0)
                    assert lhs == rhs


def test_constrained_space_inside_derivations(engel):
    ders = strata_derivations(engel)
    g0 = constrain_g0(ders, GZeroConstraint.conformal())
    space = ders.subspace
    both = Subspace.from_vectors(space.basis + g0.subspace.basis, space.ambient_dim)
    assert span_equal(both, space)


def _bundled(name):
    from carnot import bundled_spec
    from carnot.cli import parse_spec_file, spec_algebra, spec_constraint
    spec = parse_spec_file(bundled_spec(name + ".alg"))
    return spec_algebra(spec), spec_constraint(spec)


G0_CASES = {
    **{name: lambda name=name: _bundled(name)
       for name in ("engel", "heisenberg", "r1", "r2_co2", "r3_co3")},
    **{f"r{n}_co": lambda n=n: (make_abelian(n), GZeroConstraint.conformal())
       for n in range(3, 7)},
    "h2_co": lambda: (make_h2(), GZeroConstraint.conformal()),
    "r3_explicit": lambda: (make_abelian(3), GZeroConstraint.explicit(
        [{(0, 1): Fraction(1)}, {(2, 2): Fraction(1)}])),
}


@pytest.mark.parametrize("case", G0_CASES)
def test_constrained_basis_is_canonical_echelon(case):
    g, constraint = G0_CASES[case]()
    g0 = constrain_g0(strata_derivations(g), constraint)
    again = Subspace.from_vectors(g0.subspace.basis, g0.subspace.ambient_dim)
    assert again == g0.subspace
    assert again.pivots == g0.subspace.pivots


def test_explicit_constraint():
    g = make_abelian(2)
    ders = strata_derivations(g)
    # force the block to be lower triangular
    g0 = constrain_g0(ders, GZeroConstraint.explicit([{(0, 1): Fraction(1)}]))
    assert g0.dim == 3
    for m in zero_matrices(g0):
        assert m[0][1] == 0


def test_co1_is_vacuous():
    g = make_abelian(1)
    ders = strata_derivations(g)
    g0 = constrain_g0(ders, GZeroConstraint.conformal())
    assert g0.dim == ders.dim == 1


def test_commutator_of_degree_zero_maps(engel):
    d = zero_matrices(constrain_g0(strata_derivations(engel), GZeroConstraint.conformal()))[0]
    assert all(all(x == 0 for x in row) for row in commutator(d, d))
    # g0 is a subalgebra: commutators of its basis maps stay inside it
    for g in (make_heisenberg(), make_h2(), make_abelian(3)):
        g0 = constrain_g0(strata_derivations(g), GZeroConstraint.conformal())
        maps = zero_matrices(g0)
        for a in maps:
            for b in maps:
                values = sparse_values(values_of(g, commutator(a, b)))
                assert g0.coordinates_of_values(values) is not None


def test_values_roundtrip(engel):
    ders = strata_derivations(engel)
    for b, values in enumerate(ders.actions):
        dense = tuple(dense_action(ders, b, j) for j in range(engel.dim))
        assert values_of(engel, degree_zero_matrix(engel, values)) == dense
        assert dense_values_matrix(engel, dense) == degree_zero_matrix(engel, values)
        assert sparse_values(dense) == values
        assert ders.coordinates_of_values(values) == [int(i == b) for i in range(ders.dim)]
