import random
from fractions import Fraction

import pytest

from carnot.exact_linalg import Matrix
from carnot.group_realization import (CoordinateRecipe, PolyVectorField, left_invariant_frame,
                                      realize_tau)
from carnot.prolongation import degree_zero_matrix, full_prolongation, strata_derivations
from carnot.contact_pde import (ContactJet, NotContact, conformal_defect,
                                conformal_fields_of_degree, conformal_system_residuals,
                                contact_defect, jet, jet_jacobi_check, reconstruct_from_h,
                                same_span, solve_h_system, solve_polynomial_conformal,
                                vf_bracket)
from carnot.polynomials import Poly
from .conftest import (apply_rows, conformal_g0, make_abelian, named_algebra_frame, rand_point,
                       residual_polys, values_of)


def unit_frame_field(frame, j):
    comps = [frame.ring.zero()] * len(frame)
    comps[j] = frame.ring.one()
    return PolyVectorField(tuple(comps))


def monomial_family(frame, k, sign=Fraction(-1)):
    """V = f Zt + sign (X1 f) Yt + (X1^2 f) X2t with f = x1^k."""
    ring = frame.ring
    f = ring.var(0) ** k
    df = frame.apply(0, f)
    ddf = frame.apply(0, df)
    return PolyVectorField((ring.zero(), ddf, sign * df, f))


# -- contact defect ------------------------------------------------------


def test_vertical_constant_field_is_contact(engel_frame):
    assert contact_defect(unit_frame_field(engel_frame, 3), engel_frame).all_zero


def test_y_frame_field_is_not_contact(engel_frame):
    report = contact_defect(unit_frame_field(engel_frame, 2), engel_frame)
    assert not report.all_zero
    # [Yt, X1t] = -Zt shows up as a constant vertical residual
    labels = dict(report.residuals)
    assert not labels["[V,~X1]@~Z"].is_zero()


def test_cubic_family_is_contact(engel_frame):
    assert contact_defect(monomial_family(engel_frame, 3), engel_frame).all_zero


def test_monomial_family_contact_range(engel_frame):
    for k in range(0, 7):
        assert contact_defect(monomial_family(engel_frame, k), engel_frame).all_zero


def test_family_with_flipped_vertical_sign_fails(engel_frame):
    # the same family with +X1 f on the Yt slot breaks the vertical
    # compatibility equations as soon as f is nonconstant
    for k in (1, 2, 3):
        bad = monomial_family(engel_frame, k, sign=Fraction(1))
        assert not contact_defect(bad, engel_frame).all_zero


# -- residuals against the coordinate reference --------------------------


def plain_apply(frame, j, f):
    """X_j f as sum_c matrix[c][j] d/dx_c f, with no table."""
    out = frame.ring.zero()
    for c in range(len(frame)):
        out = out + frame.matrix[c][j] * f.diff(c)
    return out


def reference_residuals(comps, frame):
    """Contact residuals through coordinates and vf_bracket, then the
    conformal residuals over the untabulated derivative."""
    m = frame.horizontal
    coords = frame.to_coords(list(comps))
    out = []
    for i in range(m):
        out.extend(frame.to_frame(vf_bracket(coords, list(frame.columns[i])))[m:])
    mat = [[plain_apply(frame, j, comps[i]) for j in range(m)] for i in range(m)]
    trace = frame.ring.zero()
    for i in range(m):
        trace = trace + mat[i][i]
    for i in range(m):
        for j in range(i, m):
            r = mat[i][j] + mat[j][i]
            if i == j:
                r = r - Fraction(2, m) * trace
            out.append(r)
    return out


def test_residuals_match_the_coordinate_reference():
    # every unit monomial field of graded degree -step..2
    fields = 0
    for name in ("engel", "cartan_235", "two_centre", "h2"):
        g, frame = named_algebra_frame(name)
        ring = frame.ring
        for delta in range(-g.step, 3):
            for i in range(g.dim):
                for exp in ring.monomials_exact(delta - g.weights[i]):
                    comps = [ring.zero()] * g.dim
                    comps[i] = Poly(ring, {exp: Fraction(1)})
                    assert residual_polys(conformal_system_residuals(comps, frame), frame) == \
                        reference_residuals(comps, frame)
                    fields += 1
    assert fields == 880
    # fields on several components at once: seeded sums of unit monomial
    # fields, the conformal fields of each block (whose residual terms all
    # cancel), and their sums
    rng = random.Random(20261018)
    mixed = cancelling = 0
    for name in ("engel", "cartan_235", "two_centre", "h2"):
        g, frame = named_algebra_frame(name)
        for delta in range(-g.step, 3):
            sums = [seeded_sum(frame, delta, rng) for _ in range(4)]
            solutions = [list(f.components) for f in conformal_fields_of_degree(frame, delta)]
            for comps in solutions:
                assert all(r.is_zero()
                           for r in residual_polys(conformal_system_residuals(comps, frame), frame))
                cancelling += 1
            for comps in sums + solutions + [[a + b for a, b in zip(x, y)]
                                             for x, y in zip(sums, solutions)]:
                residuals = residual_polys(conformal_system_residuals(comps, frame), frame)
                assert residuals == reference_residuals(comps, frame)
                mixed += 1
    assert (mixed, cancelling) == (162, 38)


def test_residual_terms_have_no_zero_coefficient():
    # R^1 makes every diagonal conformal term cancel; the conformal fields
    # of each block make every term cancel
    rng = random.Random(20261019)
    checked = 0
    for name in ("r1", "r3", "engel", "cartan_235", "two_centre", "h2"):
        g, frame = named_algebra_frame(name)
        m = frame.horizontal
        equations = m * (g.dim - m) + m * (m + 1) // 2
        for delta in range(-g.step, 3):
            fields = [seeded_sum(frame, delta, rng) for _ in range(3)]
            fields += [list(f.components) for f in conformal_fields_of_degree(frame, delta)]
            for comps in fields:
                terms = conformal_system_residuals(comps, frame)
                assert all(c != 0 for c in terms.values())
                assert all(0 <= eq < equations for eq, _ in terms)
                checked += 1
    assert checked == 142


def test_defect_reports_match_the_coordinate_reference(engel_frame):
    # contact defects of seeded sums, which are rarely contact; conformal
    # defects of contact fields that are not conformal: the Engel family of
    # degree >= 3 and seeded sums on R^3, where every field is contact
    rng = random.Random(20261020)
    contact_nonzero = conformal_nonzero = 0
    cases = [(engel_frame, [list(monomial_family(engel_frame, k).components) for k in range(3, 6)])]
    cases += [(named_algebra_frame(name)[1], []) for name in ("r3", "cartan_235", "two_centre", "h2")]
    for frame, contact_fields in cases:
        g = frame.algebra
        names = g.names
        m = frame.horizontal
        contact_labels = [f"[V,~{names[i]}]@~{names[k]}" for i in range(m) for k in range(m, g.dim)]
        conformal_labels = [f"co({names[i]},{names[j]})" for i in range(m) for j in range(i, m)]
        fields = [seeded_sum(frame, delta, rng) for delta in range(-g.step, 3) for _ in range(3)]
        for comps in fields + contact_fields:
            field = PolyVectorField(tuple(comps))
            reference = reference_residuals(comps, frame)
            contact = contact_defect(field, frame)
            assert contact.residuals == tuple(zip(contact_labels, reference[:len(contact_labels)]))
            if not contact.all_zero:
                contact_nonzero += 1
                continue
            conformal = conformal_defect(field, frame)
            assert conformal.residuals == tuple(zip(conformal_labels,
                                                    reference[len(contact_labels):]))
            conformal_nonzero += not conformal.all_zero
    assert (contact_nonzero, conformal_nonzero) == (54, 12)


def seeded_sum(frame, delta, rng):
    """Frame components of a sum of up to four unit monomial fields of
    graded degree ``delta`` with small rational coefficients."""
    g, ring = frame.algebra, frame.ring
    units = [(i, exp) for i in range(g.dim) for exp in ring.monomials_exact(delta - g.weights[i])]
    terms = [dict() for _ in range(g.dim)]
    for i, exp in rng.sample(units, min(4, len(units))):
        terms[i][exp] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return [Poly(ring, t) for t in terms]


# -- conformal defect ----------------------------------------------------


def test_tau_fields_conformal(engel_frame, engel_tau):
    for field in engel_tau:
        assert contact_defect(field, engel_frame).all_zero
        assert conformal_defect(field, engel_frame).all_zero


def test_cubic_family_not_conformal(engel_frame):
    report = conformal_defect(monomial_family(engel_frame, 3), engel_frame)
    assert not report.all_zero
    # the only obstruction is the constant third derivative, here 6
    nz = report.nonzero()
    assert len(nz) == 1
    assert nz[0][1] == engel_frame.ring.const(6)


def test_monomial_family_conformal_iff_degree_below_three(engel_frame):
    for k in range(0, 7):
        report = conformal_defect(monomial_family(engel_frame, k), engel_frame)
        assert report.all_zero == (k <= 2)


def test_conformal_defect_requires_contact(engel_frame):
    with pytest.raises(NotContact):
        conformal_defect(unit_frame_field(engel_frame, 2), engel_frame)


# -- jets ----------------------------------------------------------------


def test_jet_of_weight_map_field(engel, engel_frame, engel_tau, rng):
    d_field = engel_tau[4]
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    for jt in jet(d_field, engel_frame, [rand_point(rng, 4) for _ in range(3)]):
        assert degree_zero_matrix(engel, jt.zero_part) == expected
        assert jt.one_part.is_zero()


def test_jet_of_constant_field_vanishes(engel_frame, engel_tau, rng):
    [jt] = jet(engel_tau[0], engel_frame, [rand_point(rng, 4)])
    assert all(x == 0 for value in jt.zero_part for x in value)
    assert jt.one_part.is_zero()


def test_jet_of_x2_translation_at_origin(engel_frame, engel_tau):
    [jt] = jet(engel_tau[3], engel_frame, [[0, 0, 0, 0]])
    assert all(x == 0 for value in jt.zero_part for x in value)
    assert jt.one_part.is_zero()


def test_jet_requires_contact(engel_frame, rng):
    with pytest.raises(NotContact):
        jet(unit_frame_field(engel_frame, 2), engel_frame, [rand_point(rng, 4)])


def test_jet_certifies_contact_once_for_all_points(monkeypatch, engel_frame, engel_tau, rng):
    import carnot.contact_pde as contact_pde
    calls = []
    original = contact_pde.contact_defect
    monkeypatch.setattr(contact_pde, "contact_defect",
                        lambda *args: calls.append(args) or original(*args))
    points = [rand_point(rng, 4) for _ in range(5)]
    jets = jet(engel_tau[4], engel_frame, points)
    assert len(calls) == 1
    assert [jt.point for jt in jets] == [tuple(p) for p in points]
    for jt, p in zip(jets, points):
        assert jt == jet(engel_tau[4], engel_frame, [p])[0]


def dense_jet_parts(V, frame, pt):
    """The dense form of the jet, kept as the reference: X_c applied to
    every coefficient and to every entry of the n x n symbolic matrix."""
    g = frame.algebra
    n = g.dim
    comps = list(V.components)
    sym = [[frame.ring.zero() for _ in range(n)] for _ in range(n)]
    for depth in range(1, g.step + 1):
        idx = g.layer_indices(depth)
        for r in idx:
            for c in idx:
                sym[r][c] = frame.apply(c, comps[r])
    blocks = tuple(Matrix([[sym[r][c].eval(pt) for c in g.layer_indices(d)]
                           for r in g.layer_indices(d)], cols=len(g.layer_indices(d)))
                   for d in range(1, g.step + 1))
    matrices = tuple((c1, Matrix([[frame.apply(c1, sym[r][c]).eval(pt) for c in range(n)]
                                  for r in range(n)], cols=n))
                     for c1 in g.layer_indices(1))
    vectors = []
    for depth in range(2, g.step + 1):
        for src in g.layer_indices(depth):
            full = [Fraction(0)] * n
            for i in g.layer_indices(depth - 1):
                full[i] = frame.apply(src, comps[i]).eval(pt)
            vectors.append((src, tuple(full)))
    return blocks, matrices, tuple(vectors)


def block_values(g, blocks):
    """The values of a map given by one square block per layer: block
    entry (r, c) is component r of the image of the layer's c-th element."""
    out = [None] * g.dim
    for depth, blk in enumerate(blocks, start=1):
        for c, j in enumerate(g.layer_indices(depth)):
            out[j] = tuple(row[c] for row in blk.entries)
    return tuple(out)


def full_values(g, m):
    """The values of an n x n matrix that preserves the layers."""
    assert degree_zero_matrix(g, values_of(g, m.entries)) == m.entries
    return values_of(g, m.entries)


def assert_jet_matches_the_dense_reference(field, frame, rng):
    g = frame.algebra
    pt = rand_point(rng, len(frame))
    [jt] = jet(field, frame, [pt])
    blocks, matrices, vectors = dense_jet_parts(field, frame, pt)
    assert jt.point == tuple(pt)
    assert jt.zero_part == block_values(g, blocks)
    assert jt.one_part.matrices == tuple((c1, full_values(g, m)) for c1, m in matrices)
    assert jt.one_part.vectors == vectors


@pytest.mark.parametrize("name", ["engel", "heis_x_r", "free_3_2", "cartan_235", "two_centre"])
def test_jet_matches_the_dense_reference(name, rng):
    g, frame = named_algebra_frame(name)
    s, _ = full_prolongation(g, conformal_g0(g))
    fields = realize_tau(s, frame)
    assert len(fields) == s.dim
    for field in fields:
        assert_jet_matches_the_dense_reference(field, frame, rng)


def test_jet_matches_the_dense_reference_with_a_nonzero_one_part(engel_frame, rng):
    # the realized fields all have a zero one-part; these contact fields do not
    g, frame = named_algebra_frame("r3")
    ring = frame.ring
    cubic = [ring.var(0) ** 3 - ring.var(1) * ring.var(2), ring.var(1) ** 2, ring.zero()]
    cases = [(PolyVectorField(tuple(cubic)), frame)]
    cases += [(monomial_family(engel_frame, k), engel_frame) for k in (4, 5)]
    for field, frm in cases:
        [jt] = jet(field, frm, [rand_point(rng, len(frm))])
        assert not jt.one_part.is_zero()
        assert_jet_matches_the_dense_reference(field, frm, rng)


def test_jet_jacobi_check(engel, engel_frame, engel_tau, rng):
    ders = strata_derivations(engel)
    for field in engel_tau:
        [jt] = jet(field, engel_frame, [rand_point(rng, 4)])
        assert jet_jacobi_check(jt, ders)
    # corrupting the forbidden off-diagonal slot breaks the law
    [jt] = jet(engel_tau[4], engel_frame, [rand_point(rng, 4)])
    values = [list(value) for value in jt.zero_part]
    values[1][0] = Fraction(1)  # component X1 of the image of X2
    corrupted = ContactJet(jt.point, tuple(map(tuple, values)), jt.one_part)
    assert not jet_jacobi_check(corrupted, ders)


def dense_jet_jacobi_check(j, g):
    """The dense form of the derivation law, kept as the reference."""
    d = degree_zero_matrix(g, j.zero_part)
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            lhs = [sum(c * row[k] for k, c in g.rows[a][b]) for row in d]
            rhs1 = g.bracket(apply_rows(d, g.basis_vector(a)), g.basis_vector(b))
            rhs2 = g.bracket(apply_rows(d, g.basis_vector(b)), g.basis_vector(a))
            if any(x != y - z for x, y, z in zip(lhs, rhs1, rhs2)):
                return False
    return True


@pytest.mark.parametrize("name", ["engel", "cartan_235", "free_3_2", "two_centre"])
def test_jet_jacobi_check_matches_the_dense_reference(name, rng):
    g, _ = named_algebra_frame(name)
    ders = strata_derivations(g)
    basis = conformal_g0(g).actions
    for values in basis:
        jt = ContactJet((), values, None)
        assert jet_jacobi_check(jt, ders) and dense_jet_jacobi_check(jt, g)
    verdicts = set()
    for t in range(40):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        blocks = []
        for depth, dim in enumerate(g.layer_dims, start=1):
            layer = g.layer_indices(depth)
            if t % 2:
                # a random block map, almost never a derivation
                ent = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
            else:
                # a random combination of g0, sometimes with one entry moved
                ent = [[sum(c * m[layer[k]][r] for c, m in zip(coeffs, basis)) for k in range(dim)]
                       for r in range(dim)]
                if t % 4 == 2:
                    ent[rng.randrange(dim)][rng.randrange(dim)] += 1
            blocks.append(Matrix(ent, cols=dim))
        jt = ContactJet((), block_values(g, blocks), None)
        verdict = jet_jacobi_check(jt, ders)
        assert verdict == dense_jet_jacobi_check(jt, g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_jet_zero_part_stays_in_g0(engel, engel_frame, engel_tau, rng):
    g0 = conformal_g0(engel)
    for field in engel_tau:
        for jt in jet(field, engel_frame, [rand_point(rng, 4) for _ in range(2)]):
            assert g0.coordinates_of_values(jt.zero_part) is not None


def test_weighted_derivative_identities_of_conformal_fields(engel_frame, engel_tau):
    # every conformal field satisfies Yt g = 2 X1t f1 and Zt h = 3 X1t f1,
    # and the second-derivative identities X1t^2 f1 = X2t^2 f2 = 0, as
    # polynomial identities rather than point samples
    x1, x2, y, z = 0, 1, 2, 3
    for field in engel_tau:
        f1, f2, gc, h = field.components
        twice = 2 * engel_frame.apply(x1, f1)
        assert engel_frame.apply(y, gc) == twice
        assert engel_frame.apply(z, h) == Fraction(3, 2) * twice
        assert engel_frame.apply(x1, engel_frame.apply(x1, f1)).is_zero()
        assert engel_frame.apply(x2, engel_frame.apply(x2, f2)).is_zero()


# -- h-system ------------------------------------------------------------


def test_h_system_dimension(engel_frame):
    assert solve_h_system(engel_frame).dim == 5


def test_h_system_without_conformality_is_larger(engel_frame):
    # the four headline equations alone also admit non-conformal contact
    # fields; this documents why the conformality closure is included
    assert solve_h_system(engel_frame, conformality=False).dim == 7


def test_h_system_reconstructions(engel_frame, engel_tau):
    ring = engel_frame.ring
    assert reconstruct_from_h(engel_frame, ring.one()).components == engel_tau[0].components
    assert reconstruct_from_h(engel_frame, -ring.var(0)).components == engel_tau[1].components


def test_h_system_bound_independence(engel_frame):
    for bound in (3, 4, 5, 7):
        assert solve_h_system(engel_frame, bound).dim == 5


def test_h_system_fields_are_conformal(engel_frame):
    for field in solve_h_system(engel_frame).fields:
        assert conformal_defect(field, engel_frame).all_zero


def test_h_system_requires_engel_pattern(heisenberg_frame):
    with pytest.raises(ValueError):
        solve_h_system(heisenberg_frame)


# -- ansatz solver -------------------------------------------------------


def test_engel_ansatz_dimension_and_span(engel_frame, engel_tau):
    sol = solve_polynomial_conformal(engel_frame, 6)
    assert sol.dim == 5
    assert same_span(sol.fields, engel_tau)


def test_engel_ansatz_stability(engel_frame):
    for degree in (3, 4, 5):
        assert solve_polynomial_conformal(engel_frame, degree).dim == 5


def test_ansatz_solutions_are_conformal(engel_frame):
    for field in solve_polynomial_conformal(engel_frame, 4).fields:
        assert conformal_defect(field, engel_frame).all_zero


def test_heisenberg_ansatz_dimension(heisenberg_frame):
    assert solve_polynomial_conformal(heisenberg_frame, 4).dim == 8


def test_r3_ansatz_dimension():
    g = make_abelian(3)
    frame = left_invariant_frame(g, CoordinateRecipe.single_factor(g))
    assert solve_polynomial_conformal(frame, 3).dim == 10


def test_r2_ansatz_grows_without_bound():
    g = make_abelian(2)
    frame = left_invariant_frame(g, CoordinateRecipe.single_factor(g))
    dims = [solve_polynomial_conformal(frame, d).dim for d in range(4)]
    assert dims == [4, 6, 8, 10]


def test_homogeneous_blocks_match_heisenberg_levels(heisenberg_frame):
    assert [len(conformal_fields_of_degree(heisenberg_frame, k)) for k in range(4)] == \
        [2, 2, 1, 0]


def test_ansatz_determinism(engel_frame):
    a = solve_polynomial_conformal(engel_frame, 4)
    b = solve_polynomial_conformal(engel_frame, 4)
    assert a.fields == b.fields
    assert a.block_dims == b.block_dims


@pytest.mark.parametrize("name", ["engel", "heisenberg", "r3_co3"])
def test_ansatz_basis_is_the_echelon_basis_of_the_blocks(name):
    # the ansatz basis is the blocks' echelon bases, graded degree -step first
    from carnot import bundled_spec
    from carnot.cli import parse_spec_file, spec_algebra, spec_recipe
    spec = parse_spec_file(bundled_spec(name + ".alg"))
    g = spec_algebra(spec)
    frame = left_invariant_frame(g, spec_recipe(spec, g))
    degree = 4
    sol = solve_polynomial_conformal(frame, degree)
    blocks = [conformal_fields_of_degree(frame, delta) for delta in range(-g.step, degree + 1)]
    assert sol.dim > 0
    assert sol.block_dims == tuple(map(len, blocks))
    assert sol.fields == tuple(f for block in blocks for f in block)



def test_same_span_needs_more_than_equal_counts(heisenberg_frame):
    # one field replaced by itself plus a non-conformal field of the same
    # degree: the counts agree, so only the span tells the lists apart
    frame = heisenberg_frame
    ring = frame.ring
    sol = solve_polynomial_conformal(frame, 4)
    fields = list(sol.fields)
    assert same_span(fields, fields[::-1])
    bad = PolyVectorField((ring.var(1), ring.zero(), ring.zero()))  # x2 ~X1, graded degree 0
    assert any(not r.is_zero()
               for r in residual_polys(conformal_system_residuals(bad.components, frame), frame))
    i = sum(sol.block_dims[:frame.algebra.step])  # the first field of graded degree 0
    moved = PolyVectorField(tuple(a + b for a, b in zip(fields[i].components, bad.components)))
    realized = fields[:i] + [moved] + fields[i + 1:]
    assert not same_span(fields, realized)
