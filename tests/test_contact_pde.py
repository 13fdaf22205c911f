import random
from collections import Counter
from fractions import Fraction

import pytest

from carnot import contact_pde
from carnot.exact_linalg import Matrix, SparseRows, Subspace, nullspace, span_equal, sparse_row
from carnot.group_realization import (CoordinateRecipe, PolyVectorField, left_invariant_frame,
                                      realize_tau)
from carnot.prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix,
                                 full_prolongation, strata_derivations)
from carnot.contact_pde import (ContactJet, NotContact, conformal_defect,
                                conformal_fields_of_degree, conformal_system_residuals,
                                contact_defect, jet, jet_jacobi_check, reconstruct_from_h,
                                same_span, solve_h_system, solve_polynomial_conformal,
                                vf_bracket)
from carnot.polynomials import Poly, PolyRing
from .conftest import (CONFORMAL, TERMINATING, ZERO_G0, apply_rows, basis_vector, components,
                       conformal_g0, dense_action, dense_values_matrix, heisenberg_spec,
                       jet_at, make_abelian, named_algebra_frame, named_spec, rand_point,
                       residual_polys, sparse_values, to_coords, values_of)


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
    """X_j f as sum_c columns[j][c] d/dx_c f, with no table."""
    out = frame.ring.zero()
    for c in range(len(frame)):
        out = out + frame.columns[j][c] * f.diff(c)
    return out


def reference_residuals(comps, frame, rows):
    """Contact residuals through coordinates and vf_bracket, then each
    condition row ``{(r, c): a}`` as sum a X_c(f_r) over the untabulated
    derivative."""
    m = frame.horizontal
    coords = to_coords(frame, comps)
    out = []
    for i in range(m):
        out.extend(frame.to_frame(vf_bracket(coords, list(frame.columns[i])))[m:])
    for row in rows:
        acc = frame.ring.zero()
        for (r, c), a in row.items():
            acc = acc + a * plain_apply(frame, c, comps[r])
        out.append(acc)
    return out


def trace_form_residuals(comps, frame):
    """The entries i <= j of M + M^t - (2/m) tr(M) I, for M[i][j] = X_j(f_i):
    the conformal condition written without the constraint's rows."""
    m = frame.horizontal
    mat = [[plain_apply(frame, j, comps[i]) for j in range(m)] for i in range(m)]
    trace = frame.ring.zero()
    for i in range(m):
        trace = trace + mat[i][i]
    out = []
    for i in range(m):
        for j in range(i, m):
            r = mat[i][j] + mat[j][i]
            if i == j:
                r = r - Fraction(2, m) * trace
            out.append(r)
    return out


FULL = GZeroConstraint.full_derivations()
# g0 = sl(2) on the first layer of H_1: the traceless blocks, B(1,1) + B(2,2) = 0
SL2 = GZeroConstraint.explicit([{(0, 0): Fraction(1), (1, 1): Fraction(1)}])
# rows that tell block entry (r, c) from (c, r): B(1,2) and 2 B(2,1) - B(2,2)
UNSYMMETRIC = GZeroConstraint.explicit([{(0, 1): Fraction(1)},
                                        {(1, 0): Fraction(2), (1, 1): Fraction(-1)}])
RESIDUAL_CASES = ([(name, constraint) for constraint in (CONFORMAL, FULL)
                   for name in ("engel", "cartan_235", "two_centre", "h2")]
                  + [("h1", SL2), ("engel", UNSYMMETRIC)])


def residuals(comps, frame, rows):
    """The kernel's residual of frame components, one Poly per equation."""
    return residual_polys(conformal_system_residuals(components(comps), frame, rows), frame, rows)


def test_residuals_match_the_coordinate_reference():
    # every unit monomial field of graded degree -step..2, for the
    # conformal rows, no rows (full derivations) and explicit rows
    fields = Counter()
    for name, constraint in RESIDUAL_CASES:
        g, frame = named_algebra_frame(name)
        ring = frame.ring
        rows = constraint.first_layer_rows(frame.horizontal)
        for delta in range(-g.step, 3):
            for i in range(g.dim):
                for exp in ring.monomials_exact(delta - g.weights[i]):
                    comps = [ring.zero()] * g.dim
                    comps[i] = Poly(ring, {exp: Fraction(1)})
                    assert residuals(comps, frame, rows) == reference_residuals(comps, frame, rows)
                    fields[constraint.kind] += 1
    assert fields == {"conformal": 880, "full_derivations": 880, "explicit": 142}
    # fields on several components at once: seeded sums of unit monomial
    # fields, the solutions of each block (whose residual terms all
    # cancel), and their sums
    rng = random.Random(20261018)
    mixed, cancelling = Counter(), Counter()
    for name, constraint in RESIDUAL_CASES:
        g, frame = named_algebra_frame(name)
        rows = constraint.first_layer_rows(frame.horizontal)
        for delta in range(-g.step, 3):
            sums = [seeded_sum(frame, delta, rng) for _ in range(4)]
            solutions = [list(f.components)
                         for f in conformal_fields_of_degree(frame, constraint, delta)]
            for comps in solutions:
                assert all(r.is_zero() for r in residuals(comps, frame, rows))
                cancelling[constraint.kind] += 1
            for comps in sums + solutions + [[a + b for a, b in zip(x, y)]
                                             for x, y in zip(sums, solutions)]:
                assert residuals(comps, frame, rows) == reference_residuals(comps, frame, rows)
                mixed[constraint.kind] += 1
    assert mixed == {"conformal": 162, "full_derivations": 308, "explicit": 91}
    assert cancelling == {"conformal": 38, "full_derivations": 158, "explicit": 24}


@pytest.mark.parametrize("name", ["engel", "heisenberg", "r3", "cartan_235", "two_centre", "h2"])
def test_conformal_rows_and_the_trace_form_have_the_same_blocks(name):
    # the conformal condition rows span the same equations as the trace
    # form, so every block has the same nullspace under both
    g, frame = named_algebra_frame(name)
    ring = frame.ring
    for delta in range(-g.step, 3):
        units = [(i, exp) for i in range(g.dim)
                 for exp in ring.monomials_exact(delta - g.weights[i])]
        system = {}
        for col, (i, exp) in enumerate(units):
            comps = [ring.zero()] * g.dim
            comps[i] = Poly(ring, {exp: Fraction(1)})
            contact = residuals(comps, frame, ())
            for eq, p in enumerate(contact + trace_form_residuals(comps, frame)):
                for e, c in p.terms.items():
                    system.setdefault((eq, e), {})[col] = c
        trace_form = nullspace(SparseRows(list(system.values()), len(units)))
        column = {unit: col for col, unit in enumerate(units)}
        fields = conformal_fields_of_degree(frame, CONFORMAL, delta)
        rows = Subspace.from_vectors([{column[i, e]: c for i, f in enumerate(fld.components)
                                       for e, c in f.terms.items()} for fld in fields],
                                     len(units))
        assert rows.dim == len(fields) == trace_form.dim
        assert span_equal(rows, trace_form)


def test_residual_terms_have_no_zero_coefficient():
    # on R^1 the conformal rows are vacuous; the conformal fields of each
    # block make every term cancel
    rng = random.Random(20261019)
    checked = 0
    for name in ("r1", "r3", "engel", "cartan_235", "two_centre", "h2"):
        g, frame = named_algebra_frame(name)
        m = frame.horizontal
        rows = CONFORMAL.first_layer_rows(m)
        equations = m * (g.dim - m) + len(rows)
        for delta in range(-g.step, 3):
            fields = [seeded_sum(frame, delta, rng) for _ in range(3)]
            fields += [list(f.components)
                       for f in conformal_fields_of_degree(frame, CONFORMAL, delta)]
            for comps in fields:
                terms = conformal_system_residuals(components(comps), frame, rows)
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
        rows = CONFORMAL.first_layer_rows(m)
        contact_labels = [f"[V,~{names[i]}]@~{names[k]}" for i in range(m) for k in range(m, g.dim)]
        g0_labels = [f"g0 row {q}" for q in range(1, len(rows) + 1)]
        fields = [seeded_sum(frame, delta, rng) for delta in range(-g.step, 3) for _ in range(3)]
        for comps in fields + contact_fields:
            field = PolyVectorField(tuple(comps))
            reference = reference_residuals(comps, frame, rows)
            contact = contact_defect(field, frame)
            assert contact.residuals == tuple(zip(contact_labels, reference[:len(contact_labels)]))
            if not contact.all_zero:
                contact_nonzero += 1
                continue
            conformal = conformal_defect(field, frame, CONFORMAL)
            assert conformal.residuals == tuple(zip(g0_labels, reference[len(contact_labels):]))
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
        assert conformal_defect(field, engel_frame, CONFORMAL).all_zero


def test_cubic_family_not_conformal(engel_frame):
    report = conformal_defect(monomial_family(engel_frame, 3), engel_frame, CONFORMAL)
    assert not report.all_zero
    # the only obstruction is the constant third derivative, here 6
    nz = report.nonzero()
    assert len(nz) == 1
    assert nz[0][1] == engel_frame.ring.const(6)


def test_monomial_family_conformal_iff_degree_below_three(engel_frame):
    for k in range(0, 7):
        report = conformal_defect(monomial_family(engel_frame, k), engel_frame, CONFORMAL)
        assert report.all_zero == (k <= 2)


def test_conformal_defect_requires_contact(engel_frame):
    with pytest.raises(NotContact):
        conformal_defect(unit_frame_field(engel_frame, 2), engel_frame, CONFORMAL)


# -- jets ----------------------------------------------------------------


def test_jet_of_weight_map_field(engel, engel_frame, engel_levels, engel_tau, rng):
    d_field = engel_tau[4]
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    symbolic = jet(d_field, engel_frame, engel_levels)
    # the weight map is linear, so its part 0 is constant and its part 1 zero
    assert all(f.weighted_degree() == 0 for value in symbolic.parts[0] for f in value.values())
    assert symbolic.part_is_zero(1)
    for jt in [jet_at(symbolic, rand_point(rng, 4)) for _ in range(3)]:
        assert degree_zero_matrix(engel, jt.parts[0]) == expected
        assert jt.part_is_zero(1)


def test_jet_of_constant_field_vanishes(engel_frame, engel_levels, engel_tau):
    jt = jet(engel_tau[0], engel_frame, engel_levels)
    assert jt.part_is_zero(0) and jt.part_is_zero(1)


def test_jet_of_x2_translation_at_origin(engel_frame, engel_levels, engel_tau):
    symbolic = jet(engel_tau[3], engel_frame, engel_levels)
    for jt in (symbolic, jet_at(symbolic, [0, 0, 0, 0])):
        assert jt.part_is_zero(0) and jt.part_is_zero(1)


def test_jet_requires_contact(engel_frame, engel_levels):
    with pytest.raises(NotContact):
        jet(unit_frame_field(engel_frame, 2), engel_frame, engel_levels)


def test_jet_certifies_contact_once_for_all_points(monkeypatch, engel_frame, engel_levels,
                                                    engel_tau, rng):
    import carnot.contact_pde as contact_pde
    calls = []
    original = contact_pde.contact_defect
    monkeypatch.setattr(contact_pde, "contact_defect",
                        lambda *args: calls.append(args) or original(*args))
    # one jet with the point symbolic: every entry is a polynomial in the
    # frame's ring, and a point only evaluates it
    jt = jet(engel_tau[4], engel_frame, engel_levels)
    assert len(calls) == 1
    entries = [f for part in jt.parts for value in part for f in value.values()]
    assert entries and all(isinstance(f, Poly) and f.ring is engel_frame.ring for f in entries)
    for p in [rand_point(rng, 4) for _ in range(5)]:
        assert jet_at(jt, p).parts == tuple(
            tuple({t: f.eval(p) for t, f in value.items()} for value in part)
            for part in jt.parts)


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
    assert dense_values_matrix(g, values_of(g, m.entries)) == m.entries
    return values_of(g, m.entries)


def assert_jet_matches_the_dense_reference(field, frame, levels, rng):
    """Compare the jet with the reference at a random point; return
    whether its part 1 is zero.  ``levels[0]`` holds part 0 of the field."""
    g = frame.algebra
    pt = rand_point(rng, len(frame))
    symbolic = jet(field, frame, levels)
    jt = jet_at(symbolic, pt)
    blocks, matrices, vectors = dense_jet_parts(field, frame, pt)
    assert jt.parts[0] == sparse_values(block_values(g, blocks))
    # part 1 on a horizontal source is a degree-zero map in levels[0], read
    # at its pivot cells; a deeper source is read on the layer above it
    one = {}
    for c1, m in matrices:
        full = full_values(g, m)
        coords = levels[0].coordinates_of_values(sparse_values(full))
        assert coords is not None
        one[c1] = sparse_row([full[j][t] for j, t in levels[0].pivot_cells])
        assert one[c1] == sparse_row(coords)
    for src, full in vectors:
        above = g.layer_indices(-g.weights[src] - 1)
        assert all(full[i] == 0 for i in range(g.dim) if i not in above)
        one[src] = sparse_row([full[i] for i in above])
    assert jt.parts[1] == tuple(one[j] for j in range(g.dim))
    assert jt.part_is_zero(1) == (not any(one.values()))
    # a part zero as an identity is zero at every point
    assert jt.part_is_zero(1) or not symbolic.part_is_zero(1)
    return symbolic.part_is_zero(1)


# heisenberg, r3 and h2 have g1 != 0, so some of their realized fields have
# a nonzero part 1
@pytest.mark.parametrize("name", ["engel", "heis_x_r", "free_3_2", "cartan_235", "two_centre",
                                  "heisenberg", "r3", "h2"])
def test_jet_matches_the_dense_reference(name, rng):
    g, frame = named_algebra_frame(name)
    s, _ = full_prolongation(g, conformal_g0(g))
    fields = realize_tau(s, frame)
    assert len(fields) == s.dim
    zero = [assert_jet_matches_the_dense_reference(field, frame, s.levels, rng)
            for field in fields]
    assert all(zero) == (s.top_level() == 0)


def test_jet_reads_a_zero_g0_as_level_0_of_the_tower(tmp_path):
    # every block entry vanishes: g0 = 0 and the tower of H_1 is g_- alone,
    # with the zero g0 kept as its level 0
    from carnot.cli import _prolong, parse_spec_file, spec_recipe
    path = tmp_path / "heis_rigid.alg"
    path.write_text(heisenberg_spec(ZERO_G0))
    spec = parse_spec_file(str(path))
    g, ders, g0, s, rep = _prolong(spec, spec.max_k)
    assert rep.terminated and [lvl.dim for lvl in s.levels] == [0]
    assert s.levels[0] is g0 and s.top_level() == 0
    frame = left_invariant_frame(spec_recipe(spec, g))
    fields = realize_tau(s, frame)
    assert len(fields) == s.dim == 3
    for field in fields:
        jt = jet(field, frame, s.levels)
        assert jt.part_is_zero(0) and jt.part_is_zero(1)


def test_jet_matches_the_dense_reference_with_a_nonzero_one_part(engel, engel_frame, rng):
    # the realized fields all have a zero one-part; these contact fields do
    # not.  They leave the conformal tower, but part 0 of every contact
    # field is a strata-preserving derivation.
    g, frame = named_algebra_frame("r3")
    ring = frame.ring
    cubic = [ring.var(0) ** 3 - ring.var(1) * ring.var(2), ring.var(1) ** 2, ring.zero()]
    # part 1 of x3^2 d/dx1 is nonzero on e_3 alone, the last component
    last = [ring.var(2) ** 2, ring.zero(), ring.zero()]
    cases = [(PolyVectorField(tuple(comps)), frame, [strata_derivations(g)])
             for comps in (cubic, last)]
    cases += [(monomial_family(engel_frame, k), engel_frame, [strata_derivations(engel)])
              for k in (4, 5)]
    for field, frm, levels in cases:
        assert not assert_jet_matches_the_dense_reference(field, frm, levels, rng)


def test_jet_jacobi_check(engel, engel_frame, engel_levels, engel_tau, rng):
    ders = strata_derivations(engel)
    for field in engel_tau:
        symbolic = jet(field, engel_frame, engel_levels)
        assert jet_jacobi_check(symbolic, ders)
        assert jet_jacobi_check(jet_at(symbolic, rand_point(rng, 4)), ders)
    # corrupting the forbidden off-diagonal slot breaks the law, by a
    # constant or by a polynomial in the point
    jt = jet(engel_tau[4], engel_frame, engel_levels)
    for entry in (Fraction(1), engel_frame.ring.var(0)):
        values = [dict(value) for value in jt.parts[0]]
        values[1][0] = entry  # component X1 of the image of X2
        corrupted = ContactJet((tuple(values), jt.parts[1]))
        assert not jet_jacobi_check(corrupted, ders)


def dense_jet_jacobi_check(j, g):
    """The dense form of the derivation law, kept as the reference."""
    d = degree_zero_matrix(g, j.parts[0])
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            lhs = [sum(c * row[k] for k, c in g.rows[a][b]) for row in d]
            rhs1 = g.bracket(apply_rows(d, basis_vector(g, a)), basis_vector(g, b))
            rhs2 = g.bracket(apply_rows(d, basis_vector(g, b)), basis_vector(g, a))
            if any(x != y - z for x, y, z in zip(lhs, rhs1, rhs2)):
                return False
    return True


@pytest.mark.parametrize("name", ["engel", "cartan_235", "free_3_2", "two_centre"])
def test_jet_jacobi_check_matches_the_dense_reference(name, rng):
    g, _ = named_algebra_frame(name)
    ders = strata_derivations(g)
    g0 = conformal_g0(g)
    basis = [tuple(dense_action(g0, b, j) for j in range(g.dim)) for b in range(g0.dim)]
    for values in g0.actions:
        jt = ContactJet((values,))
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
        jt = ContactJet((sparse_values(block_values(g, blocks)),))
        verdict = jet_jacobi_check(jt, ders)
        assert verdict == dense_jet_jacobi_check(jt, g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_jet_zero_part_stays_in_g0(engel, engel_frame, engel_levels, engel_tau, rng):
    g0 = conformal_g0(engel)
    for field in engel_tau:
        symbolic = jet(field, engel_frame, engel_levels)
        for jt in [symbolic] + [jet_at(symbolic, rand_point(rng, 4)) for _ in range(2)]:
            assert g0.coordinates_of_values(jt.parts[0]) is not None


def test_coordinates_of_a_symbolic_value(engel, engel_frame):
    # a value with polynomial entries lies in g0 exactly when it is a
    # polynomial multiple of the basis, diag(1,1,2,3), and its coordinate
    # is that polynomial
    g0 = conformal_g0(engel)
    ring = engel_frame.ring
    f = ring.var(0) * ring.var(1) - Fraction(1, 2) * ring.var(3)
    [action] = g0.actions
    values = tuple({t: c * f for t, c in value.items()} for value in action)
    assert g0.coordinates_of_values(values) == [f]
    # a zero polynomial in an entry is zero, and the zero map has coordinate 0
    assert g0.coordinates_of_values(values[:1] + ({**values[1], 0: ring.zero()},)
                                    + values[2:]) == [f]
    assert g0.coordinates_of_values(tuple({} for _ in action)) == [0]
    # values off g0
    outside = [dict(value) for value in values]
    outside[1][0] = ring.var(2)  # component X1 of the image of X2
    assert g0.coordinates_of_values(tuple(outside)) is None
    outside = [dict(value) for value in values]
    outside[2][0] = 2 * f + ring.var(0)  # Y goes to (2 f + x1) Y, X1 to f X1
    assert g0.coordinates_of_values(tuple(outside)) is None


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
        assert conformal_defect(field, engel_frame, CONFORMAL).all_zero


def test_h_system_requires_engel_pattern(heisenberg_frame):
    with pytest.raises(ValueError):
        solve_h_system(heisenberg_frame)


# -- ansatz solver -------------------------------------------------------


def test_engel_ansatz_dimension_and_span(engel_frame, engel_tau):
    sol = solve_polynomial_conformal(engel_frame, CONFORMAL, 6)
    assert sol.dim == 5
    assert same_span(sol.fields, engel_tau)


def test_engel_ansatz_stability(engel_frame):
    for degree in (3, 4, 5):
        assert solve_polynomial_conformal(engel_frame, CONFORMAL, degree).dim == 5


def test_ansatz_solutions_are_conformal(engel_frame):
    for field in solve_polynomial_conformal(engel_frame, CONFORMAL, 4).fields:
        assert conformal_defect(field, engel_frame, CONFORMAL).all_zero


def test_heisenberg_ansatz_dimension(heisenberg_frame):
    assert solve_polynomial_conformal(heisenberg_frame, CONFORMAL, 4).dim == 8


def test_r3_ansatz_dimension():
    g = make_abelian(3)
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    assert solve_polynomial_conformal(frame, CONFORMAL, 3).dim == 10


def test_r2_ansatz_grows_without_bound():
    g = make_abelian(2)
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    dims = [solve_polynomial_conformal(frame, CONFORMAL, d).dim for d in range(4)]
    assert dims == [4, 6, 8, 10]


def test_homogeneous_blocks_match_heisenberg_levels(heisenberg_frame):
    assert [len(conformal_fields_of_degree(heisenberg_frame, CONFORMAL, k)) for k in range(4)] == \
        [2, 2, 1, 0]


def test_ansatz_determinism(engel_frame):
    a = solve_polynomial_conformal(engel_frame, CONFORMAL, 4)
    b = solve_polynomial_conformal(engel_frame, CONFORMAL, 4)
    assert a.fields == b.fields
    assert a.block_dims == b.block_dims


@pytest.mark.parametrize("name", TERMINATING + ("r4", "r5", "h1", "h2"))
def test_ansatz_basis_is_the_echelon_basis_of_the_blocks(name):
    # the ansatz basis is the blocks' echelon bases, graded degree -step
    # first; every block is solved here directly, also those the solver
    # lists as zero after its first zero block of degree >= 0
    from carnot.cli import spec_algebra, spec_constraint, spec_recipe
    spec = named_spec(name)
    g = spec_algebra(spec)
    constraint = spec_constraint(spec)
    s, rep = full_prolongation(g, constrain_g0(strata_derivations(g), constraint),
                               max_k=spec.max_k)
    assert rep.terminated
    frame = left_invariant_frame(spec_recipe(spec, g))
    degree = s.top_level() + 3
    sol = solve_polynomial_conformal(frame, constraint, degree)
    blocks = [conformal_fields_of_degree(frame, constraint, delta)
              for delta in range(-g.step, degree + 1)]
    assert sol.dim == s.dim
    assert sol.block_dims == tuple(map(len, blocks))
    assert sol.fields == tuple(f for block in blocks for f in block)


def test_ansatz_solves_no_block_after_the_first_zero_one(engel_frame, monkeypatch):
    # engel's top level is 0, so block 1 is zero and proves blocks 2 .. 40 zero
    solved = []
    block = contact_pde.conformal_fields_of_degree

    def recorded(frame, constraint, delta):
        solved.append(delta)
        return block(frame, constraint, delta)

    monkeypatch.setattr(contact_pde, "conformal_fields_of_degree", recorded)
    sol = solve_polynomial_conformal(engel_frame, CONFORMAL, 40)
    assert solved == [-3, -2, -1, 0, 1]
    assert len(sol.block_dims) == 44
    assert sol.block_dims[:5] == (1, 1, 2, 1, 0)
    assert sol.block_dims[5:] == (0,) * 39


def test_each_block_lists_the_monomials_of_a_degree_once(monkeypatch):
    # two_centre has four components of weight -1 and two of weight -2, so
    # each block reads the monomials of two degrees
    g, frame = named_algebra_frame("two_centre")
    calls = Counter()
    listed = PolyRing.monomials_exact

    def counted(ring, degree):
        calls[degree] += 1
        return listed(ring, degree)

    monkeypatch.setattr(PolyRing, "monomials_exact", counted)
    for delta in range(-g.step, 4):
        calls.clear()
        conformal_fields_of_degree(frame, CONFORMAL, delta)
        assert calls == Counter({delta + 1: 1, delta + 2: 1})



def test_same_span_needs_more_than_equal_counts(heisenberg_frame):
    # one field replaced by itself plus a non-conformal field of the same
    # degree: the counts agree, so only the span tells the lists apart
    frame = heisenberg_frame
    ring = frame.ring
    sol = solve_polynomial_conformal(frame, CONFORMAL, 4)
    fields = list(sol.fields)
    assert same_span(fields, fields[::-1])
    bad = PolyVectorField((ring.var(1), ring.zero(), ring.zero()))  # x2 ~X1, graded degree 0
    rows = CONFORMAL.first_layer_rows(frame.horizontal)
    assert any(not r.is_zero() for r in residuals(bad.components, frame, rows))
    i = sum(sol.block_dims[:frame.algebra.step])  # the first field of graded degree 0
    moved = PolyVectorField(tuple(a + b for a, b in zip(fields[i].components, bad.components)))
    realized = fields[:i] + [moved] + fields[i + 1:]
    assert not same_span(fields, realized)
