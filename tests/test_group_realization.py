import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from carnot.exact_linalg import Matrix, solve
from carnot.graded_lie import build_algebra
from carnot.prolongation import (ProlongationAlgebra, constrain_g0, degree_zero_matrix,
                                 full_prolongation, strata_derivations)
from carnot.group_realization import (CoordinateFields, CoordinateRecipe, Frame, NotTerminated,
                                      UnsupportedStep, _flow_generators, bch, conformal_factor,
                                      dilations, extend_first_layer_automorphism,
                                      graded_automorphism, group_product, left_invariant_frame,
                                      pushforward, realize_tau, similarity_check)
from carnot.polynomials import Poly, substitute
from .conftest import (BUNDLED, CONFORMAL, GENERATED, GOLDEN, TERMINATING, apply_rows,
                       basis_vector, conformal_g0, dense_bracket, factorwise_automorphism,
                       factorwise_image, flow_generators_reference, group_inverse,
                       jacobian_reference, left_translation, make_abelian, named_algebra_frame,
                       named_spec, permuted, rand_point, realize_tau_by_elimination, spec_file,
                       subs_reference, t_extended_ring, to_coords, translation_system)


# -- truncated BCH ------------------------------------------------------


def test_bch_engel_generators(engel):
    # frozen by expanding a + b + [a,b]/2 + ([a,[a,b]] + [b,[b,a]])/12 with
    # [X1,X2] = Y, [X1,[X1,X2]] = Z, [X2,[X2,X1]] = 0
    out = bch(engel, basis_vector(engel, 0), basis_vector(engel, 1))
    assert out == [1, 1, Fraction(1, 2), Fraction(1, 12)]


def test_bch_identity_and_inverse(engel, rng):
    zero = [Fraction(0)] * 4
    for _ in range(5):
        a = rand_point(rng, 4)
        assert bch(engel, a, zero) == a
        assert bch(engel, zero, a) == a
        assert bch(engel, a, [-x for x in a]) == zero


def test_bch_unsupported_step():
    # step-4 filiform chain
    g = build_algebra([["X1", "X2"], ["Y"], ["Z"], ["W"]],
                      {("X1", "X2"): [(1, "Y")], ("X1", "Y"): [(1, "Z")],
                       ("X1", "Z"): [(1, "W")]})
    with pytest.raises(UnsupportedStep):
        bch(g, basis_vector(g, 0), basis_vector(g, 1))


# -- group law ----------------------------------------------------------


def test_product_identity(engel_recipe, rng):
    e = [Fraction(0)] * 4
    for _ in range(5):
        p = rand_point(rng, 4)
        assert group_product(engel_recipe, e, p) == p
        assert group_product(engel_recipe, p, e) == p


@pytest.mark.parametrize("a,b", [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(1, 3)),
                                 (Fraction(-3, 5), Fraction(7, 2))])
def test_product_of_generator_slices(engel_recipe, a, b):
    # frozen from the adjoint expansion exp(aX1) exp(bX2):
    # coordinates (a, b, ab, a^2 b / 2)
    p = [a, Fraction(0), Fraction(0), Fraction(0)]
    q = [Fraction(0), b, Fraction(0), Fraction(0)]
    assert group_product(engel_recipe, p, q) == [a, b, a * b, a * a * b / 2]
    # the reversed order is already in recipe form
    assert group_product(engel_recipe, q, p) == [a, b, Fraction(0), Fraction(0)]


def test_product_associative(engel_recipe, rng):
    for _ in range(8):
        p, q, r = (rand_point(rng, 4) for _ in range(3))
        left = group_product(engel_recipe, group_product(engel_recipe, p, q), r)
        right = group_product(engel_recipe, p, group_product(engel_recipe, q, r))
        assert left == right


def test_group_inverse(engel_recipe, rng):
    e = [Fraction(0)] * 4
    for _ in range(5):
        p = rand_point(rng, 4)
        assert group_product(engel_recipe, p, group_inverse(engel_recipe, p)) == e


# -- the group law ------------------------------------------------------

# every bundled and stored spec, and two scale families in one factor
LAW_SPECS = BUNDLED + GENERATED + ("g2_full", "h1_der", "r3_gl", "h2", "r4")


@pytest.mark.parametrize("name", LAW_SPECS)
def test_law_fixes_the_identity(name):
    # mu(x, 0) = x and mu(0, y) = y, in a ring of x and the primed y
    g, frame = named_algebra_frame(name)
    law = frame.recipe.law
    ring = law[0].ring
    n = g.dim
    assert ring.names == frame.recipe.coord_names + tuple(f"{x}'" for x in
                                                          frame.recipe.coord_names)
    xs = [ring.var(i) for i in range(n)]
    ys = [ring.var(n + i) for i in range(n)]
    zero = ring.zero()
    assert substitute(law, xs + [zero] * n) == xs
    assert substitute(law, [zero] * n + ys) == ys


@pytest.mark.parametrize("name", LAW_SPECS)
def test_flow_generators_match_the_t_linear_reference(name):
    # the frame and the right-invariant fields read off the law against the
    # t-linear part of one product with t e_j per basis element
    g, frame = named_algebra_frame(name)
    recipe = frame.recipe
    assert [list(col) for col in frame.columns] == flow_generators_reference(recipe, False)
    assert _flow_generators(recipe, right=True) == flow_generators_reference(recipe, True)
    # the recipe reads the right-invariant fields once, in its own ring
    generators = recipe.right_invariant
    assert recipe.right_invariant is generators and generators.ring is recipe.ring
    assert [list(col) for col in generators.columns] == flow_generators_reference(recipe, True)


@pytest.mark.parametrize("name", ["engel", "cartan_235", "two_centre", "h2"])
def test_left_translation_is_the_product_with_the_point(name, rng):
    g, frame = named_algebra_frame(name)
    recipe = frame.recipe
    ring = recipe.ring
    xs = [ring.var(i) for i in range(g.dim)]
    for p in [[Fraction(0)] * g.dim] + [rand_point(rng, g.dim) for _ in range(4)]:
        expect = group_product(recipe, [ring.const(x) for x in p], xs)
        assert list(left_translation(recipe, p)) == expect


# -- frames -------------------------------------------------------------


def test_engel_frame_matches_display(engel, engel_frame):
    ring = engel_frame.ring
    x1 = ring.var(0)
    expected = {
        "X1": [ring.one(), ring.zero(), ring.zero(), ring.zero()],
        "X2": [ring.zero(), ring.one(), x1, Fraction(1, 2) * x1 ** 2],
        "Y": [ring.zero(), ring.zero(), ring.one(), x1],
        "Z": [ring.zero(), ring.zero(), ring.zero(), ring.one()],
    }
    for j, name in enumerate(engel.names):
        assert list(engel_frame.columns[j]) == expected[name]


# The structure-constant contact residuals of contact_pde rest on this
# identity, [X~_i, X~_j] = X~_[e_i,e_j], so it is checked on every spec the
# fields layer runs on.  H_2 and R^4 stand for the conformal scale families;
# g0 does not enter the frame.
@pytest.mark.parametrize("name", BUNDLED + GENERATED + ("h2", "r4"))
def test_frame_brackets(name):
    from carnot.contact_pde import vf_bracket
    g, frame = named_algebra_frame(name)
    for i in range(g.dim):
        for j in range(g.dim):
            br = vf_bracket(list(frame.columns[i]), list(frame.columns[j]))
            expect = [frame.ring.zero()] * g.dim
            for k, c in g.rows[i][j]:
                expect = [e + c * f for e, f in zip(expect, frame.columns[k])]
            assert br == expect


def test_frame_rejects_a_basis_with_layer_one_after_a_deeper_element():
    # X1 X2 Y X3: the frame matrix is still triangular, but the residuals
    # would read Y as horizontal
    g = build_algebra([["X1", "X2", "X3"], ["Y"]], {("X1", "X2"): [(1, "Y")]})
    shuffled = permuted(g, [0, 1, 3, 2])
    with pytest.raises(ValueError, match="layer -1 first"):
        left_invariant_frame(CoordinateRecipe.single_factor(shuffled))


def test_apply_matches_the_derivative_sum(rng):
    # the monomial table against sum_c columns[j][c] d/dx_c f, on repeated
    # calls too, so that table hits are checked as well as misses
    for name in ("engel", "cartan_235", "two_centre"):
        g, frame = named_algebra_frame(name)
        ring = frame.ring
        monos = ring.monomials_upto(4)
        for _ in range(2):
            for _ in range(10):
                f = Poly(ring, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for m in rng.sample(monos, 6)})
                for j in range(g.dim):
                    expect = ring.zero()
                    for c in range(g.dim):
                        expect = expect + frame.columns[j][c] * f.diff(c)
                    assert frame.apply(j, f) == expect


def test_frame_conversion_roundtrip(engel_frame, rng):
    ring = engel_frame.ring
    comps = [ring.var(0) ** 2, ring.var(2), ring.one(), ring.var(0) * ring.var(1)]
    frame_comps = engel_frame.to_frame(comps)
    assert to_coords(engel_frame, frame_comps) == comps


# -- tau ----------------------------------------------------------------


def test_tau_matches_table(engel, engel_prolongation, engel_tau):
    algebra, _ = engel_prolongation
    ring = engel_tau[0].components[0].ring
    x1, x2, y, z = (ring.var(i) for i in range(4))
    zero, one = ring.zero(), ring.one()
    expected = {
        "Z": (zero, zero, zero, one),
        "Y": (zero, zero, one, -x1),
        "X1": (one, zero, x2, y - x1 * x2),
        "X2": (zero, one, -x1, Fraction(1, 2) * x1 ** 2),
        "D1": (x1, x2, 2 * y - x1 * x2,
               3 * z - 2 * x1 * y + Fraction(1, 2) * x1 ** 2 * x2),
    }
    for label, field in zip(algebra.labels, engel_tau):
        assert field.components == expected[label]


def test_tau_at_origin_reproduces_negative_basis(engel, engel_prolongation, engel_tau):
    algebra, _ = engel_prolongation
    origin = [Fraction(0)] * 4
    for key, field in zip(algebra.sbasis, engel_tau):
        if key[0] != "neg":
            continue
        values = [c.eval(origin) for c in field.components]
        expect = [Fraction(0)] * 4
        expect[key[1]] = Fraction(1)
        assert values == expect


def test_tau_homomorphism_sign_uniform(engel, engel_prolongation, engel_frame, engel_tau):
    from carnot.contact_pde import vf_bracket
    algebra, _ = engel_prolongation
    ring = engel_frame.ring
    coords = [to_coords(engel_frame, f.components) for f in engel_tau]
    eps = None
    for a in range(algebra.dim):
        for b in range(a + 1, algebra.dim):
            lhs = vf_bracket(coords[a], coords[b])
            rhs = [ring.zero()] * 4
            for i, c in enumerate(dense_bracket(algebra, a, b)):
                if c:
                    rhs = [x + c * y for x, y in zip(rhs, coords[i])]
            if all(r.is_zero() for r in rhs):
                assert all(l.is_zero() for l in lhs)
                continue
            matched = [cand for cand in (Fraction(1), Fraction(-1))
                       if all((l - cand * r).is_zero() for l, r in zip(lhs, rhs))]
            assert matched, (a, b)
            if eps is None:
                eps = matched[0]
            assert eps in matched
    assert eps == -1


def test_tau_requires_termination():
    g = make_abelian(2)
    s, rep = full_prolongation(g, conformal_g0(g), max_k=4)
    with pytest.raises(NotTerminated):
        realize_tau(s, left_invariant_frame(CoordinateRecipe.single_factor(g)))


def test_tau_realizes_positive_levels():
    # H_1 has levels (2, 2, 1) and R^3 has (4, 3): every field is contact
    # and conformal, homogeneous of its level's degree, and
    # [tau(a), tau(b)] = -tau([a, b]) holds on every pair, with the
    # commutator of coordinate fields as the independent reference
    from carnot.contact_pde import conformal_defect, contact_defect, vf_bracket
    for name, levels in (("h1", (2, 2, 1, 0)), ("r3", (4, 3, 0))):
        g, frame = named_algebra_frame(name)
        s, rep = full_prolongation(g, conformal_g0(g))
        assert rep.level_dims == levels
        fields = realize_tau(s, frame)
        ring = frame.ring
        for field, weight in zip(fields, s.weights):
            assert contact_defect(field, frame).all_zero
            assert conformal_defect(field, frame, CONFORMAL).all_zero
            for comp, w in zip(field.components, g.weights):
                assert all(ring.term_degree(e) == weight - w for e in comp.terms)
        coords = [to_coords(frame, f.components) for f in fields]
        for a in range(s.dim):
            for b in range(a + 1, s.dim):
                expect = [ring.zero()] * g.dim
                for i, c in s.bracket_table[a][b]:
                    expect = [x - c * y for x, y in zip(expect, coords[i])]
                assert vf_bracket(coords[a], coords[b]) == expect, (name, s.labels[a], s.labels[b])


def realize_tau_per_column(s, frame):
    """Reference for ``realize_tau``: one solve per level element and frame
    component, with the right-invariant fields of the t-linear reference."""
    g = s.negative
    ring = frame.ring
    generators = flow_generators_reference(frame.recipe, right=True)
    table = CoordinateFields(ring, generators)
    xs = [s.sbasis.index(("neg", i)) for i in g.layer_indices(1)]
    fields = []
    for a, key in enumerate(s.sbasis):
        if key[0] == "neg":
            fields.append(frame.to_frame(generators[key[1]]))
            continue
        comps = []
        for j in range(g.dim):
            monos, system, index = translation_system(table, g.layer_indices(1),
                                                      key[1] - g.weights[j])
            rhs = [0] * system.rows
            for i, x in zip(g.layer_indices(1), xs):
                for b, c in s.bracket_table[a][x]:
                    for e, v in fields[b][j].terms.items():
                        rhs[index[(i, e)]] += c * v
            (coeffs,) = solve(system, [rhs])
            assert coeffs is not None, (s.labels[a], j)
            comps.append(Poly(ring, dict(zip(monos, coeffs))))
        fields.append(comps)
    return fields


@pytest.mark.parametrize("name", ["engel", "heisenberg", "r3_co3", "h2", "g2_full"])
def test_realize_tau_matches_the_per_column_solve(name):
    from carnot.cli import parse_spec_file, spec_constraint
    g, frame = named_algebra_frame(name)
    constraint = spec_constraint(parse_spec_file(spec_file(name))) if name != "h2" else CONFORMAL
    s, rep = full_prolongation(g, constrain_g0(strata_derivations(g), constraint))
    assert rep.terminated
    fields = realize_tau(s, frame)
    assert [list(f.components) for f in fields] == realize_tau_per_column(s, frame)


@pytest.mark.parametrize("name", TERMINATING + ("r4", "r8", "r16", "h2", "h3", "h8"))
def test_realize_tau_matches_the_elimination_reference(name):
    # the series in the bracket table against the unique field of its
    # degree with the brackets along the right-invariant fields, found by
    # exact elimination; engel's chart has two factors
    from carnot.cli import spec_constraint
    g, frame = named_algebra_frame(name)
    s, rep = full_prolongation(g, constrain_g0(strata_derivations(g),
                                               spec_constraint(named_spec(name))))
    assert rep.terminated
    fields = realize_tau(s, frame)
    assert [list(f.components) for f in fields] == realize_tau_by_elimination(s, frame)


def test_verify_names_the_pairs_of_a_corrupted_level_bracket():
    # heis_x_r (X3 central): sending X3 to X1 is no derivation, since
    # [X2, X3] = 0 but [X2, X1] = -Y.  Given that bracket in both
    # orientations, a level-0 element still has a field, which is no
    # realization: the homomorphism check, along the right-invariant fields
    # read off the law, names the pairs it breaks.  The series reads
    # [X3, D] only, and the check reads the pairs a < b, so a corrupted
    # [D, X3] alone would go unseen by both.
    import copy
    from carnot.cli import _homomorphism_check
    g, frame = named_algebra_frame("heis_x_r")
    s, _ = full_prolongation(g, conformal_g0(g))
    level = [a for a, key in enumerate(s.sbasis) if key[0] == "lev"]
    x1, x3 = (s.sbasis.index(("neg", g.names.index(n))) for n in ("X1", "X3"))
    translations = pushforward(frame.recipe.law, frame)
    assert _homomorphism_check(s, realize_tau(s, frame), frame, translations,
                               list(s.labels)) == (-1, [])
    for broken, pairs in (((1,), ["X2,D2", "X3,D2"]), ((0,), ["X2,D1", "X3,D1"]),
                          ((0, 1), ["X2,D1", "X2,D2", "X3,D1", "X3,D2"])):
        t = copy.copy(s)
        t.bracket_table = [list(row) for row in s.bracket_table]
        for b in broken:
            t.bracket_table[level[b]][x3] = ((x1, 1),)
            t.bracket_table[x3][level[b]] = ((x1, -1),)
        fields = realize_tau(t, frame)
        assert len(fields) == s.dim
        _, failures = _homomorphism_check(t, fields, frame, translations, list(t.labels))
        assert failures == [f"bracket mismatch at ({p})" for p in pairs], broken


def automorphism_flow_field(frame, dmap):
    """Reference for the degree-zero fields: the generator of the flow of
    exp(tD) acting on the group by automorphisms, in frame components.
    ``dmap`` holds the full rows of D.

    Only the t-linear part of the flow matters, so exp(tD) is applied to
    each factor argument as 1 + tD; higher t-orders cannot reach the first
    derivative.
    """
    recipe = frame.recipe
    n = recipe.algebra.dim
    ring_t, t_index = t_extended_ring(recipe)
    t = ring_t.var(t_index)
    coords = factorwise_image(recipe, [ring_t.var(i) for i in range(n)],
                              lambda arg: [a + t * b for a, b in zip(arg, apply_rows(dmap, arg))])
    # d/dt at t = 0, as a polynomial in x alone
    at_zero = [recipe.ring.var(i) for i in range(n)] + [recipe.ring.zero()]
    return frame.to_frame(substitute([c.diff(t_index) for c in coords], at_zero))


@pytest.mark.parametrize("name", BUNDLED + GENERATED)
def test_degree_zero_fields_are_the_automorphism_flows(name):
    # on the level-0 truncation g_- + g_0, a Lie algebra for every spec,
    # whether or not its tower terminates
    from carnot.cli import parse_spec_file, spec_constraint
    spec = parse_spec_file(spec_file(name))
    g, frame = named_algebra_frame(name)
    g0 = constrain_g0(strata_derivations(g), spec_constraint(spec))
    s = ProlongationAlgebra(g, [g0])
    fields = realize_tau(s, frame)
    assert g0.dim > 0
    for field, key in zip(fields, s.sbasis):
        if key[0] == "lev":
            dmap = degree_zero_matrix(g, g0.actions[key[2]])
            assert list(field.components) == automorphism_flow_field(frame, dmap)


# -- dilations ----------------------------------------------------------


def apply_map(pmap, point):
    """The image of a rational point under a polynomial map."""
    return [c.eval(list(point)) for c in pmap]


def at(polys, ring, params):
    """``polys``, polynomials in the ring of a family of maps, with the
    values ``params`` put in for the family's parameters (the variables
    before the last n = ``ring.nvars``) and the last n variables renamed
    to those of ``ring``."""
    return substitute(polys, [ring.const(x) for x in params]
                      + [ring.var(c) for c in range(ring.nvars)])


def dilation_at(recipe, scale):
    """The dilation of the given scale: the family :func:`dilations` with
    the scale put in, as its components in the recipe's ring."""
    return tuple(at(dilations(recipe), recipe.ring, [scale]))


def test_dilation_identity(engel_recipe):
    d = dilation_at(engel_recipe, 1)
    pt = [Fraction(3), Fraction(-2), Fraction(5, 7), Fraction(1, 3)]
    assert apply_map(d, pt) == pt


def test_dilation_weights(engel_recipe):
    d = dilation_at(engel_recipe, 2)
    assert apply_map(d, [1, 1, 1, 1]) == [2, 2, 4, 8]


def test_dilation_composition(engel_recipe, rng):
    lam, mu = Fraction(3, 2), Fraction(5, 7)
    d1, d2, d12 = dilation_at(engel_recipe, lam), dilation_at(engel_recipe, mu), \
        dilation_at(engel_recipe, lam * mu)
    for _ in range(5):
        p = rand_point(rng, 4)
        assert apply_map(d1, apply_map(d2, p)) == apply_map(d12, p)


def test_dilation_scales_frame_fields(engel, engel_recipe, engel_frame):
    # one column per horizontal frame field, deep columns not computed:
    # the family's pushforward scales frame field i by the scale to its
    # weight, and at the scale 3 it is the pushforward of that dilation
    family = dilations(engel_recipe)
    ring = family[0].ring
    assert ring.names == ("λ",) + engel_recipe.ring.names
    lam = ring.var(0)
    push = pushforward(family, engel_frame)
    assert len(push) == engel_frame.horizontal == 2
    for i, col in enumerate(push):
        w = -engel.weights[i]
        for j in range(4):
            assert col[j] == (lam ** w if i == j else ring.zero())
    three = [at(col, engel_frame.ring, [3]) for col in push]
    assert three == pushforward(dilation_at(engel_recipe, 3), engel_frame)
    assert all(three[i][j] == (3 ** -engel.weights[i] if i == j else 0)
               for i in range(2) for j in range(4))


def reference_pushforward(pmap, frame):
    """All n columns F(phi)^-1 J F: entry [j][i] is the frame-j component,
    at the image point, of the pushforward of frame field i."""
    n = len(frame)
    jac = jacobian_reference(pmap)
    image = list(pmap)
    # F(phi), the frame matrix at the image point: entry (c, j) is columns[j][c]
    moved = [substitute([frame.columns[j][c] for j in range(n)], image) for c in range(n)]
    result = [[None] * n for _ in range(n)]
    for i in range(n):
        push = [sum((jac[c][d] * frame.columns[i][d] for d in range(n)), frame.ring.zero())
                for c in range(n)]
        a = []
        for c in range(n):
            acc = push[c]
            for j in range(c):
                acc = acc - moved[c][j] * a[j]
            a.append(acc)
        for j in range(n):
            result[j][i] = a[j]
    return result


def reference_columns(pmap, frame):
    """The horizontal columns of :func:`reference_pushforward`, in the
    layout :func:`pushforward` returns."""
    reference = reference_pushforward(pmap, frame)
    return [[reference[j][i] for j in range(len(frame))] for i in range(frame.horizontal)]


# verify's anisotropic block diag(1, 2) does not extend on two_centre, whose
# brackets ask for a1 a3 = a2 a4 of a diagonal block; diag(1, 2, 2, 1) does
def similarity_maps(name, diagonal):
    """What verify checks for similarity: the family of left translations
    (the group law), the family of dilations, and the anisotropic
    automorphism with the given first-layer block."""
    g, frame = named_algebra_frame(name)
    recipe = frame.recipe
    m = frame.horizontal
    block = Matrix([[x if r == c else 0 for c in range(m)] for r, x in enumerate(diagonal)])
    automorphism = graded_automorphism(recipe, extend_first_layer_automorphism(g, block))
    return g, frame, [recipe.law, dilations(recipe), automorphism]


@pytest.mark.parametrize("name, diagonal", [
    ("engel", (1, 2)), ("cartan_235", (1, 2)), ("two_centre", (1, 2, 2, 1))])
def test_substitute_matches_subs_on_the_frame_entries(name, diagonal):
    # the composition the pushforward makes: every entry below the frame's
    # diagonal with the map put in for the coordinates
    g, frame, maps = similarity_maps(name, diagonal)
    entries = [x for row in frame._below for _, x in row]
    assert entries
    for pmap in maps:
        values = list(pmap)
        assert substitute(entries, values) == [subs_reference(x, values) for x in entries]


@pytest.mark.parametrize("name, diagonal", [
    ("engel", (1, 2)), ("cartan_235", (1, 2)), ("two_centre", (1, 2, 2, 1))])
def test_pushforward_matches_the_jacobian_reference(name, diagonal, rng):
    # a family's columns, with parameter values put in, are the reference
    # pushforward of the one map at those values
    g, frame, maps = similarity_maps(name, diagonal)
    for pmap in maps:
        cols = pushforward(pmap, frame)
        count = pmap[0].ring.nvars - g.dim
        for params in [rand_point(rng, count) for _ in range(3)] if count else [[]]:
            member = at(pmap, frame.ring, params)
            assert [at(col, frame.ring, params) for col in cols] == \
                reference_columns(member, frame)


@pytest.mark.parametrize("name, diagonal", [("engel", (1, 2)), ("two_centre", (1, 2, 2, 1))])
def test_frame_and_maps_share_the_recipe_ring(name, diagonal):
    # one ring object per recipe: the frame's and the automorphism's.  The
    # families have one ring object each, the parameters and then the
    # point, graded as the recipe's, and their pushforwards stay in it
    g, frame, maps = similarity_maps(name, diagonal)
    recipe = frame.recipe
    assert frame.ring is recipe.ring
    assert frame.algebra is recipe.algebra is g
    assert all(x.ring is recipe.ring for col in frame.columns for x in col)
    law, family, automorphism = maps
    assert law is recipe.law and law[0].ring.nvars == 2 * g.dim
    assert family[0].ring.names == ("λ",) + recipe.ring.names
    assert automorphism[0].ring is recipe.ring
    for pmap in maps:
        ring = pmap[0].ring
        assert isinstance(pmap, tuple) and len(pmap) == g.dim
        assert all(c.ring is ring for c in pmap)
        assert ring.weights[-g.dim:] == recipe.ring.weights
        assert all(x.ring is ring for col in pushforward(pmap, frame) for x in col)


# -- the translation family ---------------------------------------------


def _workload_specs():
    """The spec texts the benchmark generates, by file stem."""
    bench = str(Path(__file__).parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads").SPECS
    finally:
        sys.path.remove(bench)


WORKLOAD_SPECS = _workload_specs()
# every bundled spec (engel's is the two-factor recipe), every spec stored
# in tests/golden, and every spec of the benchmark's workloads
FAMILY_SPECS = ([("file", name) for name in BUNDLED]
                + [("file", path.stem) for path in sorted(GOLDEN.glob("*.alg"))]
                + [("workload", stem) for stem in WORKLOAD_SPECS])


def spec_frame(source, name):
    from carnot.cli import parse_spec_text, spec_algebra, spec_recipe
    text = WORKLOAD_SPECS[name] if source == "workload" else Path(spec_file(name)).read_text()
    spec = parse_spec_text(text)
    return left_invariant_frame(spec_recipe(spec, spec_algebra(spec)))


def specialized(family, frame, points):
    """The family's columns with each point put in for x, and y renamed to
    the coordinates of the frame's ring."""
    return [[at(col, frame.ring, p) for col in family] for p in points]


def reference_per_translation(frame, points):
    return [reference_columns(left_translation(frame.recipe, p), frame) for p in points]


@pytest.mark.parametrize("source, name", FAMILY_SPECS,
                         ids=[f"{source}-{name}" for source, name in FAMILY_SPECS])
def test_translation_pushforwards_specialize_the_family(source, name, rng):
    frame = spec_frame(source, name)
    law = frame.recipe.law
    family = pushforward(law, frame)
    law_ring = law[0].ring
    assert len(family) == frame.horizontal
    assert all(len(col) == len(frame) and all(x.ring is law_ring for x in col)
               for col in family)
    points = [rand_point(rng, len(frame)) for _ in range(10)]
    assert specialized(family, frame, points) == reference_per_translation(frame, points)
    # left translations are isometries: one identity in x and y says so
    # for every point
    assert conformal_factor(family, frame) == law_ring.one()


@pytest.mark.parametrize("name", ["engel", "heis_x_r", "cartan_235", "two_centre"])
def test_translation_pushforwards_on_a_right_invariant_frame(name, rng):
    # the right-invariant fields make a frame too, unit lower triangular,
    # on which left translations are not similarities: their columns are
    # not the identity, so the comparison is not one of constant columns
    g, left = named_algebra_frame(name)
    recipe = left.recipe
    frame = Frame(recipe, _flow_generators(recipe, right=True))
    family = pushforward(recipe.law, frame)
    points = [rand_point(rng, g.dim) for _ in range(10)]
    cols = specialized(family, frame, points)
    assert cols == reference_per_translation(frame, points)
    assert all(conformal_factor(c, frame) is None for c in cols)
    assert conformal_factor(family, frame) is None


# -- similarity ---------------------------------------------------------


def test_left_translations_are_similar(engel_recipe, engel_frame, rng):
    for _ in range(5):
        k = similarity_check(left_translation(engel_recipe, rand_point(rng, 4)), engel_frame)
        assert k == engel_frame.ring.one()


def test_dilation_similarity_scale(engel_recipe, engel_frame):
    # one factor for the whole family, the square of the scale, and at the
    # scale 5/3 the factor of that one dilation
    family = dilations(engel_recipe)
    lam = family[0].ring.var(0)
    assert similarity_check(family, engel_frame) == lam * lam
    k = similarity_check(dilation_at(engel_recipe, Fraction(5, 3)), engel_frame)
    assert k == engel_frame.ring.const(Fraction(25, 9))


@pytest.mark.parametrize("exponent, factor", [(lambda w: 2 * w, 4), (lambda w: 1, None)],
                         ids=["square-weights", "flat"])
def test_a_misweighted_family_has_another_factor(engel_recipe, engel_frame, exponent, factor):
    # scaled by lambda^(2w) the family is still a similarity, with the
    # factor lambda^4; scaled by lambda flat it is no automorphism, and not
    # contact
    ring = dilations(engel_recipe)[0].ring
    lam = ring.var(0)
    family = tuple(lam ** exponent(w) * ring.var(1 + c)
                   for c, w in enumerate(engel_recipe.coord_weights))
    k = similarity_check(family, engel_frame)
    assert k == (None if factor is None else lam ** factor)


def test_anisotropic_automorphism_not_similar(engel, engel_recipe, engel_frame):
    phi = extend_first_layer_automorphism(engel, Matrix([[1, 0], [0, 2]]))
    expected = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert phi == Matrix(expected)
    assert similarity_check(graded_automorphism(engel_recipe, phi), engel_frame) is None


# engel is the one spec with a two-factor recipe; free_3_2 is free, so its
# non-diagonal block extends
@pytest.mark.parametrize("name, block", [
    ("engel", [[1, 0], [0, 2]]), ("engel", [[1, 0], [3, 2]]), ("cartan_235", [[1, 0], [0, 2]]),
    ("two_centre", [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
    ("free_3_2", [[1, 2, 0], [0, 1, 1], [1, 0, 1]])])
def test_graded_automorphism_matches_the_factorwise_fold(name, block):
    g, frame = named_algebra_frame(name)
    phi = extend_first_layer_automorphism(g, Matrix(block))
    pmap = graded_automorphism(frame.recipe, phi)
    reference = factorwise_automorphism(frame.recipe, phi)
    assert len(pmap) == len(reference) == g.dim
    for got, expect in zip(pmap, reference):
        assert got == expect


def test_swap_block_does_not_extend(engel):
    with pytest.raises(ValueError):
        extend_first_layer_automorphism(engel, Matrix([[0, 1], [1, 0]]))


def failed_condition(pmap, frame):
    """Reference for the first similarity condition the map fails, or None:
    "contact", "off-diagonal", "diagonal" or "scale", read off the full
    Gram matrix of the pushforward."""
    m = frame.horizontal
    cols = pushforward(pmap, frame)
    if any(not x.is_zero() for col in cols for x in col[m:]):
        return "contact"
    gram = [[sum((col[r] * col[s] for col in cols), frame.ring.zero()) for s in range(m)]
            for r in range(m)]
    if any(not gram[r][s].is_zero() for r in range(m) for s in range(m) if r != s):
        return "off-diagonal"
    if any(gram[r][r] != gram[0][0] for r in range(m)):
        return "diagonal"
    return "scale" if gram[0][0].is_zero() else None


def automorphism(block):
    return lambda recipe, x, zero: graded_automorphism(
        recipe, extend_first_layer_automorphism(recipe.algebra, Matrix(block)))


# engel's block [[1, 0], [3, 2]] extends; the last three maps have
# identically singular Jacobians, and fail without raising
@pytest.mark.parametrize("make_map, condition", [
    (lambda recipe, x, zero: (x[0], x[1], x[2] + x[0], x[3]), "contact"),
    (automorphism([[1, 0], [3, 2]]), "off-diagonal"),
    (automorphism([[1, 0], [0, 2]]), "diagonal"),
    (lambda recipe, x, zero: (x[0],) * 4, "contact"),
    (lambda recipe, x, zero: (zero,) * 4, "scale"),
    (lambda recipe, x, zero: (x[0], x[1], zero, zero), "contact"),
], ids=["shear", "off-diagonal", "unequal-diagonal", "x1-everywhere", "zero", "x1-x2-0-0"])
def test_similarity_verdicts(engel_recipe, engel_frame, make_map, condition):
    ring = engel_recipe.ring
    pmap = make_map(engel_recipe, [ring.var(i) for i in range(4)], ring.zero())
    assert failed_condition(pmap, engel_frame) == condition
    assert similarity_check(pmap, engel_frame) is None


def test_pushforward_of_a_map_singular_on_a_hyperplane(engel_recipe, engel_frame):
    ring = engel_recipe.ring
    x = [ring.var(i) for i in range(4)]
    a = Fraction(1, 2)
    # det of the Jacobian is 2 (x1 - a): zero on x1 = a, not identically
    pmap = ((x[0] - a) ** 2, x[1], x[2], x[3])
    push = pushforward(pmap, engel_frame)
    assert push[0][0] == 2 * (x[0] - a)
    assert push == reference_columns(pmap, engel_frame)


def test_recipe_partition_enforced(engel):
    with pytest.raises(ValueError):
        CoordinateRecipe.from_factor_names(engel, [["X1", "X2"], ["Y"]])
    with pytest.raises(ValueError):
        CoordinateRecipe.from_factor_names(engel, [["X1", "X2", "Y", "Z", "Z"]])
