from fractions import Fraction

import pytest

from carnot.exact_linalg import Matrix
from carnot.graded_lie import build_algebra
from carnot.prolongation import full_prolongation
from carnot.group_realization import (CoordinateRecipe, NonpositiveScale, NotInvertible,
                                      NotRealizable, NotTerminated, PolyMap, UnsupportedStep,
                                      bch, dilation, extend_first_layer_automorphism,
                                      graded_automorphism, group_inverse, group_product,
                                      left_invariant_frame, left_translation, realize_tau,
                                      similarity_check, pushforward_in_frame)
from carnot.polynomials import Poly
from .conftest import (BUNDLED, GENERATED, conformal_g0, make_abelian, make_heisenberg,
                       named_algebra_frame, permuted, rand_point)


# -- truncated BCH ------------------------------------------------------


def test_bch_engel_generators(engel):
    # frozen by expanding a + b + [a,b]/2 + ([a,[a,b]] + [b,[b,a]])/12 with
    # [X1,X2] = Y, [X1,[X1,X2]] = Z, [X2,[X2,X1]] = 0
    out = bch(engel, engel.basis_vector(0), engel.basis_vector(1))
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
        bch(g, g.basis_vector(0), g.basis_vector(1))


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
        left_invariant_frame(shuffled, CoordinateRecipe.single_factor(shuffled))


def test_apply_matches_the_derivative_sum(rng):
    # the monomial table against sum_c matrix[c][j] d/dx_c f, on repeated
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
                        expect = expect + frame.matrix[c][j] * f.diff(c)
                    assert frame.apply(j, f) == expect


def test_frame_conversion_roundtrip(engel_frame, rng):
    ring = engel_frame.ring
    comps = [ring.var(0) ** 2, ring.var(2), ring.one(), ring.var(0) * ring.var(1)]
    frame_comps = engel_frame.to_frame(comps)
    assert engel_frame.to_coords(frame_comps) == comps


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
        assert field.basis == "frame"
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
    coords = [engel_frame.to_coords(list(f.components)) for f in engel_tau]
    eps = None
    for a in range(algebra.dim):
        for b in range(a + 1, algebra.dim):
            lhs = vf_bracket(coords[a], coords[b])
            rhs = [ring.zero()] * 4
            for i, c in enumerate(algebra.bracket(a, b)):
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
        realize_tau(s, left_invariant_frame(g, CoordinateRecipe.single_factor(g)))


def test_tau_rejects_positive_levels():
    g = make_heisenberg()
    s, rep = full_prolongation(g, conformal_g0(g))
    with pytest.raises(NotRealizable):
        realize_tau(s, left_invariant_frame(g, CoordinateRecipe.single_factor(g)))


# -- dilations ----------------------------------------------------------


def test_dilation_identity(engel_recipe):
    d = dilation(engel_recipe, 1)
    pt = [Fraction(3), Fraction(-2), Fraction(5, 7), Fraction(1, 3)]
    assert d.apply(pt) == pt


def test_dilation_weights(engel_recipe):
    d = dilation(engel_recipe, 2)
    assert d.apply([1, 1, 1, 1]) == [2, 2, 4, 8]


def test_dilation_composition(engel_recipe, rng):
    lam, mu = Fraction(3, 2), Fraction(5, 7)
    d1, d2, d12 = dilation(engel_recipe, lam), dilation(engel_recipe, mu), \
        dilation(engel_recipe, lam * mu)
    for _ in range(5):
        p = rand_point(rng, 4)
        assert d1.apply(d2.apply(p)) == d12.apply(p)


def test_dilation_rejects_nonpositive(engel_recipe):
    with pytest.raises(NonpositiveScale):
        dilation(engel_recipe, 0)
    with pytest.raises(NonpositiveScale):
        dilation(engel_recipe, Fraction(-2))


def test_dilation_scales_frame_fields(engel, engel_recipe, engel_frame):
    lam = Fraction(3)
    push = pushforward_in_frame(dilation(engel_recipe, lam), engel_frame)
    for i in range(4):
        w = -engel.weights[i]
        for j in range(4):
            expect = engel_frame.ring.const(lam ** w) if i == j else engel_frame.ring.zero()
            assert push[j][i] == expect


# -- similarity ---------------------------------------------------------


def test_left_translations_are_similar(engel_recipe, engel_frame, rng):
    for _ in range(5):
        res = similarity_check(left_translation(engel_recipe, rand_point(rng, 4)), engel_frame)
        assert res.ok
        assert res.scale == engel_frame.ring.one()


def test_dilation_similarity_scale(engel_recipe, engel_frame):
    lam = Fraction(5, 3)
    res = similarity_check(dilation(engel_recipe, lam), engel_frame)
    assert res.ok
    assert res.scale == engel_frame.ring.const(lam * lam)


def test_anisotropic_automorphism_not_similar(engel, engel_recipe, engel_frame):
    phi = extend_first_layer_automorphism(engel, Matrix([[1, 0], [0, 2]]))
    expected = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert phi == Matrix(expected)
    assert not similarity_check(graded_automorphism(engel_recipe, phi), engel_frame)


def test_swap_block_does_not_extend(engel):
    with pytest.raises(ValueError):
        extend_first_layer_automorphism(engel, Matrix([[0, 1], [1, 0]]))


def test_not_invertible(engel_recipe, engel_frame):
    ring = engel_recipe.ring
    comps = tuple(ring.var(0) for _ in range(4))
    with pytest.raises(NotInvertible):
        similarity_check(PolyMap(engel_recipe, comps), engel_frame)


def counted_poly_det(monkeypatch):
    """Record each call of the symbolic determinant expansion."""
    from carnot import group_realization
    calls = []
    original = group_realization._poly_det

    def counting(rows, ring):
        calls.append(len(rows))
        return original(rows, ring)

    monkeypatch.setattr(group_realization, "_poly_det", counting)
    return calls


def test_jacobian_zero_at_the_probe_falls_back_to_the_expansion(engel_recipe, engel_frame,
                                                                 monkeypatch):
    from carnot.group_realization import _jacobian_probe
    calls = counted_poly_det(monkeypatch)
    ring = engel_recipe.ring
    x = [ring.var(i) for i in range(4)]
    a = _jacobian_probe(4)[0]
    # det of the Jacobian is 2 (x1 - a): zero at the probe, not identically
    pmap = PolyMap(engel_recipe, ((x[0] - a) ** 2, x[1], x[2], x[3]))
    push = pushforward_in_frame(pmap, engel_frame)
    # the expansion recurses through its minors
    assert calls[:1] == [4]
    assert push[0][0] == 2 * (x[0] - a)


def test_jacobian_nonzero_at_the_probe_skips_the_expansion(engel_recipe, engel_frame, rng,
                                                           monkeypatch):
    calls = counted_poly_det(monkeypatch)
    for pmap in (left_translation(engel_recipe, rand_point(rng, 4)),
                 dilation(engel_recipe, Fraction(2, 3))):
        assert similarity_check(pmap, engel_frame).ok
    assert calls == []


def test_recipe_partition_enforced(engel):
    with pytest.raises(ValueError):
        CoordinateRecipe.from_factor_names(engel, [["X1", "X2"], ["Y"]])
    with pytest.raises(ValueError):
        CoordinateRecipe.from_factor_names(engel, [["X1", "X2", "Y", "Z", "Z"]])
