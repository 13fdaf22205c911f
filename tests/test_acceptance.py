"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import random
from fractions import Fraction

from carnot.exact_linalg import Matrix
from carnot.prolongation import full_prolongation, strata_derivations
from carnot.group_realization import (CoordinateRecipe, PolyVectorField, dilations,
                                      extend_first_layer_automorphism, graded_automorphism,
                                      left_invariant_frame, similarity_check)
from carnot.contact_pde import (conformal_defect, contact_defect, jet, jet_jacobi_check, same_span,
                                solve_polynomial_conformal, vf_bracket)
from .conftest import (CONFORMAL, action_vector, conformal_g0, dense_bracket, jacobiator,
                       jet_at, left_translation, make_abelian, make_heisenberg, rand_point,
                       to_coords, zero_matrices)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_engel_g0(engel):
    g0 = conformal_g0(engel)
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    ok = g0.dim == 1 and zero_matrices(g0)[0] == expected
    report(1, ok, "g0 is one-dimensional with basis exactly diag{1,1,2,3}")


def test_criterion_02_engel_termination(engel_prolongation):
    algebra, rep = engel_prolongation
    ok = (rep.terminated_at == 1 and rep.level_dims == (1, 0)
          and rep.total_dim == 5 and algebra.dim == 5)
    report(2, ok, "first level vanishes, termination at k=1, total dimension 5")


def test_criterion_03_frame_display(engel, engel_frame):
    ring = engel_frame.ring
    x1 = ring.var(0)
    zero, one = ring.zero(), ring.one()
    expected = [
        [one, zero, zero, zero],
        [zero, one, x1, Fraction(1, 2) * x1 ** 2],
        [zero, zero, one, x1],
        [zero, zero, zero, one],
    ]
    ok = [list(col) for col in engel_frame.columns] == expected
    report(3, ok, "left-invariant frame equals the four displayed fields exactly")


def test_criterion_04_tau_table(engel_prolongation, engel_tau):
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
    ok = all(field.components == expected[label]
             for label, field in zip(algebra.labels, engel_tau))
    report(4, ok, "realized fields equal the five-field table coefficient for coefficient")


def test_criterion_05_defects_and_jets(engel, engel_frame, engel_levels, engel_tau):
    g0 = conformal_g0(engel)
    ders = strata_derivations(engel)
    rng = random.Random(5)
    ok = True
    for field in engel_tau:
        if not contact_defect(field, engel_frame).all_zero:
            ok = False
        if not conformal_defect(field, engel_frame, CONFORMAL).all_zero:
            ok = False
        symbolic = jet(field, engel_frame, engel_levels)
        # the identities, then the jet at 5 random points per field
        points = set()
        while len(points) < 5:
            points.add(tuple(rand_point(rng, 4)))
        for jt in [symbolic] + [jet_at(symbolic, p) for p in sorted(points)]:
            if g0.coordinates_of_values(jt.parts[0]) is None:
                ok = False
            if not jt.part_is_zero(1):
                ok = False
            if not jet_jacobi_check(jt, ders):
                ok = False
    report(5, ok, "defects identically zero; jets in span{diag(1,1,2,3)} with zero "
                  "degree-one part, as identities and at 5 random points per field")


def test_criterion_06_engel_oracle(engel_frame, engel_tau):
    sol = solve_polynomial_conformal(engel_frame, CONFORMAL, 6)
    ok = sol.dim == 5 and same_span(sol.fields, engel_tau)
    for degree in (3, 4, 5):
        ok = ok and solve_polynomial_conformal(engel_frame, CONFORMAL, degree).dim == 5
    report(6, ok, "degree-6 ansatz space is 5-dimensional, equals the realized span, "
                  "stable over degrees 3-6")


def test_criterion_07_heisenberg_agreement():
    g = make_heisenberg()
    _, rep = full_prolongation(g, conformal_g0(g))
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    oracle_dim = solve_polynomial_conformal(frame, CONFORMAL, 4).dim
    ok = (rep.level_dims == (2, 2, 1, 0) and rep.terminated_at == 3
          and rep.total_dim == 8 and oracle_dim == rep.total_dim)
    report(7, ok, f"prolongation total {rep.total_dim} with levels {list(rep.level_dims)} "
                  f"agrees with the degree-4 ansatz ({oracle_dim})")


def test_criterion_08_r3_agreement():
    g = make_abelian(3)
    _, rep = full_prolongation(g, conformal_g0(g))
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    oracle_dim = solve_polynomial_conformal(frame, CONFORMAL, 3).dim
    ok = rep.total_dim == 10 and rep.terminated_at == 2 and oracle_dim == rep.total_dim
    report(8, ok, f"prolongation total {rep.total_dim}, terminated at 2, "
                  f"agrees with the degree-3 ansatz ({oracle_dim})")


def test_criterion_09_non_rigid_towers():
    g2 = make_abelian(2)
    _, rep2 = full_prolongation(g2, conformal_g0(g2), max_k=6)
    g1 = make_abelian(1)
    _, rep1 = full_prolongation(g1, conformal_g0(g1), max_k=6)
    ok = (rep2.status == "cutoff_reached" and rep2.level_dims == (2,) * 7
          and rep1.status == "cutoff_reached" and rep1.level_dims == (1,) * 7)
    report(9, ok, "co(2) and co(1) towers reach the cutoff with constant level dimensions")


def test_criterion_10_jacobi_suite(engel_prolongation):
    algebra, _ = engel_prolongation
    n = algebra.dim
    ok = n == 5
    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]
    ok = ok and len(triples) == 10
    for a, b, c in triples:
        if jacobiator(algebra, a, b, c):
            ok = False
    for a, key in enumerate(algebra.sbasis):
        if key[0] != "lev":
            continue
        for b, bkey in enumerate(algebra.sbasis):
            if bkey[0] == "neg" and dense_bracket(algebra, a, b) != action_vector(algebra, a, b):
                ok = False
    report(10, ok, "Jacobi exact on all 10 triples and [u,X] = u(X) on all mixed pairs")


def test_criterion_11_contact_family(engel_frame):
    ring = engel_frame.ring
    ok = True
    for k in range(0, 7):
        f = ring.var(0) ** k
        df = engel_frame.apply(0, f)
        ddf = engel_frame.apply(0, df)
        # vertical-compatibility sign: the Y-slot carries -X1 f
        field = PolyVectorField((ring.zero(), ddf, -df, f))
        if not contact_defect(field, engel_frame).all_zero:
            ok = False
        conformal_ok = conformal_defect(field, engel_frame, CONFORMAL).all_zero
        if conformal_ok != (k <= 2):
            ok = False
    report(11, ok, "monomial family contact for k=0..6 and conformal exactly for k<=2")


def test_criterion_12_similarities(engel, engel_recipe, engel_frame):
    rng = random.Random(12)
    ok = True
    if similarity_check(engel_recipe.law, engel_frame) != 1:
        ok = False
    for _ in range(10):
        if similarity_check(left_translation(engel_recipe, rand_point(rng, 4)),
                            engel_frame) is None:
            ok = False
    family = dilations(engel_recipe)
    lam = family[0].ring.var(0)
    if similarity_check(family, engel_frame) != lam * lam:
        ok = False
    phi = extend_first_layer_automorphism(engel, Matrix([[1, 0], [0, 2]]))
    if similarity_check(graded_automorphism(engel_recipe, phi), engel_frame) is not None:
        ok = False
    report(12, ok, "the translation family similar with k = 1, as are 10 random translations, "
                   "the dilation family similar with k = lambda^2, "
                   "diag(1,2) automorphism not similar")


def test_criterion_13_homomorphism_sign(engel_prolongation, engel_frame, engel_tau):
    algebra, _ = engel_prolongation
    ring = engel_frame.ring
    coords = [to_coords(engel_frame, f.components) for f in engel_tau]
    epsilon = None
    ok = True
    pairs = 0
    for a in range(algebra.dim):
        for b in range(a + 1, algebra.dim):
            pairs += 1
            lhs = vf_bracket(coords[a], coords[b])
            rhs = [ring.zero()] * 4
            for i, c in enumerate(dense_bracket(algebra, a, b)):
                if c:
                    rhs = [x + c * y for x, y in zip(rhs, coords[i])]
            if all(r.is_zero() for r in rhs):
                if not all(l.is_zero() for l in lhs):
                    ok = False
                continue
            matched = [cand for cand in (Fraction(1), Fraction(-1))
                       if all((l - cand * r).is_zero() for l, r in zip(lhs, rhs))]
            if not matched:
                ok = False
            elif epsilon is None:
                epsilon = matched[0]
            elif epsilon not in matched:
                ok = False
    ok = ok and pairs == 10 and epsilon in (Fraction(1), Fraction(-1))
    report(13, ok, f"single global sign epsilon = {epsilon} on all 10 basis pairs")
