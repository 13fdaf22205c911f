import random
from fractions import Fraction

import pytest

from carnot.graded_lie import (GenerationFailure, GradedLieAlgebra, build_algebra,
                               check_generation, table_violation)
from carnot.prolongation import (JacobiAssemblyFailure, Level, PriorLevelsMissing,
                                 full_prolongation, prolong_step)
from carnot.group_realization import CoordinateRecipe, left_invariant_frame
from carnot.contact_pde import conformal_fields_of_degree
from .conftest import (conformal_g0, make_abelian, make_engel, make_heisenberg, make_heisenberg_n,
                       permuted)


def test_engel_first_level_vanishes(engel):
    lvl0 = conformal_g0(engel)
    assert prolong_step(engel, [lvl0], 1).dim == 0


def test_abelian_r3_first_level():
    g = make_abelian(3)
    lvl0 = conformal_g0(g)
    lvl1 = prolong_step(g, [lvl0], 1)
    assert lvl1.dim == 3
    # oracle: homogeneous conformal fields of matching graded degree
    frame = left_invariant_frame(g, CoordinateRecipe.single_factor(g))
    assert len(conformal_fields_of_degree(frame, 1)) == 3


def test_abelian_r1_levels_never_die():
    g = make_abelian(1)
    levels = [conformal_g0(g)]
    for k in range(1, 5):
        lvl = prolong_step(g, levels, k)
        assert lvl.dim == 1
        levels.append(lvl)


def test_prior_levels_missing():
    g = make_engel()
    lvl0 = conformal_g0(g)
    with pytest.raises(PriorLevelsMissing):
        prolong_step(g, [lvl0], 2)
    with pytest.raises(PriorLevelsMissing):
        prolong_step(g, [lvl0], 0)
    with pytest.raises(ValueError):
        prolong_step(g, [], -1)


def bracket_local(g, levels, coords, d, j):
    """[x, e_j] for x given by local coordinates in the degree-d space."""
    from carnot.prolongation import _space_dim, _unit_brackets
    out = [Fraction(0)] * _space_dim(g, levels, d + g.weights[j])
    for x, terms in zip(coords, _unit_brackets(g, levels, d, j)):
        for t, c in terms:
            out[t] += x * c
    return out


def test_leibniz_law_on_computed_levels():
    g = make_heisenberg()
    levels = [conformal_g0(g)]
    for k in (1, 2):
        lvl = prolong_step(g, levels, k)
        for b in range(lvl.dim):
            for j1 in range(g.dim):
                for j2 in range(j1 + 1, g.dim):
                    lhs_target = g.weights[j1] + g.weights[j2] + k
                    lhs = None
                    for r, c in g.rows[j1][j2]:
                        term = [c * x for x in lvl.action(b, r)]
                        lhs = term if lhs is None else [p + q for p, q in zip(lhs, term)]
                    rhs1 = bracket_local(g, levels, lvl.action(b, j1),
                                          g.weights[j1] + k, j2)
                    rhs2 = bracket_local(g, levels, lvl.action(b, j2),
                                          g.weights[j2] + k, j1)
                    rhs = [p - q for p, q in zip(rhs1, rhs2)]
                    if lhs is None:
                        lhs = [Fraction(0)] * len(rhs)
                    assert lhs == rhs
        levels.append(lvl)


def test_full_prolongation_engel(engel):
    s, rep = full_prolongation(engel, conformal_g0(engel))
    assert rep.status == "terminated"
    assert rep.terminated_at == 1
    assert rep.level_dims == (1, 0)
    assert rep.total_dim == 5
    assert s.dim == 5
    assert s.labels == ("Z", "Y", "X1", "X2", "D1")
    s.verify()


def test_full_prolongation_heisenberg():
    g = make_heisenberg()
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.terminated_at == 3
    assert rep.level_dims == (2, 2, 1, 0)
    assert rep.total_dim == 8
    s.verify()
    # oracle: level dims equal homogeneous conformal field counts
    frame = left_invariant_frame(g, CoordinateRecipe.single_factor(g))
    for k, d in enumerate(rep.level_dims):
        assert len(conformal_fields_of_degree(frame, k)) == d


def test_full_prolongation_r3():
    g = make_abelian(3)
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.terminated_at == 2
    assert rep.level_dims == (4, 3, 0)
    assert rep.total_dim == 10
    s.verify()


def test_full_prolongation_r2_cutoff():
    g = make_abelian(2)
    s, rep = full_prolongation(g, conformal_g0(g), max_k=6)
    assert rep.status == "cutoff_reached"
    assert rep.terminated_at is None
    assert rep.level_dims == (2,) * 7
    assert s.bracket_table is None


def test_engel_jacobi_all_triples(engel):
    s, _ = full_prolongation(engel, conformal_g0(engel))
    n = s.dim
    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]
    assert len(triples) == 10
    for a, b, c in triples:
        j1 = s.bracket_vec(s._unit(a), s.bracket(b, c))
        j2 = s.bracket_vec(s._unit(b), s.bracket(c, a))
        j3 = s.bracket_vec(s._unit(c), s.bracket(a, b))
        assert all(x + y + z == 0 for x, y, z in zip(j1, j2, j3))


def test_action_consistency_mixed_pairs(engel):
    s, _ = full_prolongation(engel, conformal_g0(engel))
    g = engel
    for a, key in enumerate(s.sbasis):
        if key[0] != "lev":
            continue
        _, k, p = key
        for b, bkey in enumerate(s.sbasis):
            if bkey[0] != "neg":
                continue
            j = bkey[1]
            expected = s._embed_value(s.levels[k].action(p, j), g.weights[j] + k)
            assert s.bracket(a, b) == expected
            assert s.bracket(b, a) == [-x for x in expected]


def test_engel_bracket_table_values(engel):
    s, _ = full_prolongation(engel, conformal_g0(engel))
    iD = s.index_of_name("D1")
    for name, scale in (("X1", 1), ("X2", 1), ("Y", 2), ("Z", 3)):
        i = s.index_of_name(name)
        expect = [Fraction(0)] * s.dim
        expect[i] = Fraction(scale)
        assert s.bracket(iD, i) == expect


def test_termination_valid():
    # a zero level licenses stopping exactly when layer -1 generates
    assert check_generation(make_engel())
    assert check_generation(make_heisenberg())
    bad = GradedLieAlgebra(["A", "B"], [-1, -2], [[(), ()], [(), ()]])
    assert not check_generation(bad)
    with pytest.raises(GenerationFailure):
        full_prolongation(bad, conformal_g0(make_abelian(1)))


def test_determinism_of_levels():
    g = make_heisenberg()
    s1, r1 = full_prolongation(g, conformal_g0(g))
    s2, r2 = full_prolongation(g, conformal_g0(g))
    assert r1 == r2
    for l1, l2 in zip(s1.levels, s2.levels):
        assert l1.subspace == l2.subspace
        assert l1.actions == l2.actions
    assert s1.bracket_table == s2.bracket_table


def test_closed_g0_required_for_assembly():
    # a degree-zero space that is not closed under commutators must be
    # detected while the bracket table is assembled
    from carnot.exact_linalg import Subspace
    from carnot.prolongation import ProlongationAlgebra
    g = make_abelian(2)
    # span{E12, E21} in the level-0 layout (the block row by row): the
    # commutator diag(1,-1) leaves the span
    ders = prolong_step(g, [], 0)
    vectors = [{1: 1}, {2: 1}]
    lvl0 = Level(g, 0, Subspace.from_vectors(vectors, 4), ders.columns)
    with pytest.raises(JacobiAssemblyFailure):
        ProlongationAlgebra(g, [lvl0], build_table=True)


def make_cartan_235():
    return build_algebra([["X1", "X2"], ["Y"], ["Z1", "Z2"]],
                         {("X1", "X2"): [(1, "Y")], ("X1", "Y"): [(1, "Z1")],
                          ("X2", "Y"): [(1, "Z2")]})


@pytest.mark.parametrize("make, order", [
    (make_engel, [0, 3, 1, 2]),       # X1 Z X2 Y
    (make_heisenberg, [2, 0, 1]),     # Y X1 X2
    (make_heisenberg, [1, 2, 0]),     # X2 Y X1
    (make_cartan_235, [3, 0, 2, 4, 1]),   # Z1 X1 Y Z2 X2
    (make_cartan_235, [4, 1, 2, 0, 3]),   # Z2 X2 Y X1 Z1
])
def test_interleaved_layers_prolong_like_contiguous_ones(make, order):
    # layers need not be contiguous blocks of the basis of a directly built algebra
    g = make()
    shuffled = permuted(g, order)
    assert check_generation(shuffled)
    s, rep = full_prolongation(shuffled, conformal_g0(shuffled))
    ref_s, ref = full_prolongation(g, conformal_g0(g))
    assert rep == ref
    assert sorted(s.labels) == sorted(ref_s.labels)


# -- closed forms on whole families ------------------------------------------


@pytest.mark.parametrize("n", range(3, 7))
def test_liouville_closed_form(n):
    # R^n with co(n) prolongs to so(n+1,1)
    g = make_abelian(n)
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.level_dims == (n * (n - 1) // 2 + 1, n, 0)
    assert rep.total_dim == s.dim == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("n", [1, 2])
def test_koranyi_reimann_closed_form(n):
    # H_n with the conformal g0 prolongs to su(n+1,1)
    g = make_heisenberg_n(n)
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.level_dims == (n * n + 1, 2 * n, 1, 0)
    assert rep.total_dim == s.dim == (n + 2) ** 2 - 1


# -- the sparse table and its exhaustive, weight-pruned check ----------------


def _r3_algebra():
    g = make_abelian(3)
    s, _ = full_prolongation(g, conformal_g0(g))
    s.bracket_table = [list(row) for row in s.bracket_table]
    return s


def _put(s, a, b, row, both=True):
    s.bracket_table[a][b] = row
    if both:
        s.bracket_table[b][a] = tuple((k, -c) for k, c in row)


def _add_term(row, k, c):
    terms = dict(row)
    terms[k] = terms.get(k, 0) + c
    return tuple(sorted((i, x) for i, x in terms.items() if x))


def test_bracket_table_is_sparse_and_sorted():
    s = _r3_algebra()
    for a in range(s.dim):
        for b in range(s.dim):
            row = s.bracket_table[a][b]
            assert [k for k, _ in row] == sorted({k for k, _ in row})
            assert all(c != 0 for _, c in row)
            assert s.bracket(a, b) == [dict(row).get(k, 0) for k in range(s.dim)]


def test_verify_rejects_live_level_slot_perturbation():
    s = _r3_algebra()
    a = s.index_of_name("D1")
    b = s.index_of_name("u1_1")
    target = s.weights.index(s.weights[a] + s.weights[b])
    _put(s, a, b, _add_term(s.bracket_table[a][b], target, Fraction(1)))
    with pytest.raises(JacobiAssemblyFailure, match="Jacobi fails on"):
        s.verify()


def test_verify_rejects_wrong_weight_slot():
    s = _r3_algebra()
    wrong = s.weights.index(0)  # [X1,X2] must have weight -2
    _put(s, 0, 1, ((wrong, Fraction(1)),))
    with pytest.raises(JacobiAssemblyFailure, match=r"grading fails at \(0,1\)"):
        s.verify()


def test_verify_rejects_broken_antisymmetry():
    s = _r3_algebra()
    _put(s, 0, 1, ((0, Fraction(1)),), both=False)
    with pytest.raises(JacobiAssemblyFailure, match=r"antisymmetry fails at \(0,1\)"):
        s.verify()


def _dense_violation(rows, weights):
    """Unpruned dense reference for ``table_violation``."""
    n = len(rows)
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, c in rows[a][b]:
                dense[a][b][k] = c
    for a in range(n):
        if any(dense[a][a]):
            return ("antisymmetry", a, a, a)
        for b in range(a + 1, n):
            if any(x + y for x, y in zip(dense[a][b], dense[b][a])):
                return ("antisymmetry", a, b, b)
    for a in range(n):
        for b in range(n):
            for k in range(n):
                if dense[a][b][k] and weights[k] != weights[a] + weights[b]:
                    return ("grading", a, b, k)

    def outer(a, v):
        out = [0] * n
        for m, x in enumerate(v):
            for k in range(n):
                out[k] += x * dense[a][m][k]
        return out

    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                terms = zip(outer(a, dense[b][c]), outer(b, dense[c][a]), outer(c, dense[a][b]))
                if any(x + y + z for x, y, z in terms):
                    return ("jacobi", a, b, c)
    return None


@pytest.mark.parametrize("make", [lambda: make_abelian(3), make_heisenberg])
def test_pruned_check_matches_dense_reference(make):
    g = make()
    s, _ = full_prolongation(g, conformal_g0(g))
    weights = s.weights
    rng = random.Random(7)
    assert table_violation(s.bracket_table, weights) is None
    assert _dense_violation(s.bracket_table, weights) is None
    outcomes = set()
    for _ in range(40):
        rows = [list(r) for r in s.bracket_table]
        a, b = sorted(rng.sample(range(s.dim), 2))
        if rng.random() < 0.8:
            live = [k for k, w in enumerate(weights) if w == weights[a] + weights[b]]
            k = rng.choice(live or range(s.dim))
        else:
            k = rng.randrange(s.dim)
        rows[a][b] = _add_term(rows[a][b], k, Fraction(rng.choice([-2, -1, 1, 3])))
        if rng.random() < 0.9:
            rows[b][a] = tuple((i, -c) for i, c in rows[a][b])
        found = table_violation(rows, weights)
        assert found == _dense_violation(rows, weights)
        outcomes.add(found and found[0])
    assert {"antisymmetry", "grading", "jacobi"} <= outcomes
