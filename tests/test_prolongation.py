import random
from fractions import Fraction

import pytest
import sympy

import carnot.prolongation
from carnot.cli import parse_spec_text
from carnot.graded_lie import build_algebra, table_violation
from carnot.prolongation import (GZeroConstraint, JacobiAssemblyFailure, Level,
                                 PriorLevelsMissing, constrain_g0, full_prolongation,
                                 prolong_step, strata_derivations)
from carnot.group_realization import CoordinateRecipe, left_invariant_frame
from carnot.contact_pde import conformal_fields_of_degree
from .conftest import (BUNDLED, CONFORMAL, FULL_DERIVATIONS, GENERATED, TERMINATING,
                       action_vector, assert_int_when_integral, conformal_g0, dense_action,
                       dense_bracket, free_step_two_spec, jacobiator, make_abelian, make_engel,
                       make_heisenberg, make_heisenberg_n, named_spec, permuted,
                       reference_bracket_table, scale_family_text, sparse_values, spec_file,
                       spec_tower)


def test_engel_first_level_vanishes(engel):
    lvl0 = conformal_g0(engel)
    assert prolong_step(engel, [lvl0], 1).dim == 0


def test_abelian_r3_first_level():
    g = make_abelian(3)
    lvl0 = conformal_g0(g)
    lvl1 = prolong_step(g, [lvl0], 1)
    assert lvl1.dim == 3
    # oracle: homogeneous conformal fields of matching graded degree
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    assert len(conformal_fields_of_degree(frame, CONFORMAL, 1)) == 3


def test_abelian_r1_levels_never_die():
    g = make_abelian(1)
    levels = [conformal_g0(g)]
    for k in range(1, 5):
        lvl = prolong_step(g, levels, k)
        assert lvl.dim == 1
        levels.append(lvl)


LEIBNIZ_RANK_CASES = {
    "r3": lambda: (make_abelian(3), GZeroConstraint.conformal()),
    "h1": lambda: (make_heisenberg(), GZeroConstraint.conformal()),
    "h2": lambda: (make_heisenberg_n(2), GZeroConstraint.conformal()),
    "engel": lambda: (make_engel(), GZeroConstraint.conformal()),
    "gl3": lambda: (make_abelian(3), GZeroConstraint.full_derivations()),
}


@pytest.mark.parametrize("case", LEIBNIZ_RANK_CASES)
def test_leibniz_system_ranks_agree_with_sympy(case, monkeypatch):
    # each level's dimension is cols - rank of its Leibniz system, with
    # the rank taken by sympy rather than by carnot's elimination
    g, constraint = LEIBNIZ_RANK_CASES[case]()
    g0 = constrain_g0(strata_derivations(g), constraint)
    systems = []
    real_nullspace = carnot.prolongation.nullspace

    def recording_nullspace(system):
        systems.append(system)
        return real_nullspace(system)

    monkeypatch.setattr(carnot.prolongation, "nullspace", recording_nullspace)
    _, rep = full_prolongation(g, g0, max_k=3)
    monkeypatch.undo()
    assert len(systems) == len(rep.level_dims) - 1
    for system, dim in zip(systems, rep.level_dims[1:]):
        dense = sympy.Matrix(system.rows, system.cols,
                             lambda i, j: sympy.Rational(str(system.entries[i].get(j, 0))))
        assert system.cols - dense.rank() == dim


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
                        term = [c * x for x in dense_action(lvl, b, r)]
                        lhs = term if lhs is None else [p + q for p, q in zip(lhs, term)]
                    rhs1 = bracket_local(g, levels, dense_action(lvl, b, j1),
                                          g.weights[j1] + k, j2)
                    rhs2 = bracket_local(g, levels, dense_action(lvl, b, j2),
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
    frame = left_invariant_frame(CoordinateRecipe.single_factor(g))
    for k, d in enumerate(rep.level_dims):
        assert len(conformal_fields_of_degree(frame, CONFORMAL, k)) == d


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
        assert jacobiator(s, a, b, c) == {}


def test_action_consistency_mixed_pairs(engel):
    s, _ = full_prolongation(engel, conformal_g0(engel))
    for a, key in enumerate(s.sbasis):
        if key[0] != "lev":
            continue
        for b, bkey in enumerate(s.sbasis):
            if bkey[0] != "neg":
                continue
            expected = action_vector(s, a, b)
            assert dense_bracket(s, a, b) == expected
            assert dense_bracket(s, b, a) == [-x for x in expected]


@pytest.mark.parametrize("name", ["r3_co3", "heisenberg", "h2"])
def test_sparse_bracket_vec_matches_the_dense_bilinear_sum(name):
    # random sparse rows, and pairs [u, u] whose terms all cancel
    if name == "h2":
        g = make_heisenberg_n(2)
        s, _ = full_prolongation(g, conformal_g0(g))
    else:
        from carnot.cli import parse_spec_file, spec_algebra, spec_constraint
        spec = parse_spec_file(spec_file(name))
        g = spec_algebra(spec)
        s, _ = full_prolongation(g, constrain_g0(strata_derivations(g), spec_constraint(spec)))
    rng = random.Random(20261019)

    def random_row():
        return {i: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for i in rng.sample(range(s.dim), rng.randint(1, 4))}

    pairs = [(random_row(), random_row()) for _ in range(40)]
    pairs += [(u, dict(u)) for u, _ in pairs[:5]]
    zero_results = 0
    for u, v in pairs:
        expect = [Fraction(0)] * s.dim
        for a, ua in u.items():
            for b, vb in v.items():
                expect = [x + ua * vb * y for x, y in zip(expect, dense_bracket(s, a, b))]
        got = s.bracket_vec(u, v)
        assert all(c != 0 for c in got.values())
        assert got == {k: c for k, c in enumerate(expect) if c}
        zero_results += not got
    assert zero_results >= 5


def test_engel_bracket_table_values(engel):
    s, _ = full_prolongation(engel, conformal_g0(engel))
    iD = s.labels.index("D1")
    for name, scale in (("X1", 1), ("X2", 1), ("Y", 2), ("Z", 3)):
        i = s.labels.index(name)
        expect = [Fraction(0)] * s.dim
        expect[i] = Fraction(scale)
        assert dense_bracket(s, iD, i) == expect


def test_termination_valid():
    # a zero level licenses stopping because layer -1 generates, which
    # construction guarantees
    for g in (make_engel(), make_heisenberg()):
        _, rep = full_prolongation(g, conformal_g0(g))
        assert rep.status == "terminated"


def test_determinism_of_levels():
    g = make_heisenberg()
    s1, r1 = full_prolongation(g, conformal_g0(g))
    s2, r2 = full_prolongation(g, conformal_g0(g))
    assert r1 == r2
    for l1, l2 in zip(s1.levels, s2.levels):
        assert l1.subspace == l2.subspace
        assert l1.actions == l2.actions
    assert s1.bracket_table == s2.bracket_table


@pytest.mark.parametrize("name", BUNDLED + GENERATED + ("h1_der", "r3_gl"))
def test_levels_keep_sparse_rows_without_zeros(name):
    # elimination's rows are kept as they are, from the basis of each
    # subspace to each level's action on g_-
    from carnot.cli import parse_spec_file, spec_algebra, spec_constraint
    from carnot.exact_linalg import Subspace
    spec = parse_spec_file(spec_file(name))
    g = spec_algebra(spec)
    ders = strata_derivations(g)
    g0 = constrain_g0(ders, spec_constraint(spec))
    s, _ = full_prolongation(g, g0, max_k=spec.max_k)
    levels = [ders] + s.levels
    space = ders.subspace
    both = Subspace.from_vectors(space.basis + g0.subspace.basis, space.ambient_dim)
    spaces = [lvl.subspace for lvl in levels] + [both]
    for space in spaces:
        assert all(x != 0 for row in space.basis for x in row.values())
    for lvl in levels:
        for b, per in enumerate(lvl.actions):
            assert all(x != 0 for value in per for x in value.values())
            coords = lvl.coordinates_of_values(per)
            assert coords == [int(i == b) for i in range(lvl.dim)]


def _tower_levels(case):
    """Strata derivations and every level of a tower: a bundled or stored
    spec by name, or ``(algebra, full_derivations, max_k)``."""
    if isinstance(case, str):
        from carnot.cli import parse_spec_file, spec_algebra, spec_constraint
        spec = parse_spec_file(spec_file(case))
        g = spec_algebra(spec)
        constraint, max_k = spec_constraint(spec), spec.max_k
    else:
        g, full, max_k = case
        constraint = GZeroConstraint.full_derivations() if full else CONFORMAL
    ders = strata_derivations(g)
    s, _ = full_prolongation(g, constrain_g0(ders, constraint), max_k=max_k)
    return [ders] + s.levels


@pytest.mark.parametrize("case", list(BUNDLED) + ["g2_full"]
                         + [(make_abelian(n), False, 10) for n in (3, 4, 5)]
                         + [(make_heisenberg_n(n), False, 10) for n in (1, 2)]
                         + [(make_abelian(3), True, 4), (make_heisenberg(), True, 6)],
                         ids=list(BUNDLED) + ["g2_full", "r3", "r4", "r5", "h1", "h2",
                                              "r3_gl_k4", "h1_der_k6"])
def test_level_actions_match_the_per_column_reference(case):
    # the reference probes every column of every basis row; Level reads
    # each row's nonzero entries once, and must give the same values with
    # their components in ascending t
    for lvl in _tower_levels(case):
        reference = tuple(tuple({t: row[c] for t, c in enumerate(cols) if c in row}
                                for cols in lvl.columns) for row in lvl.subspace.basis)
        assert lvl.actions == reference
        for per, ref in zip(lvl.actions, reference):
            assert [list(value) for value in per] == [list(value) for value in ref]
            assert all(list(value) == sorted(value) for value in per)


# every bundled spec and every spec stored in tests/golden
STORED = BUNDLED + GENERATED + ("g2_full", "h1_der", "r3_gl")


@pytest.mark.parametrize("case", list(STORED)
                         + [(make_abelian(n), False, 10) for n in (3, 4, 5)]
                         + [(make_heisenberg_n(n), False, 10) for n in (1, 2)],
                         ids=list(STORED) + ["r3", "r4", "r5", "h1", "h2"])
def test_each_basis_element_is_one_at_its_pivot_cell_and_zero_at_the_others(case):
    # so the coordinates of a value that lies in a level are its entries
    # at the pivot cells, as the jets and the bracket table read them
    for lvl in _tower_levels(case):
        assert len(lvl.pivot_cells) == lvl.dim
        for b, per in enumerate(lvl.actions):
            assert ([per[j].get(t, 0) for j, t in lvl.pivot_cells]
                    == [int(i == b) for i in range(lvl.dim)])


def test_closed_g0_required_for_assembly():
    # a degree-zero space that is not closed under commutators assembles,
    # but its table is no Lie table: verify finds the Jacobi failure
    from carnot.exact_linalg import Subspace
    from carnot.prolongation import ProlongationAlgebra
    g = make_abelian(2)
    # span{E12, E21} in the level-0 layout (the block row by row): the
    # commutator diag(1,-1) leaves the span
    ders = prolong_step(g, [], 0)
    vectors = [{1: 1}, {2: 1}]
    lvl0 = Level(g, 0, Subspace.from_vectors(vectors, 4), ders.columns)
    with pytest.raises(JacobiAssemblyFailure):
        ProlongationAlgebra(g, [lvl0], build_table=True).verify()


def test_assembly_errors_name_the_failing_levels():
    from carnot.exact_linalg import Subspace
    from carnot.prolongation import ProlongationAlgebra
    g = make_abelian(2)
    ders = prolong_step(g, [], 0)
    lvl0 = Level(g, 0, Subspace.from_vectors([{1: 1}, {2: 1}], 4), ders.columns)
    # [D1, D2] leaves level 0: the residue at X1 is the Jacobi sum of (X1, D1, D2)
    with pytest.raises(JacobiAssemblyFailure, match=r"^Jacobi fails on \(X1,D1,D2\)$"):
        ProlongationAlgebra(g, [lvl0]).verify()
    # the tower of R^1 never ends: [u_1, u_2] lies in level 3, absent from a
    # cut tower, so the table holds zero there and Jacobi fails on (X1, u_1, u_2)
    g = make_abelian(1)
    levels = [conformal_g0(g)]
    for k in (1, 2):
        levels.append(prolong_step(g, levels, k))
    with pytest.raises(JacobiAssemblyFailure, match=r"^Jacobi fails on \(X1,u1_1,u2_1\)$"):
        ProlongationAlgebra(g, levels).verify()


@pytest.mark.parametrize("name", TERMINATING + tuple(f"r{n}" for n in range(3, 11))
                         + tuple(f"h{n}" for n in range(1, 5)) + ("free_full_3", "free_full_4"))
def test_pivot_cell_assembly_matches_the_full_value_reference(name):
    # the table is read at the pivot cells only; the reference sums the full
    # value of every level-level bracket and checks its residue on all of g_-
    if name.startswith("free_full_"):
        spec = parse_spec_text(free_step_two_spec(int(name[-1]), FULL_DERIVATIONS))
    else:
        spec = named_spec(name)
    s, rep = spec_tower(spec)
    assert rep.terminated
    reference = reference_bracket_table(s)
    assert len(s.bracket_table) == len(reference) == s.dim
    for row, ref_row in zip(s.bracket_table, reference):
        for terms, ref_terms in zip(row, ref_row):
            assert [(k, c, type(c)) for k, c in terms] == \
                [(k, c, type(c)) for k, c in ref_terms]


# the dimension of each table checked: so(9,1), su(4,1), Engel's s; none
# for the cut tower of R^1
@pytest.mark.parametrize("name, max_k, checked", [
    ("r8", None, [45]), ("h3", None, [24]), ("engel", None, [5]), ("r1", 5, [])])
def test_every_table_prolong_hands_out_is_checked_once(monkeypatch, tmp_path, capsys,
                                                       name, max_k, checked):
    # the assembly reads the pivot cells only and proves nothing about the
    # rest of each bracket: the exhaustive Jacobi check must see every table
    from carnot.cli import main
    seen = []
    real = carnot.prolongation.table_violation

    def counted(rows, weights):
        seen.append(len(rows))
        return real(rows, weights)

    monkeypatch.setattr(carnot.prolongation, "table_violation", counted)
    if name in BUNDLED:
        path = spec_file(name)
    else:
        path = tmp_path / f"{name}.alg"
        path.write_text(scale_family_text(name))
    argv = ["prolong", str(path)] + ([] if max_k is None else ["--max-k", str(max_k)])
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == checked


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
    assert set(shuffled.spanned_by) == {t for t, w in enumerate(shuffled.weights) if w < -1}
    s, rep = full_prolongation(shuffled, conformal_g0(shuffled))
    ref_s, ref = full_prolongation(g, conformal_g0(g))
    assert rep == ref
    assert sorted(s.labels) == sorted(ref_s.labels)


# -- closed forms on whole families ------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_liouville_closed_form(n):
    # R^n with co(n) prolongs to so(n+1,1)
    g = make_abelian(n)
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.level_dims == (n * (n - 1) // 2 + 1, n, 0)
    assert rep.total_dim == s.dim == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("n", range(1, 5))
def test_koranyi_reimann_closed_form(n):
    # H_n with the conformal g0 prolongs to su(n+1,1)
    g = make_heisenberg_n(n)
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.level_dims == (n * n + 1, 2 * n, 1, 0)
    assert rep.total_dim == s.dim == (n + 2) ** 2 - 1


# -- the sparse table and its exhaustive Jacobi check ------------------------


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


def test_verify_rejects_live_level_slot_perturbation():
    s = _r3_algebra()
    a = s.labels.index("D1")
    b = s.labels.index("u1_1")
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


REFERENCE_TOWERS = (
    [(f"R{n}", lambda n=n: make_abelian(n)) for n in range(3, 7)]
    + [(f"H{n}", lambda n=n: make_heisenberg_n(n)) for n in range(1, 4)]
    + [("engel", make_engel),
       ("engel_interleaved", lambda: permuted(make_engel(), [0, 3, 1, 2])),
       ("heisenberg_interleaved", lambda: permuted(make_heisenberg(), [2, 0, 1])),
       ("cartan_235_interleaved", lambda: permuted(make_cartan_235(), [3, 0, 2, 4, 1]))])


def _dense_violation(rows, weights):
    """Dense reference for ``table_violation``: every triple, dense vectors."""
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
            if x:
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


def _corruptions(rows, weights, rng, count):
    """``count`` tables, each ``rows`` with one entry ``[e_a, e_b]`` changed.

    The added term sits at a weight ``w_a + w_b`` slot when one exists, four
    times out of five, and nine times out of ten ``[e_b, e_a]`` follows, so
    all three kinds of violation occur.
    """
    n = len(rows)
    for _ in range(count):
        table = [list(r) for r in rows]
        a, b = sorted(rng.sample(range(n), 2))
        if rng.random() < 0.8:
            live = [k for k, w in enumerate(weights) if w == weights[a] + weights[b]]
            k = rng.choice(live or range(n))
        else:
            k = rng.randrange(n)
        table[a][b] = _add_term(table[a][b], k, Fraction(rng.choice([-2, -1, 1, 3])))
        if rng.random() < 0.9:
            table[b][a] = tuple((i, -c) for i, c in table[a][b])
        yield table


@pytest.mark.parametrize("make", [m for _, m in REFERENCE_TOWERS],
                         ids=[name for name, _ in REFERENCE_TOWERS])
def test_jacobi_check_matches_dense_reference(make):
    g = make()
    s, _ = full_prolongation(g, conformal_g0(g))
    rng = random.Random(7)
    outcomes = set()
    # the tower's table, and the algebra's own in declaration order, whose
    # weights are unsorted on the interleaved towers
    for rows, weights, count in ((s.bracket_table, s.weights, 40), (g.rows, g.weights, 10)):
        assert table_violation(rows, weights) is None
        assert _dense_violation(rows, weights) is None
        for table in _corruptions(rows, weights, rng, count):
            found = table_violation(table, weights)
            assert found == _dense_violation(table, weights)
            outcomes.add(found and found[0])
    assert {"antisymmetry", "grading", "jacobi"} <= outcomes


def _graded_table(n, brackets):
    """An antisymmetric table of dimension ``n`` from ``{(i, j): ((k, c), ...)}``."""
    rows = [[() for _ in range(n)] for _ in range(n)]
    for (i, j), terms in brackets.items():
        rows[i][j] = tuple((k, Fraction(c)) for k, c in terms)
        rows[j][i] = tuple((k, -Fraction(c)) for k, c in terms)
    return rows


# e0..e3 of weight -1, e4 = [., .] of weight -2, e5 of weight -3
STEP_THREE_WEIGHTS = (-1, -1, -1, -1, -2, -3)


@pytest.mark.parametrize("brackets, first", [
    # [e0,e4] = e5: the triples (0,1,3) and (0,2,3) fail
    ({(0, 4): ((5, 1),), (1, 3): ((4, 1),), (2, 3): ((4, 1),)}, (0, 1, 3)),
    # [e3,e4] = e5: the triples (0,2,3) and (1,2,3) fail
    ({(3, 4): ((5, 1),), (0, 2): ((4, 1),), (1, 2): ((4, 2),)}, (0, 2, 3)),
    # non-integral constants (lcm 6): the triples (0,1,3) and (0,2,3) fail
    ({(0, 4): ((5, Fraction(1, 2)),), (1, 3): ((4, Fraction(2, 3)),), (2, 3): ((4, 1),)},
     (0, 1, 3)),
])
def test_the_lexicographically_first_failing_triple_is_reported(brackets, first):
    rows = _graded_table(6, brackets)
    found = ("jacobi",) + first
    assert table_violation(rows, STEP_THREE_WEIGHTS) == found
    assert _dense_violation(rows, STEP_THREE_WEIGHTS) == found
    assert _fraction_violation(rows, STEP_THREE_WEIGHTS) == found


# free step two on e0, e1, e2 (e3 = [e0,e1], e4 = [e0,e2], e5 = [e1,e2]),
# with e6 of weight -3 and the third brackets [e_i, e_{5-i}] to be chosen
FREE_STEP_TWO = {(0, 1): ((3, 1),), (0, 2): ((4, 1),), (1, 2): ((5, 1),)}
FREE_WEIGHTS = (-1, -1, -1, -2, -2, -2, -3)


@pytest.mark.parametrize("outer, found", [
    # [e0,[e1,e2]] = [e0,e5]: the corrupted row is [e_a, e_m]
    ({(0, 5): 1}, ("jacobi", 0, 1, 2)),
    # -[e1,[e0,e2]] = -[e1,e4]: it is [e_o, e_m] with o < q
    ({(1, 4): 1}, ("jacobi", 0, 1, 2)),
    # [e2,[e0,e1]] = [e2,e3]: it is [e_o, e_m] with o > q
    ({(2, 3): 1}, ("jacobi", 0, 1, 2)),
    # [e0,e5] - [e1,e4] + [e2,e3] = 0: the three routes cancel
    ({(0, 5): 1, (1, 4): 1}, None),
    ({(0, 5): 1, (2, 3): -1}, None),
    ({(0, 5): 2, (1, 4): 3, (2, 3): 1}, None),
    # non-integral multiples, which the check scales to integers
    ({(0, 5): Fraction(1, 3)}, ("jacobi", 0, 1, 2)),
    ({(0, 5): Fraction(2, 3), (1, 4): Fraction(1, 2)}, ("jacobi", 0, 1, 2)),
    ({(0, 5): Fraction(1, 2), (1, 4): Fraction(1, 2)}, None),
])
def test_a_corrupted_outer_row_is_seen_in_every_triple_it_enters(outer, found):
    # each (i, j) of ``outer`` sets [e_i, e_j] to a multiple of e6, which is
    # central: a triple with that entry as its inner bracket gains nothing,
    # so only (0, 1, 2), where it is the outer row [e_o, e_m], can fail
    brackets = dict(FREE_STEP_TWO)
    brackets.update({ij: ((6, c),) for ij, c in outer.items()})
    rows = _graded_table(7, brackets)
    assert table_violation(rows, FREE_WEIGHTS) == found
    assert _dense_violation(rows, FREE_WEIGHTS) == found
    assert _fraction_violation(rows, FREE_WEIGHTS) == found


@pytest.mark.parametrize("a, b", [(1, 3), (3, 1)])
def test_an_empty_bracket_facing_a_nonempty_one_breaks_antisymmetry(a, b):
    # [e_a, e_b] = e4 while [e_b, e_a] stays empty, in either orientation
    rows = _graded_table(6, {(0, 2): ((4, 1),)})
    rows[a][b] = ((4, Fraction(1)),)
    found = ("antisymmetry", min(a, b), max(a, b), max(a, b))
    assert table_violation(rows, STEP_THREE_WEIGHTS) == found
    assert _dense_violation(rows, STEP_THREE_WEIGHTS) == found
    assert _fraction_violation(rows, STEP_THREE_WEIGHTS) == found


# -- the integer assembly and the scaled Jacobi check against Fraction paths --


def _dense_reference_table(s):
    """The bracket table of ``s`` assembled on dense Fraction vectors.

    Each level-level bracket is densified on every negative basis element
    and read in the target level through ``Level.coordinates_of_values``.
    """
    g = s.negative
    n = s.dim
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[a][a] = ()

    def put(a, b, row):
        table[a][b] = row
        table[b][a] = tuple((k, -c) for k, c in row)

    def sparse_value(local, d):
        # dense local coordinates of the degree-d space as a sparse s-row
        return tuple((i, c) for i, c in zip(s._block.get(d, ()), local) if c)

    negs = [i for i, key in enumerate(s.sbasis) if key[0] == "neg"]
    levs = [i for i, key in enumerate(s.sbasis) if key[0] == "lev"]
    for a in negs:
        row = g.rows[s.sbasis[a][1]]
        for b in negs:
            table[a][b] = tuple(sorted((s._pos[("neg", k)], c) for k, c in row[s.sbasis[b][1]]))
    for a in levs:
        _, k, p = s.sbasis[a]
        for b in negs:
            j = s.sbasis[b][1]
            put(a, b, sparse_value(dense_action(s.levels[k], p, j), g.weights[j] + k))

    def act(a, local, d, out, sign):
        # add sign * [e_a, value] to out, the value given in the degree-d space
        _, k, p = s.sbasis[a]
        if d < 0:
            for gi, c in zip(g.layer_indices(-d), local):
                for t, y in enumerate(dense_action(s.levels[k], p, gi)):
                    out[t] += sign * c * y
            return
        start = s._block[d + k][0] if out else 0
        for i, c in zip(s._block.get(d, ()), local):
            for m, y in table[a][i]:
                out[m - start] += sign * c * y

    pairs = sorted(((a, b) for a in levs for b in levs if a < b),
                   key=lambda ab: s.sbasis[ab[0]][1] + s.sbasis[ab[1]][1])
    for a, b in pairs:
        _, ka, qa = s.sbasis[a]
        _, kb, qb = s.sbasis[b]
        values = []
        for t in range(g.dim):
            value = [Fraction(0)] * len(s._block.get(g.weights[t] + ka + kb, ()))
            act(a, dense_action(s.levels[kb], qb, t), g.weights[t] + kb, value, 1)
            act(b, dense_action(s.levels[ka], qa, t), g.weights[t] + ka, value, -1)
            values.append(value)
        if ka + kb <= s.top_level():
            coords = s.levels[ka + kb].coordinates_of_values(sparse_values(values))
            assert coords is not None
            put(a, b, sparse_value(coords, ka + kb))
        else:
            assert not any(x for value in values for x in value)
            put(a, b, ())
    return table


@pytest.mark.parametrize("make", [m for _, m in REFERENCE_TOWERS],
                         ids=[name for name, _ in REFERENCE_TOWERS])
def test_assembled_table_matches_dense_reference(make):
    g = make()
    s, rep = full_prolongation(g, conformal_g0(g))
    assert rep.terminated
    assert s.bracket_table == _dense_reference_table(s)
    assert_int_when_integral(c for row in s.bracket_table for terms in row for _, c in terms)


def _fraction_violation(rows, weights):
    """The triple-by-triple reference for ``table_violation``.

    It visits every triple ``a < b < c`` whose weight sum is a weight, the
    only triples the grading lets fail, and takes the three double brackets
    in Fractions, on the unscaled table.
    """
    n = len(rows)
    for a in range(n):
        if rows[a][a]:
            return ("antisymmetry", a, a, a)
        for b in range(a + 1, n):
            if tuple(rows[b][a]) != tuple((k, -c) for k, c in rows[a][b]):
                return ("antisymmetry", a, b, b)
    for a in range(n):
        for b in range(a + 1, n):
            for k, _ in rows[a][b]:
                if weights[k] != weights[a] + weights[b]:
                    return ("grading", a, b, k)
    live = set(weights)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if weights[a] + weights[b] + weights[c] not in live:
                    continue
                total = {}
                for outer, inner in ((rows[a], rows[b][c]), (rows[b], rows[c][a]),
                                     (rows[c], rows[a][b])):
                    for m, x in inner:
                        for k, y in outer[m]:
                            total[k] = total.get(k, Fraction(0)) + x * y
                if any(total.values()):
                    return ("jacobi", a, b, c)
    return None


@pytest.mark.parametrize("make", [lambda: make_abelian(8), lambda: make_heisenberg_n(3)],
                         ids=["R8", "H3"])
def test_jacobi_check_matches_fraction_reference_on_wide_tables(make):
    g = make()
    s, _ = full_prolongation(g, conformal_g0(g))
    table, weights = s.bracket_table, s.weights
    levels = [a for a, w in enumerate(weights) if w >= 0]
    slots = [(a, b, k) for a in levels for b in levels if a < b
             for k, w in enumerate(weights) if w == weights[a] + weights[b]]
    rng = random.Random(11)
    kinds = set()
    for a, b, k in rng.sample(slots, 20):
        rows = [list(r) for r in table]
        rows[a][b] = _add_term(rows[a][b], k, rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        rows[b][a] = tuple((i, -c) for i, c in rows[a][b])
        found = table_violation(rows, weights)
        assert found == _fraction_violation(rows, weights)
        kinds.add(found and found[0])
    assert kinds == {"jacobi"}


def test_scaled_jacobi_check_matches_fraction_reference():
    g = make_heisenberg_n(2)
    s, _ = full_prolongation(g, conformal_g0(g))
    table, weights = s.bracket_table, s.weights
    assert any(c.denominator > 1 for row in table for terms in row for _, c in terms)
    assert table_violation(table, weights) is None
    assert _fraction_violation(table, weights) is None
    n = s.dim
    slots = [(a, b, k) for a in range(n) for b in range(a + 1, n) for k in range(n)
             if weights[k] == weights[a] + weights[b]]
    kinds = set()
    for delta in (Fraction(1, 3), Fraction(-1, 7)):
        for a, b, k in slots:
            rows = [list(r) for r in table]
            rows[a][b] = _add_term(rows[a][b], k, delta)
            rows[b][a] = tuple((i, -c) for i, c in rows[a][b])
            found = table_violation(rows, weights)
            assert found == _fraction_violation(rows, weights)
            kinds.add(found and found[0])
    assert "jacobi" in kinds
