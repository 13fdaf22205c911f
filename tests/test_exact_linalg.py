import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from carnot.exact_linalg import (AmbientMismatch, Matrix, SparseRows, Subspace, nullspace, rref,
                                 solve, sparse_row, span_equal)

from .conftest import BUNDLED, assert_int_when_integral, nullspace_by_reversed_copy

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def sparse(rows, cols):
    """A system given by dense rows."""
    return SparseRows([sparse_row(r) for r in rows], cols)


def dense_row(row, n):
    """The length-n vector with the entries of a sparse row."""
    return [Fraction(row.get(c, 0)) for c in range(n)]


def dense(m):
    return [dense_row(r, m.cols) for r in m.entries]


def identity(n):
    return SparseRows([{i: 1} for i in range(n)], n)


def zeros(rows, cols):
    return SparseRows([{} for _ in range(rows)], cols)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(fractions_st, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(lambda rows: sparse(rows, c))))


def mul_vec(m, v):
    return [sum((c * v[j] for j, c in row.items()), Fraction(0)) for row in m.entries]


def test_rref_identity():
    ech, rank, pivots = rref(identity(3))
    assert dense(ech) == dense(identity(3))
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_rref_zero():
    ech, rank, pivots = rref(zeros(2, 2))
    assert dense(ech) == dense(zeros(2, 2))
    assert rank == 0
    assert pivots == []


def test_rref_proportional_rows():
    ech, rank, pivots = rref(sparse([[1, 2], [2, 4]], 2))
    assert dense(ech) == [[1, 2], [0, 0]]
    assert rank == 1
    assert pivots == [0]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    ech, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(ech)
    assert dense(again) == dense(ech)
    assert (rank2, pivots2) == (rank, pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    _, rank, _ = rref(m)
    assert rank + nullspace(m).dim == m.cols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_in_kernel(m):
    ns = nullspace(m)
    for v in ns.basis:
        assert all(x == 0 for x in mul_vec(m, dense_row(v, m.cols)))


@settings(max_examples=200, deadline=None)
@given(fractions_st.filter(bool), fractions_st.filter(bool))
def test_fraction_addition_cross_multiplication(a, b):
    # independent check of the exact-arithmetic invariant
    s = a + b
    assert s.numerator * (a.denominator * b.denominator) == \
        (a.numerator * b.denominator + b.numerator * a.denominator) * s.denominator


def full(n):
    """Q^n as a subspace of itself."""
    return Subspace.from_vectors([{i: 1} for i in range(n)], n)


def test_nullspace_identity_is_zero():
    assert nullspace(identity(4)).dim == 0


def test_nullspace_zero_matrix_is_full():
    ns = nullspace(zeros(2, 3))
    assert ns.dim == 3
    assert span_equal(ns, full(3))


def test_nullspace_single_constraint():
    ns = nullspace(sparse([[1, 1, 0]], 3))
    assert ns.dim == 2
    assert ns.coordinates_of({0: 1, 1: -1}) is not None
    assert ns.coordinates_of({2: 1}) is not None


def test_span_equal_scaling_invariance():
    a = Subspace.from_vectors([{0: 1}], 2)
    b = Subspace.from_vectors([{0: 2}], 2)
    assert span_equal(a, b)


def test_span_equal_distinct_lines():
    a = Subspace.from_vectors([{0: 1}], 2)
    b = Subspace.from_vectors([{1: 1}], 2)
    assert not span_equal(a, b)


def test_span_equal_full_plane():
    a = Subspace.from_vectors([{0: 1, 1: 1}, {0: 1, 1: -1}], 2)
    assert span_equal(a, full(2))


def test_span_equal_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        span_equal(full(2), full(3))


def test_coordinates_of_reconstructs():
    s = Subspace.from_vectors([{0: 1, 2: 2}, {1: 1, 2: -1}], 3)
    coords = s.coordinates_of({0: 3, 1: 4, 2: 2})
    assert coords == [Fraction(3), Fraction(4)]
    assert s.coordinates_of({2: 1}) is None


def test_coordinates_of_checks_the_columns():
    s = Subspace.from_vectors([{0: 1, 2: 2}], 3)
    assert s.coordinates_of({0: Fraction(1, 2), 2: 1}) == [Fraction(1, 2)]
    for bad in ({3: 1}, {0: 1, -1: 1}):
        with pytest.raises(AmbientMismatch):
            s.coordinates_of(bad)


def test_solve_consistent_and_inconsistent():
    m = sparse([[1, 2], [3, 4]], 2)
    (x,) = solve(m, [[Fraction(5), Fraction(11)]])
    assert mul_vec(m, x) == [Fraction(5), Fraction(11)]
    m2 = sparse([[1, 1], [2, 2]], 2)
    assert solve(m2, [[Fraction(1), Fraction(3)]]) == [None]


def assert_solutions(m, sides, solutions):
    """Each solution solves its side with every free variable at zero, and
    a side has None exactly when appending it raises the rank."""
    _, rank, pivots = rref(m)
    assert len(solutions) == len(sides)
    for b, x in zip(sides, solutions):
        aug = SparseRows([{**row, m.cols: v} if v else row for row, v in zip(m.entries, b)],
                         m.cols + 1)
        if x is None:
            assert rref(aug)[1] > rank
            continue
        assert mul_vec(m, x) == [Fraction(v) for v in b]
        assert all(not x[c] for c in range(m.cols) if c not in pivots)


def test_solve_takes_several_right_hand_sides_in_one_elimination():
    # rank 2 of 3 columns, row 3 = row 2 - row 1: a side is consistent iff
    # b3 = b2 - b1; column 1 is free
    m = sparse([[1, 2, 1], [2, 4, 3], [1, 2, 2]], 3)
    sides = [[1, 2, 1], [1, 0, 0], [0, 1, 1], [0, 0, 0], [0, 0, 1], [2, 5, 3]]
    solutions = solve(m, sides)
    assert [x is None for x in solutions] == [False, True, False, False, True, False]
    assert_solutions(m, sides, solutions)
    assert solutions == [solve(m, [b])[0] for b in sides]
    assert solve(m, []) == []


def test_solve_matches_the_rank_test_on_random_systems():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = sparse([[rng.choice((0, 0, 1, -2, 3)) for _ in range(cols)] for _ in range(rows)],
                   cols)
        sides = [[rng.choice((0, 1, Fraction(-1, 2))) for _ in range(rows)] for _ in range(4)]
        # a side in the column space, so that some sides are consistent
        sides.append(mul_vec(m, [rng.randint(-3, 3) for _ in range(cols)]))
        assert_solutions(m, sides, solve(m, sides))


def test_solve_names_a_column_outside_the_system():
    # the right-hand sides sit past the system's columns, so a row that
    # reaches there is an error, not a right-hand side
    for bad in (2, -1):
        with pytest.raises(ValueError, match=rf"^column {bad} outside a system of 2 columns$"):
            solve(SparseRows([{0: 1}, {1: 1, bad: 1}], 2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solve(sparse([[1, 2]], 2), [[1, 2]])


def test_zero_row_matrix_needs_cols():
    with pytest.raises(ValueError):
        Matrix([])
    m = SparseRows([], 3)
    assert nullspace(m).dim == 3


def test_span_sum_containment():
    a = Subspace.from_vectors([{0: 1}], 3)
    b = Subspace.from_vectors([{0: 1, 1: 1}], 3)
    total = Subspace.from_vectors(a.basis + b.basis, 3)
    assert total.dim == 2
    assert total.coordinates_of({1: 1}) is not None


# -- independent reference: sympy's rref and nullspace ---------------------


@st.composite
def wide_systems(draw):
    """Wide sparse systems with zero columns, empty rows and repeated rows."""
    cols = draw(st.integers(1, 16))
    used = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=cols, unique=True))
    row_st = st.dictionaries(st.sampled_from(used), fractions_st.filter(bool), max_size=5)
    rows = draw(st.lists(row_st, min_size=1, max_size=8))
    repeats = draw(st.lists(st.tuples(st.sampled_from(rows), fractions_st.filter(bool)),
                            max_size=3))
    rows += [{c: k * x for c, x in row.items()} for row, k in repeats] + [{}]
    return SparseRows(draw(st.permutations(rows)), cols)


@st.composite
def overlapping_systems(draw):
    """Rows of 2-6 entries over up to 24 columns, some followed by
    combinations of earlier rows.  Taken shortest first, a row's new pivot
    column is often already held by earlier pivot rows, which must then
    be cleared of it."""
    cols = draw(st.integers(2, 24))
    row_st = st.dictionaries(st.integers(0, cols - 1), fractions_st.filter(bool),
                             min_size=2, max_size=6)
    rows = draw(st.lists(row_st, min_size=1, max_size=24))
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(fractions_st.filter(bool))
        combined = {c: a.get(c, 0) + k * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: x for c, x in combined.items() if x})
    return SparseRows(rows, cols)


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for x in (v for r in dense(m) for v in r)])


def from_sympy(mat):
    return [[Fraction(int(x.p), int(x.q)) for x in mat.row(i)] for i in range(mat.rows)]


def assert_rref_matches_sympy(m):
    ech, rank, pivots = rref(m)
    ref, ref_pivots = to_sympy(m).rref()
    assert dense(ech) == from_sympy(ref)
    assert pivots == list(ref_pivots)
    assert rank == len(ref_pivots)


def assert_nullspace_matches_sympy(m):
    ns = nullspace(m)
    kernel = to_sympy(m).nullspace()
    assert ns.dim == len(kernel)
    assert all(list(v) == sorted(v) for v in ns.basis)
    if kernel:
        ref, ref_pivots = sympy.Matrix.hstack(*kernel).T.rref()
        assert [dense_row(v, m.cols) for v in ns.basis] == from_sympy(ref)
        assert list(ns.pivots) == list(ref_pivots)


def assert_solve_matches_sympy(m, sides):
    """Each side's solution, free variables at zero, read off sympy's rref
    of the system with that side appended; None iff the side is a pivot."""
    solutions = solve(m, sides)
    assert len(solutions) == len(sides)
    for b, x in zip(sides, solutions):
        column = sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)]
                               for v in b])
        ref, ref_pivots = to_sympy(m).row_join(column).rref()
        if m.cols in ref_pivots:
            assert x is None
            continue
        expected = [Fraction(0)] * m.cols
        for i, p in enumerate(ref_pivots):
            expected[p] = Fraction(int(ref[i, m.cols].p), int(ref[i, m.cols].q))
        assert x == expected
        assert_int_when_integral(x)


# the coefficient kinds rref takes apart: units, other ints, integral
# Fractions such as Fraction(4, 2), and non-integral Fractions
mixed_coefficients = st.one_of(
    st.sampled_from((1, -1)),
    st.integers(-6, 6).filter(bool),
    st.integers(-6, 6).filter(bool).map(lambda k: Fraction(2 * k, 2)),
    fractions_st.filter(lambda x: x.denominator != 1))


@st.composite
def mixed_systems(draw):
    """Systems whose rows take every path of rref: empty rows, single
    entries, all-int rows (often with ±1 pivots) and rows holding integral
    or non-integral Fractions."""
    cols = draw(st.integers(2, 10))
    column = st.integers(0, cols - 1)
    int_entry = st.one_of(st.sampled_from((1, -1)), st.integers(-6, 6).filter(bool))
    row_st = st.one_of(
        st.just({}),
        st.dictionaries(column, mixed_coefficients, min_size=1, max_size=1),
        st.dictionaries(column, int_entry, min_size=2, max_size=4),
        st.dictionaries(column, mixed_coefficients, min_size=2, max_size=4))
    return SparseRows(draw(st.lists(row_st, min_size=1, max_size=10)), cols)


def typed_entries(m):
    return [[(c, type(x), x) for c, x in row.items()] for row in m.entries]


@settings(max_examples=200, deadline=None, database=None)
@given(mixed_systems(), st.data())
def test_every_row_path_matches_sympy(m, data):
    given_entries = typed_entries(m)
    assert_rref_matches_sympy(m)
    assert_nullspace_matches_sympy(m)
    # a side in the column space, so that some sides are consistent
    point = data.draw(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols))
    sides = [mul_vec(m, point)] + data.draw(st.lists(
        st.lists(st.one_of(st.just(0), mixed_coefficients), min_size=m.rows, max_size=m.rows),
        min_size=1, max_size=3))
    assert_solve_matches_sympy(m, sides)
    ech, rank, _ = rref(m)
    rows = ech.entries[:rank] + list(nullspace(m).basis)
    for row in rows:
        assert list(row) == sorted(row)
    if rows:
        assert_int_when_integral(x for row in rows for x in row.values())
    # the rows are read, never changed: an all-int row is used as it comes
    assert typed_entries(m) == given_entries


@settings(max_examples=150, deadline=None, database=None)
@given(wide_systems())
def test_rref_matches_sympy(m):
    assert_rref_matches_sympy(m)


@settings(max_examples=150, deadline=None, database=None)
@given(wide_systems())
def test_nullspace_matches_sympy(m):
    assert_nullspace_matches_sympy(m)


@settings(max_examples=60, deadline=None, database=None)
@given(overlapping_systems())
def test_rref_matches_sympy_on_overlapping_rows(m):
    assert_rref_matches_sympy(m)


@settings(max_examples=60, deadline=None, database=None)
@given(overlapping_systems())
def test_nullspace_matches_sympy_on_overlapping_rows(m):
    assert_nullspace_matches_sympy(m)


# -- row order and the one elimination kernel ------------------------------


def systems_passed_to_nullspace(module, run):
    """Every system that ``run()`` hands to ``module.nullspace``."""
    systems = []
    original = module.nullspace
    module.nullspace = lambda m: systems.append(m) or original(m)
    try:
        run()
    finally:
        module.nullspace = original
    return systems


def cartan_residual_system(delta):
    """The residual rows of the degree-``delta`` conformal block of cartan_235."""
    import carnot.contact_pde as contact_pde
    from .conftest import CONFORMAL, named_algebra_frame
    _, frame = named_algebra_frame("cartan_235")
    [m] = systems_passed_to_nullspace(
        contact_pde, lambda: contact_pde.conformal_fields_of_degree(frame, CONFORMAL, delta))
    return m


# degree 3: 122 x 108 of full column rank; degree 0: 22 x 24 of rank 22
# (the level g0), whose RREF is not the identity
@pytest.mark.parametrize("delta, rank", [(3, 108), (0, 22)])
def test_rref_does_not_depend_on_row_order(delta, rank):
    m = cartan_residual_system(delta)
    shuffled = list(m.entries)
    random.Random(11).shuffle(shuffled)
    expected = rref(m)
    assert expected[1] == rank
    for rows in (m.entries[::-1], shuffled):
        got = rref(SparseRows(rows, m.cols))
        assert (got[0].entries, got[1], got[2]) == (expected[0].entries, expected[1], expected[2])


def test_column_out_of_range_raises_in_any_row():
    m = cartan_residual_system(3)
    bad = {m.cols: Fraction(1)}
    for rows in ([bad] + m.entries, m.entries + [bad]):
        with pytest.raises(ValueError):
            rref(SparseRows(rows, m.cols))


def test_nullspace_names_the_callers_column_out_of_range():
    # the range is checked once, on the reduction; the message names the
    # column as the caller wrote it, whichever row it sits in
    m = cartan_residual_system(3)
    for bad in (m.cols, -1):
        for rows in ([{bad: Fraction(1)}] + m.entries, m.entries + [{0: 1, bad: 2}]):
            with pytest.raises(ValueError, match=rf"^column {bad} outside a system of "
                                                 rf"{m.cols} columns$"):
                nullspace(SparseRows(rows, m.cols))


def eliminations(rows, n):
    """The four ways into the elimination, each on ``rows`` over ``n`` columns."""
    return {"rref": lambda: rref(SparseRows(rows, n)),
            "nullspace": lambda: nullspace(SparseRows(rows, n)),
            "solve": lambda: solve(SparseRows(rows, n), [[0] * len(rows)]),
            "from_vectors": lambda: Subspace.from_vectors(rows, n)}


@pytest.mark.parametrize("rows, bad", [
    # taken shortest first, {4: 1} would be reached before column 5
    ([{0: 1, 1: 1, 5: 1}, {4: 1}], 5),
    ([{4: 1}, {0: 1, 1: 1, 5: 1}], 4),
    ([{0: 1, 1: 2}, {1: 1, -1: 3}, {2: 1, 7: 1}], -1),
    # the bad column cancels: the second row reduces to zero
    ([{0: 1, 4: 1}, {0: 1, 4: 1}], 4),
    # the bad column cancels from the second row, and is a pivot
    ([{0: 1, 4: 1}, {0: 2, 4: 1}], 4),
], ids=["first_row", "second_row", "negative", "cancels_to_zero", "cancels_to_pivot"])
def test_every_elimination_names_the_callers_first_bad_column(rows, bad):
    for call in eliminations(rows, 4).values():
        with pytest.raises(ValueError, match=rf"^column {bad} outside a system of 4 columns$"):
            call()


def test_a_zero_entry_outside_the_columns_is_no_entry():
    # a row maps columns to its nonzero entries; a zero is taken as absent
    rows = [{0: 1, 1: 1, 4: 0}, {1: 2, -1: Fraction(0)}]
    clean = [{0: 1, 1: 1}, {1: 2}]
    got, want = eliminations(rows, 4), eliminations(clean, 4)
    assert got["rref"]()[0].entries == want["rref"]()[0].entries
    assert got["nullspace"]() == want["nullspace"]()
    assert got["solve"]() == want["solve"]()
    assert got["from_vectors"]() == want["from_vectors"]()


def prolongation_systems(name):
    """Every system the prolongation of a spec hands to ``nullspace``: the
    degree-0 Leibniz system, with the g0 conditions added, and the Leibniz
    system of each level up to the spec's cutoff.  ``name`` is a bundled
    spec, one stored in tests/golden, or ``r<n>`` / ``h<n>`` with the
    conformal g0."""
    import carnot.prolongation as prolongation
    from carnot.cli import _prolong
    from .conftest import named_spec
    spec = named_spec(name)
    return systems_passed_to_nullspace(prolongation, lambda: _prolong(spec, spec.max_k))


@pytest.mark.parametrize("name, count", [
    ("r3_gl", 3), ("h1_der", 4), ("heisenberg", 5), ("engel", 3)])
def test_nullspace_matches_sympy_on_prolongation_systems(name, count):
    systems = prolongation_systems(name)
    assert len(systems) == count
    for m in systems:
        assert_nullspace_matches_sympy(m)


# the bundled specs and the scale families R^3-R^8, H_1-H_3
PROLONGED = list(BUNDLED) + [f"r{n}" for n in range(3, 9)] + [f"h{n}" for n in range(1, 4)]


@pytest.mark.parametrize("name", PROLONGED)
def test_no_empty_row_reaches_nullspace_from_prolong(name):
    # a Leibniz target coordinate that no term reaches is the equation
    # 0 = 0, which is left out rather than handed to the elimination
    systems = prolongation_systems(name)
    assert systems
    for m in systems:
        assert all(m.entries), name
        if name in ("r5", "h2"):
            assert_nullspace_matches_sympy(m)


@pytest.mark.parametrize("delta", [0, 3])
def test_nullspace_matches_sympy_on_residual_systems(delta):
    assert_nullspace_matches_sympy(cartan_residual_system(delta))


@pytest.mark.parametrize("m", [
    SparseRows([{}, {}], 0),
    sparse([[1, 2, 0], [0, 1, 3], [1, 0, 1]], 3),
    SparseRows([], 4),
    sparse([[0, 1, 2, 0], [0, 0, 1, 5]], 4),
    sparse([[1, 0, 2, 1], [0, 1, 1, 0]], 4),
], ids=["no_columns", "full_column_rank", "no_rows", "free_first_and_last", "free_last_two"])
def test_nullspace_matches_sympy_on_edge_cases(m):
    assert_nullspace_matches_sympy(m)


# -- the descending reduction against the reversed-copy reference ----------


def assert_nullspace_matches_reversed_copy(m):
    """``nullspace(m)`` equals the reference in basis, pivots, coefficient
    types and column order, and its columns ascend."""
    got, ref = nullspace(m), nullspace_by_reversed_copy(m)
    assert (got.ambient_dim, got.pivots) == (ref.ambient_dim, ref.pivots)
    assert typed_entries(SparseRows(got.basis, m.cols)) == \
        typed_entries(SparseRows(ref.basis, m.cols))
    assert all(list(v) == sorted(v) for v in got.basis)
    if got.basis:
        assert_int_when_integral(x for v in got.basis for x in v.values())


@settings(max_examples=200, deadline=None, database=None)
@given(mixed_systems())
def test_nullspace_matches_the_reversed_copy(m):
    assert_nullspace_matches_reversed_copy(m)


@pytest.mark.parametrize("name", PROLONGED)
def test_nullspace_matches_the_reversed_copy_on_prolongation_systems(name):
    systems = prolongation_systems(name)
    assert systems
    for m in systems:
        assert_nullspace_matches_reversed_copy(m)


def oracle_block_systems(name, degree):
    """Every residual system the oracle of a spec solves up to ``degree``."""
    import carnot.contact_pde as contact_pde
    from carnot.cli import spec_constraint
    from .conftest import named_algebra_frame, named_spec
    _, frame = named_algebra_frame(name)
    constraint = spec_constraint(named_spec(name))
    return systems_passed_to_nullspace(
        contact_pde, lambda: contact_pde.solve_polynomial_conformal(frame, constraint, degree))


# the oracle jobs of the benchmark's fields workload
@pytest.mark.parametrize("name, degree", [
    ("engel", 6), ("heis_x_r", 3), ("free_3_2", 3), ("cartan_235", 3), ("two_centre", 3)])
def test_nullspace_matches_the_reversed_copy_on_oracle_blocks(name, degree):
    systems = oracle_block_systems(name, degree)
    assert systems
    for m in systems:
        assert_nullspace_matches_reversed_copy(m)


# the caller's own system, which nullspace must hand to rref uncopied
OWN_SYSTEM = sparse([[1, 2], [3, 4]], 2)


@pytest.mark.parametrize("call, shape, keywords", [
    (lambda: nullspace(OWN_SYSTEM), (2, 2), {"descending": True}),
    (lambda: solve(sparse([[1, 2], [3, 4]], 2), [[Fraction(1), Fraction(2)]]), (2, 3), {}),
    (lambda: solve(sparse([[1, 2], [3, 4]], 2), [[1, 2], [0, 1], [5, 0]]), (2, 5), {}),
    (lambda: Subspace.from_vectors([{0: 1}, {1: 2}], 3), (2, 3), {}),
], ids=["nullspace", "solve", "solve_several", "from_vectors"])
def test_elimination_goes_through_the_module_rref(monkeypatch, call, shape, keywords):
    # the benchmark times every elimination by wrapping exact_linalg.rref;
    # each makes exactly one call, on the caller's own system (augmented by
    # every right-hand side, for solve); only nullspace asks for the
    # descending pivots, and it hands over the very object it was given
    import carnot.exact_linalg as exact_linalg
    calls = []
    original = exact_linalg.rref
    monkeypatch.setattr(exact_linalg, "rref",
                        lambda m, **kw: calls.append((m, kw)) or original(m, **kw))
    call()
    assert [((m.rows, m.cols), kw) for m, kw in calls] == [(shape, keywords)]
    if keywords:
        assert calls[0][0] is OWN_SYSTEM
