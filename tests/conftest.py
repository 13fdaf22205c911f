import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from carnot.contact_pde import ContactJet
from carnot.exact_linalg import SparseRows, exact, solve, sparse_row
from carnot.graded_lie import GradedLieAlgebra, build_algebra
from carnot.polynomials import Poly, PolyRing, substitute
from carnot.prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix,
                                 full_prolongation, strata_derivations)
from carnot.group_realization import (CoordinateRecipe, bch, factor_log, group_product,
                                      left_invariant_frame, log_of_coords, realize_tau)


def make_engel():
    return build_algebra([["X1", "X2"], ["Y"], ["Z"]],
                         {("X1", "X2"): [(1, "Y")], ("X1", "Y"): [(1, "Z")]})


def make_heisenberg():
    return build_algebra([["X1", "X2"], ["Y"]], {("X1", "X2"): [(1, "Y")]})


def make_abelian(n):
    return build_algebra([[f"X{i + 1}" for i in range(n)]], {})


def make_heisenberg_n(n):
    xs = [f"X{i}" for i in range(1, n + 1)]
    ys = [f"Y{i}" for i in range(1, n + 1)]
    return build_algebra([xs + ys, ["T"]], {(x, y): [(1, "T")] for x, y in zip(xs, ys)})


def permuted(g, order):
    """The same algebra with its basis declared in the given order."""
    new = {old: i for i, old in enumerate(order)}
    rows = [[[(new[k], c) for k, c in g.rows[a][b]] for b in order] for a in order]
    return GradedLieAlgebra([g.names[i] for i in order], [g.weights[i] for i in order], rows)


GOLDEN = Path(__file__).parent / "golden"
BUNDLED = ("engel", "heisenberg", "r1", "r2_co2", "r3_co3")
# generated specs whose text is stored in tests/golden; half_constants has
# the non-integral structure constants
GENERATED = ("heis_x_r", "free_3_2", "cartan_235", "two_centre", "half_constants")


def spec_text(name, layers, brackets, g0):
    """The text of a spec file: ``layers`` lists the basis names of layer
    -1, -2, ..., ``brackets`` maps a pair of names to the name of their
    bracket, and ``g0`` is the body of the [g0] section."""
    lines = ["[algebra]", f"name = {name}"]
    lines += [f"layer -{d} = {' '.join(names)}" for d, names in enumerate(layers, start=1)]
    lines += [f"[{a},{b}] = {c}" for (a, b), c in brackets.items()]
    return "\n".join(lines + ["[g0]", g0]) + "\n"


FULL_DERIVATIONS = "constraint = full_derivations"
# g0 = 0 on a first layer of dimension 2: every block entry vanishes
ZERO_G0 = "constraint = explicit\n" + "\n".join(
    f"condition = B({r},{c})" for r in (1, 2) for c in (1, 2))


def free_step_two_spec(n, g0):
    """The free step-2 algebra on n generators, with [Xi,Xj] = Yij."""
    pairs = list(combinations(range(1, n + 1), 2))
    layers = [[f"X{i}" for i in range(1, n + 1)], [f"Y{i}{j}" for i, j in pairs]]
    return spec_text(f"free_{n}_2", layers, {(f"X{i}", f"X{j}"): f"Y{i}{j}" for i, j in pairs}, g0)


def cartan_235_spec(g0):
    """The (2,3,5) algebra, whose tower with every derivation is g2."""
    return spec_text("cartan_235", [["X1", "X2"], ["Y"], ["Z1", "Z2"]],
                     {("X1", "X2"): "Y", ("X1", "Y"): "Z1", ("X2", "Y"): "Z2"}, g0)


def heisenberg_spec(g0):
    return spec_text("heisenberg", [["X1", "X2"], ["Y"]], {("X1", "X2"): "Y"}, g0)


def spec_file(name):
    """Path of a bundled spec, or of a spec stored in tests/golden."""
    from carnot import bundled_spec
    return bundled_spec(name + ".alg") if name in BUNDLED else str(GOLDEN / f"{name}.alg")


def named_algebra_frame(name):
    """Algebra and left-invariant frame of a bundled spec or one stored in
    tests/golden, or of ``h<n>`` / ``r<n>`` (H_n, R^n in one exponential
    factor)."""
    from carnot.cli import parse_spec_file, spec_algebra, spec_recipe
    if name in BUNDLED or (GOLDEN / f"{name}.alg").exists():
        spec = parse_spec_file(spec_file(name))
        g = spec_algebra(spec)
        recipe = spec_recipe(spec, g)
    else:
        n = int(name[1:])
        g = make_heisenberg_n(n) if name[0] == "h" else make_abelian(n)
        recipe = CoordinateRecipe.single_factor(g)
    return g, left_invariant_frame(recipe)


def scale_family_text(name):
    """Spec text of H_n (``h<n>``) or R^n (``r<n>``) with the conformal g0."""
    n = int(name[1:])
    xs = [f"X{i}" for i in range(1, n + 1)]
    if name[0] == "h":
        ys = [f"Y{i}" for i in range(1, n + 1)]
        body = f"layer -1 = {' '.join(xs + ys)}\nlayer -2 = T\n"
        body += "".join(f"[{x},{y}] = T\n" for x, y in zip(xs, ys))
    else:
        body = f"layer -1 = {' '.join(xs)}\n"
    return f"[algebra]\nname = {name}\n{body}[g0]\nconstraint = conformal\n"


def named_spec(name):
    """The parsed spec of a bundled spec, of one stored in tests/golden, or
    of a scale family ``h<n>`` / ``r<n>``."""
    from carnot.cli import parse_spec_file, parse_spec_text
    if name in BUNDLED or (GOLDEN / f"{name}.alg").exists():
        return parse_spec_file(spec_file(name))
    return parse_spec_text(scale_family_text(name))


# the bundled and tests/golden specs whose towers terminate; the others
# (r1, r2_co2, h1_der, r3_gl) are cut off
TERMINATING = ("engel", "heisenberg", "r3_co3", "cartan_235", "free_3_2", "g2_full",
               "half_constants", "heis_x_r", "two_centre")

CONFORMAL = GZeroConstraint.conformal()


def assert_int_when_integral(coefficients):
    """Pin the coefficient convention: each one is an ``int`` when it is
    integral and a ``Fraction`` only otherwise."""
    coefficients = list(coefficients)
    assert coefficients
    for c in coefficients:
        assert type(c) is (int if c.denominator == 1 else Fraction), (c, type(c))


def conformal_g0(g):
    return constrain_g0(strata_derivations(g), CONFORMAL)


def zero_matrices(level):
    """The basis of a level-0 space as full n x n rows."""
    return [degree_zero_matrix(level.algebra, values) for values in level.actions]


def basis_vector(g, i):
    """The dense coefficient vector of basis element i of ``g``."""
    v = [Fraction(0)] * g.dim
    v[i] = Fraction(1)
    return v


def sparse_values(values):
    """The ``{t: c}`` form of a map's values given as dense tuples: the
    form of ``Level.actions`` that ``Level.coordinates_of_values`` takes
    and the jets hold."""
    return tuple(sparse_row(value) for value in values)


def dense_values_matrix(g, values):
    """Full n x n rows of a degree-zero map given by dense values."""
    return degree_zero_matrix(g, sparse_values(values))


def values_of(g, rows):
    """The values of a layer-preserving map given by its full rows: entry c
    is the image of e_c in local coordinates of its layer."""
    return tuple(tuple(rows[r][c] for r in g.layer_indices(-g.weights[c])) for c in range(g.dim))


def apply_rows(rows, v):
    """The matrix action of full rows on a vector of Fraction or Poly entries."""
    out = []
    for row in rows:
        acc = Fraction(0)
        for c, x in zip(row, v):
            if c:
                acc = acc + c * x
        out.append(acc)
    return out


def subs_reference(p, values):
    """Reference for ``polynomials.substitute``: p with ``values[i]`` (a
    polynomial or a constant, at least one a polynomial) put in for
    variable i, one term at a time."""
    if len(values) != p.ring.nvars:
        raise ValueError("one substitution per variable required")
    target = next(v.ring for v in values if isinstance(v, Poly))
    vals = [v if isinstance(v, Poly) else target.const(v) for v in values]
    acc = target.zero()
    for e, c in p.terms.items():
        term = target.const(c)
        for v, k in zip(vals, e):
            if k:
                term = term * v ** k
        acc = acc + term
    return acc


def jacobian_reference(comps):
    """The symbolic Jacobian of a polynomial map with the components
    ``comps``: entry (c, d) is the partial of component c in coordinate d."""
    return [[comps[c].diff(d) for d in range(len(comps))] for c in range(len(comps))]


def left_translation(recipe, p):
    """Reference for the family of ``translation_pushforwards``: q -> p * q
    as its components in the recipe's ring, the group law with the
    constants p put in for its first point."""
    n = recipe.algebra.dim
    if len(p) != n:
        raise ValueError("point has wrong length")
    ring = recipe.ring
    values = [ring.const(x) for x in p] + [ring.var(i) for i in range(n)]
    return tuple(substitute(recipe.law, values))


def to_coords(frame, frame_components):
    """Coordinate components of the field sum_j f_j X_j given by its frame
    components f_j (polynomials or constants): component c is
    sum_j f_j columns[j][c], the coordinate reference the homomorphism and
    residual tests bracket in."""
    ring = frame.ring
    comps = [f if isinstance(f, Poly) else ring.const(f) for f in frame_components]
    return [sum((f * col[c] for f, col in zip(comps, frame.columns)), ring.zero())
            for c in range(len(frame))]


def group_inverse(recipe, p):
    """The inverse of the point p in recipe coordinates."""
    return factor_log(recipe, [-x for x in log_of_coords(recipe, p)])


def factorwise_image(recipe, xs, move):
    """Recipe coordinates of exp(move(a_1)) ... exp(move(a_r)), where a_i
    is the part of the coordinates ``xs`` on factor i: a linear map applied
    to each exponential factor, the factors folded by BCH one at a time."""
    g = recipe.algebra
    zero = xs[0] - xs[0]
    moved = [move([x if j in factor else zero for j, x in enumerate(xs)])
             for factor in recipe.factors]
    return factor_log(recipe, reduce(lambda a, b: bch(g, a, b), moved))


def factorwise_automorphism(recipe, phi):
    """Reference for ``graded_automorphism``: the coordinates of the image
    of the point x, with phi applied factor by factor."""
    ring = recipe.ring
    xs = [ring.var(i) for i in range(recipe.algebra.dim)]
    return factorwise_image(recipe, xs, lambda arg: apply_rows(phi.entries, arg))


def t_extended_ring(recipe):
    """The coordinate ring with a flow parameter ``t`` appended (suffixed
    with ``_`` until it is no coordinate's name), and the index of t."""
    name = "t"
    while name in recipe.coord_names:
        name += "_"
    ring = PolyRing(recipe.coord_names + (name,), recipe.coord_weights + (1,))
    return ring, len(recipe.coord_names)


def flow_generators_reference(recipe, right):
    """Reference for the frame (``right`` false) and the right-invariant
    fields (``right`` true): the coordinate fields d/dt at t=0 of
    p -> p * exp(t e_j), or of p -> exp(t e_j) * p, one symbolic product
    with t e_j per basis element j."""
    g = recipe.algebra
    ring_t, t_index = t_extended_ring(recipe)
    xring = recipe.ring
    xs = [ring_t.var(i) for i in range(g.dim)]
    t = ring_t.var(t_index)
    zero = ring_t.zero()
    columns = []
    for j in range(g.dim):
        q = [zero] * g.dim
        q[j] = t
        prod = group_product(recipe, q, xs) if right else group_product(recipe, xs, q)
        # the t-linear part; t is the last variable, so dropping it leaves x
        columns.append([Poly(xring, {e[:t_index]: x for e, x in c.terms.items()
                                     if e[t_index] == 1}) for c in prod])
    return columns


def translation_system(generators, horizontal, degree):
    """The map f -> (R_i f)_i, i over ``horizontal``, on polynomials of
    weighted degree ``degree``, for the coordinate fields ``generators``:
    its columns are the monomials of that degree, and row ``index[(i, e)]``
    holds the coefficient of x^e in R_i f.  Each R_i has degree -1."""
    ring = generators.ring
    monos = ring.monomials_exact(degree)
    lower = ring.monomials_exact(degree - 1)
    index = {key: r for r, key in enumerate((i, e) for i in horizontal for e in lower)}
    rows = [{} for _ in index]
    for col, exp in enumerate(monos):
        for i in horizontal:
            for e, x in generators.derivative_terms(i, exp):
                rows[index[(i, e)]][col] = x
    return monos, SparseRows(rows, len(monos)), index


def realize_tau_by_elimination(s, frame):
    """Reference for ``realize_tau``: the field of a level-k element u is
    the unique field V_u of degree k with [V_u, R_X] = -V_[u,X] for every
    X in layer -1, found by exact elimination.  For V_u = sum_j f_j X_j
    this reads R_X(f_j) = (V_[u,X])_j, a linear system over the monomials
    of weighted degree k + |w_j|; levels are solved in increasing order,
    one elimination per level and layer."""
    g = s.negative
    ring = frame.ring
    zero = ring.zero()
    generators = frame.recipe.right_invariant
    horizontal = g.layer_indices(1)
    xs = [s.sbasis.index(("neg", i)) for i in horizontal]  # the same X, in s
    fields = [None] * s.dim
    levels = {}
    for a, key in enumerate(s.sbasis):
        if key[0] == "neg":
            fields[a] = frame.to_frame(generators.columns[key[1]])
        else:
            levels.setdefault(key[1], []).append(a)
    for k in sorted(levels):
        elements = levels[k]
        for depth in range(1, g.step + 1):
            monos, system, index = translation_system(generators, horizontal, k + depth)
            keys = [(a, j) for a in elements for j in g.layer_indices(depth)]
            rhs = []
            for a, j in keys:
                b = [0] * system.rows
                for i, x in zip(horizontal, xs):
                    target = sum((c * fields[u][j] for u, c in s.bracket_table[a][x]), zero)
                    for e, c in target.terms.items():
                        b[index[(i, e)]] = c
                rhs.append(b)
            for (a, j), coeffs in zip(keys, solve(system, rhs)):
                assert coeffs is not None, (s.labels[a], j)
                if fields[a] is None:
                    fields[a] = [None] * g.dim
                fields[a][j] = Poly(ring, dict(zip(monos, coeffs)))
    return fields


def spec_tower(spec):
    """The prolongation algebra and termination report of a parsed spec."""
    from carnot.cli import spec_algebra, spec_constraint
    g = spec_algebra(spec)
    g0 = constrain_g0(strata_derivations(g), spec_constraint(spec))
    return full_prolongation(g, g0, max_k=spec.max_k)


def reference_bracket_table(s):
    """The bracket table of a prolongation algebra, every level-level entry
    worked out from the full value of [u_a, u_b] on g_-: its coordinates
    are read at the pivot cells of the target level, and the residue left
    after subtracting their combination must vanish on every X (as must
    the whole value when the target level is past the top).  The
    reference for the pivot-only assembly of ``ProlongationAlgebra``."""
    g = s.negative
    n = s.dim
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[a][a] = ()

    def put(a, b, row):
        table[a][b] = row
        table[b][a] = tuple((k, -c) for k, c in row)

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
            put(a, b, s._sparse_value(s.levels[k].actions[p][j], g.weights[j] + k))
    pivot_cells = [{(s._pos[("neg", j)], s._block[g.weights[j] + lvl.k][t]): i
                    for (j, t), i in zip(lvl.pivot_cells, s._block.get(lvl.k, ()))}
                   for lvl in s.levels]
    lev_pairs = sorted(((a, b) for a in levs for b in levs if a < b),
                       key=lambda ab: s.sbasis[ab[0]][1] + s.sbasis[ab[1]][1])
    for a, b in lev_pairs:
        level_sum = s.sbasis[a][1] + s.sbasis[b][1]
        values = {}
        for x in negs:
            value = {}
            for outer, inner, sign in ((a, table[b][x], 1), (b, table[a][x], -1)):
                for i, c in inner:
                    for m, y in table[outer][i]:
                        value[m] = value.get(m, 0) + sign * c * y
            values[x] = value
        coords = {}
        if level_sum <= s.top_level():
            pivots = pivot_cells[level_sum]
            for x, value in values.items():
                for m, y in value.items():
                    i = pivots.get((x, m))
                    if i is not None and y:
                        coords[i] = exact(y)
            for i, c in coords.items():
                for x in negs:
                    value = values[x]
                    for m, y in table[i][x]:
                        value[m] = value.get(m, 0) - c * y
        assert not any(y for value in values.values() for y in value.values()), (
            f"[{s.labels[a]}, {s.labels[b]}] leaves level {level_sum}")
        put(a, b, tuple(sorted(coords.items())))
    return table


def dense_bracket(s, a, b):
    """The dense coefficient vector of [e_a, e_b], read from the bracket
    table of a prolongation algebra."""
    out = [Fraction(0)] * s.dim
    for k, c in s.bracket_table[a][b]:
        out[k] = c
    return out


def dense_action(level, b, j):
    """The value of the b-th basis element of a level on negative basis
    element j, as the dense tuple of its local coordinates: the reference
    view of ``level.actions[b][j]``."""
    value = level.actions[b][j]
    return tuple(value.get(t, Fraction(0)) for t in range(len(level.columns[j])))


def action_vector(s, a, b):
    """The dense s-vector of u(e_j), for the level element u = e_a and the
    negative element e_j = e_b of a prolongation algebra, read from the
    level's action."""
    _, k, p = s.sbasis[a]
    j = s.sbasis[b][1]
    out = [Fraction(0)] * s.dim
    for i, c in s._sparse_value(s.levels[k].actions[p][j], s.negative.weights[j] + k):
        out[i] = c
    return out


def jacobiator(s, a, b, c):
    """The nonzero entries of [e_a,[e_b,e_c]] + [e_b,[e_c,e_a]] + [e_c,[e_a,e_b]],
    each term taken by ``bracket_vec`` on sparse rows."""
    out = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for k, v in s.bracket_vec({x: Fraction(1)}, dict(s.bracket_table[y][z])).items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def components(comps):
    """The kernel's sparse form of a field's frame components: the terms
    {exp: coeff} of each nonzero component, by index."""
    return {j: f.terms for j, f in enumerate(comps) if f.terms}


def residual_polys(terms, frame, rows):
    """The per-equation Poly list of a sparse residual ``{(eq, exp): c}``:
    the m(n-m) contact equations, then one per ``g0`` condition row."""
    m, n = frame.horizontal, len(frame)
    parts = [{} for _ in range(m * (n - m) + len(rows))]
    for (eq, exp), c in terms.items():
        parts[eq][exp] = c
    return [Poly(frame.ring, t) for t in parts]


def jet_at(jt, point):
    """The jet at a rational point: the symbolic parts of ``jt`` with each
    entry evaluated there, zeros dropped."""
    pt = [Fraction(x) for x in point]
    return ContactJet(tuple(tuple({t: x for t, f in value.items() if (x := f.eval(pt))}
                                  for value in part) for part in jt.parts))


def rand_point(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.fixture(scope="session")
def engel():
    return make_engel()


@pytest.fixture(scope="session")
def engel_recipe(engel):
    return CoordinateRecipe.from_factor_names(engel, [["X2", "Y", "Z"], ["X1"]])


@pytest.fixture(scope="session")
def engel_frame(engel_recipe):
    return left_invariant_frame(engel_recipe)


@pytest.fixture(scope="session")
def engel_prolongation(engel):
    return full_prolongation(engel, conformal_g0(engel))


@pytest.fixture(scope="session")
def engel_levels(engel_prolongation):
    algebra, _ = engel_prolongation
    return algebra.levels


@pytest.fixture(scope="session")
def engel_tau(engel_prolongation, engel_frame):
    algebra, _ = engel_prolongation
    return realize_tau(algebra, engel_frame)


@pytest.fixture(scope="session")
def heisenberg():
    return make_heisenberg()


@pytest.fixture(scope="session")
def heisenberg_frame(heisenberg):
    return left_invariant_frame(CoordinateRecipe.single_factor(heisenberg))


@pytest.fixture
def rng():
    return random.Random(20260810)
