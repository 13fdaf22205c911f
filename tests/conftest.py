import random
from fractions import Fraction
from pathlib import Path

import pytest

from carnot.graded_lie import GradedLieAlgebra, build_algebra
from carnot.polynomials import Poly
from carnot.prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix,
                                 full_prolongation, strata_derivations)
from carnot.group_realization import CoordinateRecipe, left_invariant_frame, realize_tau


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
# generated specs whose text is stored in tests/golden
GENERATED = ("heis_x_r", "free_3_2", "cartan_235", "two_centre")


def named_algebra_frame(name):
    """Algebra and left-invariant frame of a bundled or stored spec, or of
    ``h<n>`` / ``r<n>`` (H_n, R^n in one exponential factor)."""
    from carnot import bundled_spec
    from carnot.cli import parse_spec_file, spec_algebra, spec_recipe
    if name in BUNDLED or name in GENERATED:
        path = bundled_spec(name + ".alg") if name in BUNDLED else str(GOLDEN / f"{name}.alg")
        spec = parse_spec_file(path)
        g = spec_algebra(spec)
        recipe = spec_recipe(spec, g)
    else:
        n = int(name[1:])
        g = make_heisenberg_n(n) if name[0] == "h" else make_abelian(n)
        recipe = CoordinateRecipe.single_factor(g)
    return g, left_invariant_frame(g, recipe)


def conformal_g0(g):
    return constrain_g0(strata_derivations(g), GZeroConstraint.conformal())


def zero_matrices(level):
    """The basis of a level-0 space as full n x n rows."""
    return [degree_zero_matrix(level.algebra, values) for values in level.actions]


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


def dense_bracket(s, a, b):
    """The dense coefficient vector of [e_a, e_b], read from the bracket
    table of a prolongation algebra."""
    out = [Fraction(0)] * s.dim
    for k, c in s.bracket_table[a][b]:
        out[k] = c
    return out


def residual_polys(terms, frame):
    """The per-equation Poly list of a sparse residual ``{(eq, exp): c}``:
    the m(n-m) contact equations, then the m(m+1)/2 conformal entries."""
    m, n = frame.horizontal, len(frame)
    parts = [{} for _ in range(m * (n - m) + m * (m + 1) // 2)]
    for (eq, exp), c in terms.items():
        parts[eq][exp] = c
    return [Poly(frame.ring, t) for t in parts]


def rand_point(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.fixture(scope="session")
def engel():
    return make_engel()


@pytest.fixture(scope="session")
def engel_recipe(engel):
    return CoordinateRecipe.from_factor_names(engel, [["X2", "Y", "Z"], ["X1"]])


@pytest.fixture(scope="session")
def engel_frame(engel, engel_recipe):
    return left_invariant_frame(engel, engel_recipe)


@pytest.fixture(scope="session")
def engel_prolongation(engel):
    return full_prolongation(engel, conformal_g0(engel))


@pytest.fixture(scope="session")
def engel_tau(engel_prolongation, engel_frame):
    algebra, _ = engel_prolongation
    return realize_tau(algebra, engel_frame)


@pytest.fixture(scope="session")
def heisenberg():
    return make_heisenberg()


@pytest.fixture(scope="session")
def heisenberg_frame(heisenberg):
    return left_invariant_frame(heisenberg, CoordinateRecipe.single_factor(heisenberg))


@pytest.fixture
def rng():
    return random.Random(20260810)
