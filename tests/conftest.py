import random
from fractions import Fraction

import pytest

from carnot.graded_lie import build_algebra
from carnot.prolongation import (DegreeZeroMap, GZeroConstraint, constrain_g0, full_prolongation,
                                 strata_derivations)
from carnot.group_realization import CoordinateRecipe, left_invariant_frame, realize_tau


def make_engel():
    return build_algebra([["X1", "X2"], ["Y"], ["Z"]],
                         {("X1", "X2"): [(1, "Y")], ("X1", "Y"): [(1, "Z")]})


def make_heisenberg():
    return build_algebra([["X1", "X2"], ["Y"]], {("X1", "X2"): [(1, "Y")]})


def make_abelian(n):
    return build_algebra([[f"X{i + 1}" for i in range(n)]], {})


def conformal_g0(g):
    return constrain_g0(strata_derivations(g), GZeroConstraint.conformal())


def zero_maps(level):
    """The basis of a level-0 space as block maps."""
    return [DegreeZeroMap.from_values(level.algebra, values) for values in level.actions]


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
def engel_tau(engel_prolongation, engel_recipe):
    algebra, _ = engel_prolongation
    return realize_tau(algebra, engel_recipe)


@pytest.fixture(scope="session")
def heisenberg():
    return make_heisenberg()


@pytest.fixture(scope="session")
def heisenberg_frame(heisenberg):
    return left_invariant_frame(heisenberg, CoordinateRecipe.single_factor(heisenberg))


@pytest.fixture
def rng():
    return random.Random(20260810)
