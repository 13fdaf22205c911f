"""Exact prolongation of stratified nilpotent Lie algebras.

The package computes strata-preserving derivations, the conformally
constrained degree-zero algebra, the tower of prolongation spaces, and a
realization of the resulting finite-dimensional algebra as polynomial
vector fields on the group, everything in exact rational arithmetic.  An
independent bounded-degree PDE solver cross-checks the dimensions.
"""

from .exact_linalg import Rational, SparseRows, Subspace, nullspace, rref, span_equal
from .graded_lie import GradedLieAlgebra, build_algebra
from .prolongation import (GZeroConstraint, Level, ProlongationAlgebra, TerminationReport,
                           constrain_g0, degree_zero_matrix, full_prolongation, prolong_step,
                           strata_derivations)
from .group_realization import (CoordinateRecipe, Frame, PolyVectorField, bch, dilations,
                                group_product, left_invariant_frame, realize_tau,
                                similarity_check)
from .contact_pde import (ContactJet, DefectReport, conformal_defect, contact_defect,
                          jet, jet_jacobi_check, solve_h_system, solve_polynomial_conformal)

__version__ = "0.1.0"


def bundled_spec(name: str) -> str:
    """Filesystem path of one of the packaged example .alg files."""
    from importlib import resources

    return str(resources.files("carnot") / "specs" / name)
