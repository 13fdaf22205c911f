"""Contact and ``g0`` conditions as exact polynomial residuals.

A vector field V is contact when [V, X] stays horizontal for every
horizontal frame field X, and its horizontal derivative matrix then lies
in the spec's ``g0`` when it meets ``GZeroConstraint.first_layer_rows``,
the rows ``constrain_g0`` reads for the tower.  Residuals are full
polynomials, never point samples, so every verdict is an identity check.
The jet of a field is built by one rule, with the point symbolic: part
k on e_j is X_j applied to whatever has degree w_j + k, in the local
coordinates of that degree: the field's components on that layer while
the degree is negative, and otherwise the coordinates of part w_j + k in
its level, read at ``Level.pivot_cells``.  Each value is ``{t: f}`` with
polynomial entries, the form of ``Level.actions`` that
``Level.coordinates_of_values`` takes, so the levels of the tower decide
membership and the derivation law as identities in the point.  The
bounded-degree ansatz solver at the end is the brute-force cross-check for
the prolongation: it returns the fields of each homogeneous block, and
:func:`same_span` compares them with the realized fields.  The brute force
runs up to the first zero block of degree >= 0; from there on a lemma
(Tanaka's finiteness argument, see :func:`solve_polynomial_conformal`)
proves every later block zero.  The paper's Engel computation, a linear
system in the vertical coefficient h of a contact field, is this brute
force specialised to the Engel bracket pattern; the tests keep it as a
reference.

The contact residuals are computed in frame components, without
coordinates.  The left-invariant frame realizes the algebra,
``[X_j, X_i] = sum_k c_ji^k X_k`` with ``c`` read from ``g.rows``, so for
``V = sum_j f_j X_j`` and horizontal ``X_i``

    [V, X_i] = sum_k (sum_j f_j c_ji^k - X_i(f_k)) X_k,

and the residuals are the components ``k`` outside layer -1.  ``verify``
checks the premise at runtime on the generation pairs of ``g.spanned_by``,
one coordinate :func:`vf_bracket` each (premise P3 of its homomorphism
check); the full table is checked on every bundled and generated spec by
``test_frame_brackets`` in ``tests/test_group_realization.py``.

One kernel, :func:`conformal_system_residuals`, computes the contact and
condition-row residuals together as sparse ``(equation, monomial)`` terms,
accumulated straight from ``g.rows`` and the frame's monomial-derivative
table (:meth:`Frame.derivative_terms`), with no intermediate polynomial.
The ansatz solver copies those terms into its matrix columns;
:func:`contact_defect` (no rows) and :func:`conformal_defect` split them
into labelled polynomials, and :func:`conformal_defect` certifies contact
from the same terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_linalg import SparseRows, Subspace, nullspace, span_equal
from .polynomials import Poly
from .group_realization import Frame, PolyVectorField
from .prolongation import GZeroConstraint, Level


class NotContact(ValueError):
    pass


@dataclass(frozen=True)
class DefectReport:
    """Labelled residual polynomials of one of the PDE systems."""

    residuals: tuple[tuple[str, Poly], ...]

    @property
    def all_zero(self) -> bool:
        return all(p.is_zero() for _, p in self.residuals)

    def nonzero(self) -> list[tuple[str, Poly]]:
        return [(label, p) for label, p in self.residuals if not p.is_zero()]


def vf_bracket(a: Sequence[Poly], b: Sequence[Poly]) -> list[Poly]:
    """Commutator of coordinate vector fields: a(b_c) - b(a_c) per component."""
    n = len(a)
    out = []
    for c in range(n):
        acc = None
        for d in range(n):
            if not a[d].is_zero():
                term = a[d] * b[c].diff(d)
                acc = term if acc is None else acc + term
            if not b[d].is_zero():
                term = b[d] * a[c].diff(d)
                acc = -term if acc is None else acc - term
        out.append(acc if acc is not None else a[c].ring.zero())
    return out


Terms = dict[tuple[int, tuple[int, ...]], Fraction]


def conformal_system_residuals(comps: dict[int, dict], frame: Frame, rows: Sequence[dict]) -> Terms:
    """The joint contact + ``g0`` residual of ``V = sum_j f_j X_j``, given
    by the terms ``{exponent: coefficient}`` of each nonzero f_j, as sparse
    terms ``{(equation, exponent): coefficient}`` with no zero coefficient.

    Equation ``i (n-m) + (k-m)`` is component k >= m of [V, X_i] for
    horizontal X_i, i-major; equation ``m (n-m) + q`` is condition row q of
    the ``g0`` constraint, a row ``{(r, c): a}`` reading ``sum a X_c(f_r)``
    on the horizontal derivative matrix ``M[r][c] = X_c(f_r)``.  The terms
    are read straight from ``g.rows`` and the frame's derivative table.
    """
    g = frame.algebra
    m = frame.horizontal
    width = g.dim - m
    derivative = frame.derivative_terms
    out: Terms = {}

    def put(eq: int, e: tuple[int, ...], x: Fraction) -> None:
        if (eq, e) in out:
            out[eq, e] += x
        else:
            out[eq, e] = x

    for j, terms in comps.items():
        for i in range(m):
            # f_j c_ji^k: [X_j, X_i] lies in layers -2 and deeper, so every k >= m
            for k, c in g.rows[j][i]:
                for exp, a in terms.items():
                    put(i * width + k - m, exp, c * a)
            if j >= m:
                # - X_i(f_j)
                for exp, a in terms.items():
                    for e, d in derivative(i, exp):
                        put(i * width + j - m, e, -a * d)
    for eq, row in enumerate(rows, start=m * width):
        for (r, c), a in row.items():
            if r in comps:
                for exp, b in comps[r].items():
                    x = a * b
                    for e, d in derivative(c, exp):
                        put(eq, e, x * d)
    return {key: x for key, x in out.items() if x}


# The defects call the kernel under this private name, so that every call
# of the public name is one ansatz column of the solver below (the
# benchmark counts those calls as the columns of each oracle block).
_system_terms = conformal_system_residuals


def _split(terms: Terms, frame: Frame, start: int, stop: int) -> list[Poly]:
    """Equations ``start .. stop - 1`` of a residual, one Poly each."""
    parts: list[dict] = [{} for _ in range(start, stop)]
    for (eq, e), x in terms.items():
        if start <= eq < stop:
            parts[eq - start][e] = x
    return [Poly(frame.ring, t) for t in parts]


def contact_defect(V: PolyVectorField, frame: Frame) -> DefectReport:
    """Non-horizontal frame components of [V, X] for each horizontal X."""
    names = frame.algebra.names
    m = frame.horizontal
    labels = [f"[V,~{names[i]}]@~{names[j]}" for i in range(m) for j in range(m, len(frame))]
    terms = _system_terms({j: f.terms for j, f in enumerate(V.components) if f.terms}, frame, ())
    return DefectReport(tuple(zip(labels, _split(terms, frame, 0, len(labels)))))


def conformal_defect(V: PolyVectorField, frame: Frame, constraint: GZeroConstraint) -> DefectReport:
    """Residuals of the spec's ``g0`` condition rows, labelled ``g0 row q``.

    The same kernel run certifies contact: no term is a contact equation."""
    m = frame.horizontal
    start = m * (len(frame) - m)
    rows = constraint.first_layer_rows(m)
    terms = _system_terms({j: f.terms for j, f in enumerate(V.components) if f.terms}, frame, rows)
    if any(eq < start for eq, _ in terms):
        raise NotContact("the g0 condition is only defined for contact fields")
    labels = [f"g0 row {q}" for q in range(1, len(rows) + 1)]
    return DefectReport(tuple(zip(labels, _split(terms, frame, start, start + len(rows)))))


def _residual_rows(residuals: Iterable[Terms]) -> list[dict[int, Fraction]]:
    """One sparse row per (equation, monomial) pair that occurs: column
    ``col`` holds the coefficient of the monomial in equation ``eq`` of the
    col-th residual."""
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, terms in enumerate(residuals):
        for key, x in terms.items():
            rows.setdefault(key, {})[col] = x
    return list(rows.values())


# -- jets ------------------------------------------------------------


@dataclass(frozen=True)
class ContactJet:
    """Parts 0 and 1 of a contact field's jet, at a symbolic point.

    ``parts[k][j]`` is the value of part k on e_j as its nonzero
    components ``{t: f}`` in the local coordinates of degree w_j + k, the
    form of ``Level.actions`` with a polynomial ``f`` in the point for
    each rational entry: a layer's coordinates while the degree is
    negative, and otherwise coordinates in the level of that degree.  So
    ``g0.coordinates_of_values`` reads part 0 directly, and a part holds
    at every point exactly when it holds as an identity.
    """

    parts: tuple

    def part_is_zero(self, k: int) -> bool:
        return not any(self.parts[k])


def jet(V: PolyVectorField, frame: Frame, levels: Sequence[Level]) -> ContactJet:
    """Parts 0 and 1 of a contact field's jet, with the point symbolic.

    Part k on e_j is X_j applied to whatever has degree w_j + k: the
    field's components on that layer, or the coordinates of part w_j + k
    in ``levels[w_j + k]``, its entries at that level's pivot cells.  So
    ``levels[0]`` must hold part 0: ``g0`` once V meets the spec's
    condition rows, ``strata_derivations(g)`` for any contact field.
    The jet at a rational point p is the parts with each entry evaluated
    at p (:meth:`Poly.eval`).
    """
    if not contact_defect(V, frame).all_zero:
        raise NotContact("jets are only defined for contact fields")
    g = frame.algebra
    parts: list[list[dict[int, Poly]]] = []
    for k in range(2):
        part = []
        for j, w in enumerate(g.weights):
            if w + k < 0:
                sources = [V.components[r] for r in g.layer_indices(-w - k)]
            else:
                sources = [parts[w + k][i].get(t) for i, t in levels[w + k].pivot_cells]
            # a zero source has a zero derivative: apply X_j to the others only
            part.append({t: df for t, f in enumerate(sources) if f and (df := frame.apply(j, f))})
        parts.append(part)
    return ContactJet(tuple(tuple(part) for part in parts))


def jet_jacobi_check(j: ContactJet, ders: Level) -> bool:
    """Check that the zero-part of the jet is a strata-preserving derivation.

    ``ders`` is level 0 of the tower, the solution space of the degree-zero
    Leibniz system, so the law holds exactly when ``ders`` has coordinates
    for the values of the zero part.
    """
    return ders.coordinates_of_values(j.parts[0]) is not None


# -- bounded-degree ansatz solver --------------------------------------


def conformal_fields_of_degree(frame: Frame, constraint: GZeroConstraint,
                               delta: int) -> list[PolyVectorField]:
    """Homogeneous fields of graded degree ``delta`` that are contact and
    satisfy the spec's ``g0`` condition rows (exact nullspace).

    The PDE system commutes with the weighted grading, so the full
    bounded-degree problem splits into these homogeneous blocks.
    """
    g = frame.algebra
    ring = frame.ring
    # component i takes the monomials of degree delta + |w_i|, listed once per degree
    monomials = {d: ring.monomials_exact(d) for d in {delta - w for w in g.weights}}
    basis = [(i, exp) for i, w in enumerate(g.weights) for exp in monomials[delta - w]]
    if not basis:
        return []
    rows = constraint.first_layer_rows(frame.horizontal)
    columns = (conformal_system_residuals({i: {exp: 1}}, frame, rows) for i, exp in basis)
    space = nullspace(SparseRows(_residual_rows(columns), len(basis)))
    fields = []
    for v in space.basis:
        comps = [dict() for _ in range(g.dim)]
        for col, c in v.items():
            i, exp = basis[col]
            comps[i][exp] = c
        fields.append(PolyVectorField(tuple(Poly(ring, t) for t in comps)))
    return fields


@dataclass(frozen=True)
class ConformalSolution:
    """The ansatz solution: the fields of each homogeneous block, graded
    degree ``-step`` first; ``block_dims`` counts them per block."""

    fields: tuple[PolyVectorField, ...]
    block_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.fields)


def solve_polynomial_conformal(frame: Frame, constraint: GZeroConstraint,
                               max_weighted_degree: int = 6) -> ConformalSolution:
    """All fields within the bounded polynomial ansatz that are contact and
    satisfy the spec's ``g0`` condition rows.

    The component along the frame field of weight w may use monomials of
    weighted degree up to ``max_weighted_degree + |w|``.  The system
    commutes with the weighted grading, so the solution is the sum of the
    homogeneous blocks of graded degree ``-step .. max_weighted_degree``,
    each with its canonical echelon basis.  Each block is exact, so a
    cutoff below the top degree misses only the fields above it.  After a
    zero block of degree >= 0 the result holds for every degree: every
    later block is zero, and is listed as empty without being solved.

    The proof uses one lemma: a polynomial field that commutes with every
    right-invariant R_X, X in layer -1, is left-invariant, because layer
    -1 generates and the fields commuting with every right-invariant field
    are the left-invariant ones.  Let block delta >= 0 be zero and V =
    sum_j f_j X_j lie in block delta + 1.  R_X has degree -1 and commutes
    with every frame field X_c, so [R_X, V] = sum_j R_X(f_j) X_j has
    degree delta.  It is contact: [[R_X, V], X_i] = [R_X, [V, X_i]], and
    R_X maps the horizontal field [V, X_i] to a horizontal one.  It meets
    the condition rows, which are constant linear rows on ``M[r][c] =
    X_c(f_r)``, because its matrix is ``R_X(M)``.  So [R_X, V] lies in
    block delta and is 0 for every X, and V is left-invariant: its f_j
    are constants, and a constant f_j has degree w_j < 0 in V, while V has
    degree delta + 1 > 0, so V = 0.  By induction every later block is 0.
    """
    blocks: list[list[PolyVectorField]] = []
    for delta in range(-frame.algebra.step, max_weighted_degree + 1):
        if delta > 0 and not blocks[-1]:
            blocks.append([])
        else:
            blocks.append(conformal_fields_of_degree(frame, constraint, delta))
    return ConformalSolution(tuple(f for block in blocks for f in block),
                             tuple(map(len, blocks)))


def same_span(a: Sequence[PolyVectorField], b: Sequence[PolyVectorField]) -> bool:
    """True iff the two lists of fields span the same space.

    Each field is read on its own (component, monomial) terms, with the
    columns numbered in the order the terms first appear.
    """
    columns: dict[tuple[int, tuple[int, ...]], int] = {}

    def rows(fields: Sequence[PolyVectorField]) -> list[dict[int, Fraction]]:
        return [{columns.setdefault((i, exp), len(columns)): c
                 for i, comp in enumerate(f.components) for exp, c in comp.terms.items()}
                for f in fields]

    rows_a, rows_b = rows(a), rows(b)
    n = len(columns)
    return span_equal(Subspace.from_vectors(rows_a, n), Subspace.from_vectors(rows_b, n))
