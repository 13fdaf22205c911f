"""Contact and conformality conditions as exact polynomial residuals.

A vector field V is contact when [V, X] stays horizontal for every
horizontal frame field X, and conformal when additionally the matrix of
first horizontal derivatives of its horizontal coefficients is a
trace-plus-skew matrix.  Residuals are kept as full polynomials, never
point samples, so every verdict is an identity check.  The jet of a field
at a point is read in the ``Level.actions`` convention, so the levels of
the tower decide membership and the derivation law.  The bounded-degree
ansatz solver at the end is the brute-force cross-check for the
prolongation: it returns the fields of each homogeneous block, and
:func:`same_span` compares them with the realized fields.

The contact residuals are computed in frame components, without
coordinates.  The left-invariant frame realizes the algebra,
``[X_j, X_i] = sum_k c_ji^k X_k`` with ``c`` read from ``g.rows``, so for
``V = sum_j f_j X_j`` and horizontal ``X_i``

    [V, X_i] = sum_k (sum_j f_j c_ji^k - X_i(f_k)) X_k,

and the residuals are the components ``k`` outside layer -1.  The
premise is checked on every bundled and generated spec by
``test_frame_brackets`` in ``tests/test_group_realization.py``.

One kernel, :func:`conformal_system_residuals`, computes the contact and
conformal residuals together as sparse ``(equation, monomial)`` terms,
accumulated straight from ``g.rows`` and the frame's monomial-derivative
table (:meth:`Frame.derivative_terms`), with no intermediate polynomial.
The ansatz solver copies those terms into its matrix columns;
:func:`contact_defect` and :func:`conformal_defect` split them into
labelled polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_linalg import ZERO, SparseRows, Subspace, nullspace, span_equal, vec_zero
from .graded_lie import GradedLieAlgebra
from .polynomials import Poly
from .group_realization import Frame, PolyVectorField
from .prolongation import Level


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


def conformal_system_residuals(comps: Sequence[Poly], frame: Frame) -> Terms:
    """The joint contact + conformal residual of ``V = sum_j f_j X_j``, linear
    in the field, as sparse terms ``{(equation, exponent): coefficient}``
    with no zero coefficient.

    Equation ``i (n-m) + (k-m)`` is component k >= m of [V, X_i] for
    horizontal X_i, i-major; then come the entries i <= j of
    ``M + M^t - (2/m) tr(M) I``, row-major, for ``M[i][j] = X_j(f_i)`` the
    horizontal derivative matrix.  The terms are read straight from
    ``g.rows`` and the frame's monomial-derivative table, and only the
    nonzero f_j are visited.
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

    # conformal entry (i, j), i <= j, is equation conformal[i][j]
    conformal = [[0] * m for _ in range(m)]
    eq = m * width
    for i in range(m):
        for j in range(i, m):
            conformal[i][j] = conformal[j][i] = eq
            eq += 1
    diagonal = [conformal[i][i] for i in range(m)]
    shift = Fraction(-2, m)
    for j, f in enumerate(comps):
        if not f.terms:
            continue
        terms = f.terms.items()
        for i in range(m):
            # f_j c_ji^k: [X_j, X_i] lies in layers -2 and deeper, so every k >= m
            for k, c in g.rows[j][i]:
                for exp, a in terms:
                    put(i * width + k - m, exp, c * a)
            if j >= m:
                # - X_i(f_j)
                for exp, a in terms:
                    for e, d in derivative(i, exp):
                        put(i * width + j - m, e, -a * d)
            else:
                # M[j][i] enters entry (i, j), and, on the diagonal, the trace
                for exp, a in terms:
                    for e, d in derivative(i, exp):
                        x = a * d
                        if i == j:
                            put(conformal[i][i], e, x + x)
                            for diag in diagonal:
                                put(diag, e, shift * x)
                        else:
                            put(conformal[i][j], e, x)
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
    terms = _system_terms(V.components, frame)
    return DefectReport(tuple(zip(labels, _split(terms, frame, 0, len(labels)))))


def conformal_defect(V: PolyVectorField, frame: Frame) -> DefectReport:
    """Residuals of M + M^t = (2/m) tr(M) I on the horizontal derivative matrix."""
    if not contact_defect(V, frame).all_zero:
        raise NotContact("conformality is only defined for contact fields")
    names = frame.algebra.names
    m = frame.horizontal
    start = m * (len(frame) - m)
    labels = [f"co({names[i]},{names[j]})" for i in range(m) for j in range(i, m)]
    terms = _system_terms(V.components, frame)
    return DefectReport(tuple(zip(labels, _split(terms, frame, start, start + len(labels)))))


def _residual_rows(residuals: Iterable[Terms]) -> list[dict[int, Fraction]]:
    """One sparse row per (equation, monomial) pair that occurs: column
    ``col`` holds the coefficient of the monomial in equation ``eq`` of the
    col-th residual."""
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, terms in enumerate(residuals):
        for key, x in terms.items():
            rows.setdefault(key, {})[col] = x
    return list(rows.values())


# -- pointwise jets ----------------------------------------------------


Values = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class JetOnePart:
    """Degree-one jet data: along each layer -1 direction c1, the X_c1
    derivative of the zero-part values; vectors for deeper sources."""

    matrices: tuple[tuple[int, Values], ...]
    vectors: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def is_zero(self) -> bool:
        return (all(x == 0 for _, values in self.matrices for value in values for x in value)
                and all(all(x == 0 for x in v) for _, v in self.vectors))


@dataclass(frozen=True)
class ContactJet:
    """Layered derivative data of a contact field at a point.

    ``zero_part`` is a degree-zero map given by its values, the convention
    of ``Level.actions``: entry j is the image of e_j in local coordinates
    of e_j's layer, so ``g0.coordinates_of_values`` reads it directly.
    """

    point: tuple[Fraction, ...]
    zero_part: Values
    one_part: JetOnePart


def _derivative(frame: Frame, j: int, f: Poly) -> Poly:
    """X_j f, with no work for f = 0."""
    return f if f.is_zero() else frame.apply(j, f)


def _zero_part_entries(comps: Sequence[Poly], frame: Frame) -> list[tuple[Poly, ...]]:
    """Symbolic values of the degree-zero jet: entry c holds X_c applied to
    the coefficient of each basis element of e_c's layer."""
    g = frame.algebra
    return [tuple(_derivative(frame, c, comps[r]) for r in g.layer_indices(-g.weights[c]))
            for c in range(g.dim)]


def _at(f: Poly, pt: Sequence[Fraction]) -> Fraction:
    """f at the point, with no work for f = 0."""
    return ZERO if f.is_zero() else f.eval(pt)


def _values_at(entries: Sequence[Sequence[Poly]], pt: Sequence[Fraction]) -> Values:
    return tuple(tuple(_at(p, pt) for p in entry) for entry in entries)


def _placed_at(entries: dict[int, Poly], n: int, pt: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The length-n vector holding entry i's value at the point in slot i."""
    full = vec_zero(n)
    for i, p in entries.items():
        full[i] = _at(p, pt)
    return tuple(full)


def jet(V: PolyVectorField, frame: Frame,
        points: Iterable[Sequence[Fraction]]) -> list[ContactJet]:
    """Degree-zero and degree-one parts of a contact field's jet at each rational point.

    Contact is certified once, and the symbolic entries of every part are
    built once; each point only evaluates them.
    """
    if not contact_defect(V, frame).all_zero:
        raise NotContact("jets are only defined for contact fields")
    g = frame.algebra
    comps = V.components
    sym = _zero_part_entries(comps, frame)
    # X_c1 of each zero-part entry along layer -1; for a deeper source,
    # X_src of each coefficient of the layer above it
    one_matrices = [(c1, [[_derivative(frame, c1, p) for p in entry] for entry in sym])
                    for c1 in g.layer_indices(1)]
    one_vectors = [(src, {i: _derivative(frame, src, comps[i])
                          for i in g.layer_indices(depth - 1)})
                   for depth in range(2, g.step + 1) for src in g.layer_indices(depth)]
    jets = []
    for point in points:
        pt = [Fraction(x) for x in point]
        one_part = JetOnePart(
            tuple((c1, _values_at(entries, pt)) for c1, entries in one_matrices),
            tuple((src, _placed_at(entries, g.dim, pt)) for src, entries in one_vectors))
        jets.append(ContactJet(tuple(pt), _values_at(sym, pt), one_part))
    return jets


def jet_jacobi_check(j: ContactJet, ders: Level) -> bool:
    """Check that the zero-part of the jet is a strata-preserving derivation.

    ``ders`` is level 0 of the tower, the solution space of the degree-zero
    Leibniz system, so the law holds exactly when ``ders`` has coordinates
    for the values of the zero part.
    """
    return ders.coordinates_of_values(j.zero_part) is not None


# -- the Engel h-system ------------------------------------------------


def _is_engel_pattern(g: GradedLieAlgebra) -> bool:
    if g.layer_dims != [2, 1, 1]:
        return False
    expect = {(0, 1): ((2, 1),), (0, 2): ((3, 1),)}
    return all(g.rows[i][j] == expect.get((i, j), ())
               for i in range(4) for j in range(i + 1, 4))


@dataclass(frozen=True)
class HSystemSolution:
    subspace: Subspace
    h_basis: tuple[Poly, ...]
    fields: tuple[PolyVectorField, ...]

    @property
    def dim(self) -> int:
        return len(self.h_basis)


def reconstruct_from_h(frame: Frame, h: Poly) -> PolyVectorField:
    """The contact field determined by its vertical coefficient h."""
    x1 = 0
    y = 2
    g_coeff = -frame.apply(x1, h)
    f1 = frame.apply(y, h)
    f2 = frame.apply(x1, frame.apply(x1, h))
    return PolyVectorField((f1, f2, g_coeff, h))


def solve_h_system(frame: Frame, max_weighted_degree: int = 6,
                   conformality: bool = True) -> HSystemSolution:
    """Solutions h of the reduced vertical-coefficient system, with V(h).

    The headline equations are X1^3 h = X2 h = Y^2 h = Z^2 h = 0.  On
    their own they admit contact fields that are not conformal (a
    7-dimensional polynomial space); ``conformality`` adds the two
    horizontal-derivative symmetry conditions of the reconstructed field,
    cutting the space to the conformal one.
    """
    if not _is_engel_pattern(frame.algebra):
        raise ValueError("the h-system is specific to the Engel bracket pattern")
    ring = frame.ring
    monos = ring.monomials_upto(max_weighted_degree)

    def ops(p: Poly) -> list[Poly]:
        x1, x2, y, z = 0, 1, 2, 3
        out = [
            frame.apply(x1, frame.apply(x1, frame.apply(x1, p))),
            frame.apply(x2, p),
            frame.apply(y, frame.apply(y, p)),
            frame.apply(z, frame.apply(z, p)),
        ]
        if conformality:
            f1 = frame.apply(y, p)
            f2 = frame.apply(x1, frame.apply(x1, p))
            out.append(frame.apply(x1, f1) - frame.apply(x2, f2))
            out.append(frame.apply(x2, f1) + frame.apply(x1, f2))
        return out

    rows = _residual_rows({(eq, e): x for eq, r in enumerate(ops(Poly(ring, {exp: Fraction(1)})))
                           for e, x in r.terms.items()} for exp in monos)
    space = nullspace(SparseRows(rows, len(monos)))
    h_basis = []
    for v in space.basis:
        h_basis.append(Poly(ring, {exp: c for exp, c in zip(monos, v) if c}))
    fields = tuple(reconstruct_from_h(frame, h) for h in h_basis)
    return HSystemSolution(space, tuple(h_basis), fields)


# -- bounded-degree conformal ansatz solver -----------------------------


def conformal_fields_of_degree(frame: Frame, delta: int) -> list[PolyVectorField]:
    """Homogeneous conformal fields of graded degree ``delta`` (exact nullspace).

    The PDE system commutes with the weighted grading, so the full
    bounded-degree problem splits into these homogeneous blocks.
    """
    g = frame.algebra
    ring = frame.ring
    basis: list[tuple[int, tuple[int, ...]]] = []
    for i in range(g.dim):
        d = delta + (-g.weights[i])
        for exp in ring.monomials_exact(d):
            basis.append((i, exp))
    if not basis:
        return []
    zero = [ring.zero()] * g.dim
    unit_fields = (zero[:i] + [Poly(ring, {exp: Fraction(1)})] + zero[i + 1:] for i, exp in basis)
    rows = _residual_rows(conformal_system_residuals(comps, frame) for comps in unit_fields)
    space = nullspace(SparseRows(rows, len(basis)))
    fields = []
    for v in space.basis:
        comps = [dict() for _ in range(g.dim)]
        for (i, exp), c in zip(basis, v):
            if c:
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


def solve_polynomial_conformal(frame: Frame, max_weighted_degree: int = 6) -> ConformalSolution:
    """All conformal fields within the bounded polynomial ansatz.

    The component along the frame field of weight w may use monomials of
    weighted degree up to ``max_weighted_degree + |w|``.  The system
    commutes with the weighted grading, so the solution is the sum of the
    homogeneous blocks of graded degree ``-step .. max_weighted_degree``,
    each with its canonical echelon basis.  If the cutoff is too small the
    result only bounds the true dimension from below; stability under
    raising the cutoff is the sanity check.
    """
    blocks = [conformal_fields_of_degree(frame, delta)
              for delta in range(-frame.algebra.step, max_weighted_degree + 1)]
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
