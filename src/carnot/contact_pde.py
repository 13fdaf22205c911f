"""Contact and conformality conditions as exact polynomial residuals.

A vector field V is contact when [V, X] stays horizontal for every
horizontal frame field X, and conformal when additionally the matrix of
first horizontal derivatives of its horizontal coefficients is a
trace-plus-skew matrix.  Residuals are kept as full polynomials, never
point samples, so every verdict is an identity check.  The bounded-degree
ansatz solver at the end is the brute-force cross-check for prolongation
dimensions.

The contact residuals are computed in frame components, without
coordinates.  The left-invariant frame realizes the algebra,
``[X_j, X_i] = sum_k c_ji^k X_k`` with ``c`` read from ``g.rows``, so for
``V = sum_j f_j X_j`` and horizontal ``X_i``

    [V, X_i] = sum_k (sum_j f_j c_ji^k - X_i(f_k)) X_k,

and the residuals are the components ``k`` outside layer -1.  The
premise is checked on every bundled and generated spec by
``test_frame_brackets`` in ``tests/test_group_realization.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_linalg import ZERO, Matrix, SparseRows, Subspace, dense_row, nullspace, vec_zero
from .graded_lie import GradedLieAlgebra
from .prolongation import DegreeZeroMap
from .polynomials import Poly
from .group_realization import Frame, PolyVectorField


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


def _frame_components(V: PolyVectorField, frame: Frame) -> list[Poly]:
    if V.basis == "frame":
        return list(V.components)
    return frame.to_frame(list(V.components))


def _plus(a: Poly, b: Poly) -> Poly:
    """a + b, with no new polynomial when either term is zero."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    return a + b


def _contact_residuals(comps: Sequence[Poly], frame: Frame) -> list[Poly]:
    """Frame components k >= m of [V, X_i] for each horizontal X_i, i-major.

    Component k is ``sum_j f_j c_ji^k - X_i(f_k)`` for ``V = sum_j f_j X_j``.
    Only the nonzero f_j are visited; every other entry is one shared zero.
    """
    g = frame.algebra
    m = frame.horizontal
    zero = frame.ring.zero()
    live = [(j, f) for j, f in enumerate(comps) if not f.is_zero()]
    out = []
    for i in range(m):
        acc = [zero] * (g.dim - m)
        for k, f in live:
            if k >= m:
                acc[k - m] = -frame.apply(i, f)
        for j, f in live:
            # [X_j, X_i] lies in layers -2 and deeper, so every k >= m
            for k, c in g.rows[j][i]:
                acc[k - m] = _plus(acc[k - m], c * f)
        out.extend(acc)
    return out


def _conformal_residuals(comps: Sequence[Poly], frame: Frame) -> list[Poly]:
    """Entries i <= j of M + M^t - (2/m) tr(M) I, M the horizontal derivative matrix.

    Row i of M is zero when the horizontal component f_i is.
    """
    m = frame.horizontal
    zero = frame.ring.zero()
    mat = [[zero] * m if f.is_zero() else [frame.apply(j, f) for j in range(m)]
           for f in comps[:m]]
    trace = zero
    for i in range(m):
        trace = _plus(trace, mat[i][i])
    shift = Fraction(-2, m) * trace
    out = []
    for i in range(m):
        for j in range(i, m):
            r = _plus(mat[i][j], mat[j][i])
            out.append(_plus(r, shift) if i == j else r)
    return out


def conformal_system_residuals(comps: Sequence[Poly], frame: Frame) -> list[Poly]:
    """Joint contact + conformal residual list, linear in the field."""
    return _contact_residuals(comps, frame) + _conformal_residuals(comps, frame)


def contact_defect(V: PolyVectorField, frame: Frame) -> DefectReport:
    """Non-horizontal frame components of [V, X] for each horizontal X."""
    names = frame.algebra.names
    m = frame.horizontal
    labels = [f"[V,~{names[i]}]@~{names[j]}" for i in range(m) for j in range(m, len(frame))]
    residuals = _contact_residuals(_frame_components(V, frame), frame)
    return DefectReport(tuple(zip(labels, residuals)))


def conformal_defect(V: PolyVectorField, frame: Frame) -> DefectReport:
    """Residuals of M + M^t = (2/m) tr(M) I on the horizontal derivative matrix."""
    if not contact_defect(V, frame).all_zero:
        raise NotContact("conformality is only defined for contact fields")
    names = frame.algebra.names
    m = frame.horizontal
    labels = [f"co({names[i]},{names[j]})" for i in range(m) for j in range(i, m)]
    residuals = _conformal_residuals(_frame_components(V, frame), frame)
    return DefectReport(tuple(zip(labels, residuals)))


def _residual_rows(residuals: Iterable[Sequence[Poly]]) -> list[dict[int, Fraction]]:
    """One sparse row per (equation, monomial) pair that occurs: column
    ``col`` holds the coefficient of the monomial in equation ``eq`` of the
    col-th residual list."""
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, res in enumerate(residuals):
        for eq, r in enumerate(res):
            for term, c in r.terms.items():
                rows.setdefault((eq, term), {})[col] = c
    return list(rows.values())


# -- pointwise jets ----------------------------------------------------


@dataclass(frozen=True)
class JetOnePart:
    """Degree-one jet data: a full matrix on layer -1 sources, vectors deeper."""

    matrices: tuple[tuple[int, Matrix], ...]
    vectors: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def is_zero(self) -> bool:
        return (all(all(x == 0 for row in m.entries for x in row) for _, m in self.matrices)
                and all(all(x == 0 for x in v) for _, v in self.vectors))


@dataclass(frozen=True)
class ContactJet:
    point: tuple[Fraction, ...]
    minus_parts: tuple[tuple[int, tuple[Fraction, ...]], ...]
    zero_part: DegreeZeroMap
    one_part: JetOnePart | None


def _zero_part_entries(comps: Sequence[Poly], frame: Frame) -> list[list[Poly]]:
    """Symbolic entries of the degree-zero jet: block (r,c) is X_c applied
    to the coefficient of basis element r, within each layer.  Rows of zero
    coefficients, and every entry off the blocks, are one shared zero."""
    g = frame.algebra
    n = g.dim
    zero = frame.ring.zero()
    ent = [[zero] * n for _ in range(n)]
    for depth in range(1, g.step + 1):
        idx = g.layer_indices(depth)
        for r in idx:
            if not comps[r].is_zero():
                for c in idx:
                    ent[r][c] = frame.apply(c, comps[r])
    return ent


def _derivative_at(frame: Frame, j: int, f: Poly, pt: Sequence[Fraction]) -> Fraction:
    """X_j f at the point, with no work for f = 0."""
    return ZERO if f.is_zero() else frame.apply(j, f).eval(pt)


def jet(V: PolyVectorField, frame: Frame, point: Sequence[Fraction],
        order: int = 1) -> ContactJet:
    """Layered derivative data of a contact field at a rational point."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if not contact_defect(V, frame).all_zero:
        raise NotContact("jets are only defined for contact fields")
    g = frame.algebra
    pt = [Fraction(x) for x in point]
    comps = _frame_components(V, frame)
    minus = []
    for depth in range(1, g.step + 1):
        full = vec_zero(g.dim)
        for i in g.layer_indices(depth):
            full[i] = comps[i].eval(pt)
        minus.append((depth, tuple(full)))
    sym = _zero_part_entries(comps, frame)
    blocks = []
    for depth in range(1, g.step + 1):
        idx = g.layer_indices(depth)
        blocks.append(Matrix([[sym[r][c].eval(pt) for c in idx] for r in idx],
                             cols=len(idx)))
    zero_part = DegreeZeroMap(g, blocks)
    one_part = None
    if order == 1:
        matrices = []
        for c1 in g.layer_indices(1):
            ent = [[_derivative_at(frame, c1, p, pt) for p in row] for row in sym]
            matrices.append((c1, Matrix(ent, cols=g.dim)))
        vectors = []
        for depth in range(2, g.step + 1):
            for src in g.layer_indices(depth):
                full = vec_zero(g.dim)
                for i in g.layer_indices(depth - 1):
                    full[i] = _derivative_at(frame, src, comps[i], pt)
                vectors.append((src, tuple(full)))
        one_part = JetOnePart(tuple(matrices), tuple(vectors))
    return ContactJet(tuple(pt), tuple(minus), zero_part, one_part)


def jet_jacobi_check(j: ContactJet, g: GradedLieAlgebra) -> bool:
    """Check D[e_a,e_b] = [D e_a, e_b] - [D e_b, e_a] for the zero-part D on
    all basis pairs a < b.

    Passing certifies that the degree-zero jet is a strata-preserving
    derivation.  Both sides are summed from the sparse bracket rows and
    the nonzero entries of the columns of D.
    """
    n = g.dim
    ent = j.zero_part.full_matrix().entries
    cols = [[(r, ent[r][c]) for r in range(n) if ent[r][c]] for c in range(n)]
    rows = g.rows
    for a in range(n):
        for b in range(a + 1, n):
            total: dict[int, Fraction] = {}
            for k, c in rows[a][b]:
                for r, x in cols[k]:
                    total[r] = total.get(r, 0) + c * x
            for src, other, sign in ((a, b, -1), (b, a, 1)):
                for i, x in cols[src]:
                    for k, c in rows[i][other]:
                        total[k] = total.get(k, 0) + sign * x * c
            if any(total.values()):
                return False
    return True


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
    return PolyVectorField((f1, f2, g_coeff, h), "frame")


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

    rows = _residual_rows(ops(Poly(ring, {exp: Fraction(1)})) for exp in monos)
    space = nullspace(SparseRows(rows, len(monos)))
    h_basis = []
    for v in space.basis:
        h_basis.append(Poly(ring, {exp: c for exp, c in zip(monos, v) if c}))
    fields = tuple(reconstruct_from_h(frame, h) for h in h_basis)
    return HSystemSolution(space, tuple(h_basis), fields)


# -- bounded-degree conformal ansatz solver -----------------------------


class AnsatzLayout:
    """Index bookkeeping for fields with per-component degree bounds.

    The component along the frame field of weight w may use monomials of
    weighted degree up to ``degree + |w|``.
    """

    def __init__(self, frame: Frame, degree: int):
        self.frame = frame
        self.degree = degree
        g = frame.algebra
        ring = frame.ring
        self.monomials: list[list[tuple[int, ...]]] = []
        self.offsets: list[int] = []
        pos = 0
        for i in range(g.dim):
            monos = ring.monomials_upto(degree + (-g.weights[i]))
            self.monomials.append(monos)
            self.offsets.append(pos)
            pos += len(monos)
        self.total = pos
        self._index = {}
        for i, monos in enumerate(self.monomials):
            for k, exp in enumerate(monos):
                self._index[(i, exp)] = self.offsets[i] + k

    def embed(self, field: PolyVectorField) -> dict[int, Fraction] | None:
        """The field as a sparse row over the ansatz, or None outside it."""
        comps = field.components if field.basis == "frame" else tuple(
            self.frame.to_frame(list(field.components)))
        v = {}
        for i, comp in enumerate(comps):
            for exp, c in comp.terms.items():
                key = (i, exp)
                if key not in self._index:
                    return None
                v[self._index[key]] = c
        return v

    def field(self, v: Sequence[Fraction]) -> PolyVectorField:
        ring = self.frame.ring
        comps = []
        for i, monos in enumerate(self.monomials):
            terms = {}
            for k, exp in enumerate(monos):
                c = v[self.offsets[i] + k]
                if c:
                    terms[exp] = c
            comps.append(Poly(ring, terms))
        return PolyVectorField(tuple(comps), "frame")


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
        fields.append(PolyVectorField(tuple(Poly(ring, t) for t in comps), "frame"))
    return fields


@dataclass(frozen=True)
class ConformalSolution:
    """The ansatz solution; ``block_dims`` counts the fields of each
    homogeneous block, graded degree ``-step`` first."""

    layout: AnsatzLayout
    subspace: Subspace
    fields: tuple[PolyVectorField, ...]
    block_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.subspace.dim


def solve_polynomial_conformal(frame: Frame, max_weighted_degree: int = 6) -> ConformalSolution:
    """All conformal fields within the bounded polynomial ansatz.

    Solved block-by-block in the graded degree and re-canonicalized in the
    global ansatz coordinates, so reruns give identical bases.  If the
    cutoff is too small the result only bounds the true dimension from
    below; stability under raising the cutoff is the sanity check.
    """
    g = frame.algebra
    layout = AnsatzLayout(frame, max_weighted_degree)
    rows = []
    block_dims = []
    for delta in range(-g.step, max_weighted_degree + 1):
        block = conformal_fields_of_degree(frame, delta)
        block_dims.append(len(block))
        for field in block:
            v = layout.embed(field)
            if v is None:
                raise AssertionError("homogeneous block escaped the ansatz layout")
            rows.append(v)
    # the blocks have disjoint supports and each keeps its column order in
    # the layout, so their echelon bases, sorted by pivot, are already the
    # echelon basis of the sum
    rows.sort(key=min)
    space = Subspace(layout.total, [dense_row(v, layout.total) for v in rows], map(min, rows))
    fields = tuple(layout.field(v) for v in space.basis)
    return ConformalSolution(layout, space, fields, tuple(block_dims))
