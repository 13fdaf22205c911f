"""Group coordinates, left-invariant frames, and vector-field realizations.

The simply connected group of a stratified algebra is coordinatized by an
ordered product of exponential factors (a :class:`CoordinateRecipe`); the
group law is evaluated through the truncated Baker-Campbell-Hausdorff
series, which is exact in step <= 3.  The left-invariant frame and the
right-invariant fields (the generators of left translations) are the
derivatives of one-parameter flows, taken symbolically, so every
coefficient is an exact polynomial.  Every vector field is held by its
components in the left-invariant frame.  The prolongation algebra is
realized level by level: an element u of level k >= 0 is the unique
field of degree k whose bracket with the right-invariant field of each
X in layer -1 is minus the field of [u, X], found by an exact linear
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Sequence

from .exact_linalg import Matrix, SparseRows, Subspace, solve, sparse_row
from .graded_lie import GradedLieAlgebra, generation_matrix
from .polynomials import Poly, PolyRing

HALF = Fraction(1, 2)
TWELFTH = Fraction(1, 12)


class UnsupportedStep(ValueError):
    """The truncated BCH series only covers nilpotency step <= 3."""


class CoordinateCollision(ValueError):
    """Two basis names lowercase to the same coordinate name."""


class NonpositiveScale(ValueError):
    pass


class NotInvertible(ValueError):
    pass


class NotTerminated(ValueError):
    """The prolongation was cut off, so there is no finite algebra to realize."""


class NotRealizable(ValueError):
    """No polynomial field of the level's degree has the brackets the algebra asks for."""


def bch(g: GradedLieAlgebra, a: Sequence, b: Sequence, step: int | None = None) -> list:
    """log(exp(a) exp(b)) in a nilpotent algebra of the given step.

    Exact for step <= 3: a + b + [a,b]/2 + ([a,[a,b]] + [b,[b,a]])/12.
    Coefficients may be rationals or polynomials.
    """
    if step is None:
        step = g.step
    if step > 3:
        raise UnsupportedStep(f"step {step} exceeds the supported truncation (3)")
    out = [x + y for x, y in zip(a, b)]
    ab = g.bracket(a, b)
    out = [x + HALF * y for x, y in zip(out, ab)]
    aab = g.bracket(a, ab)
    bba = g.bracket(b, [-x for x in ab])
    out = [x + TWELFTH * (y + z) for x, y, z in zip(out, aab, bba)]
    return out


@dataclass(frozen=True)
class CoordinateRecipe:
    """Ordered exponential factors covering each basis element exactly once.

    A point with coordinates ``c`` is exp(sum of c_j e_j over factor 1) *
    exp(...) * ... in factor order.  Coordinate j (named after basis
    element j, lowercased) has weight |weight(e_j)|.
    """

    algebra: GradedLieAlgebra
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: list[int] = []
        for f in self.factors:
            seen.extend(f)
        if sorted(seen) != list(range(self.algebra.dim)):
            raise ValueError("factors must cover every basis element exactly once")
        names = self.coord_names
        if len(set(names)) != len(names):
            raise CoordinateCollision("coordinate names collide after lowercasing")

    @classmethod
    def single_factor(cls, g: GradedLieAlgebra) -> "CoordinateRecipe":
        return cls(g, (tuple(range(g.dim)),))

    @classmethod
    def from_factor_names(cls, g: GradedLieAlgebra,
                          factor_names: Sequence[Sequence[str]]) -> "CoordinateRecipe":
        return cls(g, tuple(tuple(g.index(n) for n in f) for f in factor_names))

    @property
    def coord_names(self) -> tuple[str, ...]:
        return tuple(name.lower() for name in self.algebra.names)

    @property
    def coord_weights(self) -> tuple[int, ...]:
        return tuple(-w for w in self.algebra.weights)

    @property
    def ring(self) -> PolyRing:
        return PolyRing(self.coord_names, self.coord_weights)

    def extended_ring(self, extra: str = "t") -> tuple[PolyRing, int]:
        """Coordinate ring with one additional flow parameter appended."""
        name = extra
        while name in self.coord_names:
            name += "_"
        ring = PolyRing(self.coord_names + (name,), self.coord_weights + (1,))
        return ring, len(self.coord_names)


def _zero_like(x):
    return x - x


def _factor_args(recipe: CoordinateRecipe, coords: Sequence, zero) -> list[list]:
    args = []
    for f in recipe.factors:
        args.append([coords[j] if j in f else zero for j in range(recipe.algebra.dim)])
    return args


def log_of_coords(recipe: CoordinateRecipe, coords: Sequence) -> list:
    """log of the point with the given recipe coordinates, as an algebra vector."""
    zero = _zero_like(coords[0])
    args = _factor_args(recipe, coords, zero)
    g = recipe.algebra
    return reduce(lambda a, b: bch(g, a, b), args)


def factor_log(recipe: CoordinateRecipe, m: Sequence) -> list:
    """Recipe coordinates of exp(m), inverting :func:`log_of_coords`.

    One sweep from the shallowest layer down: a correction added at layer
    -w only brackets into strictly deeper layers, so after the layer -w
    pass all components down to -w agree exactly.
    """
    g = recipe.algebra
    zero = _zero_like(m[0])
    coords = [zero] * g.dim
    for depth in range(1, g.step + 1):
        current = log_of_coords(recipe, coords)
        for j in g.layer_indices(depth):
            coords[j] = coords[j] + (m[j] - current[j])
    return coords


def group_product(recipe: CoordinateRecipe, p: Sequence, q: Sequence) -> list:
    """The group law in recipe coordinates (rational or polynomial entries)."""
    mp = log_of_coords(recipe, p)
    mq = log_of_coords(recipe, q)
    return factor_log(recipe, bch(recipe.algebra, mp, mq))


def group_inverse(recipe: CoordinateRecipe, p: Sequence) -> list:
    return factor_log(recipe, [-x for x in log_of_coords(recipe, p)])


@dataclass(frozen=True)
class PolyVectorField:
    """A vector field with polynomial coefficients: component j multiplies
    the left-invariant frame field of basis element j."""

    components: tuple[Poly, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def _as_poly(ring: PolyRing, x) -> Poly:
    if isinstance(x, Poly):
        return x
    return ring.const(x)


def _derivative_terms(column: Sequence[Poly], exp: tuple[int, ...]) -> tuple:
    """Terms of V(x^exp) = sum over c of column[c] * d/dx_c x^exp, for the
    coordinate vector field V with components ``column``."""
    out: dict = {}
    for c, coeff in enumerate(column):
        a = exp[c]
        if not a:
            continue
        lowered = exp[:c] + (a - 1,) + exp[c + 1:]
        for e, x in coeff.terms.items():
            e = tuple(map(add, lowered, e))
            out[e] = out[e] + a * x if e in out else a * x
    return tuple((e, x) for e, x in out.items() if x)


def _unit_lower_solve(below: Sequence[Sequence[tuple[int, Poly]]],
                      rhs: Sequence[Poly]) -> list[Poly]:
    """Solve L a = rhs by forward substitution, for L unit lower triangular
    with the nonzero entries ``(j, L[c][j])``, j < c, listed in ``below[c]``."""
    a: list[Poly] = []
    for c, acc in enumerate(rhs):
        for j, x in below[c]:
            acc = acc - x * a[j]
        a.append(acc)
    return a


class Frame:
    """The left-invariant frame of a recipe, as coordinate vector fields.

    ``matrix[c][j]`` is the d/dx_c coefficient of the frame field of basis
    element j; it is unit lower triangular in declaration order, which
    makes conversion between coordinate and frame components a
    forward substitution.  :meth:`derivative_terms` reads ``X_j(x^a)`` from
    a table of monomials that the frame fills the first time each
    ``(j, a)`` is asked for; :meth:`apply` and the contact residuals read
    the table through it.
    """

    def __init__(self, algebra: GradedLieAlgebra, recipe: CoordinateRecipe,
                 ring: PolyRing, columns: Sequence[Sequence[Poly]]):
        self.algebra = algebra
        self.recipe = recipe
        self.ring = ring
        self.columns = tuple(tuple(col) for col in columns)
        n = algebra.dim
        self.matrix = tuple(tuple(self.columns[j][c] for j in range(n)) for c in range(n))
        self.horizontal = len(algebra.layer_indices(1))
        # the contact and conformal residuals read the horizontal frame
        # fields as the first ``horizontal`` basis elements
        if algebra.layer_indices(1) != tuple(range(self.horizontal)):
            raise ValueError("a frame needs layer -1 first in the basis")
        self._monomial_derivatives: dict[tuple[int, tuple[int, ...]], tuple] = {}
        one = ring.one()
        for c in range(n):
            for j in range(n):
                expected = one if c == j else None
                if j > c and not self.matrix[c][j].is_zero():
                    raise AssertionError("frame matrix is not lower triangular")
                if expected is not None and self.matrix[c][j] != expected:
                    raise AssertionError("frame matrix diagonal is not 1")
        self._below = tuple(tuple((j, self.matrix[c][j]) for j in range(c)
                                  if not self.matrix[c][j].is_zero()) for c in range(n))

    def __len__(self) -> int:
        return self.algebra.dim

    def derivative_terms(self, j: int, exp: tuple[int, ...]) -> tuple:
        """The nonzero terms ``(e, d)`` of X_j(x^exp), from the table."""
        terms = self._monomial_derivatives.get((j, exp))
        if terms is None:
            terms = self._monomial_derivatives[(j, exp)] = \
                _derivative_terms(self.columns[j], exp)
        return terms

    def apply(self, j: int, f: Poly) -> Poly:
        """Derivative of the function f along frame field j."""
        out: dict = {}
        for exp, c in f.terms.items():
            for e, d in self.derivative_terms(j, exp):
                out[e] = out[e] + c * d if e in out else c * d
        return Poly(self.ring, out)

    def to_frame(self, coord_components: Sequence[Poly]) -> list[Poly]:
        """Frame components of a coordinate vector field (triangular solve)."""
        return _unit_lower_solve(self._below, [_as_poly(self.ring, c) for c in coord_components])

    def to_coords(self, frame_components: Sequence[Poly]) -> list[Poly]:
        n = len(self)
        out = []
        for c in range(n):
            acc = self.ring.zero()
            for j in range(n):
                fc = _as_poly(self.ring, frame_components[j])
                if not self.matrix[c][j].is_zero() and not fc.is_zero():
                    acc = acc + self.matrix[c][j] * fc
            out.append(acc)
        return out


def _flow_generators(recipe: CoordinateRecipe, right: bool) -> list[list[Poly]]:
    """Coordinate fields d/dt at t=0 of p -> p * exp(t e_j), or of
    p -> exp(t e_j) * p when ``right``, one per basis element j.

    The first are left-invariant: the frame.  The second are
    right-invariant: the generators of left translations.
    """
    g = recipe.algebra
    ring_t, t_index = recipe.extended_ring()
    xring = recipe.ring
    xs = [ring_t.var(i) for i in range(g.dim)]
    t = ring_t.var(t_index)
    zero = ring_t.zero()
    columns = []
    for j in range(g.dim):
        q = [zero] * g.dim
        q[j] = t
        prod = group_product(recipe, q, xs) if right else group_product(recipe, xs, q)
        # the t-linear part, projected to x
        columns.append([c.coefficient_of(t_index, 1).project(xring) for c in prod])
    return columns


def left_invariant_frame(g: GradedLieAlgebra, recipe: CoordinateRecipe) -> Frame:
    """Frame field of each basis element X: p -> d/dt (p * exp(tX)) at t=0."""
    return Frame(g, recipe, recipe.ring, _flow_generators(recipe, right=False))


def _translation_system(generators: Sequence[Sequence[Poly]], ring: PolyRing,
                        degree: int) -> tuple[list, SparseRows, dict]:
    """The map f -> (R_i f)_i on polynomials of weighted degree ``degree``:
    its columns are the monomials of that degree, and row ``index[(i, e)]``
    holds the coefficient of x^e in R_i f.  Each R_i has degree -1."""
    monos = ring.monomials_exact(degree)
    lower = ring.monomials_exact(degree - 1)
    index = {key: r for r, key in enumerate((i, e) for i in range(len(generators))
                                            for e in lower)}
    rows: list[dict] = [{} for _ in index]
    for col, exp in enumerate(monos):
        for i, column in enumerate(generators):
            for e, x in _derivative_terms(column, exp):
                rows[index[(i, e)]][col] = x
    return monos, SparseRows(rows, len(monos)), index


def realize_tau(s, frame: Frame) -> list[PolyVectorField]:
    """One vector field per basis element of the prolongation algebra s, in
    the basis order of s, in components of ``frame``.

    A negative element e_j is the right-invariant field R_j, the generator
    of left translations by exp(t e_j).  An element u of level k >= 0 is
    the unique field V_u of degree k with [V_u, R_X] = -V_[u,X] for every X
    in layer -1 (unique, because a field commuting with every R_X is
    left-invariant, of negative degree).  Left- and right-invariant fields commute, so for
    V_u = sum_j f_j X_j this reads R_X(f_j) = (V_[u,X])_j, a linear system
    over the monomials of weighted degree k + |w_j|.  Levels are solved in
    increasing order, so V_[u,X] is summed from fields already found.
    """
    if s.bracket_table is None:
        raise NotTerminated("realization needs a terminating prolongation")
    g = s.negative
    ring = frame.ring
    generators = _flow_generators(frame.recipe, right=True)
    horizontal = [generators[i] for i in g.layer_indices(1)]
    xs = [s.sbasis.index(("neg", i)) for i in g.layer_indices(1)]  # the same X, in s
    systems: dict[int, tuple] = {}
    fields: list[PolyVectorField] = []
    for a, key in enumerate(s.sbasis):
        if key[0] == "neg":
            fields.append(PolyVectorField(tuple(frame.to_frame(generators[key[1]]))))
            continue
        comps = []
        for j in range(g.dim):
            targets = [sum((c * fields[b].components[j] for b, c in s.bracket_table[a][x]),
                           ring.zero()) for x in xs]
            degree = key[1] - g.weights[j]
            if degree not in systems:
                systems[degree] = _translation_system(horizontal, ring, degree)
            monos, system, index = systems[degree]
            rhs = [0] * system.rows
            for i, t in enumerate(targets):
                for e, c in t.terms.items():
                    rhs[index[(i, e)]] = c
            coeffs = solve(system, rhs)
            if coeffs is None:
                raise NotRealizable(f"no field of degree {key[1]} realizes {s.labels[a]}")
            comps.append(Poly(ring, dict(zip(monos, coeffs))))
        fields.append(PolyVectorField(tuple(comps)))
    return fields


@dataclass(frozen=True)
class PolyMap:
    """A polynomial self-map of the group in recipe coordinates."""

    recipe: CoordinateRecipe
    components: tuple[Poly, ...]

    def apply(self, point: Sequence[Fraction]) -> list[Fraction]:
        return [c.eval(list(point)) for c in self.components]

    def jacobian(self) -> list[list[Poly]]:
        n = len(self.components)
        return [[self.components[c].diff(d) for d in range(n)] for c in range(n)]


def dilation(recipe: CoordinateRecipe, scale) -> PolyMap:
    """The automorphic dilation: coordinate of weight w scales by scale**w."""
    lam = Fraction(scale)
    if lam <= 0:
        raise NonpositiveScale(f"dilation scale must be positive, got {lam}")
    ring = recipe.ring
    comps = [lam ** w * ring.var(i) for i, w in enumerate(recipe.coord_weights)]
    return PolyMap(recipe, tuple(comps))


def left_translation(recipe: CoordinateRecipe, p: Sequence[Fraction]) -> PolyMap:
    """q -> p * q as a polynomial map."""
    g = recipe.algebra
    if len(p) != g.dim:
        raise ValueError("point has wrong length")
    ring = recipe.ring
    consts = [ring.const(x) for x in p]
    xs = [ring.var(i) for i in range(g.dim)]
    return PolyMap(recipe, tuple(_as_poly(ring, c) for c in group_product(recipe, consts, xs)))


def graded_automorphism(recipe: CoordinateRecipe, phi: Matrix) -> PolyMap:
    """The group map induced by a graded algebra automorphism phi."""
    g = recipe.algebra
    _require_automorphism(g, phi)
    ring = recipe.ring
    xs = [ring.var(i) for i in range(g.dim)]
    zero = ring.zero()
    args = _factor_args(recipe, xs, zero)
    moved = []
    for arg in args:
        moved.append([sum((phi.entries[i][j] * arg[j] for j in range(g.dim)),
                          zero) for i in range(g.dim)])
    m = reduce(lambda a, b: bch(g, a, b), moved)
    coords = factor_log(recipe, m)
    return PolyMap(recipe, tuple(_as_poly(ring, c) for c in coords))


def _require_automorphism(g: GradedLieAlgebra, phi: Matrix) -> None:
    if Subspace.from_vectors(map(sparse_row, phi.entries), phi.cols).dim != g.dim:
        raise ValueError("matrix is singular, not an automorphism")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = g.bracket(phi.col(i), phi.col(j))
            rhs = [sum(c * row[k] for k, c in g.rows[i][j]) for row in phi.entries]
            if lhs != rhs:
                raise ValueError(
                    f"matrix does not respect the bracket on ({g.names[i]},{g.names[j]})")


def extend_first_layer_automorphism(g: GradedLieAlgebra, block: Matrix) -> Matrix:
    """Extend a first-layer block to a graded automorphism, or fail.

    Deeper images are forced through bracket expressions of the deeper
    basis elements; the result is checked against every bracket.
    """
    m = len(g.layer_indices(1))
    if block.rows != m or block.cols != m:
        raise ValueError("block must match the first layer")
    images: dict[int, list[Fraction]] = {}
    for local, gi in enumerate(g.layer_indices(1)):
        col = [Fraction(0)] * g.dim
        for r, gr in enumerate(g.layer_indices(1)):
            col[gr] = block.entries[r][local]
        images[gi] = col
    for depth in range(2, g.step + 1):
        targets = g.layer_indices(depth)
        pairs, products = generation_matrix(g, depth)
        for local, gt in enumerate(targets):
            rhs = [Fraction(1) if t == local else Fraction(0) for t in range(len(targets))]
            combo = solve(products, rhs)
            if combo is None:
                raise ValueError("layer -1 does not generate; cannot extend")
            img = [Fraction(0)] * g.dim
            for c, (i, j) in zip(combo, pairs):
                if c:
                    piece = g.bracket(images[i], images[j])
                    img = [x + c * y for x, y in zip(img, piece)]
            images[gt] = img
    phi = Matrix([[images[j][i] for j in range(g.dim)] for i in range(g.dim)])
    _require_automorphism(g, phi)
    return phi


@dataclass(frozen=True)
class SimilarityResult:
    ok: bool
    scale: Poly | None

    def __bool__(self) -> bool:
        return self.ok


def _poly_det(rows: list[list[Poly]], ring: PolyRing) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = ring.zero()
    for r in range(n):
        piv = rows[r][0]
        if piv.is_zero():
            continue
        minor = [[rows[i][j] for j in range(1, n)] for i in range(n) if i != r]
        sub = _poly_det(minor, ring)
        term = piv * sub
        out = out + term if r % 2 == 0 else out - term
    return out


def _jacobian_probe(n: int) -> list[Fraction]:
    """The fixed rational point at which a Jacobian is first evaluated."""
    return [Fraction(1, c + 2) for c in range(n)]


def _jacobian_singular(jac: list[list[Poly]], ring: PolyRing) -> bool:
    """Whether det(jac) is the zero polynomial.

    A nonzero determinant at :func:`_jacobian_probe` settles it by exact
    elimination; only a zero there calls for the symbolic expansion.
    """
    n = len(jac)
    point = _jacobian_probe(n)
    values = (sparse_row([p.eval(point) for p in row]) for row in jac)
    if Subspace.from_vectors(values, n).dim == n:
        return False
    return _poly_det(jac, ring).is_zero()


def pushforward_in_frame(pmap: PolyMap, frame: Frame) -> list[list[Poly]]:
    """Matrix P with P[j][i] = frame-j component of the pushforward of frame-i.

    Components are polynomials in the source point; the frame at the
    image point is obtained by composing the frame matrix with the map.
    """
    ring = frame.ring
    n = len(frame)
    jac = pmap.jacobian()
    if _jacobian_singular(jac, ring):
        raise NotInvertible("map has identically singular Jacobian")
    # the frame matrix at the image point, below the diagonal: all the solve reads
    subs_vals = list(pmap.components)
    below = [[(j, x.subs(subs_vals)) for j, x in row] for row in frame._below]
    result: list[list[Poly]] = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        push = []
        for c in range(n):
            acc = ring.zero()
            for d in range(n):
                if not jac[c][d].is_zero() and not frame.matrix[d][i].is_zero():
                    acc = acc + jac[c][d] * frame.matrix[d][i]
            push.append(acc)
        a = _unit_lower_solve(below, push)
        for j in range(n):
            result[j][i] = a[j]
    return result


def similarity_check(pmap: PolyMap, frame: Frame) -> SimilarityResult:
    """Whether the map is a horizontal similarity: pushforward A with A A^t = k I.

    The horizontal frame is declared orthonormal.  The check is an exact
    polynomial identity; ``scale`` is the conformal factor k on success.
    """
    m = frame.horizontal
    p = pushforward_in_frame(pmap, frame)
    n = len(frame)
    for i in range(m):
        for j in range(m, n):
            if not p[j][i].is_zero():
                return SimilarityResult(False, None)
    a = [[p[r][i] for i in range(m)] for r in range(m)]
    gram = [[sum((a[r][i] * a[s][i] for i in range(m)), frame.ring.zero())
             for s in range(m)] for r in range(m)]
    for r in range(m):
        for s in range(m):
            if r == s:
                continue
            if not gram[r][s].is_zero():
                return SimilarityResult(False, None)
    k = gram[0][0]
    for r in range(1, m):
        if gram[r][r] != k:
            return SimilarityResult(False, None)
    if k.is_zero():
        return SimilarityResult(False, None)
    return SimilarityResult(True, k)
