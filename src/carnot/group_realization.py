"""Group coordinates, left-invariant frames, and vector-field realizations.

The simply connected group of a stratified algebra is coordinatized by an
ordered product of exponential factors (a :class:`CoordinateRecipe`); the
group law is evaluated through the truncated Baker-Campbell-Hausdorff
series, which is exact in step <= 3.  Frames, one-parameter flows of
translations, and flows of degree-zero automorphisms are differentiated
symbolically, so every coefficient is an exact polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .exact_linalg import Matrix, Subspace, solve, sparse_row
from .graded_lie import GradedLieAlgebra, generation_matrix
from .prolongation import DegreeZeroMap
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
    """Positive prolongation levels have no group translation/automorphism flow."""


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
    """A vector field with polynomial coefficients in a declared basis.

    ``basis`` is "coordinate" (components multiply d/dx_c) or "frame"
    (components multiply the left-invariant frame fields).
    """

    components: tuple[Poly, ...]
    basis: str

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def _as_poly(ring: PolyRing, x) -> Poly:
    if isinstance(x, Poly):
        return x
    return ring.const(x)


class Frame:
    """The left-invariant frame of a recipe, as coordinate vector fields.

    ``matrix[c][j]`` is the d/dx_c coefficient of the frame field of basis
    element j; it is unit lower triangular in declaration order, which
    makes conversion between coordinate and frame components a
    back-substitution.  :meth:`apply` reads ``X_j(x^a)`` from a table of
    monomials that the frame fills the first time each ``(j, a)`` is asked
    for.
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

    def __len__(self) -> int:
        return self.algebra.dim

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, j: int) -> PolyVectorField:
        return PolyVectorField(self.columns[j], "coordinate")

    @property
    def fields(self) -> list[PolyVectorField]:
        return [self[j] for j in range(len(self))]

    def apply(self, j: int, f: Poly) -> Poly:
        """Derivative of the function f along frame field j."""
        table = self._monomial_derivatives
        out: dict = {}
        for exp, c in f.terms.items():
            terms = table.get((j, exp))
            if terms is None:
                terms = table[(j, exp)] = self._monomial_derivative(j, exp)
            for e, d in terms:
                out[e] = out[e] + c * d if e in out else c * d
        return Poly(self.ring, out)

    def _monomial_derivative(self, j: int, exp: tuple[int, ...]) -> tuple:
        """Terms of X_j(x^exp) = sum over c of matrix[c][j] * d/dx_c x^exp."""
        out: dict = {}
        for c, coeff in enumerate(self.columns[j]):
            a = exp[c]
            if not a:
                continue
            lowered = exp[:c] + (a - 1,) + exp[c + 1:]
            for e, x in coeff.terms.items():
                e = tuple(p + q for p, q in zip(lowered, e))
                out[e] = out[e] + a * x if e in out else a * x
        return tuple((e, x) for e, x in out.items() if x)

    def to_frame(self, coord_components: Sequence[Poly]) -> list[Poly]:
        """Frame components of a coordinate vector field (triangular solve)."""
        n = len(self)
        a: list[Poly] = []
        for c in range(n):
            acc = _as_poly(self.ring, coord_components[c])
            for j in range(c):
                if not self.matrix[c][j].is_zero():
                    acc = acc - self.matrix[c][j] * a[j]
            a.append(acc)
        return a

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

    def field_in_frame(self, coord_components: Sequence[Poly]) -> PolyVectorField:
        return PolyVectorField(tuple(self.to_frame(coord_components)), "frame")


def _flow_derivative(recipe: CoordinateRecipe, ring_t: PolyRing, t_index: int,
                     product_coords: Sequence) -> list[Poly]:
    """d/dt at t=0 of a coordinate curve: the t-linear part, projected to x."""
    xring = recipe.ring
    return [_as_poly(ring_t, c).coefficient_of(t_index, 1).project(xring)
            for c in product_coords]


def left_invariant_frame(g: GradedLieAlgebra, recipe: CoordinateRecipe) -> Frame:
    """Frame field of each basis element X: p -> d/dt (p * exp(tX)) at t=0."""
    ring_t, t_index = recipe.extended_ring()
    xs = [ring_t.var(i) for i in range(g.dim)]
    t = ring_t.var(t_index)
    zero = ring_t.zero()
    columns = []
    for j in range(g.dim):
        q = [zero] * g.dim
        q[j] = t
        prod = group_product(recipe, xs, q)
        columns.append(_flow_derivative(recipe, ring_t, t_index, prod))
    return Frame(g, recipe, recipe.ring, columns)


def _translation_generator(recipe: CoordinateRecipe, j: int) -> list[Poly]:
    """Coordinate field of p -> d/dt (exp(t e_j) * p) at t=0."""
    g = recipe.algebra
    ring_t, t_index = recipe.extended_ring()
    xs = [ring_t.var(i) for i in range(g.dim)]
    t = ring_t.var(t_index)
    zero = ring_t.zero()
    q = [zero] * g.dim
    q[j] = t
    prod = group_product(recipe, q, xs)
    return _flow_derivative(recipe, ring_t, t_index, prod)


def _automorphism_generator(recipe: CoordinateRecipe, dmap: DegreeZeroMap) -> list[Poly]:
    """Coordinate field of the flow of exp(tD) acting by automorphisms.

    Only the t-linear part of the flow matters, so exp(tD) is applied to
    each factor argument as 1 + tD; higher t-orders cannot reach the
    first derivative.
    """
    g = recipe.algebra
    ring_t, t_index = recipe.extended_ring()
    xs = [ring_t.var(i) for i in range(g.dim)]
    t = ring_t.var(t_index)
    zero = ring_t.zero()
    args = _factor_args(recipe, xs, zero)
    moved = []
    for arg in args:
        d_arg = dmap.apply(arg)
        moved.append([a + t * b for a, b in zip(arg, d_arg)])
    m = reduce(lambda a, b: bch(g, a, b), moved)
    coords = factor_log(recipe, m)
    return _flow_derivative(recipe, ring_t, t_index, coords)


def realize_tau(s, recipe: CoordinateRecipe) -> list[PolyVectorField]:
    """One vector field per basis element of the prolongation algebra s.

    Negative elements generate left translations; degree-zero elements
    generate flows of graded automorphisms.  The fields are returned in
    the basis order of s, expressed in the left-invariant frame.
    """
    if s.bracket_table is None:
        raise NotTerminated("realization needs a terminating prolongation")
    if any(lvl.k >= 1 and lvl.dim > 0 for lvl in s.levels):
        raise NotRealizable(
            "positive-degree prolongation elements do not act by translations or automorphisms")
    g = s.negative
    frame = left_invariant_frame(g, recipe)
    fields = []
    for key in s.sbasis:
        if key[0] == "neg":
            coords = _translation_generator(recipe, key[1])
        else:
            _, k, b = key
            dmap = DegreeZeroMap.from_values(g, s.levels[k].actions[b])
            coords = _automorphism_generator(recipe, dmap)
        fields.append(frame.field_in_frame(coords))
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


def pushforward_in_frame(pmap: PolyMap, frame: Frame) -> list[list[Poly]]:
    """Matrix P with P[j][i] = frame-j component of the pushforward of frame-i.

    Components are polynomials in the source point; the frame at the
    image point is obtained by composing the frame matrix with the map.
    """
    ring = frame.ring
    n = len(frame)
    jac = pmap.jacobian()
    if _poly_det(jac, ring).is_zero():
        raise NotInvertible("map has identically singular Jacobian")
    subs_vals = list(pmap.components)
    f_img = [[frame.matrix[c][j].subs(subs_vals) for j in range(n)] for c in range(n)]
    result: list[list[Poly]] = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        push = []
        for c in range(n):
            acc = ring.zero()
            for d in range(n):
                if not jac[c][d].is_zero() and not frame.matrix[d][i].is_zero():
                    acc = acc + jac[c][d] * frame.matrix[d][i]
            push.append(acc)
        # triangular solve against the frame matrix at the image point
        a: list[Poly] = []
        for c in range(n):
            acc = push[c]
            for j in range(c):
                if not f_img[c][j].is_zero():
                    acc = acc - f_img[c][j] * a[j]
            a.append(acc)
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
