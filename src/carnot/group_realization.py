"""Group coordinates, left-invariant frames, and vector-field realizations.

The simply connected group of a stratified algebra is coordinatized by an
ordered product of exponential factors (a :class:`CoordinateRecipe`); the
group law is evaluated through the truncated Baker-Campbell-Hausdorff
series, which is exact in step <= 3.  Each recipe computes the law
mu(x, y) = x * y once, symbolically in both points
(:attr:`CoordinateRecipe.law`), and everything else is read off it: the
left-invariant frame field of e_j is the part of mu linear in y_j, the
right-invariant field of e_j (the generator of left translations) the
part linear in x_j (:attr:`CoordinateRecipe.right_invariant`), and the
left translations are the family y -> mu(x, y).  A family of maps is
pushed forward once, with its parameters symbolic (x for the
translations, the scale for the dilations), and tested as one
polynomial identity in the parameters and the point.  So every
coefficient is an exact polynomial.  Every vector field is held by its
components in the left-invariant frame.  An element u of level k >= 0
of the prolongation algebra is realized by its action on G_-: the frame
components of its field at p are the g_- part of Ad(p^-1) u, a finite
series read from the algebra's bracket table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Sequence

from .exact_linalg import Matrix, Subspace, exact, sparse_row
from .graded_lie import GradedLieAlgebra
from .polynomials import Poly, PolyRing, substitute

HALF = Fraction(1, 2)
TWELFTH = Fraction(1, 12)


class UnsupportedStep(ValueError):
    """The truncated BCH series only covers nilpotency step <= 3."""


class CoordinateCollision(ValueError):
    """Two basis names lowercase to the same coordinate name."""


class NotTerminated(ValueError):
    """The prolongation was cut off, so there is no finite algebra to realize."""


def bch(g: GradedLieAlgebra, a: Sequence, b: Sequence) -> list:
    """log(exp(a) exp(b)) in the nilpotent algebra g.

    Exact for step <= 3: a + b + [a,b]/2 + ([a,[a,b]] + [b,[b,a]])/12.
    Coefficients may be rationals or polynomials.
    """
    if g.step > 3:
        raise UnsupportedStep(f"step {g.step} exceeds the supported truncation (3)")
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

    @cached_property
    def ring(self) -> PolyRing:
        """The coordinate ring, one object per recipe: its frame and every
        map built from it share it."""
        return PolyRing(self.coord_names, self.coord_weights)

    @cached_property
    def law(self) -> tuple[Poly, ...]:
        """The group law mu(x, y) = x * y: n polynomials in 2n variables,
        the coordinates x and then their copies y.

        A y variable is its coordinate's name with a trailing ``'``, which
        no spec name has.  It is computed once per recipe; the frame, the
        right-invariant fields and every left translation are read off it.
        """
        names = self.coord_names
        ring = PolyRing(names + tuple(f"{x}'" for x in names), self.coord_weights * 2)
        n = len(names)
        xs = [ring.var(i) for i in range(n)]
        ys = [ring.var(n + i) for i in range(n)]
        return tuple(_as_poly(ring, c) for c in group_product(self, xs, ys))

    @cached_property
    def right_invariant(self) -> "CoordinateFields":
        """The right-invariant field R_j of each basis element e_j, the
        generator of left translations by exp(t e_j), read off :attr:`law`
        once per recipe: ``realize_tau`` takes the fields of the negative
        elements from them, and verify differentiates along them, through
        one table of their derivatives."""
        return CoordinateFields(self.ring, _flow_generators(self, right=True))


def _zero_like(x):
    return x - x


def log_of_coords(recipe: CoordinateRecipe, coords: Sequence) -> list:
    """log of the point with the given recipe coordinates, as an algebra vector."""
    zero = _zero_like(coords[0])
    g = recipe.algebra
    args = [[coords[j] if j in f else zero for j in range(g.dim)] for f in recipe.factors]
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
    return tuple((e, exact(x)) for e, x in out.items() if x)


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


class CoordinateFields:
    """Coordinate vector fields over ``ring``: ``columns[j][c]`` is the
    d/dx_c coefficient of field j.  A coefficient is held as an ``int``
    when it is integral and as a ``Fraction`` only otherwise.
    :meth:`derivative_terms` reads ``V_j(x^a)`` from a table of monomials
    that is filled the first time each ``(j, a)`` is asked for;
    :meth:`apply` reads the table through it.
    """

    def __init__(self, ring: PolyRing, columns: Sequence[Sequence[Poly]]):
        self.ring = ring
        self.columns = tuple(tuple(col) for col in columns)
        self._monomial_derivatives: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def __len__(self) -> int:
        return len(self.columns)

    def derivative_terms(self, j: int, exp: tuple[int, ...]) -> tuple:
        """The nonzero terms ``(e, d)`` of V_j(x^exp), from the table."""
        terms = self._monomial_derivatives.get((j, exp))
        if terms is None:
            terms = self._monomial_derivatives[(j, exp)] = \
                _derivative_terms(self.columns[j], exp)
        return terms

    def apply(self, j: int, f: Poly) -> Poly:
        """Derivative of the function f along field j."""
        out: dict = {}
        for exp, c in f.terms.items():
            for e, d in self.derivative_terms(j, exp):
                out[e] = out[e] + c * d if e in out else c * d
        return Poly(self.ring, out)


class Frame(CoordinateFields):
    """The left-invariant frame of a recipe, as coordinate vector fields
    over the recipe's ring; ``algebra`` and ``ring`` are the recipe's.

    ``columns[j][c]`` is the d/dx_c coefficient of the frame field of
    basis element j: the part of component c of the recipe's law mu(x, y)
    linear in y_j.  The frame matrix (entry (c, j) is ``columns[j][c]``)
    is unit lower triangular in declaration order, so conversion from
    coordinate to frame components is a forward substitution over its
    entries below the diagonal.  ``derivative_terms`` reads ``X_j(x^a)``
    from the frame's own table; ``apply`` and the contact residuals read
    the table through it.
    """

    def __init__(self, recipe: CoordinateRecipe, columns: Sequence[Sequence[Poly]]):
        super().__init__(recipe.ring, columns)
        self.algebra = algebra = recipe.algebra
        self.recipe = recipe
        self.horizontal = len(algebra.layer_indices(1))
        # the contact and conformal residuals read the horizontal frame
        # fields as the first ``horizontal`` basis elements
        if algebra.layer_indices(1) != tuple(range(self.horizontal)):
            raise ValueError("a frame needs layer -1 first in the basis")
        one = self.ring.one()
        for j, col in enumerate(self.columns):
            if any(not x.is_zero() for x in col[:j]):
                raise AssertionError("frame matrix is not lower triangular")
            if col[j] != one:
                raise AssertionError("frame matrix diagonal is not 1")
        n = algebra.dim
        self._below = tuple(tuple((j, self.columns[j][c]) for j in range(c)
                                  if not self.columns[j][c].is_zero()) for c in range(n))

    def to_frame(self, coord_components: Sequence[Poly]) -> list[Poly]:
        """Frame components of a coordinate vector field (triangular solve)."""
        return _unit_lower_solve(self._below, [_as_poly(self.ring, c) for c in coord_components])


def _flow_generators(recipe: CoordinateRecipe, right: bool) -> list[list[Poly]]:
    """Coordinate fields d/dt at t=0 of p -> p * exp(t e_j), or of
    p -> exp(t e_j) * p when ``right``, one per basis element j.

    The first are left-invariant: the frame.  The second are
    right-invariant: the generators of left translations.  Both are read
    off :attr:`CoordinateRecipe.law`: the t-linear part of mu(x, t e_j) is
    the part of mu linear in y_j and free of every other y, and that of
    mu(t e_j, y) is the part linear in x_j and free of every other x,
    renamed from y to x.
    """
    n = recipe.algebra.dim
    flow, point = (slice(0, n), slice(n, None)) if right else (slice(n, None), slice(0, n))
    columns: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for c, comp in enumerate(recipe.law):
        for e, x in comp.terms.items():
            moved = e[flow]
            if sum(moved) == 1:
                columns[moved.index(1)][c][e[point]] = exact(x)
    ring = recipe.ring
    return [[Poly(ring, terms) for terms in col] for col in columns]


def left_invariant_frame(recipe: CoordinateRecipe) -> Frame:
    """Frame field of each basis element X of the recipe's algebra:
    p -> d/dt (p * exp(tX)) at t=0, read off the recipe's group law."""
    return Frame(recipe, _flow_generators(recipe, right=False))


def _conjugate(ad: Sequence[dict[int, Poly]], v: dict[int, Poly]) -> dict[int, Poly]:
    """e^{-ad A} v, the sum over n of (-ad A)^n v / n!, for a sparse s-row
    v with polynomial entries; ``ad[b]`` is the sparse s-row of [A, e_b].
    A lies in g_-, so ad A lowers the degree and the series ends."""
    out = dict(v)
    n = 0
    while v:
        n += 1
        term: dict = {}
        for b, y in v.items():
            for k, x in ad[b].items():
                term[k] = term[k] + x * y if k in term else x * y
        scale = Fraction(-1, n)
        v = {k: p * scale for k, p in term.items() if p}
        for k, p in v.items():
            out[k] = out[k] + p if k in out else p
    return out


def realize_tau(s, frame: Frame) -> list[PolyVectorField]:
    """One vector field per basis element of the prolongation algebra s, in
    the basis order of s, in components of ``frame``; every coefficient is
    an ``int`` when it is integral and a ``Fraction`` only otherwise.

    A negative element e_j is the right-invariant field R_j, the generator
    of left translations by exp(t e_j), read off the group law.  s acts on
    S/P, which contains G_- (Tanaka), and the field of u at p is
    d/dt exp(tu) p = p exp(t Ad(p^-1) u) modulo P: its frame components
    are the g_- part of Ad(p^-1) u.  The recipe's point is
    p = exp(A_1) ... exp(A_r), A_i the sum of x_c e_c over factor i, so
    Ad(p^-1) u = e^{-ad A_r} ... e^{-ad A_1} u, read from the bracket
    table of s.  Each series is finite, because ad A lowers the degree;
    component j of the result has weight k + |w_j| for u in level k, so
    the field of a level-k element is homogeneous of degree k.
    """
    if s.bracket_table is None:
        raise NotTerminated("realization needs a terminating prolongation")
    g = s.negative
    ring = frame.ring
    zero = ring.zero()
    negs = [s.sbasis.index(("neg", j)) for j in range(g.dim)]  # e_j of g, in s
    # per factor A = sum of x_c e_c, the rows [A, e_b] of ad A
    ads = []
    for f in frame.recipe.factors:
        a_row = {negs[c]: ring.var(c) for c in f}
        ads.append([s.bracket_vec(a_row, {b: 1}) for b in range(s.dim)])
    generators = frame.recipe.right_invariant
    fields = []
    for a, key in enumerate(s.sbasis):
        if key[0] == "neg":
            comps = frame.to_frame(generators.columns[key[1]])
        else:
            v = {a: ring.one()}
            for ad in ads:
                v = _conjugate(ad, v)
            comps = [v.get(i, zero) for i in negs]
        # the law's products and the series' 1/n! leave integral Fractions
        fields.append(PolyVectorField(tuple(
            Poly(ring, {e: exact(c) for e, c in p.terms.items()}) for p in comps)))
    return fields


def dilations(recipe: CoordinateRecipe) -> tuple[Poly, ...]:
    """The family of automorphic dilations delta_lambda, lambda > 0, with
    the scale symbolic: component c is lambda**w_c y_c for the coordinate
    y_c of weight w_c, in a ring of the scale and then the recipe's
    coordinates.  The scale is named ``λ``, which no coordinate name is:
    spec names are ASCII."""
    weights = recipe.coord_weights
    ring = PolyRing(("λ",) + recipe.coord_names, (1,) + weights)
    lam = ring.var(0)
    return tuple(lam ** w * ring.var(1 + c) for c, w in enumerate(weights))


def graded_automorphism(recipe: CoordinateRecipe, phi: Matrix) -> tuple[Poly, ...]:
    """The group map induced by a graded algebra automorphism phi:
    exp(m) -> exp(phi m), read through :func:`log_of_coords`, as its
    components in the recipe's ring.

    phi must be an automorphism, as :func:`extend_first_layer_automorphism`
    returns one; it is not checked again here.
    """
    g = recipe.algebra
    ring = recipe.ring
    # phi respects brackets, so it commutes with BCH: phi(log x) = log phi(x)
    m = log_of_coords(recipe, [ring.var(i) for i in range(g.dim)])
    zero = ring.zero()
    moved = [sum((c * x for c, x in zip(row, m) if c), zero) for row in phi.entries]
    return tuple(_as_poly(ring, c) for c in factor_log(recipe, moved))


def extend_first_layer_automorphism(g: GradedLieAlgebra, block: Matrix) -> Matrix:
    """Extend a first-layer block to a graded automorphism, or fail.

    Deeper images are forced: ``e_t = sum c [e_i, e_j]`` over
    ``g.spanned_by[t]``, the proof of generation the algebra keeps, maps to
    ``sum c [phi e_i, phi e_j]``.  The result is checked once, for rank
    and against every bracket, which rejects a block that does not extend
    with a ``ValueError``; what it returns is an automorphism, as
    :func:`graded_automorphism` needs.
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
    for gt, terms in g.spanned_by.items():
        img = [Fraction(0)] * g.dim
        for c, i, j in terms:
            piece = g.bracket(images[i], images[j])
            img = [x + c * y for x, y in zip(img, piece)]
        images[gt] = img
    phi = Matrix([[images[j][i] for j in range(g.dim)] for i in range(g.dim)])
    if Subspace.from_vectors(map(sparse_row, phi.entries), phi.cols).dim != g.dim:
        raise ValueError("matrix is singular, not an automorphism")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = g.bracket(phi.col(i), phi.col(j))
            rhs = [sum(c * row[k] for k, c in g.rows[i][j]) for row in phi.entries]
            if lhs != rhs:
                raise ValueError(
                    f"matrix does not respect the bracket on ({g.names[i]},{g.names[j]})")
    return phi


def pushforward(pmap: Sequence[Poly], frame: Frame) -> list[list[Poly]]:
    """One column per horizontal frame field: ``cols[i][j]`` is the frame-j
    component of the pushforward of X_i, for the map or family of maps
    with the components ``pmap``.

    The frame acts on the last n = ``len(frame)`` variables of the map's
    ring, the source point; any variables before them are parameters of a
    family: x for the left translations y -> mu(x, y)
    (:attr:`CoordinateRecipe.law`), the scale for :func:`dilations`, and
    none for one map in the frame's ring.  In coordinates the pushforward
    of X_i has components X_i(phi_c), derivatives in the source point; its
    frame components at the image point solve the frame matrix, its
    entries below the diagonal composed with the map, by a unit lower
    solve.  Putting in parameter values is a ring homomorphism that fixes
    the source point, so it commutes with derivatives in it, with
    composition, and with the unit lower solve, which uses only + and *:
    the family's columns at those values are exactly the pushforward of
    that one map.  The map may be singular; :func:`conformal_factor` says
    why no test of that is needed.
    """
    ring = pmap[0].ring
    n = len(frame)
    first = ring.nvars - n
    zero = ring.zero()
    ys = [ring.var(first + c) for c in range(n)]
    # the entries below the frame's diagonal at the image point, the map
    # put in through one substitute call
    moved = iter(substitute([x for row in frame._below for _, x in row], pmap))
    below = [[(j, next(moved)) for j, _ in row] for row in frame._below]
    cols = []
    for i in range(frame.horizontal):
        column = [(first + c, x) for c, x in enumerate(substitute(frame.columns[i], ys))
                  if not x.is_zero()]
        cols.append(_unit_lower_solve(
            below, [sum((x * phi.diff(v) for v, x in column), zero) for phi in pmap]))
    return cols


def conformal_factor(cols: Sequence[Sequence[Poly]], frame: Frame) -> Poly | None:
    """The conformal factor k of a map with the horizontal pushforward
    ``cols`` (as :func:`pushforward` returns it), or None when the map is
    no similarity.

    The map is a similarity when it is contact and its horizontal
    pushforward A has A A^t = k I with k not identically zero; the
    horizontal frame is declared orthonormal.  The check is an exact
    polynomial identity, on the m(m+1)/2 distinct entries of A A^t, each
    read once, in the ring of the columns.  A map with an identically
    singular Jacobian gets None, so none is tested for: a factor needs the
    map contact and k(p) != 0 at some p, so A(p) is invertible.
    The Maurer-Cartan equations, pulled back and evaluated on [X_a, X_b]
    with X_a in layer -1, show by induction on the layer that the frame
    Jacobian at p keeps layers -1..-d and acts on layer -d by the map A
    induces through brackets with layer -1.  Layer -1 generates, so each
    such block is onto, and the Jacobian at p is invertible.

    The columns of a family (see :func:`pushforward`) lie in Q[t, y], t
    its parameters, and one test of them decides every member.  Putting
    t = p is a ring homomorphism, so an identity in Q[t, y] holds at every
    p, with the factor k(p, .).  That factor is not zero wherever the
    member is a diffeomorphism, as each left translation and each dilation
    is: its A is invertible.  A failed identity leaves a nonzero
    polynomial, a component off layer -1 or an entry of A A^t other than
    k I.  A nonzero polynomial vanishes on no open set, so it is nonzero
    at some rational (p, q) with p where the family lives, the scale
    positive for the dilations: the member at that p is no similarity.
    """
    m = frame.horizontal
    if any(not x.is_zero() for col in cols for x in col[m:]):
        return None
    zero, k = cols[0][0].ring.zero(), None
    for r in range(m):
        for s in range(r, m):
            entry = sum((col[r] * col[s] for col in cols), zero)
            k = entry if k is None else k
            if k.is_zero() or entry != (k if r == s else zero):
                return None
    return k


def similarity_check(pmap: Sequence[Poly], frame: Frame) -> Poly | None:
    """The conformal factor k of a horizontal similarity, or None: the
    :func:`conformal_factor` of the :func:`pushforward` of the map or
    family with the components ``pmap``.

    verify runs it twice: on the :func:`dilations`, factor the square of
    the scale, and on the anisotropic automorphism, which is no
    similarity.  The left translations, the group law with its first
    point symbolic, are pushed forward in verify itself, because its
    homomorphism check reads their columns too; their factor is the
    :func:`conformal_factor` of those columns.
    """
    return conformal_factor(pushforward(pmap, frame), frame)
