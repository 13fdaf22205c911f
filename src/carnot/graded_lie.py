"""Stratified nilpotent Lie algebras presented by structure constants.

A :class:`GradedLieAlgebra` carries an ordered basis, a negative integer
weight per basis element (the layer), and the full antisymmetric table of
brackets as sparse rows: ``rows[i][j]`` lists the nonzero structure
constants of ``[e_i, e_j]``.  Elements are plain coefficient vectors in
the fixed basis; the bracket extends bilinearly and also accepts
polynomial coefficients, which the group-realization code relies on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exact_linalg import SparseRows, exact, solve


class InvalidAlgebra(ValueError):
    """Base for structural rejections of an algebra presentation."""


class AntisymmetryViolation(InvalidAlgebra):
    pass


class GradingViolation(InvalidAlgebra):
    pass


class JacobiViolation(InvalidAlgebra):
    pass


class GenerationFailure(InvalidAlgebra):
    pass


class DuplicateBracket(InvalidAlgebra):
    pass


class GradedLieAlgebra:
    """Immutable stratified Lie algebra over the rationals.

    ``rows[i][j]`` is ``[e_i, e_j]`` as a tuple of nonzero ``(k, c)`` terms
    sorted by ``k``, the format of ``ProlongationAlgebra.bracket_table``;
    the constructor accepts any such terms, sums repeated ``k`` and drops
    zeros.  Each ``c`` is stored as an ``int`` when it is integral and as a
    ``Fraction`` only otherwise, the convention of every table and
    polynomial built from it.  Construction verifies antisymmetry, the
    grading and the Jacobi identity with :func:`table_violation`, then
    that layer -1 generates:
    for each layer ``-d`` with ``d >= 2``, one elimination solves the
    products of layer -1 with layer ``-(d-1)`` for every basis element of
    layer ``-d``, and :class:`GenerationFailure` is raised if one has no
    solution.  The solutions are kept as the proof: ``spanned_by[t]`` holds
    the nonzero ``(c, i, j)`` with ``e_t = sum c [e_i, e_j]``, for every
    ``t`` below layer -1, keyed in layer order.
    """

    __slots__ = ("names", "weights", "rows", "dim", "step", "spanned_by",
                 "_index", "_layers", "_nonzero")

    def __init__(self, names: Sequence[str], weights: Sequence[int],
                 rows: Sequence[Sequence[Iterable[tuple[int, object]]]]):
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        n = len(self.names)
        self.dim = n
        if len(self.weights) != n:
            raise InvalidAlgebra("weights must match basis length")
        if len(set(self.names)) != n:
            raise InvalidAlgebra("duplicate basis names")
        if any(w >= 0 for w in self.weights):
            raise InvalidAlgebra("weights must be negative integers")
        self.step = -min(self.weights)
        for d in range(1, self.step + 1):
            if not any(w == -d for w in self.weights):
                raise InvalidAlgebra(f"layer -{d} is empty")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidAlgebra(f"bracket table must be {n}x{n}")
        sums: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
        for i, j in product(range(n), repeat=2):
            for k, c in rows[i][j]:
                if k not in range(n):
                    raise InvalidAlgebra(f"[{self.names[i]},{self.names[j]}] has "
                                         f"component index {k!r} outside the basis")
                sums[i][j][k] = sums[i][j].get(k, 0) + Fraction(c)
        self.rows = tuple(tuple(tuple(sorted((k, exact(c)) for k, c in terms.items() if c))
                                for terms in row) for row in sums)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._layers = {d: tuple(i for i, w in enumerate(self.weights) if w == -d)
                        for d in range(1, self.step + 1)}
        violation = table_violation(self.rows, self.weights)
        if violation is not None:
            raise self._violation(*violation)
        self._nonzero = [(i, j, self.rows[i][j])
                         for i in range(n) for j in range(i + 1, n) if self.rows[i][j]]
        self.spanned_by: dict[int, tuple[tuple[Fraction, int, int], ...]] = {}
        for depth in range(2, self.step + 1):
            targets = self.layer_indices(depth)
            pairs, products = _generation_matrix(self, depth)
            units = [[Fraction(int(t == u)) for t in range(len(targets))]
                     for u in range(len(targets))]
            for gt, combo in zip(targets, solve(products, units)):
                if combo is None:
                    raise GenerationFailure("layer -1 does not generate the lower layers")
                self.spanned_by[gt] = tuple((c, i, j) for c, (i, j) in zip(combo, pairs) if c)

    def _violation(self, kind: str, a: int, b: int, c: int) -> InvalidAlgebra:
        na, nb, nc = self.names[a], self.names[b], self.names[c]
        if kind == "jacobi":
            return JacobiViolation(f"Jacobi fails on ({na},{nb},{nc})")
        if kind == "grading":
            return GradingViolation(f"[{na},{nb}] has component {nc} of weight {self.weights[c]}, "
                                    f"expected {self.weights[a] + self.weights[b]}")
        if a == b:
            return AntisymmetryViolation(f"[{na},{na}] != 0")
        return AntisymmetryViolation(f"[{na},{nb}] != -[{nb},{na}]")

    # -- queries ------------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    def layer_indices(self, depth: int) -> tuple[int, ...]:
        """Basis indices of layer ``-depth`` in declaration order."""
        return self._layers.get(depth, ())

    @property
    def layer_dims(self) -> list[int]:
        return [len(self.layer_indices(d)) for d in range(1, self.step + 1)]

    def bracket(self, a: Sequence, b: Sequence) -> list:
        """Bilinear bracket of coefficient vectors.

        Coefficients may be ints, Fractions or any ring elements supporting
        addition and multiplication by them (e.g. polynomials).
        """
        out = [Fraction(0)] * self.dim
        for i, j, row in self._nonzero:
            term = a[i] * b[j] - a[j] * b[i]
            for k, c in row:
                out[k] = out[k] + c * term
        return out

    def __repr__(self) -> str:
        return f"GradedLieAlgebra({'|'.join(self.names)}, step={self.step})"


def table_violation(rows: Sequence[Sequence[Sequence[tuple[int, Fraction]]]],
                    weights: Sequence[int]) -> tuple[str, int, int, int] | None:
    """First failure of the graded Lie algebra laws in a sparse bracket table.

    ``rows[a][b]`` is the tuple of nonzero ``(k, c)`` terms of ``[e_a, e_b]``
    sorted by ``k``.  Checks antisymmetry on pairs ``a <= b``, then the
    grading on pairs ``a < b``, then Jacobi on triples ``a < b < c``, each in
    lexicographic order, and returns ``(kind, a, b, c)`` for the first
    failure (``c`` is the offending component for "grading", equal to ``b``
    for "antisymmetry"), or None.

    The Jacobi sums run in integers.  When the lcm ``L`` of the
    denominators exceeds 1, every coefficient is first multiplied by ``L``;
    the tables built here hold ``int``s wherever integral, so ``L = 1``
    leaves them as they are.  The Jacobi expression is bilinear in the
    table, so each sum of the scaled table is ``L**2`` times the sum of the
    given one, and is zero exactly when that one is.

    Jacobi is checked one smallest index ``a`` at a time, and only through
    products of two nonzero table entries.  With antisymmetry the sum of
    ``(a, b, c)`` is ``[e_a,[e_b,e_c]] - [e_b,[e_a,e_c]] + [e_c,[e_a,e_b]]``.
    The first term is ``[e_a, e_m]`` times the ``e_m`` coefficient of
    ``[e_b, e_c]``, summed over ``m``; the other two are ``[e_o, e_m]``
    times the ``e_m`` coefficient of ``[e_a, e_q]``, with ``{o, q} =
    {b, c}``.  Each such product with both factors nonzero is added to the
    sum of its triple, and these are all the nonzero products.  So the
    check stays exhaustive: a triple that no product reaches has the sum 0.
    The sums of one ``a`` are complete before the next ``a`` starts, so the
    least failing ``(b, c)`` of the least failing ``a`` is the first failing
    triple in lexicographic order, and only one ``a``'s sums are held.
    """
    n = len(rows)
    for a, row in enumerate(rows):
        if row[a]:
            return ("antisymmetry", a, a, a)
        for b in range(a + 1, n):
            ab, ba = row[b], rows[b][a]
            if (ab or ba) and tuple(ba) != tuple((k, -c) for k, c in ab):
                return ("antisymmetry", a, b, b)
    # with antisymmetry, the entries a < b hold every denominator
    denominators = set()
    for a, row in enumerate(rows):
        wa = weights[a]
        for b in range(a + 1, n):
            terms = row[b]
            if terms:
                wab = wa + weights[b]
                for k, c in terms:
                    if weights[k] != wab:
                        return ("grading", a, b, k)
                    denominators.add(c.denominator)
    scale = lcm(*denominators)
    if scale > 1:
        rows = [[tuple((k, c.numerator * (scale // c.denominator)) for k, c in terms)
                 for terms in row] for row in rows]
    # holders[m]: every (o, [e_o, e_m]) that is nonzero; with_term[m]: every
    # (b, c, x) with b < c where [e_b, e_c] has the coefficient x at e_m
    holders: list[list] = [[] for _ in range(n)]
    with_term: list[list] = [[] for _ in range(n)]
    for b in range(n):
        for c, terms in enumerate(rows[b]):
            if terms:
                holders[c].append((b, terms))
                if b < c:
                    for m, x in terms:
                        with_term[m].append((b, c, x))
    for a in range(n):
        # the sum of (a, b, c) at e_k is kept under the key (b * n + c) * n + k
        total: dict[int, int] = {}
        for q, aq in enumerate(rows[a]):
            if not aq:
                continue
            # [e_a,[e_b,e_c]] where [e_b,e_c] has a term at e_q
            for b, c, x in with_term[q]:
                if b > a:
                    base = (b * n + c) * n
                    for k, y in aq:
                        key = base + k
                        total[key] = total.get(key, 0) + x * y
            if q < a:
                continue
            # -[e_o,[e_a,e_q]] for a < o < q and [e_o,[e_a,e_q]] for o > q
            for m, x in aq:
                for o, outer in holders[m]:
                    if o <= a or o == q:
                        continue
                    if o < q:
                        base, x_o = (o * n + q) * n, -x
                    else:
                        base, x_o = (q * n + o) * n, x
                    for k, y in outer:
                        key = base + k
                        total[key] = total.get(key, 0) + x_o * y
        failing = [key for key, value in total.items() if value]
        if failing:
            b, c = divmod(min(failing) // n, n)
            return ("jacobi", a, b, c)
    return None


def build_algebra(layers: Sequence[Sequence[str]],
                  brackets: Mapping[tuple[str, str], Sequence[tuple[Fraction, str]]]
                  ) -> GradedLieAlgebra:
    """Construct an algebra from layers and bracket relations.

    ``layers[d]`` lists the generators of layer ``-(d+1)``; ``brackets``
    maps ordered pairs of names to coefficient/name term lists.  Only one
    orientation of each pair may appear and unlisted brackets are zero;
    :class:`GradedLieAlgebra` checks the laws and generation by layer -1.
    """
    names: list[str] = []
    weights: list[int] = []
    for d, layer in enumerate(layers, start=1):
        for name in layer:
            names.append(name)
            weights.append(-d)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    rows: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for (a, b), terms in brackets.items():
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise InvalidAlgebra(f"unknown basis name {missing!r} in bracket [{a},{b}]")
        i, j = index[a], index[b]
        if i == j:
            raise AntisymmetryViolation(f"bracket [{a},{b}] of an element with itself")
        if (i, j) in seen or (j, i) in seen:
            raise DuplicateBracket(f"bracket [{a},{b}] listed twice (or in both orientations)")
        seen.add((i, j))
        for coeff, name in terms:
            if name not in index:
                raise InvalidAlgebra(f"unknown basis name {name!r} in bracket [{a},{b}]")
            rows[i][j].append((index[name], Fraction(coeff)))
            rows[j][i].append((index[name], -Fraction(coeff)))
    return GradedLieAlgebra(names, weights, rows)


def _generation_matrix(g: GradedLieAlgebra, depth: int) -> tuple[list[tuple[int, int]], SparseRows]:
    """The products of layer -1 with layer -(depth-1), read in layer -depth.

    Column p of the matrix holds the layer -depth coordinates of
    ``[e_i, e_j]`` for ``(i, j) = pairs[p]``; ``pairs`` is returned with it.
    """
    position = {gt: t for t, gt in enumerate(g.layer_indices(depth))}
    pairs = [(i, j) for i in g.layer_indices(1) for j in g.layer_indices(depth - 1)]
    rows: list[dict[int, Fraction]] = [{} for _ in position]
    for p, (i, j) in enumerate(pairs):
        for k, c in g.rows[i][j]:
            rows[position[k]][p] = c
    return pairs, SparseRows(rows, len(pairs))

