"""Tanaka prolongation: the degree-zero algebra, the tower of levels, and
assembly of the full graded algebra.

Level k >= 0 consists of maps u on the negative part with u(g_j) inside the
space of degree j+k (a negative layer when k = 0, a previously computed
level when k >= 1), subject to the Leibniz law u[S,T] = [u(S),T] - [u(T),S]
on all negative pairs.  Each level is the exact nullspace of that linear
system, built by :func:`prolong_step` for every degree.  Level 0 is the
algebra of strata-preserving derivations; adding a linear condition on
the first-layer block (conformal by default) to its system gives g0.  A
level keeps its action on g_- in the sparse rows of its basis.  Once
a level is zero, generation by layer -1 forces all later levels to vanish,
and the finite algebra s = g + g_0 + ... is assembled with a full bracket
table.

The table is worked out and kept in sparse rows whose coefficients follow
the package's convention (:func:`~carnot.exact_linalg.exact`): an ``int``
when it is integral and a ``Fraction`` only otherwise, as in the rows of
the negative part and in the conformal condition rows.  A level-level
bracket is summed from rows already in the table only at the pivot cells
of the target level, its coordinates; that it lies in the level is left
to the Jacobi check of :meth:`ProlongationAlgebra.verify`.  The level
bases and their actions come from exact elimination and follow the same
convention, so each level's Leibniz system is built from ints wherever
the levels below it are integral.  :func:`degree_zero_matrix` is the
report boundary: it turns the values of a ``g0`` element into the
``Fraction`` entries of the reported matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact_linalg import SparseRows, Subspace, exact, nullspace, vec_zero
from .graded_lie import GradedLieAlgebra, table_violation


class PriorLevelsMissing(ValueError):
    pass


class JacobiAssemblyFailure(RuntimeError):
    """Internal inconsistency while assembling the prolongation algebra."""


class Level:
    """One prolongation space g_k together with its action on g_-.

    ``columns[j][t]`` is the coordinate of ``subspace`` that holds
    component t of u(e_j), the value of u on negative basis element j in
    local coordinates of the degree weight(j)+k space; the value has
    ``len(columns[j])`` components.  ``actions[b][j]`` is that value for
    the b-th basis element, as its nonzero components ``{t: c}`` in
    ascending t.  It is the only form of a level element's values: the
    Leibniz systems of later levels, the bracket table, the jets and the
    ``prolong`` report all read it.  ``pivot_cells[b]`` is the cell
    ``(j, t)`` of the pivot of basis element b.  The basis is in reduced
    echelon form, so a value that lies in the level has its coordinates
    at those cells.
    """

    def __init__(self, algebra: GradedLieAlgebra, k: int, subspace: Subspace,
                 columns: Sequence[Sequence[int]]):
        self.algebra = algebra
        self.k = k
        self.subspace = subspace
        self.columns = tuple(tuple(cols) for cols in columns)
        cell = {c: (j, t) for j, cols in enumerate(self.columns) for t, c in enumerate(cols)}
        actions = []
        for row in subspace.basis:
            values = tuple({} for _ in self.columns)
            # a basis row holds its columns in ascending order, and within
            # one j the column grows with t: each value comes out in
            # ascending t
            for c, x in row.items():
                j, t = cell[c]
                values[j][t] = x
            actions.append(values)
        self.actions = tuple(actions)
        self.pivot_cells = tuple(cell[c] for c in subspace.pivots)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def coordinates_of_values(self,
                              values: Sequence[Mapping[int, Fraction]]) -> list[Fraction] | None:
        """Coordinates in this level's basis of a map given by its values
        on g_-, each ``{t: c}`` as in :attr:`actions`, with rational or
        polynomial entries."""
        return self.subspace.coordinates_of(
            {cols[t]: x for cols, value in zip(self.columns, values) for t, x in value.items()})

    def __repr__(self) -> str:
        return f"Level(k={self.k}, dim={self.dim})"


def degree_zero_matrix(g: GradedLieAlgebra,
                       values: Sequence[dict[int, Fraction]]) -> list[list[Fraction]]:
    """Full n x n rows of the layer-preserving map sending e_j to
    ``values[j]``, the nonzero components ``{t: c}`` in local coordinates
    of e_j's layer (the convention of :attr:`Level.actions`): entry (r, c)
    is component r of the image of e_c.  The rows are reported, so every
    entry is a ``Fraction``, an integral one too."""
    rows = [vec_zero(g.dim) for _ in range(g.dim)]
    for c, value in enumerate(values):
        layer = g.layer_indices(-g.weights[c])
        for t, x in value.items():
            rows[layer[t]][c] = Fraction(x)
    return rows


@dataclass(frozen=True)
class GZeroConstraint:
    """Linear constraint on the first-layer block of a derivation.

    kinds: ``conformal`` (block in co(m): B + B^t = k I), ``full_derivations``
    (no constraint), ``explicit`` (user-supplied rows over block entries).
    """

    kind: str
    conditions: tuple = field(default=())

    @classmethod
    def conformal(cls) -> "GZeroConstraint":
        return cls("conformal")

    @classmethod
    def full_derivations(cls) -> "GZeroConstraint":
        return cls("full_derivations")

    @classmethod
    def explicit(cls, rows: Sequence[dict]) -> "GZeroConstraint":
        return cls("explicit", tuple(dict(r) for r in rows))

    def first_layer_rows(self, m: int) -> list[dict]:
        """Condition rows as {(r,c): coeff} maps over the m x m block; each row sums to zero."""
        if self.kind == "full_derivations":
            return []
        if self.kind == "conformal":
            # B + B^t = k I for some scalar k: off-diagonal pairs cancel,
            # all diagonal entries agree.  Vacuous for m = 1.
            rows: list[dict] = []
            for i in range(m):
                for j in range(i + 1, m):
                    rows.append({(i, j): 1, (j, i): 1})
            for i in range(1, m):
                rows.append({(i, i): 1, (0, 0): -1})
            return rows
        if self.kind == "explicit":
            for row in self.conditions:
                for (r, c) in row:
                    if not (0 <= r < m and 0 <= c < m):
                        raise ValueError(f"condition entry ({r},{c}) outside {m}x{m} block")
            return [dict(r) for r in self.conditions]
        raise ValueError(f"unknown constraint kind {self.kind!r}")


def _space_dim(g: GradedLieAlgebra, levels: Sequence[Level], d: int) -> int:
    if d < -g.step:
        return 0
    if d < 0:
        return len(g.layer_indices(-d))
    if d < len(levels):
        return levels[d].dim
    return 0


def _unit_brackets(g: GradedLieAlgebra, levels: Sequence[Level], d: int,
                   j: int) -> list[Iterable[tuple[int, Fraction]]]:
    """Nonzero terms ``(t, c)`` of [x_i, e_j] for each basis element x_i of
    the degree-d space, in local coordinates of degree d + weight(j)."""
    if d >= 0:
        return [per[j].items() for per in levels[d].actions]
    position = {gi: t for t, gi in enumerate(g.layer_indices(-d - g.weights[j]))}
    return [[(position[k], c) for k, c in g.rows[gi][j]] for gi in g.layer_indices(-d)]


def _leibniz_system(g: GradedLieAlgebra, prior_levels: Sequence[Level],
                    k: int) -> tuple[list[dict[int, Fraction]], list[list[int]], int]:
    """The rows of the degree-k Leibniz system, the column of each unknown
    (``columns[j][t]``, as in :class:`Level`) and the column count.

    The unknowns are the values of u on every negative basis element;
    every unordered pair of negative basis elements contributes one vector
    equation in the degree weight(S)+weight(T)+k space.  Only its nonzero
    rows are handed on: a target coordinate that no term reaches gives the
    empty equation 0 = 0, and the kernel is the same without it.
    """
    sizes = [_space_dim(g, prior_levels, g.weights[j] + k) for j in range(g.dim)]
    cells = [(j, t) for j in range(g.dim) for t in range(sizes[j])]
    if k == 0:
        # each layer's block row by row: the canonical g0 basis is that of
        # the block-entry layout its reports have always been printed in
        cells.sort(key=lambda cell: (-g.weights[cell[0]], cell[1]))
    columns = [[0] * s for s in sizes]
    for col, (j, t) in enumerate(cells):
        columns[j][t] = col
    rows: list[dict[int, Fraction]] = []
    for j1 in range(g.dim):
        for j2 in range(j1 + 1, g.dim):
            tdim = _space_dim(g, prior_levels, g.weights[j1] + g.weights[j2] + k)
            if tdim == 0:
                continue
            # the three terms own disjoint columns (those of the values
            # of u on [S,T], on S and on T), so no entry is written twice
            block: list[dict[int, Fraction]] = [{} for _ in range(tdim)]
            # u([S,T]) expands through the structure constants
            for r, c in g.rows[j1][j2]:
                for t, col in enumerate(columns[r]):
                    block[t][col] = c
            # -[u(S),T] and +[u(T),S], one column per unknown coordinate
            for (src, other, sign) in ((j1, j2, -1), (j2, j1, 1)):
                images = _unit_brackets(g, prior_levels, g.weights[src] + k, other)
                for col, terms in zip(columns[src], images):
                    for t, val in terms:
                        block[t][col] = sign * val
            rows.extend(row for row in block if row)
    return rows, columns, len(cells)


def prolong_step(g: GradedLieAlgebra, prior_levels: Sequence[Level], k: int) -> Level:
    """Exact solution space of the degree-k Leibniz system, for any k >= 0.

    ``prior_levels`` must be the computed levels g_0 .. g_{k-1} (none for
    k = 0).
    """
    if k < 0:
        raise ValueError("prolongation degree must be >= 0")
    if len(prior_levels) != k or any(lvl.k != i for i, lvl in enumerate(prior_levels)):
        raise PriorLevelsMissing(f"g_{k} needs exactly the {k} levels below it")
    rows, columns, ncols = _leibniz_system(g, prior_levels, k)
    return Level(g, k, nullspace(SparseRows(rows, ncols)), columns)


def strata_derivations(g: GradedLieAlgebra) -> Level:
    """All layer-preserving maps D with D[S,T] = [DS,T] + [S,DT]: level 0 of the tower."""
    return prolong_step(g, [], 0)


def constrain_g0(ders: Level, constraint: GZeroConstraint) -> Level:
    """The derivations whose first-layer block meets ``constraint``: the
    kernel of the degree-zero Leibniz system with the condition rows added."""
    g = ders.algebra
    first = g.layer_indices(1)
    cond_rows = constraint.first_layer_rows(len(first))
    if not cond_rows or ders.dim == 0:
        return ders
    rows, columns, ncols = _leibniz_system(g, [], 0)
    # block entry (r, c) is component r of the value on the c-th generator
    rows += [{columns[first[c]][r]: coeff for (r, c), coeff in cond.items()}
             for cond in cond_rows]
    return Level(g, 0, nullspace(SparseRows(rows, ncols)), columns)


@dataclass(frozen=True)
class TerminationReport:
    status: str  # "terminated" | "cutoff_reached"
    terminated_at: int | None
    level_dims: tuple[int, ...]
    total_dim: int

    @property
    def terminated(self) -> bool:
        return self.status == "terminated"


class ProlongationAlgebra:
    """The assembled graded algebra s = g + g_0 + g_1 + ...

    Basis ordering: negative layers deepest first, then the levels; within
    a level the canonical echelon order, so each degree occupies one
    contiguous block.  ``bracket_table[a][b]`` is the sparse bracket
    ``[e_a, e_b]``: a tuple of ``(k, c)`` sorted by ``k``, with ``c`` a
    nonzero ``int`` when it is integral and a ``Fraction`` only otherwise.
    It is only built for terminating prolongations (a cutoff leaves it as
    None).  ``levels[k]`` is g_k for 0 <= k <= :meth:`top_level`; a zero
    g0 is still level 0.

    Assembly reads each level-level bracket [u_a, u_b] at the pivot cells
    of its target level and checks nothing: the residue it leaves at X is
    the Jacobi sum of (u_a, u_b, X) (see :meth:`_lev_lev_bracket`).  So a
    directly constructed table is a Lie table only after :meth:`verify`,
    which :func:`full_prolongation` runs on every table it returns.
    """

    def __init__(self, negative: GradedLieAlgebra, levels: Sequence[Level],
                 build_table: bool = True):
        self.negative = negative
        # level 0 stays even when it is zero, so levels[k] is g_k up to the top
        self.levels = [lvl for lvl in levels if lvl.dim > 0 or lvl.k == 0]
        g = negative
        sbasis: list[tuple] = []
        labels: list[str] = []
        weights: list[int] = []
        for depth in range(g.step, 0, -1):
            for i in g.layer_indices(depth):
                sbasis.append(("neg", i))
                labels.append(g.names[i])
                weights.append(-depth)
        for lvl in self.levels:
            for b in range(lvl.dim):
                sbasis.append(("lev", lvl.k, b))
                labels.append(f"D{b + 1}" if lvl.k == 0 else f"u{lvl.k}_{b + 1}")
                weights.append(lvl.k)
        self.sbasis = tuple(sbasis)
        self.labels = tuple(labels)
        self.weights = tuple(weights)
        self.dim = len(sbasis)
        self._pos = {key: i for i, key in enumerate(sbasis)}
        self._block: dict[int, list[int]] = {}  # s-indices of each degree, in local order
        for i, w in enumerate(weights):
            self._block.setdefault(w, []).append(i)
        self.bracket_table: list[list[tuple[tuple[int, Fraction], ...]]] | None = None
        if build_table:
            self._assemble_table()

    # -- coordinate plumbing -----------------------------------------

    def _sparse_value(self, local: dict[int, Fraction], d: int) -> tuple:
        """Nonzero local coordinates ``{t: c}`` of the degree-d space as a
        sparse s-row."""
        block = self._block.get(d, ())
        return tuple((block[t], c) for t, c in local.items())

    def top_level(self) -> int:
        return len(self.levels) - 1

    # -- bracket table ------------------------------------------------

    def _assemble_table(self) -> None:
        g = self.negative
        n = self.dim
        table: list[list] = [[None] * n for _ in range(n)]
        for a in range(n):
            table[a][a] = ()

        def put(a: int, b: int, row: tuple) -> None:
            table[a][b] = row
            table[b][a] = tuple((k, -c) for k, c in row)

        negs = [i for i, key in enumerate(self.sbasis) if key[0] == "neg"]
        levs = [i for i, key in enumerate(self.sbasis) if key[0] == "lev"]
        for a in negs:
            row = g.rows[self.sbasis[a][1]]
            for b in negs:
                table[a][b] = tuple(sorted((self._pos[("neg", k)], c)
                                           for k, c in row[self.sbasis[b][1]]))
        # [u, e_j] = u(e_j): these rows are the sparse actions of the levels,
        # whose entries already follow the convention
        for a in levs:
            _, k, p = self.sbasis[a]
            for b in negs:
                j = self.sbasis[b][1]
                put(a, b, self._sparse_value(self.levels[k].actions[p][j], g.weights[j] + k))
        # per level k, the s-index i of each basis element keyed by its
        # pivot cell as {x: {m: i}}: the s-indices of e_j and of the pivot
        # entry of u(e_j); a level past the top has no cells
        pivot_cells: dict[int, dict[int, dict[int, int]]] = {}
        for lvl in self.levels:
            by_x = pivot_cells[lvl.k] = {}
            for (j, t), i in zip(lvl.pivot_cells, self._block.get(lvl.k, ())):
                m = self._block[g.weights[j] + lvl.k][t]
                by_x.setdefault(self._pos[("neg", j)], {})[m] = i
        # positive-positive brackets, built by total level k so the recursive
        # action formula only consults already-filled entries
        for k, a, b in sorted((self.sbasis[a][1] + self.sbasis[b][1], a, b)
                              for a in levs for b in levs if a < b):
            put(a, b, self._lev_lev_bracket(table, pivot_cells.get(k, {}), a, b))
        self.bracket_table = table

    def _lev_lev_bracket(self, table, pivots: Mapping[int, Mapping[int, int]],
                         a: int, b: int) -> tuple:
        """Sparse row of [u_a, u_b] from its values at ``pivots``, the pivot
        cells ``{x: {m: i}}`` of level k_a + k_b (none past the top: zero).

        [u_a, u_b](X) = [u_a, u_b(X)] - [u_b, u_a(X)] sums rows of the
        table: those of the level-negative brackets and of level pairs of
        smaller total level.  The target level's reduced echelon basis is
        the identity at its pivot cells, so the coordinates c_i are the
        values there, and only those cells are summed.  Nothing checks
        that the map lies in the level: its residue at X,
        ``sum c_i u_i(X) - [u_a, u_b(X)] + [u_b, u_a(X)]``, is the Jacobi
        sum of ``(u_a, u_b, X)`` in the table, which :meth:`verify` checks.
        """
        coords = {}
        for x, cells in pivots.items():
            value = {}
            for outer, inner, sign in ((a, table[b][x], 1), (b, table[a][x], -1)):
                for i, c in inner:
                    row = table[outer][i]
                    if row is None:
                        raise JacobiAssemblyFailure("bracket table filled out of order")
                    c = sign * c
                    for m, y in row:
                        if m in cells:
                            value[m] = value.get(m, 0) + c * y
            for m, y in value.items():
                if y:
                    coords[cells[m]] = exact(y)
        return tuple(sorted(coords.items()))

    # -- algebra operations -------------------------------------------

    def bracket_vec(self, u: Mapping[int, Fraction],
                    v: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Bracket of two sparse s-rows ``{index: coefficient}``, summed
        over the sparse table rows; the result stores no zero coefficient."""
        out: dict[int, Fraction] = {}
        for a, ua in u.items():
            row = self.bracket_table[a]
            for b, vb in v.items():
                coeff = ua * vb
                for k, c in row[b]:
                    out[k] = out.get(k, 0) + coeff * c
        return {k: c for k, c in out.items() if c}

    def verify(self) -> None:
        """Check [u,X] = u(X) via :meth:`bracket_vec`, then :func:`table_violation`."""
        if self.bracket_table is None:
            raise JacobiAssemblyFailure("nothing to verify: no bracket table")
        g = self.negative
        for a, key in enumerate(self.sbasis):
            if key[0] != "lev":
                continue
            _, k, p = key
            for b, bkey in enumerate(self.sbasis):
                if bkey[0] != "neg":
                    continue
                j = bkey[1]
                value = self._sparse_value(self.levels[k].actions[p][j], g.weights[j] + k)
                if self.bracket_vec({a: 1}, {b: 1}) != dict(value):
                    raise JacobiAssemblyFailure(f"[u,X] != u(X) at ({a},{b})")
        violation = table_violation(self.bracket_table, self.weights)
        if violation is None:
            return
        kind, a, b, c = violation
        if kind == "jacobi":
            raise JacobiAssemblyFailure(
                f"Jacobi fails on ({self.labels[a]},{self.labels[b]},{self.labels[c]})")
        raise JacobiAssemblyFailure(f"{kind} fails at ({a},{b})")

    def __repr__(self) -> str:
        lev = ",".join(str(lvl.dim) for lvl in self.levels)
        return f"ProlongationAlgebra(dim={self.dim}, levels=[{lev}])"


def full_prolongation(g: GradedLieAlgebra, g0: Level,
                      max_k: int = 10) -> tuple[ProlongationAlgebra, TerminationReport]:
    """Iterate prolongation steps until a level vanishes or the cutoff hits.

    A zero level justifies stopping only because layer -1 generates, which
    every :class:`GradedLieAlgebra` guarantees by construction.  On
    termination the assembled algebra carries the complete bracket table
    and passes :meth:`ProlongationAlgebra.verify`.
    """
    levels = [g0]
    dims = [levels[0].dim]
    terminated_at = None
    for k in range(1, max_k + 1):
        lvl = prolong_step(g, levels, k)
        dims.append(lvl.dim)
        if lvl.dim == 0:
            terminated_at = k
            break
        levels.append(lvl)
    status = "terminated" if terminated_at is not None else "cutoff_reached"
    report = TerminationReport(status, terminated_at, tuple(dims), g.dim + sum(dims))
    algebra = ProlongationAlgebra(g, levels, build_table=terminated_at is not None)
    if terminated_at is not None:
        algebra.verify()
    return algebra, report
