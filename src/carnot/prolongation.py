"""Tanaka prolongation spaces and assembly of the full graded algebra.

Level k >= 1 consists of degree-raising maps u on the negative part with
u(g_j) inside the previously computed space of degree j+k, subject to the
Leibniz law u[S,T] = [u(S),T] - [u(T),S] on all negative pairs.  Each
level is the exact nullspace of that linear system.  Once a level is
zero, generation by layer -1 forces all later levels to vanish, and the
finite algebra s = g + g_0 + ... is assembled with a full bracket table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import Matrix, Subspace, nullspace, vec_zero
from .graded_lie import (GenerationFailure, GradedLieAlgebra, check_generation,
                         table_violation)
from .derivations import DegreeZeroMap, DegreeZeroSpace


class PriorLevelsMissing(ValueError):
    pass


class JacobiAssemblyFailure(RuntimeError):
    """Internal inconsistency while assembling the prolongation algebra."""


class Level:
    """One prolongation space g_k together with its action on g_-."""

    def __init__(self, algebra: GradedLieAlgebra, k: int, subspace: Subspace,
                 actions: Sequence[Sequence[Sequence[Fraction]]],
                 zero_maps: Sequence[DegreeZeroMap] | None = None):
        self.algebra = algebra
        self.k = k
        self.subspace = subspace
        self.actions = tuple(tuple(tuple(v) for v in per_basis) for per_basis in actions)
        self.zero_maps = tuple(zero_maps) if zero_maps is not None else None

    @classmethod
    def from_degree_zero(cls, space: DegreeZeroSpace) -> "Level":
        g = space.algebra
        actions = []
        for m in space.maps:
            per = []
            for j in range(g.dim):
                depth = -g.weights[j]
                layer = g.layer_indices(depth)
                local = layer.index(j)
                per.append(tuple(m.blocks[depth - 1].entries[r][local]
                                 for r in range(len(layer))))
            actions.append(per)
        return cls(g, 0, space.subspace, actions, zero_maps=space.maps)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def action(self, b: int, j: int) -> tuple[Fraction, ...]:
        """Value of the b-th basis element on negative basis element j (local coords)."""
        return self.actions[b][j]

    def coordinates_of_values(self, values: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
        """Coordinates in this level's basis of a map given by its values on g_-.

        Level 0 is canonicalized in packed block-entry coordinates, levels
        k >= 1 in concatenated action coordinates; this repacks accordingly.
        """
        g = self.algebra
        if self.k == 0:
            packed: list[Fraction] = []
            for depth in range(1, g.step + 1):
                layer = g.layer_indices(depth)
                for r in range(len(layer)):
                    for j in layer:
                        packed.append(values[j][r])
        else:
            packed = []
            for v in values:
                packed.extend(v)
        return self.subspace.coordinates_of(packed)

    def __repr__(self) -> str:
        return f"Level(k={self.k}, dim={self.dim})"


def termination_valid(g: GradedLieAlgebra) -> bool:
    """Whether a zero level licenses stopping: exactly the generation property."""
    return check_generation(g)


def _space_dim(g: GradedLieAlgebra, levels: Sequence[Level], d: int) -> int:
    if d < -g.step:
        return 0
    if d < 0:
        return len(g.layer_indices(-d))
    if d < len(levels):
        return levels[d].dim
    return 0


def _embed_layer(g: GradedLieAlgebra, local: Sequence[Fraction], d: int) -> list[Fraction]:
    full = vec_zero(g.dim)
    for local_i, gi in enumerate(g.layer_indices(-d)):
        full[gi] = local[local_i]
    return full


def _extract_layer(g: GradedLieAlgebra, full: Sequence[Fraction], d: int) -> list[Fraction]:
    if d < -g.step:
        return []
    return [full[gi] for gi in g.layer_indices(-d)]


def _bracket_local(g: GradedLieAlgebra, levels: Sequence[Level],
                   coords: Sequence[Fraction], d: int, j: int) -> list[Fraction]:
    """[x, e_j] for x given by local coordinates in the degree-d space.

    Result in local coordinates of degree d + weight(j).
    """
    target = d + g.weights[j]
    if d < 0:
        full = _embed_layer(g, coords, d)
        out_full = g.bracket(full, g.basis_vector(j))
        return _extract_layer(g, out_full, target)
    out = vec_zero(_space_dim(g, levels, target))
    lvl = levels[d]
    for b, cb in enumerate(coords):
        if cb:
            act = lvl.action(b, j)
            out = [x + cb * y for x, y in zip(out, act)]
    return out


def prolong_step(g: GradedLieAlgebra, prior_levels: Sequence[Level], k: int) -> Level:
    """Exact solution space of the degree-k Leibniz system.

    ``prior_levels`` must be the computed levels g_0 .. g_{k-1}.  The
    unknowns are the values of u on every negative basis element; every
    unordered pair of negative basis elements contributes one vector
    equation in the degree weight(S)+weight(T)+k space.
    """
    if k < 1:
        raise ValueError("prolongation degree must be >= 1")
    if len(prior_levels) != k or any(lvl.k != i for i, lvl in enumerate(prior_levels)):
        raise PriorLevelsMissing(f"need levels g_0..g_{k-1} to compute g_{k}")
    sizes = [_space_dim(g, prior_levels, g.weights[j] + k) for j in range(g.dim)]
    offsets = []
    pos = 0
    for s in sizes:
        offsets.append(pos)
        pos += s
    total = pos
    rows: list[list[Fraction]] = []
    for j1 in range(g.dim):
        for j2 in range(j1 + 1, g.dim):
            tdim = _space_dim(g, prior_levels, g.weights[j1] + g.weights[j2] + k)
            if tdim == 0:
                continue
            block = [vec_zero(total) for _ in range(tdim)]
            # u([S,T]) expands through the structure constants
            for r, c in enumerate(g.bracket_basis(j1, j2)):
                if c:
                    for t in range(tdim):
                        block[t][offsets[r] + t] += c
            # -[u(S),T] and +[u(T),S], one column per unknown coordinate
            for (src, other, sign) in ((j1, j2, -1), (j2, j1, 1)):
                d = g.weights[src] + k
                for i in range(sizes[src]):
                    unit = vec_zero(sizes[src])
                    unit[i] = Fraction(1)
                    image = _bracket_local(g, prior_levels, unit, d, other)
                    for t, val in enumerate(image):
                        if val:
                            block[t][offsets[src] + i] += sign * val
            rows.extend(block)
    space = nullspace(Matrix(rows, cols=total))
    actions = []
    for v in space.basis:
        per = []
        for j in range(g.dim):
            per.append(tuple(v[offsets[j] + t] for t in range(sizes[j])))
        actions.append(per)
    return Level(g, k, space, actions)


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
    ``[e_a, e_b]``: a tuple of ``(k, c)`` with ``c != 0``, sorted by ``k``.
    It is only built for terminating prolongations (a cutoff leaves it as
    None).
    """

    def __init__(self, negative: GradedLieAlgebra, levels: Sequence[Level],
                 build_table: bool = True):
        self.negative = negative
        self.levels = [lvl for lvl in levels if lvl.dim > 0 or lvl.k == 0]
        while self.levels and self.levels[-1].dim == 0:
            self.levels.pop()
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

    def index_of_name(self, label: str) -> int:
        return self.labels.index(label)

    def _embed_value(self, local: Sequence[Fraction], d: int) -> list[Fraction]:
        """Local coordinates of the degree-d space into an s-vector."""
        out = vec_zero(self.dim)
        for i, c in zip(self._block.get(d, ()), local):
            out[i] = c
        return out

    def _sparse_value(self, local: Sequence[Fraction], d: int) -> tuple:
        """Local coordinates of the degree-d space as a sparse s-row."""
        return tuple((i, c) for i, c in zip(self._block.get(d, ()), local) if c)

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
            for b in negs:
                if a < b:
                    full = g.bracket_basis(self.sbasis[a][1], self.sbasis[b][1])
                    put(a, b, tuple(sorted((self._pos[("neg", gi)], c)
                                           for gi, c in enumerate(full) if c)))
        for a in levs:
            _, k, p = self.sbasis[a]
            for b in negs:
                j = self.sbasis[b][1]
                put(a, b, self._sparse_value(self.levels[k].action(p, j), g.weights[j] + k))
        # positive-positive brackets, built by total level so the recursive
        # action formula only consults already-filled entries
        lev_pairs = [(a, b) for a in levs for b in levs if a < b]
        lev_pairs.sort(key=lambda ab: self.sbasis[ab[0]][1] + self.sbasis[ab[1]][1])
        for a, b in lev_pairs:
            put(a, b, self._lev_lev_bracket(table, a, b))
        self.bracket_table = table

    def _act_elem_on_value(self, table, a: int, local: Sequence[Fraction], d: int,
                           out: list[Fraction], sign: int) -> None:
        """Add sign * [basis element a (a level), value in degree-d space] to ``out``.

        ``out`` holds local coordinates of the degree d + level(a) space.
        """
        g = self.negative
        _, k, p = self.sbasis[a]
        if d < 0:
            for gi, c in zip(g.layer_indices(-d), local):
                if c:
                    c = sign * c
                    for t, y in enumerate(self.levels[k].action(p, gi)):
                        if y:
                            out[t] += c * y
            return
        start = self._block.get(d + k, [0])[0]
        for i, c in zip(self._block.get(d, ()), local):
            if c:
                row = table[a][i]
                if row is None:
                    raise JacobiAssemblyFailure("bracket table filled out of order")
                c = sign * c
                for m, y in row:
                    out[m - start] += c * y

    def _lev_lev_bracket(self, table, a: int, b: int) -> tuple:
        g = self.negative
        _, ka, qa = self.sbasis[a]
        _, kb, qb = self.sbasis[b]
        level_sum = ka + kb
        values = []
        for t in range(g.dim):
            value = vec_zero(len(self._block.get(g.weights[t] + level_sum, ())))
            self._act_elem_on_value(table, a, self.levels[kb].action(qb, t),
                                    g.weights[t] + kb, value, 1)
            self._act_elem_on_value(table, b, self.levels[ka].action(qa, t),
                                    g.weights[t] + ka, value, -1)
            values.append(value)
        if level_sum <= self.top_level():
            coords = self.levels[level_sum].coordinates_of_values(values)
            if coords is None:
                raise JacobiAssemblyFailure(
                    f"[level {ka}, level {kb}] leaves the computed level {level_sum}")
            return self._sparse_value(coords, level_sum)
        if any(x != 0 for v in values for x in v):
            raise JacobiAssemblyFailure(
                f"[level {ka}, level {kb}] is nonzero but level {level_sum} vanished")
        return ()

    # -- algebra operations -------------------------------------------

    def bracket(self, a: int, b: int) -> list[Fraction]:
        """Dense coefficient vector of [e_a, e_b]."""
        if self.bracket_table is None:
            raise JacobiAssemblyFailure("bracket table unavailable (cutoff prolongation)")
        out = vec_zero(self.dim)
        for k, c in self.bracket_table[a][b]:
            out[k] = c
        return out

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        """Bracket of two dense s-vectors, summed over the sparse table rows."""
        out = vec_zero(self.dim)
        for a, ua in enumerate(u):
            if not ua:
                continue
            row = self.bracket_table[a]
            for b, vb in enumerate(v):
                if vb:
                    coeff = ua * vb
                    for k, c in row[b]:
                        out[k] += coeff * c
        return out

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
                expect = self._embed_value(self.levels[k].action(p, j), g.weights[j] + k)
                if self.bracket_vec(self._unit(a), self._unit(b)) != expect:
                    raise JacobiAssemblyFailure(f"[u,X] != u(X) at ({a},{b})")
        violation = table_violation(self.bracket_table, self.weights)
        if violation is None:
            return
        kind, a, b, c = violation
        if kind == "jacobi":
            raise JacobiAssemblyFailure(
                f"Jacobi fails on ({self.labels[a]},{self.labels[b]},{self.labels[c]})")
        raise JacobiAssemblyFailure(f"{kind} fails at ({a},{b})")

    def _unit(self, a: int) -> list[Fraction]:
        v = vec_zero(self.dim)
        v[a] = Fraction(1)
        return v

    def __repr__(self) -> str:
        lev = ",".join(str(lvl.dim) for lvl in self.levels)
        return f"ProlongationAlgebra(dim={self.dim}, levels=[{lev}])"


def full_prolongation(g: GradedLieAlgebra, g0: DegreeZeroSpace,
                      max_k: int = 10) -> tuple[ProlongationAlgebra, TerminationReport]:
    """Iterate prolongation steps until a level vanishes or the cutoff hits.

    Requires the generation property: without it a zero level would not
    justify stopping.  On termination the assembled algebra carries the
    complete bracket table and passes :meth:`ProlongationAlgebra.verify`.
    """
    if not termination_valid(g):
        raise GenerationFailure("prolongation requires layer -1 to generate the algebra")
    levels = [Level.from_degree_zero(g0)]
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
