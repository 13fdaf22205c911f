"""Exact sparse linear algebra over the rationals.

Every rank and dimension decision downstream is a nullspace computation,
so the arithmetic here is exact.  The package holds a coefficient as an
``int`` when it is integral and as a ``Fraction`` only otherwise
(:func:`exact`), except where a report shows it as a number; integer
arithmetic is the cheaper.  A
linear system is a :class:`SparseRows`: each row is a mapping
``{column: coefficient}`` of its nonzero entries, ints or Fractions,
together with the column count.  One kernel, :func:`rref`, eliminates:
``nullspace``, ``solve`` and ``Subspace.from_vectors`` all go through it,
once per call; ``solve`` carries every right-hand side it is given
through that one elimination.  ``nullspace`` hands the caller's system
to ``rref`` as it is, each row taking its largest column as its pivot,
and reads the canonical kernel basis straight off that one reduction;
``from_vectors`` remains for vectors that do not come from an
elimination.  ``rref`` works on integer rows, touches nonzero entries
only, and reduces in a single Gauss–Jordan pass, shortest rows first.
What it returns follows the convention too: each reduced entry is an
``int`` when its division by the pivot is exact, so the results of
``nullspace`` and ``solve`` and the bases of a ``Subspace`` hold ints
wherever they are integral.  The one report
that shows such values as numbers, the ``g0`` matrices of ``prolong``,
converts them to ``Fraction`` where it is built
(``prolongation.degree_zero_matrix``).
The reduced row-echelon form is unique per row space, so the order in
which rows are taken changes the work, not the result.  A
:class:`Subspace` keeps the rows ``rref`` returns as its basis, in the
same sparse format, so subspaces compare by a tuple comparison of
rows and no basis is ever held densely.  :class:`Matrix` is
the dense value type of graded automorphisms; it is not an input to
elimination.  A degree-zero map is kept as its values, not as a matrix.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Raised when two subspaces of different ambient dimension are compared."""


def exact(x: Rational) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, unchanged otherwise."""
    return x.numerator if x.denominator == 1 else x


def vec_zero(n: int) -> list[Fraction]:
    return [ZERO] * n


class Matrix:
    """Row-major dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        if self.rows:
            widths = {len(r) for r in self.entries}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("cols does not match row length")
            self.cols = width
        else:
            if cols is None:
                raise ValueError("matrix with no rows needs an explicit column count")
            self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def col(self, j: int) -> list[Fraction]:
        return [r[j] for r in self.entries]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.entries!r})"


class SparseRows:
    """A linear system: ``entries[i]`` maps columns to the nonzero
    coefficients (ints or Fractions) of row i, over ``cols`` columns.

    The column count belongs to the system: a column no row mentions is
    still an unknown, free in the kernel.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Mapping[int, Rational]], cols: int):
        self.entries = list(entries)
        self.rows = len(self.entries)
        self.cols = cols

    def __repr__(self) -> str:
        return f"SparseRows({self.entries!r}, cols={self.cols})"


def sparse_row(v: Sequence[Rational]) -> dict[int, Rational]:
    """The nonzero entries of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _integer_row(row: Mapping[int, Rational]) -> dict[int, int]:
    """An integer multiple of ``row``, as a new dict without zero entries.

    A row of one entry becomes ``{c: 1}``.  An all-``int`` row is taken as
    it is.  Only a row holding a ``Fraction`` pays for the lcm of its
    denominators and is divided by its content.
    """
    if len(row) == 1:
        return {c: 1 for c, x in row.items() if x}
    values = row.values()
    if Fraction in map(type, values):
        mult = lcm(*(x.denominator for x in values))
        out = {c: x.numerator * (mult // x.denominator) for c, x in row.items() if x}
        return _primitive(out)
    if 0 in values:
        return {c: x for c, x in row.items() if x}
    return dict(row)


def _combine(target: dict[int, int], source: dict[int, int], col: int) -> None:
    # kill target[col] with the pivot row source, keeping target integral:
    # a pivot row of one entry says x_col = 0, so the entry is dropped;
    # target - (e*p)*source for a unit pivot p = ±1, with no scaling;
    # otherwise (p/g)*target - (e/g)*source, then divided by its content
    if len(source) == 1:
        del target[col]
        return
    p = source[col]
    e = target[col]
    unit = p == 1 or p == -1
    if unit:
        m2 = e * p
    else:
        g = gcd(p, e)
        m1 = p // g
        m2 = e // g
        if m1 != 1:
            for c in target:
                target[c] *= m1
    for c, s in source.items():
        v = target.get(c, 0) - m2 * s
        if v:
            target[c] = v
        else:
            del target[c]
    if not unit:
        _primitive(target)


def rref(m: SparseRows, *, descending: bool = False) -> tuple[SparseRows, int, list[int]]:
    """Reduced row-echelon form of ``m``, in one Gauss–Jordan pass.

    Returns ``(echelon, rank, pivots)`` where ``pivots`` lists the pivot
    column of each nonzero row, leftmost first.  The echelon system has
    the shape of ``m``, its zero rows last; each row holds its columns in
    ascending order.  Each entry is the integer row's entry over its
    pivot entry: an ``int`` when that division is exact (the pivot 1s
    among them), a ``Fraction`` only otherwise.

    Rows are taken shortest first.  Each is cleared of the pivots found
    so far; its smallest remaining column becomes a new pivot, which is
    cleared at once from the earlier pivot rows that hold it.  So every
    pivot row keeps its smallest column as its pivot and never holds
    another row's pivot: the rows are reduced throughout, and at the end
    they are the RREF of the row space.  That form is unique, so the
    order in which the rows are taken does not change the result.

    With ``descending`` each row takes its largest remaining column as
    its pivot instead: the result is the RREF of the row space with the
    columns taken in reverse order, each row's pivot its largest column
    and every other entry at a free column below it.  The rows are still
    returned in ascending pivot order, but the columns within a row are
    left in the order the elimination made them.

    Each row costs what its nonzeros cost.  An empty row costs nothing.
    A row of one entry becomes ``{c: 1}``, and an all-``int`` row is used
    as it is; only a row holding a ``Fraction`` pays for the lcm of its
    denominators.  A pivot row of one entry clears its column from another
    row by dropping that entry, a unit pivot ±1 clears without scaling,
    and any other pivot scales the row it clears and divides out its
    content.  A reduced row of one entry is ``{p: 1}``, and one whose
    lead is 1 is copied out as it is.  The rows given are never changed.

    The column range is checked once, on the reduction: every column a
    row of ``m`` holds is a pivot or is held off a pivot by some pivot
    row, so the system leaves ``range(cols)`` iff those columns do.  The
    error names the first such column in the caller's row order.
    """
    ncols = m.cols
    lead_of = max if descending else min
    pivot_rows: dict[int, dict[int, int]] = {}
    # column -> pivots of the rows that have held it off their pivot
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for row in sorted(filter(None, m.entries), key=len):
        work = _integer_row(row)
        # a pivot row holds no other pivot, so clearing one pivot from
        # ``work`` never brings back another
        for c in work.keys() & pivot_rows.keys():
            _combine(work, pivot_rows[c], c)
        if not work:
            continue
        p = lead_of(work)
        owners = [p]
        for q in holders.pop(p, ()):
            if p in pivot_rows[q]:
                _combine(pivot_rows[q], work, p)
                owners.append(q)
        pivot_rows[p] = work
        for c in work:
            if c != p:
                holders[c].update(owners)
    pivots = sorted(pivot_rows)
    if pivots and not (0 <= pivots[0] and pivots[-1] < ncols
                       and 0 <= min(holders, default=0) and max(holders, default=0) < ncols):
        _check_columns(m.entries, ncols)
    out = []
    for p in pivots:
        row = pivot_rows[p]
        lead = row[p]
        if len(row) == 1:
            reduced = {p: 1}
        elif lead == 1:
            # copied even when descending: the work row keeps the hash table
            # it grew to during the elimination, and raised the peak memory
            reduced = dict(row) if descending else {c: row[c] for c in sorted(row)}
        else:
            reduced = {}
            for c in (row if descending else sorted(row)):
                q, r = divmod(row[c], lead)
                reduced[c] = Fraction(row[c], lead) if r else q
        out.append(reduced)
    out.extend({} for _ in range(m.rows - len(pivots)))
    return SparseRows(out, ncols), len(pivots), pivots


def _check_columns(rows: Sequence[Mapping[int, Rational]], n: int) -> None:
    """Raise, naming the first column in row order whose entry is nonzero
    and lies outside ``range(n)``, if one of ``rows`` leaves a system of
    ``n`` columns.  A zero entry is no entry, wherever it sits."""
    if (0 <= min(map(min, filter(None, rows)), default=0)
            and max(map(max, filter(None, rows)), default=0) < n):
        return
    for row in rows:
        for c, x in row.items():
            if x and not 0 <= c < n:
                raise ValueError(f"column {c} outside a system of {n} columns")


def solve(m: SparseRows, rhs: Sequence[Sequence[Rational]]) -> list[list[Rational] | None]:
    """For each right-hand side b in ``rhs``, one exact solution of
    ``m x = b`` (free variables at zero), or None where there is none.

    The right-hand sides ride along as extra columns ``cols + k`` of one
    elimination.  A reduced row whose pivot lies past the system's
    columns is zero on the system, so it says that some combination of
    right-hand sides is not in the column space: b_k is consistent iff
    every such row is zero in column ``cols + k``.  A row whose pivot is
    a system column p holds at ``cols + k`` the value x_p of the
    solution of b_k with its free variables at zero.
    """
    n = m.cols
    # a column past the system would be read as a right-hand side
    _check_columns(m.entries, n)
    aug = [dict(row) for row in m.entries]
    for k, b in enumerate(rhs):
        if len(b) != m.rows:
            raise ValueError("rhs length mismatch")
        for r, x in enumerate(b):
            if x:
                aug[r][n + k] = x
    ech, rank, pivots = rref(SparseRows(aug, n + len(rhs)))
    solutions = [[0] * n for _ in rhs]
    consistent = [True] * len(rhs)
    for col, row in zip(pivots, ech.entries):
        for c, x in row.items():
            if c < n:
                continue
            if col >= n:
                consistent[c - n] = False
            else:
                solutions[c - n][col] = x
    return [x if ok else None for x, ok in zip(solutions, consistent)]


class Subspace:
    """A linear subspace of Q^n held as a canonical reduced-echelon basis.

    Each basis row is a sparse row ``{column: coefficient}`` with no zero
    entry and its columns in ascending order, as :func:`rref` returns it,
    an ``int`` when it is integral and a ``Fraction`` only otherwise:
    a leading 1 in its own pivot column, and no entry in any other row's
    pivot column.  So two Subspace objects span the same set iff their
    bases are equal.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[dict[int, Rational]],
                 pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, rows: Iterable[Mapping[int, Rational]], ambient_dim: int) -> "Subspace":
        """The span of sparse rows ``{column: coefficient}`` in Q^ambient_dim."""
        ech, rank, pivots = rref(SparseRows(rows, ambient_dim))
        return cls(ambient_dim, ech.entries[:rank], pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates_of(self, v: Mapping[int, Rational]) -> list[Rational] | None:
        """Coefficients of the sparse row ``v`` in the canonical basis, or
        None if it lies outside.  The entries may be polynomials, false
        exactly when zero as numbers are: then the coefficients are
        polynomials, and None means that ``v`` lies outside at some point."""
        for c in v:
            if not 0 <= c < self.ambient_dim:
                raise AmbientMismatch(f"column {c} outside ambient {self.ambient_dim}")
        coords = [v.get(p, 0) for p in self.pivots]
        residue = dict(v)
        for c, row in zip(coords, self.basis):
            if c:
                for i, y in row.items():
                    residue[i] = residue.get(i, 0) - c * y
        return None if any(residue.values()) else coords

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def nullspace(m: SparseRows) -> Subspace:
    """Exact kernel of ``m`` with canonical echelon basis, from one elimination.

    ``m`` is reduced as it is, each row taking its largest column as its
    pivot (``rref(m, descending=True)``), so each reduced row holds off
    its pivot only free columns below it.  The kernel vector of a free
    column f is 1 at f and minus each row's entry at f at that row's
    pivot: its smallest column is f, and it has no entry at any other
    free column.  Those vectors are the reduced echelon basis of the
    kernel, with the free columns as pivots, so no second elimination is
    needed.
    """
    n = m.cols
    ech, _, pivots = rref(m, descending=True)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    vectors = {f: {f: 1} for f in free}
    # pivots ascending, so each vector's columns stay in ascending order
    for p, row in zip(pivots, ech.entries):
        for c, x in row.items():
            if c != p:
                vectors[c][p] = -x
    return Subspace(n, [vectors[f] for f in free], free)


def span_equal(a: Subspace, b: Subspace) -> bool:
    """True iff the two subspaces coincide as point sets."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")
    return a.basis == b.basis
