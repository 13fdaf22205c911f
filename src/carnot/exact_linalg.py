"""Exact dense linear algebra over the rationals.

Every rank and dimension decision downstream is a nullspace computation,
so the arithmetic here is exact: matrices hold ``fractions.Fraction``
entries and elimination runs on gcd-reduced integer rows.  Subspaces are
stored in reduced row-echelon form, which is unique per row space, so
span equality is a tuple comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Raised when two subspaces of different ambient dimension are compared."""


def vec(values: Iterable) -> list[Fraction]:
    return [Fraction(v) for v in values]


def vec_zero(n: int) -> list[Fraction]:
    return [ZERO] * n


def vec_is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


class Matrix:
    """Row-major dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        self.entries = [vec(row) for row in entries]
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
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i])

    def col(self, j: int) -> list[Fraction]:
        return [r[j] for r in self.entries]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            out.append([sum((ri[k] * other.entries[k][j] for k in range(self.cols)), ZERO)
                        for j in range(other.cols)])
        return Matrix(out, cols=other.cols)

    __matmul__ = mul

    def mul_vec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum((row[k] * v[k] for k in range(self.cols)), ZERO) for row in self.entries]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.entries!r})"


def _scaled_int_rows(m: Matrix) -> list[list[int]]:
    out = []
    for row in m.entries:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * mult) for f in row])
    return out


def _reduce_primitive(row: list[int]) -> None:
    g = 0
    for a in row:
        g = gcd(g, a)
        if g == 1:
            return
    if g > 1:
        for i, a in enumerate(row):
            row[i] = a // g


def _combine(target: list[int], source: list[int], col: int) -> None:
    # target <- (p/g)*target - (e/g)*source, killing target[col]; stays integral
    p = source[col]
    e = target[col]
    g = gcd(p, e)
    m1 = p // g
    m2 = e // g
    for i in range(len(target)):
        target[i] = m1 * target[i] - m2 * source[i]
    _reduce_primitive(target)


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form of ``m``.

    Returns ``(echelon, rank, pivots)`` where ``pivots`` lists the pivot
    column of each nonzero row, leftmost first.  The echelon matrix has
    the shape of ``m`` and is the unique RREF of its row space.
    """
    work = _scaled_int_rows(m)
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    piv = 0
    for col in range(ncols):
        sel = None
        for r in range(piv, nrows):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        for r in range(piv + 1, nrows):
            if work[r][col]:
                _combine(work[r], work[piv], col)
        pivots.append(col)
        piv += 1
        if piv == nrows:
            break
    rank = piv
    for i in range(rank - 1, -1, -1):
        col = pivots[i]
        for r in range(i):
            if work[r][col]:
                _combine(work[r], work[i], col)
    out = []
    for i in range(nrows):
        if i < rank:
            p = work[i][pivots[i]]
            out.append([Fraction(a, p) for a in work[i]])
        else:
            out.append([ZERO] * ncols)
    return Matrix(out, cols=ncols), rank, pivots


def solve(m: Matrix, rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of ``m x = rhs`` (free variables at zero), or None."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = Matrix([list(row) + [rhs[i]] for i, row in enumerate(m.entries)], cols=m.cols + 1)
    ech, rank, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = vec_zero(m.cols)
    for i, col in enumerate(pivots):
        x[col] = ech.entries[i][m.cols]
    return x


class Subspace:
    """A linear subspace of Q^n held as a canonical reduced-echelon basis.

    Each basis vector has a leading 1 in its own pivot position with zeros
    above and below, so two Subspace objects span the same set iff their
    bases are equal entrywise.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence[Fraction]], pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(row) for row in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        m = Matrix(list(vectors), cols=ambient_dim)
        ech, rank, pivots = rref(m)
        return cls(ambient_dim, ech.entries[:rank], pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [], [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(Matrix.identity(ambient_dim).entries, ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates_of(self, v: Sequence[Fraction]) -> list[Fraction] | None:
        """Coefficients of ``v`` in the canonical basis, or None if outside."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient_dim}")
        coords = [Fraction(v[p]) for p in self.pivots]
        residue = list(v)
        for c, row in zip(coords, self.basis):
            if c:
                for i, y in enumerate(row):
                    if y:
                        residue[i] -= c * y
        return coords if vec_is_zero(residue) else None

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates_of(v) is not None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def nullspace(m: Matrix) -> Subspace:
    """Exact kernel of ``m`` with canonical echelon basis."""
    ech, rank, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = vec_zero(m.cols)
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -ech.entries[i][f]
        vectors.append(v)
    return Subspace.from_vectors(vectors, m.cols)


def span_equal(a: Subspace, b: Subspace) -> bool:
    """True iff the two subspaces coincide as point sets."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")
    return a.basis == b.basis


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")
    return Subspace.from_vectors(list(a.basis) + list(b.basis), a.ambient_dim)
