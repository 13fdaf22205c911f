"""Sparse multivariate polynomials with weighted variables over the rationals.

Terms live in a dict keyed by exponent tuples, so everything stays exact.
Each variable carries a positive integer weight; the weighted degree of a
term is sum(exponent * weight), which is how group coordinates of
different layers are graded.

Example
-------
>>> ring = PolyRing(("x", "y"), (1, 2))
>>> p = ring.var(0) ** 2 + 3 * ring.var(1)
>>> str(p)
'x^2 + 3 y'
>>> p.weighted_degree()
2
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator, Sequence


@dataclass(frozen=True)
class PolyRing:
    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("one weight per variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if any(w < 1 for w in self.weights):
            raise ValueError("variable weights must be positive")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, i: int) -> "Poly":
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): Fraction(1)})

    def term_degree(self, exp: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exp, self.weights))

    def monomials_exact(self, degree: int) -> list[tuple[int, ...]]:
        """All exponent tuples of weighted degree exactly ``degree``, sorted."""
        if degree < 0:
            return []
        out: list[tuple[int, ...]] = []
        exp = [0] * self.nvars

        def rec(i: int, remaining: int) -> None:
            if i == self.nvars - 1:
                w = self.weights[i]
                if remaining % w == 0:
                    exp[i] = remaining // w
                    out.append(tuple(exp))
                    exp[i] = 0
                return
            w = self.weights[i]
            for e in range(remaining // w + 1):
                exp[i] = e
                rec(i + 1, remaining - e * w)
            exp[i] = 0

        if self.nvars == 0:
            return [()] if degree == 0 else []
        rec(0, degree)
        return sorted(out)

    def monomials_upto(self, degree: int) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for d in range(degree + 1):
            out.extend(self.monomials_exact(d))
        return out


class Poly:
    """Immutable sparse polynomial; no zero coefficient is ever stored.

    The constructor drops zero coefficients.  The ring operations keep
    them out as they go, dropping only the sums that cancel, and build
    their results without filtering again.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        out = dict(self.terms)
        for e, c in o.terms.items():
            if e in out:
                c = out[e] + c
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return _poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        out = dict(self.terms)
        for e, c in o.terms.items():
            if e in out:
                c = out[e] - c
                if not c:
                    del out[e]
                    continue
                out[e] = c
            else:
                out[e] = -c
        return _poly(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if not other:
                return _poly(self.ring, {})
            return _poly(self.ring, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        merged = False
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                    merged = True
                else:
                    out[e] = c1 * c2
        # a product of two nonzero coefficients is nonzero; only sums cancel
        return Poly(self.ring, out) if merged else _poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- calculus and evaluation ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def diff(self, i: int) -> "Poly":
        out: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return _poly(self.ring, out)

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, p in zip(point, e):
                if p:
                    v *= Fraction(x) ** p
            total += v
        return total

    def subs(self, values: Sequence) -> "Poly":
        """Substitute a polynomial (or constant) for every variable."""
        if len(values) != self.ring.nvars:
            raise ValueError("one substitution per variable required")
        target = None
        for v in values:
            if isinstance(v, Poly):
                target = v.ring
                break
        if target is None:
            raise ValueError("at least one substitution must be a Poly")
        vals = [v if isinstance(v, Poly) else Poly(target, {(0,) * len(target.names): Fraction(v)})
                for v in values]
        zero = Poly(target, {})
        acc = zero
        for e, c in self.terms.items():
            term = Poly(target, {(0,) * target.nvars: c})
            for v, p in zip(vals, e):
                if p:
                    term = term * v ** p
            acc = acc + term
        return acc

    def coefficient_of(self, i: int, power: int) -> "Poly":
        """Terms with exponent ``power`` on variable ``i``, that variable removed."""
        out: dict = {}
        for e, c in self.terms.items():
            if e[i] == power:
                ne = list(e)
                ne[i] = 0
                out[tuple(ne)] = c
        return Poly(self.ring, out)

    def project(self, target: PolyRing) -> "Poly":
        """Recast into ``target``, matching variables by name.

        Variables absent from the target must not occur with nonzero
        exponent.
        """
        mapping = []
        tindex = {name: i for i, name in enumerate(target.names)}
        for name in self.ring.names:
            mapping.append(tindex.get(name))
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * target.nvars
            for slot, p in enumerate(e):
                if not p:
                    continue
                ti = mapping[slot]
                if ti is None:
                    raise ValueError(f"variable {self.ring.names[slot]!r} not in target ring")
                ne[ti] = p
            out[tuple(ne)] = out.get(tuple(ne), Fraction(0)) + c
        return Poly(target, out)

    def weighted_degree(self) -> int | None:
        """Largest weighted degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.term_degree(e) for e in self.terms)

    def iter_sorted(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for e in sorted(self.terms, key=lambda t: (self.ring.term_degree(t), t)):
            yield e, self.terms[e]

    # -- rendering ------------------------------------------------------

    def _term_str(self, e: tuple[int, ...], c: Fraction) -> str:
        factors = []
        for name, p in zip(self.ring.names, e):
            if p == 1:
                factors.append(name)
            elif p > 1:
                factors.append(f"{name}^{p}")
        if not factors:
            return str(c)
        body = " ".join(factors)
        if c == 1:
            return body
        if c == -1:
            return f"-{body}"
        return f"{c} {body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.iter_sorted():
            s = self._term_str(e, c)
            if not parts:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f"- {s[1:]}")
            else:
                parts.append(f"+ {s}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly(ring: PolyRing, terms: dict) -> Poly:
    """A Poly on ``terms`` as given: the caller has kept out every zero
    coefficient, so the filtering constructor is skipped."""
    p = Poly.__new__(Poly)
    p.ring = ring
    p.terms = terms
    return p
