import random
from fractions import Fraction

import pytest

from carnot.polynomials import Poly, PolyRing

RING = PolyRing(("x1", "x2", "y", "z"), (1, 1, 2, 3))


def test_basic_arithmetic():
    x1, x2 = RING.var(0), RING.var(1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 ** 2 - x2 ** 2
    assert (p - p).is_zero()
    assert 2 * x1 == x1 + x1
    assert Fraction(1, 2) * (x1 + x1) == x1


def naive_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def naive_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_ring_operations_match_a_dict_reference():
    # few exponents and coefficients, so that sums and products often cancel
    rng = random.Random(20261018)
    exps = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (2, 0, 0, 1)]
    coeffs = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
    scalars = [0, 1, -1, 3, Fraction(0), Fraction(1), Fraction(-1), Fraction(-2, 3)]

    def rand_poly():
        return Poly(RING, {e: rng.choice(coeffs) for e in rng.sample(exps, rng.randint(0, 4))})

    cancelled = 0
    for _ in range(400):
        a, b = rand_poly(), rand_poly()
        if rng.random() < 0.25:  # b shares terms with -a
            b = Poly(RING, {**b.terms, **{e: -c for e, c in a.terms.items()}})
        ta, tb = dict(a.terms), dict(b.terms)
        k = rng.choice(scalars)
        results = [
            (a + b, naive_sum(ta, tb)),
            (a - b, naive_sum(ta, tb, -1)),
            (a * b, naive_product(ta, tb)),
            (a * k, naive_sum({}, ta, k)),
            (k * a, naive_sum({}, ta, k)),
            (a + k, naive_sum(ta, {exps[0]: k})),
            (a - k, naive_sum(ta, {exps[0]: k}, -1)),
            (k - a, naive_sum({exps[0]: k}, ta, -1)),
            (-a, naive_sum({}, ta, -1)),
        ]
        for got, want in results:
            assert got.terms == want
            assert all(c != 0 for c in got.terms.values())
        cancelled += len(naive_sum(ta, tb)) < len(set(ta) | set(tb))
        # the operands are left as they were
        assert (a.terms, b.terms) == (ta, tb)
    assert cancelled == 107


def test_weighted_degree():
    x1, y, z = RING.var(0), RING.var(2), RING.var(3)
    assert (x1 ** 2).weighted_degree() == 2
    assert y.weighted_degree() == 2
    assert z.weighted_degree() == 3
    assert (x1 * y * z).weighted_degree() == 6
    assert RING.zero().weighted_degree() is None


def test_diff():
    x1, x2 = RING.var(0), RING.var(1)
    p = x1 ** 3 * x2 + 2 * x2
    assert p.diff(0) == 3 * x1 ** 2 * x2
    assert p.diff(1) == x1 ** 3 + RING.const(2)
    assert p.diff(3).is_zero()


def test_eval():
    x1, x2, y = RING.var(0), RING.var(1), RING.var(2)
    p = x1 ** 2 * x2 - Fraction(1, 2) * y
    pt = [Fraction(2), Fraction(3), Fraction(4), Fraction(0)]
    assert p.eval(pt) == 12 - 2


def test_monomials_exact_counts():
    # weights (1,1,2,3): degree-3 exponents must all have weighted degree 3
    monos = RING.monomials_exact(3)
    assert all(RING.term_degree(e) == 3 for e in monos)
    assert len(set(monos)) == len(monos)
    assert monos == sorted(monos)
    plain = PolyRing(("a", "b"), (1, 1))
    assert len(plain.monomials_exact(4)) == 5
    assert len(plain.monomials_upto(4)) == 15


def test_subs_composition():
    x1, x2 = RING.var(0), RING.var(1)
    target = PolyRing(("u",), (1,))
    u = target.var(0)
    p = x1 ** 2 + 3 * x2
    q = p.subs([u, u ** 2, target.zero(), target.zero()])
    assert q == u ** 2 + 3 * u ** 2


def test_coefficient_of():
    x1, x2 = RING.var(0), RING.var(1)
    p = x1 ** 2 * x2 + 2 * x1 + 5
    assert p.coefficient_of(0, 2) == x2
    assert p.coefficient_of(0, 1) == RING.const(2)
    assert p.coefficient_of(0, 0) == RING.const(5)


def test_project():
    small = PolyRing(("x1", "x2"), (1, 1))
    p = RING.var(0) * RING.var(1)
    q = p.project(small)
    assert q == small.var(0) * small.var(1)
    with pytest.raises(ValueError):
        (RING.var(2)).project(small)


def test_ring_mismatch_rejected():
    other = PolyRing(("a",), (1,))
    with pytest.raises(ValueError):
        RING.var(0) + other.var(0)


def test_str_deterministic():
    x1, x2, y = RING.var(0), RING.var(1), RING.var(2)
    p = 3 * y - 2 * x1 * x2 + x1 ** 2
    assert str(p) == "3 y - 2 x1 x2 + x1^2"
    assert str(RING.zero()) == "0"
    assert str(-x1) == "-x1"


def test_pow():
    x1 = RING.var(0)
    assert x1 ** 0 == RING.one()
    assert (x1 + 1) ** 3 == x1 ** 3 + 3 * x1 ** 2 + 3 * x1 + 1
    with pytest.raises(ValueError):
        x1 ** -1
