import math
import random

import pytest
from fractions import Fraction

from qcycle.cyclotomic import CycScalar
from qcycle.laurent import (
    LaurentPoly,
    RationalFn,
    series_expand,
    substitute_ratfn,
    sym_elementary,
)
from qcycle.sampling import random_wedge
from qcycle.wedge import (
    BiGrading,
    WedgeElem,
    bigrade,
    deg_infcycle,
    kernel_F,
    kernel_F2,
    kernel_coeffs_X,
    multiply_slot_square_product,
    theta,
)

from conftest import Xvar, skew_collect, to_poly

one = LaurentPoly.one()
z1 = LaurentPoly.var("z1")
z2 = LaurentPoly.var("z2")
t = LaurentPoly.var("t")


def test_skew_of_monomial():
    f = LaurentPoly.var("X2")  # X1^0 X2^1
    w = skew_collect(f, 2, 2)
    assert w == WedgeElem.monomial_wedge(2, (0, 1))


def test_skew_kills_symmetric():
    f = LaurentPoly.var("X1", 2) * LaurentPoly.var("X2", 2)
    assert skew_collect(f, 3, 2).is_zero()


def test_skew_rejects_degree_overflow():
    f = LaurentPoly.var("X1", 3) * LaurentPoly.var("X2")
    with pytest.raises(ValueError):
        skew_collect(f, 3, 2)


def test_skew_idempotent_scaling():
    # Skew(Skew(f)) = l! Skew(f)
    rng = random.Random(3)
    l = 3
    f = LaurentPoly.zero()
    for _ in range(4):
        mono = tuple((Xvar(a + 1), rng.randint(0, 3)) for a in range(l))
        f = f + LaurentPoly.monomial(tuple((n, e) for n, e in mono if e), rng.randint(-2, 2))
    once = skew_collect(f, 4, l)
    twice = skew_collect(to_poly(once), 4, l)
    assert twice == once.map_coeffs(lambda c: c * 6)


def test_wedge_products():
    n = 4
    x0 = WedgeElem.monomial_wedge(n, (0,))
    x1 = WedgeElem.monomial_wedge(n, (1,))
    x3 = WedgeElem.monomial_wedge(n, (3,))
    assert x0.wedge(x0).is_zero()
    assert x1.wedge(x3) == WedgeElem.monomial_wedge(n, (1, 3))
    assert x3.wedge(x1) == WedgeElem(n, 2, {(1, 3): -1})
    e1 = sym_elementary(n, 1)
    assert x0.scaled(e1).wedge(x1) == WedgeElem(n, 2, {(0, 1): e1})


def test_wedge_graded_anticommutative_and_associative():
    rng = random.Random(5)
    n = 6
    for _ in range(40):
        l1, l2 = rng.randint(0, 2), rng.randint(0, 2)
        s1 = tuple(sorted(rng.sample(range(n), l1)))
        s2 = tuple(sorted(rng.sample(range(n), l2)))
        a = WedgeElem.monomial_wedge(n, s1)
        b = WedgeElem.monomial_wedge(n, s2)
        ab = a.wedge(b)
        ba = b.wedge(a)
        sign = (-1) ** (l1 * l2)
        assert ab == (ba if sign > 0 else -ba)
        l3 = rng.randint(0, 2)
        s3 = tuple(sorted(rng.sample(range(n), l3)))
        c = WedgeElem.monomial_wedge(n, s3)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_overflow_is_zero():
    a = WedgeElem.monomial_wedge(2, (0, 1))
    b = WedgeElem.monomial_wedge(2, (0,))
    assert a.wedge(b).is_zero()
    assert a.wedge(b).l == 3


def test_theta_basics():
    th = theta(2)
    assert th == one - sym_elementary(2, 1) * t + sym_elementary(2, 2) * t ** 2


def test_kernel_F_small():
    f1 = kernel_F(1)
    assert f1 == RationalFn(z1 * t, [one - z1 * t])
    f2 = kernel_F(2)
    coeffs = {}
    for exps, c in kernel_coeffs_X(f2, ("X",)).items():
        for k, v in series_expand(c, "t", "zero", 1).items():
            if k == 1 and not v.is_zero():
                coeffs[exps] = v
    assert coeffs == {(0,): sym_elementary(2, 1)}


def test_kernel_F_degree_bound():
    for n in range(1, 6):
        f = kernel_F(n)
        assert f.num.degree("X") <= n - 1


def test_kernel_F2_reduces():
    for n in range(1, 5):
        k = kernel_F2(n)
        assert (k * RationalFn.from_poly(theta(n))).is_poly()
    # frozen n=2 form: 4 e1 e2 t^2 (X2 - X1) / theta(t)
    e1, e2 = sym_elementary(2, 1), sym_elementary(2, 2)
    X1, X2 = LaurentPoly.var("X1"), LaurentPoly.var("X2")
    expected = RationalFn(4 * e1 * e2 * t * t * (X2 - X1), [theta(2)])
    assert kernel_F2(2) == expected


def test_specialize_slot():
    w = WedgeElem.monomial_wedge(2, (0, 1))
    got = w.specialize_slot(2, t)
    assert got == WedgeElem(2, 1, {(0,): t, (1,): -one})
    with pytest.raises(ValueError):
        WedgeElem.unit(2).specialize_slot(1, t)


def _specialize_by_expansion(P, slot, value):
    """Reference: expand, substitute the slot, close up, re-collect."""
    bindings = {Xvar(slot): value}
    for j in range(slot + 1, P.l + 1):
        bindings[Xvar(j)] = LaurentPoly.var(Xvar(j - 1))
    res = skew_collect(substitute_ratfn(to_poly(P), bindings), P.n, P.l - 1)
    inv = CycScalar(Fraction(1, math.factorial(P.l - 1)))
    return res.map_coeffs(lambda c: c * inv)


def test_specialize_slot_matches_expansion():
    rng = random.Random(23)
    values = [t, z1 + t, 3, 0, RationalFn(one, [one - z1 * t])]
    pole = RationalFn(one, [one - z1 * z2])
    for n in (2, 3, 4):
        for l in range(1, min(n, 3) + 1):
            for trial in range(2):
                P = random_wedge(rng, n, l)
                if trial:
                    P = P.scaled(pole)  # coefficients with a denominator
                for slot in range(1, l + 1):
                    for v in values:
                        got = P.specialize_slot(slot, v)
                        assert (got.n, got.l) == (n, l - 1)
                        assert got == _specialize_by_expansion(P, slot, v), (n, l, slot, v)


def test_slot_square_product_matches_expansion():
    rng = random.Random(31)
    zsq = LaurentPoly.var("z", 2)
    for n in (1, 2, 3, 4):
        for l in range(1, n + 1):
            P = random_wedge(rng, n, l)
            factor = one
            for a in range(1, l + 1):
                factor = factor * (one - LaurentPoly.var(Xvar(a), 2) * zsq)
            want = skew_collect(to_poly(P) * RationalFn.from_poly(factor), n + 2, l)
            inv = CycScalar(Fraction(1, math.factorial(l)))
            got = multiply_slot_square_product(P, zsq)
            assert (got.n, got.l) == (n + 2, l)
            assert got == want.map_coeffs(lambda c: c * inv), (n, l)


def test_bigrade():
    m = 1
    n = m + 4
    w = WedgeElem.monomial_wedge(n, (m + 1, m + 3))
    g = bigrade(w)
    assert g == BiGrading(-(2 * m + 4), m)
    assert deg_infcycle(w) == Fraction(n * n, 4) - (2 * m + 4)

    e1 = sym_elementary(2, 1)
    g = bigrade(WedgeElem(2, 1, {(0,): e1}))
    assert g == BiGrading(1, 0)

    het = WedgeElem(2, 1, {(0,): z1 * z2, (1,): one})
    parts = bigrade(het)
    assert isinstance(parts, list)
    assert [d for d, _ in parts] == [-1, 2]


def test_bigrade_additive_under_wedge():
    rng = random.Random(9)
    n = 5
    for _ in range(20):
        s1 = tuple(sorted(rng.sample(range(n), 1)))
        s2 = tuple(sorted(rng.sample(range(n), 2)))
        c1 = LaurentPoly.var("z1", rng.randint(-2, 2)) * LaurentPoly.var("z2", rng.randint(0, 2))
        a = WedgeElem(n, 1, {s1: c1})
        b = WedgeElem.monomial_wedge(n, s2)
        w = a.wedge(b)
        if w.is_zero():
            continue
        ga, gb, gw = bigrade(a), bigrade(b), bigrade(w)
        assert gw.deg0 == ga.deg0 + gb.deg0
        assert gw.weight == ga.weight + gb.weight - n
