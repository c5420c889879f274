import random
from fractions import Fraction
from itertools import combinations

import pytest

from qcycle.cyclotomic import CycScalar
from qcycle.laurent import (
    LaurentPoly,
    NonDivisibleError,
    RationalFn,
    exact_div,
    frobenius_to_partition,
    is_symmetric,
    schur,
    schur_frobenius,
    series_expand,
    substitute,
    substitute_ratfn,
    subs_poly,
    sym_elementary,
    sym_power,
)

from conftest import bialternant_schur, substitute_rational

z1 = LaurentPoly.var("z1")
z2 = LaurentPoly.var("z2")
t = LaurentPoly.var("t")
X = LaurentPoly.var("X")
one = LaurentPoly.one()


def test_ring_arithmetic():
    assert (one - z1 * t) * (one + z1 * t) == one - z1 ** 2 * t ** 2
    assert LaurentPoly.var("z1", -1) * z1 == one
    assert (z1 + z2) ** 2 == z1 ** 2 + 2 * z1 * z2 + z2 ** 2


def test_exact_div_basic():
    assert exact_div(X ** 2 - t ** 2, X - t) == X + t
    with pytest.raises(NonDivisibleError) as info:
        exact_div(one - z1 * t, one - z2 * t)
    # the failure carries a nonzero remainder witness
    assert not info.value.remainder.is_zero()


def test_exact_div_random_round_trip():
    rng = random.Random(7)
    names = ["z1", "z2", "t"]
    def rand_poly():
        p = LaurentPoly.zero()
        for _ in range(rng.randint(1, 4)):
            mono = tuple(
                sorted(
                    (v, rng.randint(-2, 3))
                    for v in rng.sample(names, rng.randint(0, 2))
                    if rng.random() < 0.9
                )
            )
            mono = tuple((n, e) for n, e in mono if e)
            p = p + LaurentPoly.monomial(mono, rng.randint(-4, 4))
        return p
    checked = 0
    for _ in range(1000):
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
        checked += 1
    assert checked > 900


def test_substitute_examples():
    theta2 = (one - z1 * X) * (one - z2 * X)
    z = LaurentPoly.var("z")
    res = subs_poly(theta2, {"z1": z, "z2": -z})
    assert res == one - z ** 2 * X ** 2

    n = 3
    p = LaurentPoly.var("X", n + 1)
    out = subs_poly(p, {"X": LaurentPoly.var("z", -1)})
    assert out == LaurentPoly.var("z", -n - 1)

    p1 = z1 + z2
    assert subs_poly(p1, {"z2": -z1}).is_zero()


def test_substitute_zero_into_laurent_exponent():
    p = LaurentPoly.var("z1", -1)
    with pytest.raises(ValueError):
        substitute(p, {"z1": LaurentPoly.zero()})


def test_substitute_general_rational():
    # a binding must be one nonzero term: z1 -> 1 + z2 would need a fraction
    p = LaurentPoly.var("z1", -1)
    with pytest.raises(ValueError):
        substitute(p, {"z1": one + z2})
    with pytest.raises(ValueError):
        substitute(p, {"z1": RationalFn.from_poly(z2)})
    # and may not leave a polynomial-only variable with a negative exponent
    with pytest.raises(ValueError):
        substitute(p, {"z1": X})


def test_substitute_matches_rational_reference():
    # seeded Laurent polynomials in z1..z4, t and X under random monomial
    # bindings: renames, inversions, negations, swaps, scalar multiples
    rng = random.Random(41)
    lvars = ["z1", "z2", "z3", "z4", "t"]
    scalars = [CycScalar.zeta(1), CycScalar(-1), CycScalar(Fraction(2, 3))]

    def rand_mono(names, low):
        return tuple(sorted((v, rng.randint(low, 3)) for v in names))

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = rand_mono(rng.sample(lvars, rng.randint(0, 4)), -3)
            if rng.random() < 0.5:
                mono = tuple(sorted(mono + (("X", rng.randint(1, 3)),)))
            terms[mono] = rng.choice(scalars + [CycScalar(rng.randint(1, 5))])
        return LaurentPoly(terms)

    def rand_bindings():
        names = lvars[:]
        rng.shuffle(names)
        b = {}
        if rng.random() < 0.6:
            a, c = names.pop(), names.pop()
            b[a], b[c] = LaurentPoly.var(c), LaurentPoly.var(a)
        for v in names:
            kind = rng.randrange(7)
            if kind == 1:
                b[v] = LaurentPoly.var(rng.choice(lvars))
            elif kind == 2:
                b[v] = LaurentPoly.var(v, -1)
            elif kind == 3:
                b[v] = -LaurentPoly.var(v)
            elif kind == 4:
                b[v] = LaurentPoly.var(v).scale(rng.choice(scalars))
            elif kind == 5:
                b[v] = LaurentPoly.const(rng.choice(scalars))
            elif kind == 6:
                b[v] = LaurentPoly.monomial(rand_mono(rng.sample(lvars, 2), -2), rng.choice(scalars))
        if rng.random() < 0.5:
            b["X"] = LaurentPoly.monomial(rand_mono(["X"] + rng.sample(lvars, 1), 0),
                                          rng.choice(scalars))
        return b

    for _ in range(300):
        p, b = rand_poly(), rand_bindings()
        ref = substitute_rational(p, b)
        assert ref.is_poly() and substitute(p, b) == ref.num, (p, b)


def test_substitute_ratfn_reduces_before_a_pole():
    # the lazy product leaves (z1^2 - 1) / (z1^2 - 1) unreduced
    r = RationalFn(z1 - one, [z1 * z1 - one]) * (z1 + one)
    assert r.den
    assert substitute_ratfn(r, {"z1": 1}) == RationalFn.from_poly(one)
    with pytest.raises(TypeError):
        substitute(r, {"z1": 1})


def test_series_geometric():
    f = RationalFn(one, [one - z1 * t])
    coeffs = series_expand(f, "t", "zero", 3)
    assert coeffs == {0: one, 1: z1, 2: z1 ** 2, 3: z1 ** 3}


def test_series_at_infinity():
    f = RationalFn(z1 * t, [one - z1 * t])
    coeffs = series_expand(f, "t", "inf", 2)
    assert coeffs[0] == -one
    assert coeffs[-1] == -LaurentPoly.var("z1", -1)
    assert coeffs[-2] == -LaurentPoly.var("z1", -2)


def test_series_round_trip_property():
    rng = random.Random(11)
    for _ in range(60):
        num = LaurentPoly.zero()
        for _ in range(rng.randint(1, 3)):
            num = num + LaurentPoly.monomial(
                (("t", rng.randint(0, 2)), ("z1", rng.randint(-1, 2))), rng.randint(-3, 3)
            )
        den = one - z1 * t if rng.random() < 0.5 else (one - z1 * t) * (one + z1 * t)
        f = RationalFn(num, [den])
        order = 4
        coeffs = series_expand(f, "t", "zero", order)
        partial = LaurentPoly.zero()
        for k, c in coeffs.items():
            partial = partial + c * LaurentPoly.var("t", k) if k else partial + c
        delta = partial * f.den_poly() - f.num * LaurentPoly.one()
        # partial sums agree with f through t^order
        if not delta.is_zero():
            assert delta.valuation("t") > order


def test_sym_constructors():
    assert sym_elementary(2, 1) == z1 + z2
    assert sym_power(2, -1) == LaurentPoly.var("z1", -1) + LaurentPoly.var("z2", -1)
    assert is_symmetric(z1 + z2, 2)
    assert not is_symmetric(z1 - z2, 2)
    prod = LaurentPoly.one()
    for a in range(1, 4):
        for b in range(a + 1, 4):
            prod = prod * (LaurentPoly.var("z%d" % a) + LaurentPoly.var("z%d" % b))
    assert is_symmetric(prod, 3)


def test_frobenius_hook_column():
    # (0 | 2a) is a single hook of arm 0 and leg 2a: a column of height 2a+1
    assert frobenius_to_partition([0], [4]) == [1, 1, 1, 1, 1]
    for a in range(0, 3):
        n = 2 * a + 2
        col = schur_frobenius(n, [0], [2 * a])
        assert col == sym_elementary(n, 2 * a + 1)


def test_schur_matches_jacobi_trudi_in_box():
    parts = []
    for a in range(0, 5):
        for b in range(0, a + 1):
            for c in range(0, b + 1):
                for d in range(0, c + 1):
                    lam = [x for x in (a, b, c, d) if x]
                    if lam not in parts:
                        parts.append(lam)
    # schur is the dual Jacobi-Trudi determinant; the bialternant is the reference
    cases = [(n, lam) for n in (2, 3, 4) for lam in parts]
    # the partitions of the closed Schur-form towers that criterion 10 reaches
    for k, l_max in ((1, 2), (2, 1)):
        for l in range(l_max + 1):
            for combo in combinations(range(k + l), k):
                alpha = [2 * (k - 1 - i) for i in range(k)]
                beta = [2 * a for a in reversed(combo)]
                cases.append((2 * k + 2 * l, frobenius_to_partition(alpha, beta)))
    for n, lam in cases:
        assert schur(n, lam) == bialternant_schur(n, lam), (n, lam)
