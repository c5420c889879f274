import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from qcycle.cyclotomic import CycScalar, I
from qcycle.laurent import (
    LaurentPoly,
    RationalFn,
    exact_div,
    series_expand_coeffs,
    substitute,
    sym_elementary,
    sym_power,
    zvar,
)
from qcycle.action import (
    GenMode,
    _a_series_basis,
    act_series,
    apply_mode,
    apply_word,
    atilde,
    mode_extract,
    relation_spotcheck,
    xminus,
    xplus,
)
from qcycle.wedge import WedgeElem, theta, theta_at

from conftest import Xvar, random_wedge, skew_collect, to_poly

one = LaurentPoly.one()


def test_lowering_on_vacuum_n2():
    P = WedgeElem.unit(2)
    series = act_series("xminus", P, 1)
    assert series.stored(1) == WedgeElem(2, 1, {(0,): sym_elementary(2, 1)})


def test_lowering_mode_on_x1():
    # x^-_1 . X^1 = i e1 X^0 ^ X^1  (seed of the Schur tower)
    P = WedgeElem.monomial_wedge(2, (1,))
    got = apply_mode(xminus(1), P)
    assert got == WedgeElem(2, 2, {(0, 1): sym_elementary(2, 1)}).scaled(I)


def test_raising_series_on_single_slot():
    # on X^0 in the one-variable space the kernel is the plain geometric series
    P = WedgeElem.monomial_wedge(1, (0,))
    series = act_series("xplus", P, 3)
    for k in range(4):
        assert series.stored(k) == WedgeElem(1, 0, {(): LaurentPoly.var("z1", k)})
    assert mode_extract(series, 0) == WedgeElem.unit(1)


def test_raising_annihilates_degree_zero():
    P = WedgeElem.unit(3)
    series = act_series("xplus", P, 2)
    assert series.coeffs == {}
    for l in (0, 1):
        Q = random_wedge(random.Random(l), 3, l)
        assert act_series("xplus2", Q, 2).coeffs == {}


def test_extremal_seed_sign():
    # x^+_1 . X^1 = -1 on the two-variable space
    P = WedgeElem.monomial_wedge(2, (1,))
    got = apply_mode(xplus(1), P)
    assert got == WedgeElem(2, 0, {(): -one})


def test_raising_negative_mode():
    P = WedgeElem.monomial_wedge(2, (1,))
    got = apply_mode(xplus(-1), P)
    inv = LaurentPoly.var("z1", -1) * LaurentPoly.var("z2", -1)
    assert got == WedgeElem(2, 0, {(): -inv})


def test_a_modes_are_power_sums_on_degree_zero():
    for n in (2, 3):
        P = WedgeElem.unit(n)
        for m in (1, 2, 3):
            assert apply_mode(atilde(m), P) == WedgeElem(n, 0, {(): sym_power(n, m)})
        for m in (-1, -2, -3):
            assert apply_mode(atilde(m), P) == WedgeElem(n, 0, {(): sym_power(n, m)})


def test_odd_a_modes_are_multiplication_everywhere():
    rng = random.Random(21)
    for n, l in ((2, 1), (3, 1), (3, 2)):
        P = random_wedge(rng, n, l)
        for m in (1, 3, -1):
            got = apply_mode(atilde(m), P)
            assert got == P.scaled(sym_power(n, m)), (n, l, m)


def _a_series_by_expansion(family, P, point, order):
    """Reference: expand P, act on each slot X_p by substituting X_p = t and
    dividing by X_p - t, expand both halves, re-collect with skew_collect / l!."""
    n, l = P.n, P.l
    t = LaurentPoly.var("t")
    th_t = theta(n)
    flip = {"t": -t}
    th_m = substitute(th_t, flip)
    poly = to_poly(P)
    num, den = poly.num, poly.den
    diag = LaurentPoly.zero()
    for j in range(1, n + 1):
        zj = LaurentPoly.var(zvar(j))
        rest = exact_div(th_t, one - zj * t)
        diag = diag + (zj * t * rest if family == "aplus" else -rest)
    plus, minus = diag * num, LaurentPoly.zero()
    for p in range(1, l + 1):
        Xp = LaurentPoly.var(Xvar(p))
        sub = substitute(num, {Xvar(p): t})
        if family == "aplus":
            quot = t * exact_div(theta_at(n, Xp) * sub - th_t * num, Xp - t)
        else:
            quot = -exact_div(t * theta_at(n, Xp) * sub - Xp * th_t * num, Xp - t)
        plus = plus + quot
        minus = minus + substitute(quot, flip)
    per_power = {}
    for nump, th in ((plus, th_t), (minus, th_m)):
        part = RationalFn(nump, list(den) + [(th, 1)])
        for k, c in series_expand_coeffs(part, "t", point, order).items():
            if abs(k) <= order:
                per_power[k] = per_power[k] + c if k in per_power else c
    inv = CycScalar(Fraction(1, math.factorial(l)))
    out = {}
    for k, c in per_power.items():
        elem = skew_collect(c, n, l).map_coeffs(lambda v: v * inv)
        if not elem.is_zero():
            out[k] = elem
    return out


def test_a_series_matches_expanded_path():
    for family, point in (("aplus", "zero"), ("aminus", "inf")):
        for n in range(1, 5):
            for l in range(n + 1):
                for subset in combinations(range(n), l):
                    P = WedgeElem.monomial_wedge(n, subset)
                    got = _a_series_basis(family, P, point, 3)
                    assert got == _a_series_by_expansion(family, P, point, 3), (family, subset)


def test_divided_lowering_zero_mode():
    # (x^-_0)^(2) . 1 = i e1 X^0 ^ X^1 on two variables
    P = WedgeElem.unit(2)
    got = apply_mode(GenMode("xminus2", 0), P)
    assert got == WedgeElem(2, 2, {(0, 1): sym_elementary(2, 1)}).scaled(I)


def test_divided_raising_zero_mode():
    P = WedgeElem(2, 2, {(0, 1): sym_elementary(2, 1)})
    got = apply_mode(GenMode("xplus2", 0), P)
    assert got == WedgeElem(2, 0, {(): one}).scaled(-I)


def test_divided_square_consistency():
    # [2] = 0 at q = i, so the ordinary square of x^-_0 annihilates the unit
    P = WedgeElem.unit(2)
    sq = apply_word([xminus(0), xminus(0)], P)
    assert sq.is_zero()


def test_mode_range_guards():
    P = WedgeElem.monomial_wedge(2, (1,))
    series = act_series("xminus", P, 2)
    with pytest.raises(ValueError):
        mode_extract(series, 0)
    with pytest.raises(ValueError):
        GenMode("xminus2", 1)
    with pytest.raises(ValueError):
        GenMode("aplus", 0)


def test_weight_bookkeeping():
    rng = random.Random(4)
    P = random_wedge(rng, 3, 1)
    for fam, shift in (("xminus", 1), ("xplus", -1)):
        series = act_series(fam, P, 1)
        assert series.l_out == P.l + shift


def test_t1_word_identity():
    rng = random.Random(5)
    P = random_wedge(rng, 3, 2)
    out = apply_word([GenMode("t1", 1), GenMode("t1", -1)], P)
    assert out == P


def test_field_linearity():
    rng = random.Random(6)
    n = 3
    f = RationalFn(sym_elementary(n, 1), [sym_elementary(n, 2)])
    for l, fam in ((1, "xminus"), (1, "xplus"), (2, "xplus2"), (1, "aplus")):
        P = random_wedge(rng, n, l)
        g = GenMode(fam, 0) if fam.endswith("2") else (
            atilde(1) if fam == "aplus" else (xminus(1) if fam == "xminus" else xplus(1)))
        lhs = apply_mode(g, P.map_coeffs(lambda c: c * f))
        rhs = apply_mode(g, P).map_coeffs(lambda c: c * f)
        assert lhs == rhs, fam


def test_relation_spotchecks():
    rng = random.Random(7)
    samples2 = [random_wedge(rng, 3, 1) for _ in range(3)]
    for rel in ("t1-conjugation", "a-commutativity", "a-x-bracket"):
        report = relation_spotcheck(rel, samples2)
        assert report["passed"], report

    even_weight = [random_wedge(rng, 2, 1), random_wedge(rng, 4, 2)]
    report = relation_spotcheck("ex-bracket-diagonal", even_weight)
    assert report["passed"], report
    odd_weight = [random_wedge(rng, 3, 1), random_wedge(rng, 3, 2)]
    report = relation_spotcheck("ex-bracket-diagonal", odd_weight)
    assert report["passed"], report


def test_word_toward_energy_momentum():
    # x^-_1 x^+_1 applied to the weight-zero tower bottom gives -i (T_z)_{2,1}
    P21 = WedgeElem.monomial_wedge(2, (1,))
    up = apply_mode(xplus(1), P21)
    down = apply_mode(xminus(1), up)
    tz = WedgeElem(2, 1, {(0,): sym_elementary(2, 1)})
    assert down == tz.scaled(-I)
