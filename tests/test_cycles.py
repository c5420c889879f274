import random
from fractions import Fraction

import pytest

from qcycle.cyclotomic import CycScalar, I
from qcycle.laurent import LaurentPoly, sym_elementary
from qcycle.action import GenMode, atilde, xminus, xplus
from qcycle.cycles import (
    LinkViolation,
    act_on_cycle,
    distinguished_cycle,
    example_towers,
    is_minimal,
    is_weakly_minimal,
    link_check,
    link_residual,
    schur_cycle,
    verify_schur_formula,
)
from qcycle.wedge import WedgeElem

one = LaurentPoly.one()


def test_distinguished_small_window():
    t = distinguished_cycle(0, 6)
    assert t.components[0] == WedgeElem.unit(0)
    assert t.components[2] == WedgeElem.monomial_wedge(2, (1,))
    assert t.components[4] == WedgeElem.monomial_wedge(4, (1, 3))
    assert t.components[6] == WedgeElem.monomial_wedge(6, (1, 3, 5))


def test_distinguished_towers_link_and_degree():
    for m in range(0, 4):
        t = distinguished_cycle(m, m + 6)
        assert t.verify()
        assert t.degree() == Fraction(m * m, 4)
        for P in t.components.values():
            assert P.weight() == m


def test_link_scaling_invariance():
    t = distinguished_cycle(1, 5)
    low = t.components[1].scaled(3)
    high = t.components[3].scaled(3)
    assert link_residual(low, high).is_zero()


def test_zero_low_link_is_minimality():
    # (0, P) is a link exactly when P is minimal
    e1 = sym_elementary(2, 1)
    zero0 = WedgeElem(0, 0)
    minimal = WedgeElem(2, 1, {(0,): e1})
    assert is_minimal(minimal)[0]
    assert link_residual(zero0, minimal).is_zero()
    not_minimal = WedgeElem.monomial_wedge(2, (1,))
    assert not is_minimal(not_minimal)[0]
    assert not link_residual(zero0, not_minimal).is_zero()


def test_minimality_examples():
    # the all-pairs product times the full ladder is minimal
    for k in (1, 2):
        n = 2 * k
        prod = LaurentPoly.one()
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                prod = prod * (LaurentPoly.var("z%d" % a) + LaurentPoly.var("z%d" % b))
        P = WedgeElem(n, n, {tuple(range(n)): prod})
        ok, _ = is_minimal(P)
        assert ok, k

    # ladder components are weakly minimal but not minimal
    for m, l in ((0, 2), (1, 2), (2, 1)):
        n = m + 2 * l
        P = WedgeElem.monomial_wedge(n, tuple(m + 2 * j - 1 for j in range(1, l + 1)))
        assert is_weakly_minimal(P)[0], (m, l)
        if l >= 1:
            assert not is_minimal(P)[0], (m, l)

    assert is_minimal(WedgeElem.unit(3))[0]
    assert is_weakly_minimal(WedgeElem.unit(3))[0]


def test_link_violation_reports_witness():
    bad_high = WedgeElem.monomial_wedge(2, (0,))
    with pytest.raises(LinkViolation):
        link_check(WedgeElem.unit(0), bad_high)


def test_link_implies_weak_minimality():
    rng = random.Random(71)
    for m in (0, 1):
        base = distinguished_cycle(m, m + 4)
        cyc = act_on_cycle([xminus(1), atilde(1)], base)
        ns = cyc.indices()
        for lo, hi in zip(ns, ns[1:]):
            assert link_residual(cyc.components[lo], cyc.components[hi]).is_zero()
            assert is_weakly_minimal(cyc.components[lo])[0]
            assert is_weakly_minimal(cyc.components[hi])[0]


def test_extremal_relations():
    # x^+_{m+1} sends the weight-m tower to (-1)^(m+1) times the next one
    for m in range(0, 4):
        t = distinguished_cycle(m, m + 6)
        up = act_on_cycle(GenMode("xplus", m + 1), t)
        expected = distinguished_cycle(m + 2, m + 6)
        sign = CycScalar((-1) ** (m + 1))
        diff = up - expected.scaled(sign)
        assert diff.is_zero(), m


def test_extremal_annihilation():
    for m in range(0, 4):
        t = distinguished_cycle(m, m + 4)
        for k in range(0, m + 1):
            out = act_on_cycle(GenMode("xplus", k), t)
            assert out.is_zero(), (m, k)


def test_action_preserves_links_random_words():
    rng = random.Random(99)
    pool = [xminus(1), xminus(0), xplus(0), xplus(1), atilde(1), atilde(2),
            GenMode("xminus2", 0), GenMode("t1", 1)]
    verified = 0
    for m in (0, 1):
        t = distinguished_cycle(m, m + 4)
        for _ in range(6):
            word = [rng.choice(pool) for _ in range(2)]
            cur = t
            for g in reversed(word):
                cur = act_on_cycle(g, cur)  # verifies links on construction
                verified += max(len(cur.indices()) - 1, 0)
    assert verified >= 20


def test_degree_shift_of_modes():
    t = distinguished_cycle(0, 4)
    assert t.degree() == 0
    down = act_on_cycle(xminus(1), t)
    assert down.degree() == t.degree() + 1
    up = act_on_cycle(xplus(1), t)
    assert up.degree() == t.degree() + 1


def test_su2_current_towers():
    w, jm = example_towers("jminus", 6)
    assert w == 2
    assert jm[2] == WedgeElem.unit(2)
    assert jm[4] == WedgeElem.monomial_wedge(4, (3,))
    identity = distinguished_cycle(0, 6)
    up = act_on_cycle(xplus(1), identity)
    # x^+_1 applied to the identity tower gives MINUS the printed current
    for n in (2, 4, 6):
        assert up.components[n] == -jm[n], n

    w, jp = example_towers("jplus", 6)
    upm = act_on_cycle(xplus(-1), identity)
    for n in (2, 4, 6):
        assert upm.components[n] == -jp[n], n


def test_energy_momentum_towers_are_not_linked():
    for name in ("Tz", "Tzbar"):
        _, comps = example_towers(name, 6)
        broken = 0
        for n in (0, 2, 4):
            if not link_residual(comps[n], comps[n + 2]).is_zero():
                broken += 1
        assert broken >= 1, name


def test_schur_formula_k1():
    rep = verify_schur_formula(1, l_max=2)
    assert rep["passed"], rep
    assert rep["scalar"] == "w"  # the observed i^(1/2) convention offset
    closed = schur_cycle(1, 1)
    e1 = sym_elementary(2, 1)
    half = CycScalar.zeta(1)
    assert closed.components[2] == WedgeElem(2, 2, {(0, 1): e1}).scaled(half)
    # (e1 X^0 + e3 X^2) ^ X^1 ^ X^3: the X^2 block crosses X^1, flipping sign
    e14 = sym_elementary(4, 1)
    e34 = sym_elementary(4, 3)
    want = WedgeElem(4, 3, {(0, 1, 3): e14, (1, 2, 3): -e34}).scaled(half)
    assert closed.components[4] == want


def test_schur_formula_k2():
    rep = verify_schur_formula(2, l_max=1)
    assert rep["passed"], rep
    closed = schur_cycle(2, 0)
    prod = LaurentPoly.one()
    for a in range(1, 5):
        for b in range(a + 1, 5):
            prod = prod * (LaurentPoly.var("z%d" % a) + LaurentPoly.var("z%d" % b))
    want = WedgeElem(4, 4, {(0, 1, 2, 3): prod}).scaled(I ** 2)
    assert closed.components[4] == want
    ok, _ = is_minimal(closed.components[4])
    assert ok
