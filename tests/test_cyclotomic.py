import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcycle.cyclotomic import CycScalar, I, SQRT_I, i_power, parse_scalar


def test_zeta_squares_to_i():
    assert SQRT_I * SQRT_I == I
    assert I * I == CycScalar(-1)


def test_zeta_order_eight():
    z = CycScalar.zeta()
    assert z ** 8 == CycScalar.one()
    assert z ** 4 == CycScalar(-1)
    for k in range(9):
        assert CycScalar.zeta(k) * CycScalar.zeta(8 - k) == CycScalar.one()


def test_i_power_values():
    assert i_power(0) == CycScalar.one()
    assert i_power(2) == CycScalar(-1)
    assert i_power(-1) == -I


def _solve_inverse(b: CycScalar) -> CycScalar:
    """Independent oracle: invert by solving the 4x4 rational system b*x = 1."""
    # multiplication matrix of b in the basis 1, w, w^2, w^3
    cols = []
    for j in range(4):
        col = (b * CycScalar.zeta(j)).c
        cols.append(list(col))
    m = [[cols[j][i] for j in range(4)] for i in range(4)]
    rhs = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    # gaussian elimination
    for col in range(4):
        piv = next(r for r in range(col, 4) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        rhs[col] *= inv
        for r in range(4):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return CycScalar.from_components(rhs)


def test_division_example_via_linear_solve():
    # (1 + w^2) / (1 - w^2) = w^2
    a = CycScalar.one() + I
    b = CycScalar.one() - I
    expected = a * _solve_inverse(b)
    assert a / b == expected == I


scalars = st.builds(
    CycScalar,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
)


@settings(max_examples=1000, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == CycScalar.one()


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_text_round_trip(a):
    assert parse_scalar(str(a)) == a


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycScalar.one() / CycScalar.zero()


def test_rejects_float_and_string_components():
    # the field is exact: only int and Fraction components are accepted
    for make in (lambda: CycScalar(0.1), lambda: CycScalar("2/3"),
                 lambda: CycScalar.from_components((0.5, 0, 0, 0))):
        with pytest.raises(TypeError):
            make()
    assert parse_scalar("2/3 - w") == CycScalar.from_components((Fraction(2, 3), -1, 0, 0))


# ---------------------------------------------------------------------------
# differential test: integer numerators over one denominator against the
# previous four-Fraction representation
# ---------------------------------------------------------------------------


class _FractionScalar:
    """The previous CycScalar: four Fractions c0 + c1*w + c2*w^2 + c3*w^3."""

    def __init__(self, comps):
        self.c = tuple(Fraction(x) for x in comps)

    def __add__(self, other):
        return _FractionScalar(x + y for x, y in zip(self.c, other.c))

    def __neg__(self):
        return _FractionScalar(-x for x in self.c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.c, other.c
        prod = [Fraction(0)] * 7
        for j in range(4):
            for k in range(4):
                prod[j + k] += a[j] * b[k]
        return _FractionScalar((prod[0] - prod[4], prod[1] - prod[5],
                                prod[2] - prod[6], prod[3]))

    def inverse(self):
        c = self.c
        g3 = _FractionScalar((c[0], c[3], -c[2], c[1]))
        g5 = _FractionScalar((c[0], -c[1], c[2], -c[3]))
        g7 = _FractionScalar((c[0], -c[3], -c[2], -c[1]))
        cp = g3 * g5 * g7
        n0 = (self * cp).c[0]
        return _FractionScalar(x / n0 for x in cp.c)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _FractionScalar((1, 0, 0, 0))
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        if not any(self.c):
            return "0"
        parts = []
        for j, coeff in enumerate(self.c):
            if not coeff:
                continue
            if j == 0:
                term = str(coeff)
            else:
                w = "w" if j == 1 else "w^%d" % j
                term = w if coeff == 1 else "-" + w if coeff == -1 else "%s*%s" % (coeff, w)
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def _random_components(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return (0, 0, 0, 0)
    if kind == 1:  # a unit: +-w^k
        comps = [0] * 4
        comps[rng.randrange(4)] = rng.choice((-1, 1))
        return tuple(comps)
    if kind == 2:  # an integer
        return (rng.randint(-99, 99), 0, 0, 0)
    if kind == 3:  # a rational
        return (Fraction(rng.randint(-99, 99), rng.randint(1, 60)), 0, 0, 0)
    if kind == 4:  # components over different denominators, some zero
        return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 40))
                     if rng.random() < 0.7 else 0 for _ in range(4))
    # 200-bit numerators over large denominators
    return tuple(Fraction(rng.getrandbits(200) * rng.choice((-1, 1)),
                          rng.getrandbits(64) + 1) for _ in range(4))


def _check_canonical(x):
    assert len(x.n) == 4 and all(type(v) is int for v in x.n)
    assert type(x.d) is int and x.d > 0
    assert math.gcd(*x.n, x.d) == 1
    if x.n == (0, 0, 0, 0):
        assert x.d == 1


def _agree(new, ref):
    _check_canonical(new)
    assert new.c == ref.c
    assert str(new) == str(ref)
    return new


def test_integer_kernel_matches_fraction_kernel():
    rng = random.Random(20260418)
    comps = [_random_components(rng) for _ in range(400)]
    news = [CycScalar.from_components(c) for c in comps]
    refs = [_FractionScalar(c) for c in comps]
    for new, ref, c in zip(news, refs, comps):
        _agree(new, ref)
        assert CycScalar(*c) == new
        assert parse_scalar(str(new)) == new
        assert str(parse_scalar(str(new))) == str(new)
        _agree(-new, -ref)
        if not any(c[1:]):
            assert new == c[0] and new == Fraction(c[0])
            assert hash(new) == hash(CycScalar(c[0]))
    for _ in range(600):
        i, j = rng.randrange(len(news)), rng.randrange(len(news))
        a, b, ra, rb = news[i], news[j], refs[i], refs[j]
        s = _agree(a + b, ra + rb)
        _agree(a - b, ra - rb)
        p = _agree(a * b, ra * rb)
        assert (a == b) == (ra.c == rb.c)
        # the same value reached two ways is equal and hashes equal
        back = s - b
        assert back == a and hash(back) == hash(a)
        if not b.is_zero():
            q = _agree(a / b, ra / rb)
            assert q * b == a and hash(q * b) == hash(a)
            _agree(b.inverse(), rb.inverse())
            k = rng.randint(-3, 3)
            _agree(b ** k, rb ** k)
        assert (p == 0) == (a.is_zero() or b.is_zero())
        assert bool(p) != p.is_zero()
    assert CycScalar.zero().n == (0, 0, 0, 0) and CycScalar.zero().d == 1
    half = CycScalar(Fraction(1, 2))
    _check_canonical(half + half)
    assert (half + half).d == 1 and half + half == 1


def test_products_and_inverses_against_sympy():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    modulus = sympy.Poly(w ** 4 + 1, w, domain="QQ")

    def to_poly(x):
        return sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                           for v in reversed(x.c)], w, domain="QQ")

    rng = random.Random(7)
    for _ in range(60):
        a = CycScalar.from_components(_random_components(rng))
        b = CycScalar.from_components(_random_components(rng))
        assert to_poly(a * b) == (to_poly(a) * to_poly(b)).rem(modulus)
        if not b.is_zero():
            assert to_poly(b.inverse()) == to_poly(b).invert(modulus)
