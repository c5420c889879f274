"""Exact arithmetic in Q(zeta_8).

Every scalar appearing in the engine lives in the degree-4 cyclotomic field
generated by a primitive 8th root of unity w, with minimal polynomial
w^4 + 1.  An element is stored as four integer numerators n = (n0, n1, n2, n3)
over one positive integer denominator d, meaning
(n0 + n1*w + n2*w^2 + n3*w^3) / d.  In particular i = w^2 and i^(1/2) = w.

The pair is kept in lowest terms: gcd(n0, n1, n2, n3, d) = 1 and d > 0, and
zero is (0, 0, 0, 0) / 1.  The representation is therefore canonical, so
equality is component-wise.  Sums and products are plain integer arithmetic
(w^4 = -1 is folded into the product formula), and the normalising gcd runs
only when d != 1.  Fractions appear only at the boundaries: the constructor,
`from_components`, the read-only `.c` and `parse_scalar`.  All arithmetic is
exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_ZERO4 = (0, 0, 0, 0)


class CycScalar:
    """An element of Q(zeta_8), reduced modulo w^4 = -1."""

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        _set_components(self, (c0, c1, c2, c3))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_components(cls, comps) -> "CycScalar":
        s = cls.__new__(cls)
        _set_components(s, tuple(comps))
        return s

    @classmethod
    def zero(cls) -> "CycScalar":
        return _reduced(0, 0, 0, 0, 1)

    @classmethod
    def one(cls) -> "CycScalar":
        return _reduced(1, 0, 0, 0, 1)

    @classmethod
    def zeta(cls, k: int = 1) -> "CycScalar":
        """w^k for any integer k (w = primitive 8th root of unity)."""
        k %= 8
        comps = [0] * 4
        if k < 4:
            comps[k] = 1
        else:
            comps[k - 4] = -1
        return _reduced(*comps, 1)

    @property
    def c(self) -> tuple:
        """The four components c0..c3 as Fractions."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        ad, bd = self.d, other.d
        if ad == bd:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _reduced(a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                        a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return _reduced(-a0, -a1, -a2, -a3, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        d = self.d * other.d
        if not (a1 or a2 or a3):
            # rational fast path covers the bulk of real coefficients
            return _reduced(a0 * b0, a0 * b1, a0 * b2, a0 * b3, d)
        if not (b1 or b2 or b3):
            return _reduced(a0 * b0, a1 * b0, a2 * b0, a3 * b0, d)
        # (sum a_j w^j)(sum b_k w^k) with w^4 = -1
        return _reduced(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0, d)

    __rmul__ = __mul__

    def conj_product(self) -> "CycScalar":
        """Product of the three nontrivial Galois conjugates (w -> w^3, w^5, w^7)."""
        c0, c1, c2, c3 = self.n
        d = self.d
        g3 = _reduced(c0, c3, -c2, c1, d)
        g5 = _reduced(c0, -c1, c2, -c3, d)
        g7 = _reduced(c0, -c3, -c2, -c1, d)
        return g3 * g5 * g7

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        cp = self.conj_product()
        norm = self * cp
        # norm lies in Q: only the constant component survives
        m, m1, m2, m3 = norm.n
        if m1 or m2 or m3:
            raise ArithmeticError("norm of %s is not rational" % self)
        # cp / (m / norm.d), with the sign of m moved to the numerators
        scale = norm.d if m > 0 else -norm.d
        c0, c1, c2, c3 = cp.n
        return _reduced(c0 * scale, c1 * scale, c2 * scale, c3 * scale,
                        cp.d * abs(m))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- predicates and canonical form ---------------------------------

    def is_zero(self) -> bool:
        return self.n == _ZERO4

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __bool__(self):
        return self.n != _ZERO4

    # -- text form ------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, coeff in enumerate(self.c):
            if not coeff:
                continue
            if j == 0:
                term = str(coeff)
            else:
                w = "w" if j == 1 else "w^%d" % j
                if coeff == 1:
                    term = w
                elif coeff == -1:
                    term = "-" + w
                else:
                    term = "%s*%s" % (coeff, w)
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def _reduced(n0, n1, n2, n3, d) -> CycScalar:
    """(n0, n1, n2, n3) / d in lowest terms; d must be positive."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    s = object.__new__(CycScalar)
    s.n = (n0, n1, n2, n3)
    s.d = d
    return s


def _set_components(s: CycScalar, comps: tuple) -> None:
    """Store four int or Fraction components as numerators over one denominator."""
    if all(type(x) is int for x in comps):
        s.n, s.d = comps, 1
        return
    if not all(isinstance(x, (int, Fraction)) for x in comps):
        raise TypeError("Q(zeta_8) components must be int or Fraction, got %r" % (comps,))
    fracs = [Fraction(x) for x in comps]
    # over the lcm of lowest-terms denominators the result is in lowest terms
    d = lcm(*(x.denominator for x in fracs))
    s.n = tuple(x.numerator * (d // x.denominator) for x in fracs)
    s.d = d


def _coerce(x):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar(x)
    return NotImplemented


def i_power(k: int) -> CycScalar:
    """i^k as an element of Q(zeta_8), i = w^2."""
    return CycScalar.zeta(2 * k)


I = i_power(1)
SQRT_I = CycScalar.zeta(1)

_TERM_RE = re.compile(r"^\s*(?:(-?\d+(?:/\d+)?)\s*\*?\s*)?(w(?:\^(\d+))?)?\s*$")


def parse_scalar(text: str) -> CycScalar:
    """Parse the textual form produced by str(), e.g. "1/2 - w + 3*w^3"."""
    text = text.strip()
    if text in ("0", ""):
        return CycScalar.zero()
    # normalize: make every term carry an explicit sign, then split
    chunk = text.replace("- ", "+ -").replace("-w", "+ -1*w")
    comps = [Fraction(0)] * 4
    for raw in chunk.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        m = _TERM_RE.match(raw)
        if not m:
            raise ValueError("cannot parse scalar term %r in %r" % (raw, text))
        num, wpart, exp = m.groups()
        coeff = Fraction(num) if num is not None else Fraction(1)
        if wpart is None:
            j = 0
        else:
            j = int(exp) if exp is not None else 1
        j %= 8
        if j < 4:
            comps[j] += coeff
        else:
            comps[j - 4] -= coeff
    return CycScalar.from_components(comps)
