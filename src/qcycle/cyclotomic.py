"""Exact arithmetic in Q(zeta_8).

Every scalar appearing in the engine lives in the degree-4 cyclotomic field
generated by a primitive 8th root of unity w, with minimal polynomial
w^4 + 1.  An element is stored as four rationals (c0, c1, c2, c3) meaning
c0 + c1*w + c2*w^2 + c3*w^3.  In particular i = w^2 and i^(1/2) = w.

The representation is canonical, so equality is component-wise.  All
arithmetic is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction

_F0 = Fraction(0)
_ZERO4 = (_F0,) * 4


class CycScalar:
    """An element of Q(zeta_8), reduced modulo w^4 = -1."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_components(cls, comps) -> "CycScalar":
        s = cls.__new__(cls)
        s.c = tuple(x if type(x) is Fraction else Fraction(x) for x in comps)
        return s

    @classmethod
    def _make(cls, c0, c1, c2, c3) -> "CycScalar":
        # trusted fast path: components must already be Fractions
        s = cls.__new__(cls)
        s.c = (c0, c1, c2, c3)
        return s

    @classmethod
    def zero(cls) -> "CycScalar":
        return cls.from_components(_ZERO4)

    @classmethod
    def one(cls) -> "CycScalar":
        return cls(1)

    @classmethod
    def zeta(cls, k: int = 1) -> "CycScalar":
        """w^k for any integer k (w = primitive 8th root of unity)."""
        k %= 8
        comps = [Fraction(0)] * 4
        if k < 4:
            comps[k] = Fraction(1)
        else:
            comps[k - 4] = Fraction(-1)
        return cls.from_components(comps)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return CycScalar._make(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return CycScalar._make(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        # rational fast paths cover the bulk of real coefficients
        if not (a[1] or a[2] or a[3]):
            a0 = a[0]
            return CycScalar._make(a0 * b[0], a0 * b[1], a0 * b[2], a0 * b[3])
        if not (b[1] or b[2] or b[3]):
            b0 = b[0]
            return CycScalar._make(a[0] * b0, a[1] * b0, a[2] * b0, a[3] * b0)
        prod = [_F0] * 7
        for j in range(4):
            aj = a[j]
            if not aj:
                continue
            for k in range(4):
                bk = b[k]
                if bk:
                    prod[j + k] += aj * bk
        # reduce by w^4 = -1
        return CycScalar._make(
            prod[0] - prod[4], prod[1] - prod[5], prod[2] - prod[6], prod[3]
        )

    __rmul__ = __mul__

    def conj_product(self) -> "CycScalar":
        """Product of the three nontrivial Galois conjugates (w -> w^3, w^5, w^7)."""
        c = self.c
        g3 = CycScalar._make(c[0], c[3], -c[2], c[1])
        g5 = CycScalar._make(c[0], -c[1], c[2], -c[3])
        g7 = CycScalar._make(c[0], -c[3], -c[2], -c[1])
        return g3 * g5 * g7

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        cp = self.conj_product()
        norm = self * cp
        # norm lies in Q: only the constant component survives
        if norm.c[1] or norm.c[2] or norm.c[3]:
            raise ArithmeticError("norm of %s is not rational" % self)
        n0 = norm.c[0]
        c = cp.c
        return CycScalar._make(c[0] / n0, c[1] / n0, c[2] / n0, c[3] / n0)

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
        return self.c == _ZERO4

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return not self.is_zero()

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
