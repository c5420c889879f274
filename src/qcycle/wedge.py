"""Wedge spaces of skew-symmetric polynomials with bounded slot degree.

An element of the space with parameters (n, l) is a skew-symmetric polynomial
in X1..Xl, of degree at most n-1 in each slot, with coefficients in the
rational function field over z1..zn (plus auxiliary variables z, t while
computing).  The basis vector attached to an increasing subset
S = (s1 < ... < sl) of {0..n-1} is the determinant det(X_b^{s_a}); elements
are stored as maps from subsets to coefficients, so skew symmetry is
structural, and slot substitutions act on the subsets by cofactor expansion
without ever expanding the determinants.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycScalar
from .laurent import (
    LaurentPoly,
    RationalFn,
    _ratfn,
    exact_div,
    is_symmetric,
    zvar,
)


def _coeff(c) -> RationalFn:
    """A coefficient as a RationalFn; raises TypeError for unsupported types."""
    r = _ratfn(c)
    if r is NotImplemented:
        raise TypeError("unsupported coefficient %r" % (c,))
    return r


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum vanishes."""
    prev = acc.get(key)
    if prev is not None:
        c = prev + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def subset_product(terms1: dict, terms2: dict) -> dict:
    """Exterior product of two maps from increasing index subsets to coefficients.

    Overlapping subsets die; a disjoint pair lands on the sorted union with
    the sign of the merge permutation.
    """
    acc = {}
    for s1, c1 in terms1.items():
        set1 = set(s1)
        for s2, c2 in terms2.items():
            if not set1.isdisjoint(s2):
                continue
            c = c1 * c2
            if sum(1 for a in s1 for b in s2 if a > b) % 2:
                c = -c
            add_term(acc, tuple(sorted(s1 + s2)), c)
    return acc


class SubsetTerms:
    """Sparse map from subset keys to nonzero RationalFn coefficients.

    The linear structure shared by wedge elements, Grassmann elements and
    normal-ordered fermion operators.  A subclass stores its shape (at least
    n) beside `terms` and builds same-shape elements in `_like`.  Elements
    compare by value and are unhashable.
    """

    __slots__ = ()

    def _like(self, terms: dict):
        """An element of the same shape holding `terms` as given."""
        raise NotImplementedError

    def __add__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            add_term(out, s, c)
        return self._like(out)

    def __neg__(self):
        return self._like({s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        """Multiply every coefficient by a scalar function."""
        c = _coeff(c)
        if c.is_zero():
            return self._like({})
        return self._like({s: c0 * c for s, c0 in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)) or self.n != other.n:
            return NotImplemented
        return self._same_terms(other)

    def _same_terms(self, other) -> bool:
        theirs = other.terms
        return self.terms.keys() == theirs.keys() and all(
            c == theirs[s] for s, c in self.terms.items()
        )

    def is_zero(self) -> bool:
        return not self.terms


class WedgeElem(SubsetTerms):
    """Element of the (n, l) wedge space, on the increasing-subset basis."""

    __slots__ = ("n", "l", "terms")

    def __init__(self, n: int, l: int, terms=None):
        if l < 0:
            raise ValueError("negative wedge degree")
        self.n = n
        self.l = l
        self.terms = {}
        if terms and l <= n:
            for subset, coeff in terms.items():
                subset = tuple(subset)
                if len(subset) != l or list(subset) != sorted(set(subset)):
                    raise ValueError("subset %r is not an increasing %d-tuple" % (subset, l))
                if subset and (subset[0] < 0 or subset[-1] > n - 1):
                    raise ValueError("subset %r escapes 0..%d" % (subset, n - 1))
                coeff = _coeff(coeff)
                if not coeff.is_zero():
                    self.terms[subset] = coeff

    def _like(self, terms: dict) -> "WedgeElem":
        r = WedgeElem(self.n, self.l)
        r.terms = terms
        return r

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int, l: int) -> "WedgeElem":
        return cls(n, l)

    @classmethod
    def unit(cls, n: int) -> "WedgeElem":
        return cls(n, 0, {(): LaurentPoly.one()})

    @classmethod
    def monomial_wedge(cls, n: int, subset, coeff=1) -> "WedgeElem":
        return cls(n, len(tuple(subset)), {tuple(subset): coeff})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "WedgeElem") -> "WedgeElem":
        if (self.n, self.l) != (other.n, other.l):
            # the zero element acts as the zero of the whole graded sum
            if self.n == other.n and other.is_zero():
                return self
            if self.n == other.n and self.is_zero():
                return other
            raise ValueError("shape mismatch in wedge addition")
        return super().__add__(other)

    def scaled(self, c) -> "WedgeElem":
        """Multiply every coefficient by a slot-free scalar function."""
        # defined here rather than inherited: qbench traces it as its own layer
        return super().scaled(c)

    def __eq__(self, other):
        if not isinstance(other, WedgeElem):
            return NotImplemented
        if self.n == other.n and self.is_zero() and other.is_zero():
            return True
        return self.l == other.l and self.n == other.n and self._same_terms(other)

    def weight(self) -> int:
        return self.n - 2 * self.l

    def __str__(self):
        if self.is_zero():
            return "0 (n=%d, l=%d)" % (self.n, self.l)
        parts = []
        for s in sorted(self.terms):
            basis = "^".join("X%d" % e for e in s) if s else "1"
            parts.append("(%s)*%s" % (self.terms[s], basis))
        return " + ".join(parts)

    __repr__ = __str__

    # -- wedge multiplication ----------------------------------------------

    def wedge(self, other: "WedgeElem") -> "WedgeElem":
        """Wedge product; zero beyond top degree."""
        if self.n != other.n:
            raise ValueError("wedge factors live over different variable counts")
        out = WedgeElem(self.n, self.l + other.l)
        if out.l <= out.n:
            out.terms = subset_product(self.terms, other.terms)
        return out

    # -- slot specialization -------------------------------------------------

    def specialize_slot(self, slot: int, value) -> "WedgeElem":
        """Substitute `value` into slot `slot` (1-based); remaining slots close up.

        Cofactor expansion along the slot's column: det(X_b^(s_a)) with
        X_slot = v is the signed sum of v^(s_a) times the minors on the
        remaining exponents, so no polynomial expansion is needed.
        """
        if self.l < 1:
            raise ValueError("cannot specialize a slot of a degree-0 element")
        if not 1 <= slot <= self.l:
            raise ValueError("slot %d out of range" % slot)
        if not isinstance(value, (LaurentPoly, RationalFn)):
            value = LaurentPoly.const(value)
        out = {}
        for subset, coeff in self.terms.items():
            for pos, s in enumerate(subset):
                c = coeff * value ** s
                # (-1)^(a + slot) with a = pos + 1
                add_term(out, subset[:pos] + subset[pos + 1:], -c if (pos + 1 + slot) % 2 else c)
        res = WedgeElem(self.n, self.l - 1)
        res.terms = out
        return res

    def map_coeffs(self, fn) -> "WedgeElem":
        out = {}
        for s, c in self.terms.items():
            c2 = _coeff(fn(c))
            if not c2.is_zero():
                out[s] = c2
        return self._like(out)

    # -- membership and grading ----------------------------------------------

    def coeffs_as_laurent(self):
        """All coefficients as Laurent polynomials, or None if any fails."""
        out = {}
        for s, c in self.terms.items():
            try:
                out[s] = c.as_laurent()
            except ValueError:
                return None
        return out

    def is_deformed_cycle(self) -> bool:
        """Coefficients are symmetric Laurent polynomials in z1..zn."""
        coeffs = self.coeffs_as_laurent()
        if coeffs is None:
            return False
        return all(is_symmetric(c, self.n) for c in coeffs.values())


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def theta_at(n: int, value) -> LaurentPoly:
    """prod_j (1 - z_j * value) for a polynomial argument."""
    if not isinstance(value, LaurentPoly):
        value = LaurentPoly.const(value)
    out = LaurentPoly.one()
    for j in range(1, n + 1):
        out = out * (LaurentPoly.one() - LaurentPoly.var(zvar(j)) * value)
    return out


def theta(n: int) -> LaurentPoly:
    return theta_at(n, LaurentPoly.var("t"))


_KERNEL_CACHE = {}


def _evar(k: int) -> str:
    return "e%d" % k


def _theta_sym(n: int, value: LaurentPoly) -> LaurentPoly:
    """Theta with opaque elementary-symmetric coefficients e1..en."""
    out = LaurentPoly.one()
    sign = -1
    power = value
    for k in range(1, n + 1):
        out = out + LaurentPoly.var(_evar(k)) * power.scale(CycScalar(sign))
        sign = -sign
        power = power * value
    return out


def _theta2_sym(n: int, v1: LaurentPoly, v2: LaurentPoly) -> LaurentPoly:
    return _theta_sym(n, v1) * _theta_sym(n, v2) - _theta_sym(n, -v1) * _theta_sym(n, -v2)


def _expand_evars(p: LaurentPoly, n: int) -> LaurentPoly:
    from .laurent import mono_mul, sym_elementary

    powers = {}

    def epow(k, m):
        key = (k, m)
        if key not in powers:
            powers[key] = sym_elementary(n, k) ** m
        return powers[key]

    out = {}
    for mono, coeff in p.terms.items():
        rest = []
        factor = None
        for name, e in mono:
            if name.startswith("e") and name[1:].isdigit():
                piece = epow(int(name[1:]), e)
                factor = piece if factor is None else factor * piece
            else:
                rest.append((name, e))
        restm = tuple(rest)
        if factor is None:
            add_term(out, restm, coeff)
        else:
            for fm, fc in factor.terms.items():
                add_term(out, mono_mul(fm, restm), fc * coeff)
    return LaurentPoly(out)


def kernel_F(n: int) -> RationalFn:
    """Degree-lowering kernel in (t, X): polynomial in X of degree < n."""
    key = ("F", n)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    t = LaurentPoly.var("t")
    X = LaurentPoly.var("X")
    if n == 0:
        out = RationalFn.from_poly(LaurentPoly.zero())
    else:
        num = _theta2_sym(n, t, -X)
        h = exact_div(num, X - t)
        h = _expand_evars(t * h, n)
        out = RationalFn(h, [theta(n)]).scale(Fraction(1, 2))
        if out.num.degree("X") > n - 1:
            raise ArithmeticError("lowering kernel exceeds slot degree %d" % (n - 1))
    _KERNEL_CACHE[key] = out
    return out


def kernel_F2(n: int) -> RationalFn:
    """Divided-square lowering kernel in (t, X1, X2).

    The three summands of the definition are assembled over their common
    denominator and the slot poles are divided out exactly, leaving only the
    theta(t) factor.
    """
    key = ("F2", n)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    t = LaurentPoly.var("t")
    X1 = LaurentPoly.var("X1")
    X2 = LaurentPoly.var("X2")
    t2 = t * t
    th_sym = _theta_sym(n, t)
    f1p, f1m = X1 + t, X1 - t
    f2p, f2m = X2 + t, X2 - t
    fsum = X1 + X2
    num = (
        t2 * (X1 - X2) * _theta2_sym(n, X1, X2) * f1m * f2m * th_sym
        + t2 * _theta_sym(n, -X2) * _theta2_sym(n, t, -X1) * f1p * f2m * fsum
        - t2 * _theta_sym(n, -X1) * _theta2_sym(n, t, -X2) * f1m * f2p * fsum
    )
    for fac in (f1p, f2p, f1m, f2m, fsum):
        num = exact_div(num, fac)
    num = _expand_evars(num, n)
    out = RationalFn(num, [theta(n)])
    if n >= 1 and max(num.degree("X1"), num.degree("X2")) > n - 1:
        raise ArithmeticError("divided kernel exceeds slot degree %d" % (n - 1))
    _KERNEL_CACHE[key] = out
    return out


def a_slot_table(n: int, family: str) -> dict:
    """One-slot operator of the diagonal a-series on X^s, 0 <= s < n.

    Maps s to {(j,): coefficient of X^j} in
      aplus:   t (Theta(X) t^s - Theta(t) X^s) / (X - t)
      aminus: -(t Theta(X) t^s - X Theta(t) X^s) / (X - t),
    polynomials in (z, t) of slot degree below n.
    """
    key = (family, n)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    t = LaurentPoly.var("t")
    X = LaurentPoly.var("X")
    th_X, th_t = theta_at(n, X), theta(n)
    out = {}
    for s in range(n):
        if family == "aplus":
            num = t * (th_X * t ** s - th_t * X ** s)
        else:
            num = -(t * th_X * t ** s - X * th_t * X ** s)
        out[s] = kernel_coeffs_X(RationalFn.from_poly(exact_div(num, X - t)), ("X",))
    _KERNEL_CACHE[key] = out
    return out


def kernel_coeffs_X(kernel: RationalFn, slots) -> dict:
    """Split a kernel into slot-monomial coefficients.

    `slots` names the X-variables, e.g. ("X",) or ("X1", "X2"); returns a map
    from exponent tuples to RationalFn coefficients (denominator slot-free).
    """
    buckets = {}
    for mono, coeff in kernel.num.terms.items():
        d = dict(mono)
        exps = tuple(d.pop(s, 0) for s in slots)
        add_term(buckets, exps, LaurentPoly.monomial(tuple(sorted(d.items())), coeff))
    return {k: RationalFn(v, kernel.den) for k, v in buckets.items()}


def kernel_subsets(n: int, l: int) -> dict:
    """kernel_F(n) (l = 1) or kernel_F2(n) (l = 2) on the subset basis.

    Maps increasing exponent tuples to RationalFn coefficients.  The divided
    kernel must be skew in (X1, X2); that is checked exactly.
    """
    if l == 1:
        return {(e,): c for (e,), c in kernel_coeffs_X(kernel_F(n), ("X",)).items()}
    split = kernel_coeffs_X(kernel_F2(n), ("X1", "X2"))
    out = {}
    for (e1, e2), coeff in split.items():
        if e1 == e2:
            raise ArithmeticError("divided kernel is not skew")
        if e1 < e2:
            # skewness pins the (e2, e1) bucket to the negative of this one
            if split.get((e2, e1)) != -coeff:
                raise ArithmeticError("divided kernel is not skew")
            out[(e1, e2)] = coeff
    return out


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------


class BiGrading:
    __slots__ = ("deg0", "weight")

    def __init__(self, deg0: int, weight: int):
        self.deg0 = deg0
        self.weight = weight

    def __eq__(self, other):
        return (
            isinstance(other, BiGrading)
            and (self.deg0, self.weight) == (other.deg0, other.weight)
        )

    def __hash__(self):
        return hash((self.deg0, self.weight))

    def __repr__(self):
        return "BiGrading(deg0=%s, weight=%s)" % (self.deg0, self.weight)


def bigrade(P: WedgeElem):
    """BiGrading for homogeneous elements, else the homogeneous parts.

    Returns a BiGrading, or a list of (deg0, WedgeElem) pairs when the element
    mixes degrees.  The zero element grades as (0, weight).
    """
    weight = P.weight()
    if P.is_zero():
        return BiGrading(0, weight)
    raw = {}
    for s, c in P.terms.items():
        base = -sum(s)
        num_parts = _z_homogeneous_parts(c.num)
        dden = c.den_poly().z_total_degree()
        if dden is None:
            raise ValueError("coefficient denominator is not z-homogeneous")
        for dnum, poly in num_parts.items():
            add_term(raw.setdefault(base + dnum - dden, {}), s, RationalFn(poly, c.den))
    parts = {}
    for d, bucket in raw.items():
        elem = WedgeElem(P.n, P.l, bucket)
        if not elem.is_zero():
            parts[d] = elem
    if len(parts) == 1:
        (d, _), = parts.items()
        return BiGrading(d, weight)
    return sorted(parts.items())


def _z_homogeneous_parts(p: LaurentPoly) -> dict:
    out = {}
    for mono, coeff in p.terms.items():
        d = sum(e for name, e in mono if not name.startswith("X") and name != "t")
        part = out.setdefault(d, {})
        part[mono] = coeff
    return {d: LaurentPoly(terms) for d, terms in out.items()}


def multiply_slot_square_product(P: WedgeElem, zsq) -> WedgeElem:
    """Multiply by prod_a (1 - X_a^2 * zsq) on the subset basis.

    The factor acts one slot at a time, X^s -> X^s - zsq X^(s+2), so a basis
    wedge maps to the wedge of its slots' images; zsq is a slot-free
    polynomial (typically z^2).
    """
    one = RationalFn.from_poly(LaurentPoly.one())
    minus_zsq = -_coeff(zsq)
    acc = {}
    for subset, coeff in P.terms.items():
        image = {(): one}
        for s in subset:
            image = subset_product(image, {(s,): one, (s + 2,): minus_zsq})
        for key, c in image.items():
            add_term(acc, key, coeff * c)
    out = WedgeElem(P.n + 2, P.l)
    out.terms = acc
    return out


def ratfn_constant(r: RationalFn):
    """The CycScalar value of a constant rational function, else None."""
    if r.is_zero():
        return CycScalar.zero()
    den = r.den_poly()
    _, lead_num = r.num.lead()
    _, lead_den = den.lead()
    c = lead_num / lead_den
    if r.num == den.scale(c):
        return c
    return None


def proportionality_scalar(A: WedgeElem, B: WedgeElem):
    """Scalar c with A = c * B, when one exists.

    Returns ("zero", None) when both vanish, ("proportional", c) on success,
    ("no", None) otherwise.  The scalar must be a field constant.
    """
    if A.is_zero() and B.is_zero():
        return "zero", None
    if A.is_zero() or B.is_zero():
        return "no", None
    if (A.n, A.l) != (B.n, B.l):
        return "no", None
    subset = next(iter(B.terms))
    ca = A.terms.get(subset)
    if ca is None:
        return "no", None
    c = ratfn_constant(ca / B.terms[subset])
    if c is None:
        return "no", None
    if A == B.scaled(c):
        return "proportional", c
    return "no", None


def deg_infcycle(P: WedgeElem) -> Fraction:
    """n^2/4 + deg0, the degree that is constant along a linked tower."""
    g = bigrade(P)
    if not isinstance(g, BiGrading):
        raise ValueError("element is not deg0-homogeneous")
    return Fraction(P.n * P.n, 4) + g.deg0
