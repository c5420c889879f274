"""Sparse multivariate Laurent polynomials over Q(zeta_8) and their fractions.

A monomial is a sorted tuple of (variable name, exponent) pairs with no zero
exponents; a polynomial is a dict from monomials to CycScalar.  Variables are
free-form strings.  Names starting with "X" are polynomial-only (exponents
must stay nonnegative, matching the wedge-space degree bookkeeping); every
other variable is Laurent and may carry negative exponents.

RationalFn keeps its denominator as a list of (factor, multiplicity) pairs.
The fractions produced here always have structured denominators (products of
theta factors, binomials like 1 - z*t, differences of squares), so
cancellation is attempted factor by factor with exact division instead of a
general multivariate gcd.  A division is tried only when a cheap exact test
leaves it possible: every variable span of the factor fits in the
numerator's, and a two-term factor must pass the factor theorem (the
numerator vanishes at the factor's monomial root, when a variable of
exponent +-1 gives one).  Equality is decided by cross multiplication over
the lcm of the two factor lists and never depends on reduction succeeding.

Substitution is monomial only (each variable goes to one nonzero term, all at
once).  That covers the engine's z-tail, fermion maps, t -> 1/t, t -> -t,
q -> 1/q and z_j <-> z_(j+1), and keeps every result a Laurent polynomial.
"""

from __future__ import annotations

from fractions import Fraction
import heapq
import operator
from itertools import chain, combinations

from .cyclotomic import CycScalar

Mono = tuple  # tuple[(str, int), ...], sorted by name, exponents nonzero


class NonDivisibleError(ArithmeticError):
    """Exact division failed; carries the offending remainder."""

    def __init__(self, remainder):
        super().__init__("polynomial division left a remainder")
        self.remainder = remainder


def _is_laurent_var(name: str) -> bool:
    return not name.startswith("X")


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        e2 = d.get(name, 0) + e
        if e2:
            d[name] = e2
        else:
            d.pop(name, None)
    return tuple(sorted(d.items()))


def mono_inv(a: Mono) -> Mono:
    return tuple((name, -e) for name, e in a)


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, CycScalar):
                    coeff = CycScalar(coeff)
                if coeff.is_zero():
                    continue
                for name, e in mono:
                    if e < 0 and not _is_laurent_var(name):
                        raise ValueError(
                            "negative exponent on polynomial-only variable %s" % name
                        )
                mono = tuple(sorted((n, e) for n, e in mono if e))
                prev = self.terms.get(mono)
                if prev is not None:
                    coeff = prev + coeff
                if coeff.is_zero():
                    self.terms.pop(mono, None)
                else:
                    self.terms[mono] = coeff

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        if not isinstance(c, CycScalar):
            c = CycScalar(c)
        return cls({(): c}) if not c.is_zero() else cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, name: str, exp: int = 1):
        if exp == 0:
            return cls.one()
        return cls({((name, exp),): CycScalar(1)})

    @classmethod
    def monomial(cls, mono: Mono, coeff=1):
        return cls({mono: coeff if isinstance(coeff, CycScalar) else CycScalar(coeff)})

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono)
            if c is None:
                out[mono] = coeff
            else:
                c = c + coeff
                if c.is_zero():
                    del out[mono]
                else:
                    out[mono] = c
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __sub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        out = {}
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                mono = mono_mul(m1, m2)
                c = c1 * c2
                prev = out.get(mono)
                if prev is None:
                    out[mono] = c
                else:
                    prev = prev + c
                    if prev.is_zero():
                        del out[mono]
                    else:
                        out[mono] = prev
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            u = self.as_unit()
            if u is None:
                raise ValueError("negative power of a non-unit polynomial")
            mono, coeff = u
            return LaurentPoly.monomial(mono_inv(mono), coeff.inverse()) ** (-k)
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self):
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return sorted(names)

    def as_unit(self):
        """Return (mono, coeff) if this is a single Laurent-invertible term."""
        if len(self.terms) != 1:
            return None
        mono, coeff = next(iter(self.terms.items()))
        if any(not _is_laurent_var(name) for name, _ in mono):
            return None
        return mono, coeff

    def as_scalar(self) -> CycScalar:
        if self.is_zero():
            return CycScalar.zero()
        if list(self.terms) == [()]:
            return self.terms[()]
        raise ValueError("polynomial is not constant: %s" % self)

    def degree(self, name: str) -> int:
        """Maximum exponent of name (0 when absent)."""
        best = 0
        for mono in self.terms:
            for vn, e in mono:
                if vn == name and e > best:
                    best = e
        return best

    def valuation(self, name: str) -> int:
        """Minimum exponent of name over all terms (0 when absent from a term)."""
        best = None
        for mono in self.terms:
            e = dict(mono).get(name, 0)
            if best is None or e < best:
                best = e
        return 0 if best is None else best

    def coeff_of(self, name: str, k: int) -> "LaurentPoly":
        """Collect the coefficient of name**k."""
        out = {}
        for mono, coeff in self.terms.items():
            d = dict(mono)
            if d.pop(name, 0) == k:
                out[tuple(sorted(d.items()))] = coeff
        return LaurentPoly(out)

    def z_total_degree(self):
        """Total degree in the Laurent (z-family) variables, if homogeneous.

        Returns the common degree, or None if terms disagree.
        """
        deg = None
        for mono in self.terms:
            d = sum(e for name, e in mono if _is_laurent_var(name) and name != "t")
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return 0 if deg is None else deg

    # -- leading terms and division -----------------------------------------

    def lead(self):
        """Leading (mono, coeff) under graded lex on the sorted variables."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        varorder = self.variables()
        index = {v: i for i, v in enumerate(varorder)}

        def key(mono):
            vec = [0] * len(varorder)
            for name, e in mono:
                vec[index[name]] = e
            return (sum(vec), tuple(vec))

        mono = max(self.terms, key=key)
        return mono, self.terms[mono]

    def shift(self, mono: Mono) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {mono_mul(m, mono): c for m, c in self.terms.items()}
        return r

    def scale(self, coeff) -> "LaurentPoly":
        if not isinstance(coeff, CycScalar):
            coeff = CycScalar(coeff)
        if coeff.is_zero():
            return LaurentPoly.zero()
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {m: c * coeff for m, c in self.terms.items()}
        return r

    def div_unit(self, unit: "LaurentPoly") -> "LaurentPoly":
        u = unit.as_unit()
        if u is None:
            raise ValueError("divisor is not a unit: %s" % unit)
        mono, coeff = u
        return self.shift(mono_inv(mono)).scale(coeff.inverse())

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            factors = []
            for name, e in mono:
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            body = "*".join(factors)
            cs = str(coeff)
            if " " in cs or "+" in cs[1:] or "-" in cs[1:]:
                cs = "(%s)" % cs
            parts.append(cs if not body else ("%s*%s" % (cs, body) if cs != "1" else body))
        return " + ".join(parts)

    __repr__ = __str__


def _poly(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction, CycScalar)):
        return LaurentPoly.const(x)
    return NotImplemented


def _min_exponents(p: LaurentPoly) -> Mono:
    """Variable-wise minimum exponents over all terms (absent term = 0)."""
    low, seen = {}, {}
    for mono in p.terms:
        for name, e in mono:
            if name in low:
                seen[name] += 1
                if e < low[name]:
                    low[name] = e
            else:
                low[name], seen[name] = e, 1
    # exponents are nonzero, so a variable some term lacks has minimum min(low, 0)
    nterms = len(p.terms)
    return tuple(sorted((name, e) for name, e in low.items()
                        if e < 0 or seen[name] == nterms))


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a / b; raises NonDivisibleError(remainder) otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    u = b.as_unit()
    if u is not None:
        return a.div_unit(b)
    # shift both to nonnegative exponents, divide, shift back
    sa, sb = _min_exponents(a), _min_exponents(b)
    ah = a.shift(mono_inv(sa))
    bh = b.shift(mono_inv(sb))
    varorder = sorted(set(ah.variables()) | set(bh.variables()))
    index = {v: i for i, v in enumerate(varorder)}
    nvars = len(varorder)
    keycache = {}

    def negkey(mono):
        k = keycache.get(mono)
        if k is None:
            vec = [0] * nvars
            tot = 0
            for name, e in mono:
                vec[index[name]] = e
                tot += e
            k = (-tot, tuple(-x for x in vec))
            keycache[mono] = k
        return k

    lead_b = min(bh.terms, key=negkey)
    cb = bh.terms[lead_b]
    cb_inv = cb.inverse()
    lead_b_d = dict(lead_b)
    tail_b = [(m, c) for m, c in bh.terms.items() if m != lead_b]

    rdict = dict(ah.terms)
    heap = [(negkey(m), m) for m in rdict]
    heapq.heapify(heap)
    q = {}
    while heap:
        _, mono = heapq.heappop(heap)
        cr = rdict.pop(mono, None)
        if cr is None:
            continue
        d = dict(mono)
        quot = {}
        ok = True
        for name, e in lead_b_d.items():
            e2 = d.get(name, 0) - e
            if e2 < 0:
                ok = False
                break
            if e2:
                quot[name] = e2
        if ok:
            for name, e in d.items():
                if name not in lead_b_d and e:
                    quot[name] = e
        if not ok:
            rdict[mono] = cr
            rem = LaurentPoly.__new__(LaurentPoly)
            rem.terms = rdict
            raise NonDivisibleError(rem.shift(mono_mul(sa, mono_inv(sb))))
        qm = tuple(sorted(quot.items()))
        qc = cr * cb_inv
        q[qm] = qc
        for bm, bc in tail_b:
            m2 = mono_mul(qm, bm)
            c2 = qc * bc
            prev = rdict.get(m2)
            if prev is None:
                rdict[m2] = -c2
                heapq.heappush(heap, (negkey(m2), m2))
            else:
                prev = prev - c2
                if prev.is_zero():
                    del rdict[m2]
                else:
                    rdict[m2] = prev
    result = LaurentPoly(q).shift(mono_mul(sa, mono_inv(sb)))
    for mono in result.terms:
        for name, e in mono:
            if e < 0 and not _is_laurent_var(name):
                # divisible as Laurent series but not in the X-polynomial ring
                raise NonDivisibleError(a)
    return result


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFn:
    """num / prod(factor^mult) with monic factors and folded-in units."""

    __slots__ = ("num", "den")

    def __init__(self, num, den_factors=()):
        num = _poly(num)
        factors = []
        for item in den_factors:
            f, m = item if isinstance(item, tuple) else (item, 1)
            if m:
                factors.append((_poly(f), m))
        self.num, self.den = _normalize(num, factors)

    @classmethod
    def from_poly(cls, p) -> "RationalFn":
        r = cls.__new__(cls)
        r.num = _poly(p)
        r.den = ()
        return r

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den

    def as_laurent(self) -> LaurentPoly:
        """The underlying Laurent polynomial; raises if reduction fails."""
        r = self.reduced()
        if r.den:
            raise ValueError("rational function is not a Laurent polynomial: %s" % self)
        return r.num

    def den_poly(self) -> LaurentPoly:
        return _factor_product(self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.den and not other.den:
            return RationalFn.from_poly(self.num + other.num)
        if self.den == other.den:
            num = self.num + other.num
            r = RationalFn.__new__(RationalFn)
            r.num = num
            r.den = self.den if not num.is_zero() else ()
            return r
        lcm = _factor_merge(self.den, other.den, max)
        a = self.num * _factor_quot(lcm, self.den)
        b = other.num * _factor_quot(lcm, other.den)
        return RationalFn(a + b, lcm)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFn.__new__(RationalFn)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        other = _ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.den and not other.den:
            return RationalFn.from_poly(self.num * other.num)
        # both inputs carry irreducible own-side fractions, so only the cross
        # pairs can cancel; missed product cancellations are recovered lazily
        n1, d2 = _cancel_factors(self.num, other.den)
        n2, d1 = _cancel_factors(other.num, self.den)
        num = n1 * n2
        r = RationalFn.__new__(RationalFn)
        if num.is_zero():
            r.num, r.den = num, ()
        else:
            r.num, r.den = num, tuple(_factor_merge(d1, d2, operator.add))
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return _ratfn(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = RationalFn.from_poly(LaurentPoly.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "RationalFn":
        """Multiply by a scalar, through the numerator alone."""
        r = RationalFn.__new__(RationalFn)
        r.num = self.num.scale(c)
        r.den = self.den
        return r

    def reciprocal(self) -> "RationalFn":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero rational function")
        out = RationalFn.from_poly(self.den_poly())
        return RationalFn(out.num, [(self.num, 1)])

    def reduced(self) -> "RationalFn":
        """Re-attempt every factor cancellation (lazy products skip them)."""
        if not self.den:
            return self
        r = RationalFn.__new__(RationalFn)
        r.num, r.den = _normalize(self.num, self.den)
        return r

    def __eq__(self, other):
        other = _ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        lcm = _factor_merge(self.den, other.den, max)
        a = self.num * _factor_quot(lcm, self.den)
        return a == other.num * _factor_quot(lcm, other.den)

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare with ==")

    def __str__(self):
        if not self.den:
            return str(self.num)
        dens = []
        for f, m in self.den:
            dens.append("(%s)" % f if m == 1 else "(%s)^%d" % (f, m))
        return "(%s) / %s" % (self.num, "*".join(dens))

    __repr__ = __str__


def _ratfn(x):
    if isinstance(x, RationalFn):
        return x
    p = _poly(x)
    if p is NotImplemented:
        return NotImplemented
    return RationalFn.from_poly(p)


def _normalize(num, factors):
    """Fold units, make factors monic, cancel what exact division allows."""
    if num.is_zero():
        return num, ()
    clean = []
    for f, m in factors:
        if f.is_zero():
            raise ZeroDivisionError("zero factor in denominator")
        u = f.as_unit()
        if u is not None:
            mono, coeff = u
            inv_mono = tuple((name, -e * m) for name, e in mono)
            num = num.shift(inv_mono).scale((coeff ** m).inverse())
            continue
        lead_mono, lead_c = f.lead()
        if lead_c != CycScalar(1):
            f = f.scale(lead_c.inverse())
            num = num.scale((lead_c ** m).inverse())
        clean.append((f, m))
    num, kept = _cancel_factors(num, _factor_merge(clean, (), operator.add))
    return num, tuple(kept)


def _cancel_factors(num: LaurentPoly, factors):
    """Divide num by whatever factors allow it; returns (num, kept factors)."""
    if num.is_zero():
        return num, []
    kept = []
    for f, m in factors:
        while m > 0:
            if not _could_divide(num, f):
                break
            try:
                num = exact_div(num, f)
            except NonDivisibleError:
                break
            m -= 1
        if m:
            kept.append((f, m))
    return num, kept


def _could_divide(num: LaurentPoly, f: LaurentPoly) -> bool:
    """Cheap necessary condition for f | num: every variable span of f fits
    inside num's, and a binomial f's monomial root kills num."""
    if len(f.terms) > len(num.terms):
        return False
    spans = {}
    for mono in num.terms:
        for name, e in mono:
            lo, hi = spans.get(name, (0, 0))
            spans[name] = (min(lo, e), max(hi, e))
    fspans = {}
    for mono in f.terms:
        for name, e in mono:
            lo, hi = fspans.get(name, (0, 0))
            fspans[name] = (min(lo, e), max(hi, e))
    for name, (lo, hi) in fspans.items():
        nlo, nhi = spans.get(name, (0, 0))
        if hi - lo > nhi - nlo:
            return False
    if len(f.terms) == 2:
        # factor theorem: x -> c*m is a ring map killing f, so f | num
        # forces num to vanish under it too
        root = _binomial_root(f)
        if root is not None and not substitute(num, root).is_zero():
            return False
    return True


def _binomial_root(f: LaurentPoly):
    """A binding {x: c*m} under which the two-term f vanishes, or None.

    f = c1*m1 + c2*m2 = m2*(c1*q + c2) with q = m1/m2 = x^e * r, e = +-1,
    vanishes at x = (-c2/c1)^e * r^-e.  Only a Laurent x with an X-free r
    is bound, so the binding never gives an X a negative exponent.
    """
    (m1, c1), (m2, c2) = sorted(f.terms.items())
    q = mono_mul(m1, mono_inv(m2))
    if not all(_is_laurent_var(name) for name, _ in q):
        return None
    for name, e in q:
        if e in (1, -1):
            rest = tuple((vn, -e * ve) for vn, ve in q if vn != name)
            return {name: LaurentPoly.monomial(rest, (-c2 / c1) ** e)}
    return None


def _factor_key(f: LaurentPoly):
    return tuple(sorted((m, c.n, c.d) for m, c in f.terms.items()))


def _factor_merge(d1, d2, combine):
    """One factor list from two, equal factors' multiplicities combined.

    `combine` is max for the least common multiple and operator.add for the
    product; the result is sorted by factor key.
    """
    keyed = {}
    for f, m in chain(d1, d2):
        k = _factor_key(f)
        if k in keyed:
            keyed[k] = (f, combine(keyed[k][1], m))
        else:
            keyed[k] = (f, m)
    return [keyed[k] for k in sorted(keyed)]


def _factor_product(factors) -> LaurentPoly:
    """prod f^m over a factor list."""
    out = LaurentPoly.one()
    for f, m in factors:
        out = out * f ** m
    return out


def common_denominator(fns) -> LaurentPoly:
    """The least common multiple of the denominators of the RationalFn `fns`."""
    lcm = []
    for r in fns:
        lcm = _factor_merge(lcm, r.den, max)
    return _factor_product(lcm)


def _factor_quot(lcm, den):
    """Polynomial prod(lcm)/prod(den), den dividing lcm factorwise."""
    have = {_factor_key(f): m for f, m in den}
    out = LaurentPoly.one()
    for f, m in lcm:
        extra = m - have.get(_factor_key(f), 0)
        if extra:
            out = out * f ** extra
    return out


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def substitute(p: LaurentPoly, bindings: dict) -> LaurentPoly:
    """p with each bound variable replaced by one nonzero term c*m, all at once.

    z -> 1/z, t -> -t and the swap z1 <-> z2 are such bindings; any other
    binding raises ValueError.  A RationalFn goes through substitute_ratfn.
    """
    if isinstance(p, RationalFn):
        raise TypeError("substitute takes a polynomial; use substitute_ratfn")
    binds = {}
    x_risk = False  # only a binding that holds an X can give an X a negative exponent
    for name, val in bindings.items():
        val = _poly(val)
        if val is NotImplemented or len(val.terms) != 1:
            raise ValueError("binding for %s is not a single nonzero term: %s" % (name, val))
        (mono, coeff), = val.terms.items()
        binds[name] = (mono, None if coeff == 1 else coeff)
        x_risk = x_risk or any(not _is_laurent_var(vn) for vn, _ in mono)
    out = {}
    powers = {}  # (name, e) -> bound coefficient ** e, once per call
    for mono, coeff in p.terms.items():
        exps = {}
        for name, e in mono:
            hit = binds.get(name)
            if hit is None:
                exps[name] = exps.get(name, 0) + e
                continue
            bm, bc = hit
            for vn, be in bm:
                exps[vn] = exps.get(vn, 0) + be * e
            if bc is not None:
                bce = powers.get((name, e))
                if bce is None:
                    bce = powers[(name, e)] = bc ** e
                coeff = coeff * bce
        key = tuple(sorted(item for item in exps.items() if item[1]))
        if x_risk and any(e < 0 and not _is_laurent_var(vn) for vn, e in key):
            raise ValueError("substitution leaves a negative exponent on %s" % (key,))
        prev = out.get(key)
        if prev is not None:
            coeff = prev + coeff
            if coeff.is_zero():
                del out[key]
                continue
        out[key] = coeff
    r = LaurentPoly.__new__(LaurentPoly)
    r.terms = out
    return r


def subs_poly(p: LaurentPoly, bindings: dict) -> LaurentPoly:
    # an alias of substitute, kept because the benchmark tracer wraps the
    # substitution layer by these three names and drops a layer missing one
    return substitute(p, bindings)


def substitute_ratfn(c: "RationalFn", bindings: dict, _retried=False) -> "RationalFn":
    """Substitute through numerator and denominator factors.

    When a denominator factor dies under the substitution the fraction is
    reduced first and retried; a factor that survives reduction is a genuine
    pole and raises.
    """
    dens = []
    for f, m in c.den:
        df = substitute(f, bindings)
        if df.is_zero():
            if _retried:
                raise ZeroDivisionError("substitution hits a pole")
            r = c.reduced()
            if r.den == c.den:
                raise ZeroDivisionError("substitution hits a pole")
            return substitute_ratfn(r, bindings, _retried=True)
        dens.append((df, m))
    out = RationalFn.from_poly(substitute(c.num, bindings))
    for df, m in dens:
        for _ in range(m):
            out = out / df
    return out


# ---------------------------------------------------------------------------
# linear algebra over the function field
# ---------------------------------------------------------------------------


def gauss_jordan(aug, ncols: int) -> list:
    """Reduce a RationalFn matrix in place to reduced row echelon form.

    Pivots are sought in the first `ncols` columns only, so further columns
    ride along as right-hand sides.  Each pivot is the first row at or below
    the current one with a nonzero entry; its row is scaled to a leading 1
    and the column is cleared in every other row.  Returns the pivot columns.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(aug)) if not aug[k][c].is_zero()), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c].reciprocal()
        aug[r] = [x * inv if not x.is_zero() else x for x in aug[r]]
        for k in range(len(aug)):
            if k != r and not aug[k][c].is_zero():
                f = aug[k][c]
                aug[k] = [x - f * y if not y.is_zero() else x
                          for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# truncated series expansion in one variable
# ---------------------------------------------------------------------------


def series_expand_coeffs(f, var: str, point: str, order: int) -> dict:
    """Like series_expand but allows var-free denominator factors.

    Those factors stay in the coefficients, which are returned as RationalFn.
    """
    f = _ratfn(f)
    keep, expandable = [], []
    for fac, m in f.den:
        (keep if fac.degree(var) == 0 and fac.valuation(var) == 0 else expandable).append((fac, m))
    inner = RationalFn(f.num, expandable) if expandable else RationalFn.from_poly(f.num)
    coeffs = series_expand(inner, var, point, order)
    return {k: RationalFn(c, keep) for k, c in coeffs.items()}


def series_expand(f, var: str, point: str, order: int) -> dict:
    """Coefficients of var**k for the expansion of f at 0 or infinity.

    Returns a dict k -> LaurentPoly covering every exponent from the
    valuation up to `order` (expansion at "zero"), or from the top exponent
    down to -order (expansion at "inf").  Requires the denominator to have a
    unit extreme coefficient in var at the chosen point.
    """
    if point not in ("zero", "inf"):
        raise ValueError("expansion point must be 'zero' or 'inf'")
    f = _ratfn(f)
    if point == "inf":
        inv = {var: LaurentPoly.var(var, -1)}
        flipped = RationalFn(substitute(f.num, inv), [(substitute(p, inv), m) for p, m in f.den])
        coeffs = series_expand(flipped, var, "zero", order)
        return {-k: v for k, v in coeffs.items()}
    num, den = f.num, f.den_poly()
    if num.is_zero():
        return {}
    nv, dv = num.valuation(var), den.valuation(var)
    d0 = den.coeff_of(var, dv)
    if d0.as_unit() is None:
        raise ValueError("denominator has non-unit bottom coefficient in %s" % var)
    # c_k solves  sum_j d_{dv+j} c_{k-j} = n_{nv'+...}; recurse with shifts removed
    shift = nv - dv
    dtop = den.degree(var)
    dcoeffs = {j: den.coeff_of(var, dv + j) for j in range(dtop - dv + 1)}
    out = {}
    kmax = order - shift
    for k in range(0, max(kmax, 0) + 1):
        acc = num.coeff_of(var, nv + k)
        for j in range(1, k + 1):
            dj = dcoeffs.get(j)
            if dj is None or dj.is_zero():
                continue
            prev = out.get(k - j)
            if prev is None or prev.is_zero():
                continue
            acc = acc - dj * prev
        out[k] = acc.div_unit(d0)
    return {k + shift: v for k, v in out.items() if k + shift <= order}


# ---------------------------------------------------------------------------
# symmetric functions in z1..zn
# ---------------------------------------------------------------------------


def zvar(j: int) -> str:
    return "z%d" % j


def sym_elementary(n: int, a: int) -> LaurentPoly:
    """e_a(z1..zn)."""
    if a == 0:
        return LaurentPoly.one()
    if a < 0 or a > n:
        return LaurentPoly.zero()
    out = {}
    for subset in combinations(range(1, n + 1), a):
        mono = tuple((zvar(j), 1) for j in subset)
        out[mono] = CycScalar(1)
    return LaurentPoly(out)


def sym_power(n: int, m: int) -> LaurentPoly:
    """p_m(z1..zn) = sum z_j^m, any nonzero integer m."""
    if m == 0:
        return LaurentPoly.const(n)
    out = {((zvar(j), m),): CycScalar(1) for j in range(1, n + 1)}
    return LaurentPoly(out)


def frobenius_to_partition(alpha, beta):
    """Convert Frobenius coordinates (arms | legs) to a partition."""
    alpha, beta = list(alpha), list(beta)
    if len(alpha) != len(beta):
        raise ValueError("Frobenius data must have equal arm and leg counts")
    for seq in (alpha, beta):
        if any(x < 0 for x in seq) or any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError("Frobenius sequences must be strictly decreasing and nonnegative")
    r = len(alpha)
    lam = [alpha[i] + i + 1 for i in range(r)]
    depth = max([beta[i] + i + 1 for i in range(r)], default=0)
    for row in range(r + 1, depth + 1):
        width = sum(1 for i in range(r) if beta[i] + i + 1 >= row)
        if width:
            lam.append(width)
    return lam


def schur(n: int, partition) -> LaurentPoly:
    """Schur polynomial s_lambda(z1..zn) by the dual Jacobi-Trudi determinant.

    s_lambda = det(e_{lambda'_i - i + j}), expanded along its first row; the
    minor on the remaining rows and a column set is computed once per set.
    """
    lam = list(partition)
    while lam and lam[-1] == 0:
        lam.pop()
    if len(lam) > n:
        return LaurentPoly.zero()
    conj = [sum(1 for x in lam if x > i) for i in range(lam[0] if lam else 0)]
    size = len(conj)
    elem = [sym_elementary(n, k) for k in range(n + 1)]
    minors = {(): LaurentPoly.one()}

    def minor(cols):
        # the determinant on the last len(cols) rows and the columns cols
        got = minors.get(cols)
        if got is None:
            i = size - len(cols)
            got = LaurentPoly.zero()
            for pos, j in enumerate(cols):
                k = conj[i] - i + j
                if 0 <= k <= n:
                    term = elem[k] * minor(cols[:pos] + cols[pos + 1:])
                    got = got - term if pos % 2 else got + term
            minors[cols] = got
        return got

    return minor(tuple(range(size)))


def schur_frobenius(n: int, alpha, beta) -> LaurentPoly:
    return schur(n, frobenius_to_partition(alpha, beta))


def is_symmetric(p: LaurentPoly, n: int) -> bool:
    """True iff p is invariant under all adjacent swaps of z1..zn."""
    for j in range(1, n):
        a, b = zvar(j), zvar(j + 1)
        if substitute(p, {a: LaurentPoly.var(b), b: LaurentPoly.var(a)}) != p:
            return False
    return True
