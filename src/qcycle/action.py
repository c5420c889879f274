"""Loop-algebra generator actions at q = sqrt(-1) as truncated series.

Each half-current family acts on a wedge element through an explicit rational
kernel; the series stored here are the kernel expansions at t = 0 or
t = infinity.  A prefactor record relates stored coefficients to the abstract
generator series, and individual modes are recovered with the i^k twist
coming from the (q^{-1} t)^k convention of the generating series.

Families and their stored kernels (P of shape (n, l)):
  xminus    F_n(t) wedge P            raises l by 1
  xminus2   F2_n(t) wedge P           raises l by 2
  xplus     theta_n(t)^-1 P(..., t)   lowers l by 1
  xplus2    residue sum at z_a^{-1}   lowers l by 2
  aplus / aminus                      diagonal, explicit two-part formula
  t1        scalar i^(n-2l)
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycScalar, I, i_power
from .laurent import (
    LaurentPoly,
    RationalFn,
    series_expand,
    series_expand_coeffs,
    substitute,
    zvar,
)
from .wedge import (
    WedgeElem,
    a_slot_table,
    add_term,
    kernel_subsets,
    subset_product,
    theta,
)

X_FAMILIES = ("xminus", "xminus2", "xplus", "xplus2")
SERIES_FAMILIES = X_FAMILIES + ("aplus", "aminus")
FAMILIES = SERIES_FAMILIES + ("t1",)


class GenMode:
    """A single generator mode: family plus integer index."""

    __slots__ = ("family", "k")

    def __init__(self, family: str, k: int = 0):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % family)
        if family in ("xminus2", "xplus2") and k != 0:
            raise ValueError("only the k = 0 divided mode is exposed")
        if family == "aplus" and k < 1:
            raise ValueError("aplus modes have k >= 1")
        if family == "aminus" and k > -1:
            raise ValueError("aminus modes have k <= -1")
        if family == "t1" and k not in (1, -1):
            raise ValueError("t1 exponent must be +1 or -1")
        self.family = family
        self.k = k

    def weight_shift(self) -> int:
        return {"xminus": -2, "xminus2": -4, "xplus": 2, "xplus2": 4}.get(self.family, 0)

    def __repr__(self):
        return "GenMode(%s, %d)" % (self.family, self.k)

    def __eq__(self, other):
        return isinstance(other, GenMode) and (self.family, self.k) == (other.family, other.k)


def atilde(m: int) -> GenMode:
    if m == 0:
        raise ValueError("no zero mode in the a-series")
    return GenMode("aplus" if m > 0 else "aminus", m)


class TruncSeries:
    """Kernel-side expansion of one generator series applied to one element."""

    __slots__ = ("family", "point", "n", "l_in", "l_out", "order", "coeffs",
                 "prefactor", "mode_twist")

    def __init__(self, family, point, n, l_in, l_out, order, coeffs, prefactor, mode_twist):
        self.family = family
        self.point = point          # "zero" | "inf"
        self.n = n
        self.l_in = l_in
        self.l_out = l_out
        self.order = order
        self.coeffs = coeffs        # k -> WedgeElem, exact within |k| <= order
        self.prefactor = prefactor  # abstract series = prefactor^-1 * stored
        self.mode_twist = mode_twist

    def stored(self, k: int) -> WedgeElem:
        if abs(k) > self.order:
            raise ValueError("mode %d beyond truncation order %d" % (k, self.order))
        return self.coeffs.get(k, WedgeElem(self.n, self.l_out))


_MODE_RANGES = {
    ("xminus", "zero"): lambda k: k >= 1,
    ("xminus", "inf"): lambda k: k <= 0,
    ("xplus", "zero"): lambda k: k >= 0,
    ("xplus", "inf"): lambda k: k < 0,
    ("xminus2", "zero"): lambda k: False,
    ("xminus2", "inf"): lambda k: k == 0,
    ("xplus2", "zero"): lambda k: k == 0,
    ("xplus2", "inf"): lambda k: False,
    ("aplus", "zero"): lambda k: k >= 1,
    ("aminus", "inf"): lambda k: k <= -1,
}


def mode_extract(series: TruncSeries, k: int) -> WedgeElem:
    """Recover the abstract mode x_k (or a-mode) from a stored series."""
    in_range = _MODE_RANGES.get((series.family, series.point))
    if in_range is None or not in_range(k):
        raise ValueError(
            "mode %d is not extractable from the %s series at %s"
            % (k, series.family, series.point)
        )
    stored = series.stored(k)
    scale = series.prefactor.inverse()
    if series.mode_twist:
        scale = scale * i_power(k)
    return stored.scaled(scale)


# ---------------------------------------------------------------------------
# kernel caches
# ---------------------------------------------------------------------------

_LOWER_CACHE = {}


def _lowering_kernel_series(n: int, square: bool, point: str, order: int):
    """Expansion of F_n or F2_n as a list of wedge elements per power of t."""
    key = (n, square, point, order)
    cached = _LOWER_CACHE.get(key)
    if cached is not None:
        return cached
    l_ker = 2 if square else 1
    acc = kernel_subsets(n, l_ker)
    out = {}
    for subset, coeff in acc.items():
        for k, c in series_expand(coeff, "t", point, order).items():
            if abs(k) > order:
                continue
            elem = out.setdefault(k, WedgeElem(n, l_ker))
            if not c.is_zero():
                elem.terms[subset] = RationalFn.from_poly(c)
    _LOWER_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def act_series(family: str, P: WedgeElem, order: int, point: str | None = None,
               expect_polynomial: bool = False) -> TruncSeries:
    """Apply one generator series to P, truncated at |t-exponent| <= order.

    `point` defaults to the natural side: the positive-mode series expand at
    zero, the nonpositive ones at infinity.  With expect_polynomial=True the
    xplus2 coefficients must reduce to Laurent polynomials (guaranteed for
    weakly minimal input) and failure raises.  The work is done at order at
    least 3, which the kernel caches share, and trimmed to the request.
    """
    n, l = P.n, P.l
    if family not in SERIES_FAMILIES:
        raise ValueError("act_series expects a series family, not %r" % family)
    if point is None:
        point = {"xminus": "zero", "xminus2": "zero", "xplus": "zero",
                 "xplus2": "zero", "aplus": "zero", "aminus": "inf"}[family]

    requested, order = order, max(order, 3)

    if family in ("xminus", "xminus2"):
        square = family == "xminus2"
        l_out = l + (2 if square else 1)
        kern = _lowering_kernel_series(n, square, point, order)
        coeffs = _clean({k: elem.wedge(P) for k, elem in kern.items()})
    elif family == "xplus":
        l_out = max(l - 1, 0)
        coeffs = {}
        if l:
            restricted = P.specialize_slot(l, LaurentPoly.var("t"))
            inv_theta = RationalFn(LaurentPoly.one(), [theta(n)])
            restricted = restricted.map_coeffs(lambda c: c * inv_theta)
            coeffs = _expand_elem(restricted, point, order)
    elif family == "xplus2":
        l_out = max(l - 2, 0)
        coeffs = {}
        if l > 1:
            coeffs = _combine_per_basis(family, P, point, order, _residue_pair_series)
            if point == "inf":
                top = coeffs.get(-1)
                if top is not None and not top.is_zero():
                    raise ArithmeticError("residue kernel must vanish at t^-1")
            if expect_polynomial:
                for k, elem in coeffs.items():
                    if elem.coeffs_as_laurent() is None:
                        raise ArithmeticError(
                            "divided raising series left the Laurent lattice at t^%d "
                            "on weakly minimal input" % k)
    else:  # aplus, aminus
        l_out = l
        coeffs = _combine_per_basis(family, P, point, order, _a_series_basis)

    coeffs = {k: elem for k, elem in coeffs.items() if abs(k) <= requested}
    for k, elem in coeffs.items():
        if elem.l != l_out:
            raise ArithmeticError("%s coefficient at t^%d has degree %d, expected %d"
                                  % (family, k, elem.l, l_out))
    return TruncSeries(family, point, n, l, l_out, requested, coeffs,
                       _prefactor(family, point, n), family not in ("aplus", "aminus"))


def _clean(coeffs):
    return {k: v for k, v in coeffs.items() if not v.is_zero()}


_BASIS_SERIES_CACHE = {}


def _combine_per_basis(family: str, P: WedgeElem, point: str, order: int, worker) -> dict:
    """Evaluate a field-linear series on cached basis elements and recombine."""
    total = {}
    for subset, coeff in P.terms.items():
        key = (family, P.n, P.l, subset, point, order)
        part = _BASIS_SERIES_CACHE.get(key)
        if part is None:
            basis_elem = WedgeElem.monomial_wedge(P.n, subset)
            part = worker(family, basis_elem, point, order)
            _BASIS_SERIES_CACHE[key] = part
        for k, elem in part.items():
            add_term(total, k, elem.scaled(coeff))
    return total


def _residue_pair_series(family: str, P: WedgeElem, point: str, order: int) -> dict:
    n, l = P.n, P.l
    total = None
    half = CycScalar(Fraction(1, 2))
    for a in range(1, n + 1):
        za_inv = LaurentPoly.var(zvar(a), -1)
        Pa = P.specialize_slot(l, -za_inv).specialize_slot(l - 1, za_inv)
        den = LaurentPoly.one()
        for b in range(1, n + 1):
            if b != a:
                den = den * (LaurentPoly.one()
                             - LaurentPoly.var(zvar(b), 2) * LaurentPoly.var(zvar(a), -2))
        scale = RationalFn(LaurentPoly.const(half),
                           [den, LaurentPoly.one() - LaurentPoly.var(zvar(a)) * LaurentPoly.var("t")])
        Pa = Pa.map_coeffs(lambda c: c * scale)
        total = Pa if total is None else total + Pa
    return _expand_elem(total, point, order)


def _expand_elem(P: WedgeElem, point: str, order: int) -> dict:
    """Expand each t-rational coefficient; regroup as wedge elements per power."""
    out = {}
    for s, c in P.terms.items():
        for k, val in series_expand_coeffs(c, "t", point, order).items():
            if abs(k) <= order and not val.is_zero():
                # each (subset, power) pair occurs once, so nothing accumulates
                out.setdefault(k, WedgeElem(P.n, P.l)).terms[s] = val
    return out


def _prefactor(family: str, point: str, n: int) -> CycScalar:
    if family == "xminus":
        return CycScalar.one() if point == "zero" else -CycScalar.one()
    if family == "xminus2":
        return CycScalar(-4) * I
    if family == "xplus":
        c = i_power(1 - n)
        return c if point == "zero" else -c
    if family == "xplus2":
        return I * CycScalar((-1) ** (n + 1))
    return CycScalar.one()


def _a_series_basis(family: str, P: WedgeElem, point: str, order: int) -> dict:
    """Diagonal series on one basis element, assembled in two halves.

    The slot operator acts as a derivation of the wedge product, one slot at
    a time through `a_slot_table`.  The half with denominator theta(t)
    carries the z-sum and the direct slot terms; the t -> -t images sit over
    theta(-t).  Keeping the halves apart until after the expansion avoids the
    large cross products.
    """
    n = P.n
    t = LaurentPoly.var("t")
    one = LaurentPoly.one()
    th_t = theta(n)
    flip = {"t": -t}
    th_m = substitute(th_t, flip)
    table = a_slot_table(n, family)

    diag_num = LaurentPoly.zero()
    for j in range(1, n + 1):
        part = LaurentPoly.var(zvar(j)) * t if family == "aplus" else -one
        for j2 in range(1, n + 1):
            if j2 != j:
                part = part * (one - LaurentPoly.var(zvar(j2)) * t)
        diag_num = diag_num + part

    slot_terms = {}
    for subset, coeff in P.terms.items():
        for a, s in enumerate(subset):
            head = subset_product({subset[:a]: coeff}, table[s])
            for key, c in subset_product(head, {subset[a + 1:]: one}).items():
                add_term(slot_terms, key, c)
    plus = dict(slot_terms)
    for subset, coeff in P.terms.items():
        add_term(plus, subset, coeff * diag_num)
    minus = {key: RationalFn(substitute(c.num, flip), c.den) for key, c in slot_terms.items()}

    per_power = {}
    for half, th in ((plus, th_t), (minus, th_m)):
        for key, c in half.items():
            part = RationalFn(c.num, list(c.den) + [(th, 1)])
            for k, val in series_expand_coeffs(part, "t", point, order).items():
                if abs(k) <= order:
                    add_term(per_power.setdefault(k, {}), key, val)
    coeffs = {k: P._like(terms) for k, terms in per_power.items() if terms}
    if not all(k >= 1 if family == "aplus" else k <= -1 for k in coeffs):
        raise ArithmeticError("%s series has a mode on the wrong side of t^0" % family)
    return coeffs


# ---------------------------------------------------------------------------
# single modes and words
# ---------------------------------------------------------------------------


def apply_mode(g: GenMode, P: WedgeElem) -> WedgeElem:
    """x_k^, a-mode, divided k = 0 mode, or t1 scalar applied to P."""
    if g.family == "t1":
        return P.scaled(i_power(g.k * P.weight()))
    # the one expansion point whose stored series holds mode k
    point = next(pt for (fam, pt), in_range in _MODE_RANGES.items()
                 if fam == g.family and in_range(g.k))
    return mode_extract(act_series(g.family, P, abs(g.k), point), g.k)


def apply_word(word, P: WedgeElem) -> WedgeElem:
    """Apply modes right to left, like operator composition."""
    out = P
    for g in reversed(list(word)):
        out = apply_mode(g, out)
    return out


def xminus(k: int) -> GenMode:
    return GenMode("xminus", k)


def xplus(k: int) -> GenMode:
    return GenMode("xplus", k)


# ---------------------------------------------------------------------------
# relation spot checks
# ---------------------------------------------------------------------------


def relation_spotcheck(relation: str, samples) -> dict:
    """Exact pass/fail report for a selected defining relation.

    relation ids: "t1-conjugation", "a-commutativity", "a-x-bracket",
    "ex-bracket-diagonal".  `samples` is an iterable of WedgeElem (with small
    mode indices chosen internally).
    """
    failures = []
    checked = 0
    for P in samples:
        if relation == "t1-conjugation":
            for k in (-1, 0, 1, 2):
                lhs = apply_word([GenMode("t1", 1), xminus(k), GenMode("t1", -1)], P)
                rhs = -apply_mode(xminus(k), P)
                checked += 1
                if lhs != rhs:
                    failures.append((relation, k))
        elif relation == "a-commutativity":
            for m1, m2 in ((2, 4), (1, 2), (-2, 2)):
                lhs = apply_word([atilde(m1), atilde(m2)], P)
                rhs = apply_word([atilde(m2), atilde(m1)], P)
                checked += 1
                if lhs != rhs:
                    failures.append((relation, (m1, m2)))
        elif relation == "a-x-bracket":
            # [a_m, x^-_k] = -(i^m + (-i)^m) x^-_{k+m}
            for m, k in ((2, 0), (2, 1), (1, 1), (-2, 1)):
                lhs = apply_word([atilde(m), xminus(k)], P) - apply_word([xminus(k), atilde(m)], P)
                coeff = i_power(m) + i_power(-m)
                rhs = apply_mode(xminus(k + m), P).scaled(-coeff)
                checked += 1
                if lhs != rhs:
                    failures.append((relation, (m, k)))
        elif relation == "ex-bracket-diagonal":
            m = P.weight()
            lhs = apply_word([xplus(0), xminus(0)], P) - apply_word([xminus(0), xplus(0)], P)
            scalar = (i_power(m) - i_power(-m)) / (CycScalar(2) * I)
            rhs = P.scaled(scalar)
            checked += 1
            if lhs != rhs:
                failures.append((relation, m))
        else:
            raise ValueError("unknown relation id %r" % relation)
    return {"relation": relation, "checked": checked, "failures": failures,
            "passed": not failures}
