from itertools import permutations

from qcycle.laurent import LaurentPoly, RationalFn, exact_div, zvar
from qcycle.sampling import random_laurent, random_symmetric, random_wedge  # noqa: F401
from qcycle.wedge import WedgeElem, add_term

# Expanded-polynomial references.  The engine never expands a wedge element
# into a polynomial in X1..Xl; these helpers do, so that tests can compare
# its subset-basis operations against the plain polynomial computation.


def Xvar(a: int) -> str:
    """The name of slot variable a."""
    return "X%d" % a


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def monomial_det(names, powers) -> LaurentPoly:
    """det(names[b] ** powers[a]) expanded over permutations."""
    out = {}
    for perm in permutations(range(len(powers))):
        mono = tuple(sorted((names[perm[a]], e) for a, e in enumerate(powers) if e))
        out[mono] = out.get(mono, 0) + _perm_sign(perm)
    return LaurentPoly(out)


def bialternant_schur(n: int, partition) -> LaurentPoly:
    """s_lambda(z1..zn) as det(z_j^(lambda_i + n - i)) divided by the n(n-1)/2
    binomials z_i - z_j."""
    lam = [x for x in partition if x]
    if len(lam) > n:
        return LaurentPoly.zero()
    lam = lam + [0] * (n - len(lam))
    out = monomial_det([zvar(i) for i in range(1, n + 1)], [lam[j] + n - 1 - j for j in range(n)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = exact_div(out, LaurentPoly.var(zvar(i)) - LaurentPoly.var(zvar(j)))
    return out


def to_poly(P: WedgeElem) -> RationalFn:
    """The skew-symmetric polynomial in X1..Xl that P stands for."""
    total = RationalFn.from_poly(LaurentPoly.zero())
    for subset, coeff in P.terms.items():
        det = monomial_det([Xvar(b) for b in range(1, len(subset) + 1)], subset)
        total = total + coeff * RationalFn.from_poly(det)
    return total


def skew_collect(poly, n: int, l: int) -> WedgeElem:
    """Full skew-symmetrization of an arbitrary polynomial in X1..Xl.

    Each monomial with distinct slot exponents contributes the sign of its
    sorting permutation times the corresponding basis determinant; repeated
    exponents die.  For f already skew this returns l! times f.
    """
    poly = poly if isinstance(poly, RationalFn) else RationalFn.from_poly(poly)
    num, den = poly.num, poly.den
    acc = {}
    for mono, coeff in num.terms.items():
        exps = [0] * l
        rest = {}
        for name, e in mono:
            if name.startswith("X") and name[1:].isdigit() and 1 <= int(name[1:]) <= l:
                exps[int(name[1:]) - 1] = e
            else:
                rest[name] = e
        if len(set(exps)) != l:
            continue
        sign = _perm_sign(sorted(range(l), key=lambda a: exps[a]))
        key = tuple(sorted(exps))
        if key and key[-1] > n - 1:
            raise ValueError("slot degree %d exceeds bound %d" % (key[-1], n - 1))
        if key and key[0] < 0:
            raise ValueError("negative slot exponent")
        restm = tuple(sorted(rest.items()))
        add_term(acc, key, LaurentPoly.monomial(restm, coeff if sign > 0 else -coeff))
    return WedgeElem(n, l, {key: RationalFn(c, den) for key, c in acc.items()})


def substitute_rational(p, bindings: dict) -> RationalFn:
    """Reference substitution: any polynomial or RationalFn binding, term by term.

    Each variable of a term is replaced by its binding (all bindings at once)
    and the term is built as a product of powers of RationalFn; a RationalFn
    p goes through its numerator and each denominator factor.
    """
    if isinstance(p, RationalFn):
        out = substitute_rational(p.num, bindings)
        for f, m in p.den:
            out = out / substitute_rational(f, bindings) ** m
        return out
    total = RationalFn.from_poly(LaurentPoly.zero())
    for mono, coeff in p.terms.items():
        term = RationalFn.from_poly(LaurentPoly.const(coeff))
        for name, e in mono:
            val = bindings.get(name, LaurentPoly.var(name))
            if not isinstance(val, RationalFn):
                val = RationalFn.from_poly(val)
            term = term * val ** e
        total = total + term
    return total
