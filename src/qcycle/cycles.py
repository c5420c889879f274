"""Links, minimality, towers of deformed cycles, and the worked examples.

A deformed cycle of shape (n, l) is a wedge element whose coefficients are
symmetric Laurent polynomials.  Two cycles of shapes (n, l) and (n+2, l+1)
form a link when specializing the last slot to 1/z and the last two z
variables to z, -z in the larger one reproduces the smaller one times
z^(-n-1) prod_a (1 - X_a^2 z^2).  A tower with every consecutive pair linked
is closed under the whole generator action, componentwise; this module
builds the distinguished towers and decides links exactly through the
residual of that identity.
"""

from __future__ import annotations

from .cyclotomic import CycScalar
from .laurent import LaurentPoly, substitute_ratfn, zvar
from .wedge import (
    WedgeElem,
    deg_infcycle,
    multiply_slot_square_product,
    proportionality_scalar,
)
from .action import GenMode, apply_mode


class LinkPair:
    __slots__ = ("low", "high", "verified")

    def __init__(self, low: WedgeElem, high: WedgeElem, verified: bool):
        self.low = low
        self.high = high
        self.verified = verified


class LinkViolation(Exception):
    def __init__(self, residual):
        super().__init__("link condition fails")
        self.residual = residual


def _subst_z_tail(P: WedgeElem) -> WedgeElem:
    """Send the last two z variables of P to z, -z."""
    z = LaurentPoly.var("z")
    bindings = {zvar(P.n - 1): z, zvar(P.n): -z}
    return P.map_coeffs(lambda c: substitute_ratfn(c, bindings))


def link_residual(P_low: WedgeElem, P_high: WedgeElem) -> WedgeElem:
    """LHS minus RHS of the link identity, as an (n+2, l)-shaped element."""
    n, l = P_low.n, P_low.l
    if (P_high.n, P_high.l) != (n + 2, l + 1):
        raise ValueError("link shapes must be (n, l) and (n+2, l+1)")
    z = LaurentPoly.var("z")
    zinv = LaurentPoly.var("z", -1)
    lhs = _subst_z_tail(P_high.specialize_slot(l + 1, zinv))
    # rhs: z^(-n-1) prod_a (1 - X_a^2 z^2) P_low, rebuilt on the larger basis
    rhs = multiply_slot_square_product(P_low, z * z)
    rhs = rhs.scaled(LaurentPoly.var("z", -n - 1))
    return lhs - rhs


def link_check(P_low: WedgeElem, P_high: WedgeElem) -> LinkPair:
    res = link_residual(P_low, P_high)
    if not res.is_zero():
        raise LinkViolation(res)
    return LinkPair(P_low, P_high, True)


# ---------------------------------------------------------------------------
# minimality
# ---------------------------------------------------------------------------


def is_minimal(P: WedgeElem):
    """Vanishing under the one-slot specialization; (ok, witness)."""
    if P.l < 1 or P.n < 2:
        return True, None
    zinv = LaurentPoly.var("z", -1)
    res = _subst_z_tail(P.specialize_slot(P.l, zinv))
    return res.is_zero(), (None if res.is_zero() else res)


def is_weakly_minimal(P: WedgeElem):
    """Vanishing under the two-slot specialization; (ok, witness)."""
    if P.l < 2 or P.n < 2:
        return True, None
    zinv = LaurentPoly.var("z", -1)
    res = _subst_z_tail(
        P.specialize_slot(P.l, -zinv).specialize_slot(P.l - 1, zinv)
    )
    return res.is_zero(), (None if res.is_zero() else res)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


class InfCycle:
    """A linked tower of deformed cycles on a finite window.

    Components are stored for every n of the right parity from |weight| up to
    the window top; entries may be zero (minimal towers).  Construction
    verifies deformed-cycle membership and every consecutive link; the degree
    (n^2/4 + deg0) must agree across nonzero homogeneous components.
    """

    __slots__ = ("weight", "window_top", "components")

    def __init__(self, weight: int, components: dict, verify: bool = True):
        self.weight = weight
        self.components = dict(components)
        if not self.components:
            # the window closed over entirely: a zero tower with no data
            self.window_top = None
            return
        self.window_top = max(self.components)
        lo = min(self.components)
        if lo != abs(weight):
            raise ValueError("tower window must start at |weight|")
        for n, P in self.components.items():
            if (n - weight) % 2 or P.n != n or P.l != (n - weight) // 2:
                raise ValueError("component at n=%d has the wrong shape" % n)
        if verify:
            self.verify()

    def verify(self):
        for n, P in self.components.items():
            if not P.is_deformed_cycle():
                raise ValueError("component at n=%d is not a deformed cycle" % n)
        for n in self.indices()[:-1]:
            link_check(self.components[n], self.components[n + 2])
        degs = set()
        for n, P in self.components.items():
            if not P.is_zero():
                degs.add(deg_infcycle(P))
        if len(degs) > 1:
            raise ValueError("tower degree is not constant: %s" % sorted(degs))
        return True

    def indices(self):
        return sorted(self.components)

    def degree(self):
        for n in self.indices():
            P = self.components[n]
            if not P.is_zero():
                return deg_infcycle(P)
        return None

    def __eq__(self, other):
        if not isinstance(other, InfCycle):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.indices() == other.indices()
            and all(self.components[n] == other.components[n] for n in self.indices())
        )

    def __hash__(self):
        raise TypeError("InfCycle is unhashable")

    def scaled(self, c) -> "InfCycle":
        return InfCycle(
            self.weight, {n: P.scaled(c) for n, P in self.components.items()},
            verify=False,
        )

    def __sub__(self, other: "InfCycle") -> "InfCycle":
        if self.weight != other.weight or self.indices() != other.indices():
            raise ValueError("tower shapes differ")
        return InfCycle(
            self.weight,
            {n: self.components[n] - other.components[n] for n in self.indices()},
            verify=False,
        )

    def is_zero(self):
        return all(P.is_zero() for P in self.components.values())


def distinguished_cycle(m: int, n_max: int) -> InfCycle:
    """The weight-m tower: the unit, then the odd ladder above the weight."""
    if m < 0:
        raise ValueError("distinguished towers need nonnegative weight")
    comps = {m: WedgeElem.unit(m)}
    n = m + 2
    while n <= n_max:
        l = (n - m) // 2
        subset = tuple(m + 2 * j - 1 for j in range(1, l + 1))
        comps[n] = WedgeElem.monomial_wedge(n, subset)
        n += 2
    return InfCycle(m, comps)


def act_on_cycle(mode, cyc: InfCycle, verify: bool = True) -> InfCycle:
    """Componentwise mode action; links are re-verified on the result."""
    modes = mode if isinstance(mode, (list, tuple)) else [mode]
    out = cyc
    for g in reversed(list(modes)):
        out = _act_single(g, out, verify)
    return out


def map_tower(cyc: InfCycle, weight_shift: int, fn, verify: bool = True) -> InfCycle:
    """Componentwise application of any weight-homogeneous operator."""
    m2 = cyc.weight + weight_shift
    if cyc.window_top is None:
        return InfCycle(m2, {}, verify=False)
    comps = {}
    for n in range(abs(m2), cyc.window_top + 1, 2):
        l_out = (n - m2) // 2
        src = cyc.components.get(n)
        if src is None:
            # below the source window the components are structurally zero
            comps[n] = WedgeElem(n, l_out)
        else:
            comps[n] = fn(src)
            if comps[n].l != l_out and not comps[n].is_zero():
                raise ValueError("operator gave degree %d at n=%d, expected %d"
                                 % (comps[n].l, n, l_out))
    return InfCycle(m2, comps, verify=verify)


def _act_single(g: GenMode, cyc: InfCycle, verify: bool) -> InfCycle:
    return map_tower(cyc, g.weight_shift(), lambda P: apply_mode(g, P), verify)


# ---------------------------------------------------------------------------
# worked towers
# ---------------------------------------------------------------------------


def example_towers(name: str, n_max: int):
    """Literal closed-form towers; returns (weight, components dict).

    The energy-momentum sequences are deliberately not linked towers, so the
    raw component maps are returned instead of InfCycle objects.
    """
    comps = {}
    if name == "identity":
        t = distinguished_cycle(0, n_max)
        return 0, dict(t.components)
    if name in ("jplus", "jminus"):
        weight = 2
        for n in range(2, n_max + 1, 2):
            l = (n - 2) // 2
            if name == "jminus":
                subset = tuple(2 * j + 1 for j in range(1, l + 1))
                comps[n] = WedgeElem.monomial_wedge(n, subset)
            else:
                subset = tuple(2 * j - 1 for j in range(1, l + 1))
                coeff = LaurentPoly.one()
                for j in range(1, n + 1):
                    coeff = coeff * LaurentPoly.var(zvar(j), -1)
                if l % 2:
                    coeff = -coeff
                comps[n] = WedgeElem(n, l, {subset: coeff})
        return weight, comps
    if name in ("Tz", "Tzbar"):
        weight = 0
        comps[0] = WedgeElem.unit(0).scaled(LaurentPoly.zero())
        for n in range(2, n_max + 1, 2):
            l = n // 2
            if name == "Tz":
                subset = (0,) + tuple(2 * j + 1 for j in range(1, l))
                coeff = LaurentPoly.zero()
                for j in range(1, n + 1):
                    coeff = coeff + LaurentPoly.var(zvar(j))
            else:
                if l == 1:
                    subset = (0,)
                else:
                    subset = (0, 1) + tuple(2 * j + 1 for j in range(1, l - 1))
                coeff = LaurentPoly.zero()
                for j in range(1, n + 1):
                    coeff = coeff + LaurentPoly.var(zvar(j), -1)
                prod = LaurentPoly.one()
                for j in range(1, n + 1):
                    prod = prod * LaurentPoly.var(zvar(j), -1)
                coeff = coeff * prod
                if (l - 1) % 2:
                    coeff = -coeff
            comps[n] = WedgeElem(n, l, {subset: coeff})
        return weight, comps
    raise ValueError("unknown tower %r" % name)


# ---------------------------------------------------------------------------
# the lowering-word towers with Schur-polynomial components
# ---------------------------------------------------------------------------


def _w_even_block(n_half: int, r: int, nvars: int) -> WedgeElem:
    """Sum of Schur coefficients on even-exponent wedges, with its sign."""
    from itertools import combinations
    from .laurent import schur_frobenius

    sign_exp = (r * (r - 1)) // 2
    alpha = [2 * (r - 1 - i) for i in range(r)]
    out = WedgeElem(nvars, r)
    for combo in combinations(range(n_half), r):
        beta = [2 * a for a in reversed(combo)]
        coeff = schur_frobenius(nvars, alpha, beta)
        subset = tuple(2 * a for a in combo)
        if sign_exp % 2:
            coeff = -coeff
        out = out + WedgeElem(nvars, r, {subset: coeff})
    return out


def schur_cycle(k: int, l_max: int) -> InfCycle:
    """Closed form of the k-fold lowering of the weight-zero tower."""
    comps = {}
    for l in range(0, l_max + 1):
        n = 2 * k + 2 * l
        w = _w_even_block(k + l, k, n)
        odd = WedgeElem.monomial_wedge(n, tuple(2 * j - 1 for j in range(1, k + l + 1)))
        comps[n] = w.wedge(odd).scaled(CycScalar.zeta(k * k))
    return InfCycle(-2 * k, comps)


def verify_schur_formula(k: int, l_max: int = 2) -> dict:
    """Compare the lowering word on the weight-zero tower with the closed form.

    Reports the proportionality scalar per component; passing means one
    common scalar works everywhere.
    """
    from .action import xminus

    n_top = 2 * k + 2 * l_max
    base = distinguished_cycle(0, n_top)
    word = [xminus(j) for j in range(2 * k - 1, 0, -2)]
    acted = act_on_cycle(word, base, verify=False)
    closed = schur_cycle(k, l_max)
    scalars = {}
    for n in closed.indices():
        status, c = proportionality_scalar(acted.components[n], closed.components[n])
        if status == "no":
            return {"k": k, "passed": False, "component": n, "scalars": scalars}
        scalars[n] = None if c is None else str(c)
    values = {v for v in scalars.values() if v is not None}
    return {
        "k": k,
        "passed": len(values) == 1,
        "scalar": values.pop() if len(values) == 1 else None,
        "scalars": scalars,
    }
