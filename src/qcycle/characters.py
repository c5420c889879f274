"""Exact bivariate q, z series: level-one characters, their polynomial
finitizations, and the product identity for the truncated tower spaces.

A series is a LaurentPoly in two Laurent variables: q4, which stands for
q^(1/4), so quarter-integer q-exponents become integer powers of q4, and z.
Its coefficients are rational CycScalars.  Each verification routine states
the window on which its construction is exact and compares there.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycScalar
from .laurent import LaurentPoly, substitute


# q -> 1/q, the inverted-q grading of the tower characters
_INVERT_Q = {"q4": LaurentPoly.var("q4", -1)}


def _mono(q4: int, z: int) -> tuple:
    return tuple((name, e) for name, e in (("q4", q4), ("z", z)) if e)


def _exps(mono) -> tuple:
    d = dict(mono)
    return d.get("q4", 0), d.get("z", 0)


def qz(q4: int, z: int = 0) -> LaurentPoly:
    """The monomial q^(q4/4) z^z."""
    return LaurentPoly.monomial(_mono(q4, z))


def coeff(s: LaurentPoly, q4: int, z: int) -> CycScalar:
    """The coefficient of q^(q4/4) z^z in s."""
    return s.terms.get(_mono(q4, z), CycScalar.zero())


def window(s: LaurentPoly, q4_lo=None, q4_hi=None, zmax=None) -> LaurentPoly:
    """The terms of s with q4_lo <= 4*(q-exponent) <= q4_hi and |z-exponent| <= zmax."""
    out = {}
    for mono, c in s.terms.items():
        q4, z = _exps(mono)
        if ((q4_lo is None or q4 >= q4_lo) and (q4_hi is None or q4 <= q4_hi)
                and (zmax is None or abs(z) <= zmax)):
            out[mono] = c
    return LaurentPoly(out)


def table(s: LaurentPoly) -> list:
    """Rows (q-exponent string, z, coefficient string), sorted by (4q, z)."""
    rows = sorted((_exps(mono), str(c)) for mono, c in s.terms.items())
    return [(str(Fraction(q4, 4)), z, c) for (q4, z), c in rows]


# ---------------------------------------------------------------------------
# q-binomials and Pochhammer pieces
# ---------------------------------------------------------------------------


def gauss_binom(m: int, k: int) -> LaurentPoly:
    """The q-binomial coefficient; zero outside 0 <= k <= m."""
    if not 0 <= k <= m:
        return LaurentPoly()
    # recurrence [m k] = [m-1 k-1] + q^k [m-1 k] with integer coefficients
    row = {0: {0: 1}}
    for mm in range(1, m + 1):
        new = {0: {0: 1}}
        for kk in range(1, mm + 1):
            left = row.get(kk - 1, {})
            right = row.get(kk, {})
            d = dict(left)
            for e, c in right.items():
                d[e + kk] = d.get(e + kk, 0) + c
            new[kk] = d
        row = new
    return LaurentPoly({_mono(4 * e, 0): c for e, c in row.get(k, {}).items()})


def qpoch_finite(n: int) -> LaurentPoly:
    """(q)_n = prod_{j=1..n} (1 - q^j)."""
    out = LaurentPoly.one()
    for j in range(1, n + 1):
        out = out * (1 - qz(4 * j))
    return out


def inv_qpoch_finite(n: int, qmax: int) -> LaurentPoly:
    """1/(q)_n, exact through q^qmax."""
    out = LaurentPoly.one()
    for j in range(1, n + 1):
        geom = LaurentPoly({_mono(4 * j * k, 0): 1 for k in range(qmax // j + 1)})
        out = window(out * geom, q4_hi=4 * qmax)
    return out


def inv_qpoch_inf(qmax: int) -> LaurentPoly:
    """1/(q)_infinity (the partition series), exact through q^qmax."""
    return inv_qpoch_finite(qmax, qmax)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def level1_char(i: int, qmax: int, zmax: int) -> LaurentPoly:
    """Level-one character: (q)_inf^-1 sum over m = i mod 2 of q^(m^2/4) z^m.

    Exact on q-exponent <= qmax, |z-exponent| <= zmax.
    """
    if i not in (0, 1):
        raise ValueError("sector must be 0 or 1")
    out = LaurentPoly()
    inv = inv_qpoch_inf(qmax)
    bound = zmax + 2 * math.isqrt(qmax) + 4
    for m in range(-bound, bound + 1):
        if (m - i) % 2:
            continue
        if m * m > 4 * qmax and abs(m) > zmax:
            continue
        out = out + inv * qz(m * m, m)
    return window(out, q4_hi=4 * qmax, zmax=zmax)


def demazure_char(i: int, L2: int) -> LaurentPoly:
    """Polynomial finitization: sum of binom(2L, L + m/2) q^(m^2/4) z^m.

    L2 is twice the level cutoff; the sector parity must match it.
    """
    if L2 < 0 or i not in (0, 1) or (i - L2) % 2:
        raise ValueError("sector parity must match the cutoff parity")
    out = LaurentPoly()
    for mm in range(-L2, L2 + 1):
        if (mm - i) % 2:
            continue
        # L + m/2 = (L2 + mm)/2
        bot = (L2 + mm) // 2
        out = out + gauss_binom(L2, bot) * qz(mm * mm, mm)
    return out


def stabilization_report(i: int) -> dict:
    """Do the finitizations converge to the full character coefficientwise?

    Checks both readings: with and without the partition-series factor, on
    q-levels up to 3 and z-degrees up to 2.
    """
    q_levels, z_window = 3, 2
    full = level1_char(i, q_levels + z_window * z_window, z_window)
    L2 = 2 * (q_levels + z_window + 3) + (i % 2)
    fin = demazure_char(i, L2)
    keys = [_exps(mono) for mono in window(full, q4_hi=4 * q_levels, zmax=z_window).terms]
    with_factor = all(coeff(fin, *key) == coeff(full, *key) for key in keys)
    bare = sum((qz(m * m, m) for m in range(-z_window, z_window + 1) if (m - i) % 2 == 0),
               LaurentPoly())
    without_factor = all(coeff(fin, *key) == coeff(bare, *key) for key in keys)
    return {
        "sector": i,
        "limit_includes_partition_factor": with_factor,
        "limit_matches_bare_sum": without_factor,
    }


# ---------------------------------------------------------------------------
# the summation identity
# ---------------------------------------------------------------------------


def zpoch_tail(l: int, qmax: int, zmax: int) -> LaurentPoly:
    """(q^(l+1) z)_infinity, exact for q-exponent <= qmax and z-degree <= zmax."""
    out = LaurentPoly.one()
    for j in range(l + 1, qmax + 1):
        out = window(out * (1 - qz(4 * j, 1)), q4_hi=4 * qmax, zmax=zmax)
    return out


def sum_identity_report(L2: int, qmax: int = 8, zmax: int = 6) -> dict:
    """Telescoping check of the two z-expansions of the truncation identity.

    Left: sum over l of (q^(l+1) z)_inf / (q)_l * q^(l(l-2L)) z^l;
    right: sum over s of the inverse-q binomial times z^s.  Exact equality on
    the window q-exponent in [-L^2 - qmax, qmax], z-degree <= zmax.
    """
    q4_lo = -(L2 * L2) - 4 * qmax
    lhs = LaurentPoly()
    for l in range(0, zmax + 1):
        shift4 = 4 * l * l - 2 * l * L2 * 2  # 4 * l(l - 2L)
        head = zpoch_tail(l, qmax + L2 * L2, zmax - l)
        lhs = lhs + head * inv_qpoch_finite(l, qmax + L2 * L2) * qz(shift4, l)
    rhs = LaurentPoly()
    for s in range(0, zmax + 1):
        rhs = rhs + substitute(gauss_binom(L2, s), _INVERT_Q) * qz(0, s)
    box = dict(q4_lo=q4_lo, q4_hi=4 * qmax, zmax=zmax)
    left = window(lhs, **box)
    right = window(rhs, **box)
    return {
        "L2": L2,
        "window": box,
        "passed": left == right,
        "lhs_terms": len(left.terms),
        "rhs_terms": len(right.terms),
    }


# ---------------------------------------------------------------------------
# per-length characters of the minimal spaces
# ---------------------------------------------------------------------------


def minimal_char(N: int, qmax: int) -> LaurentPoly:
    """q^(N^2/4) (q)_N^-1 sum_l binom(N, l) z^(N-2l), in inverted-q form.

    This is the character of the length-N minimal space with the grading read
    through q -> q^-1, so it has positive q-exponents; exact through qmax.
    """
    out = LaurentPoly()
    inv = inv_qpoch_finite(N, qmax)
    for l in range(0, N + 1):
        out = out + gauss_binom(N, l) * inv * qz(0, N - 2 * l)
    return window(out * qz(N * N), q4_hi=4 * qmax + N * N)


def measured_char(dims: dict, N: int) -> LaurentPoly:
    """Character assembled from measured orbit dimensions.

    dims maps (deg0, weight) to dimension; exponents follow the same
    inverted-q convention as minimal_char, so the two are directly comparable
    through q-exponent N^2/4 + max measured deg0.
    """
    return LaurentPoly({_mono(N * N + 4 * d, m): dim for (d, m), dim in dims.items()})


def char_match_report(N: int, D: int, dims: dict) -> dict:
    """Measured dims versus the closed formula, through q-order N^2/4 + D."""
    measured = measured_char(dims, N)
    formula = minimal_char(N, D + N * N // 4 + 1)
    hi = N * N + 4 * D
    ok = window(measured, q4_hi=hi) == window(formula, q4_hi=hi)
    return {"N": N, "D": D, "passed": ok,
            "measured_terms": len(measured.terms)}


def char_product_report(L2: int, i: int, depth: int = 3, zmax: int = 4) -> dict:
    """The truncated tower-space character against the two-character product.

    Sums the twisted per-length characters over lengths of the fixed parity
    and compares with the product of the inverted-q level-one character and
    the polynomial finitization.  The window is q-exponent >= -depth and
    |z| <= zmax; the sum runs over every length that reaches it.

    The finitization sector is forced to 2L mod 2 by its own parity; the
    level-one factor then must sit in sector (i + 2L) mod 2 for the product
    to carry the z-parity of the left side.  For half-integer cutoffs this
    corrects the printed pairing, which mixes the parities.
    """
    j = L2 % 2                 # finitization sector, forced by parity
    chi_sector = (i + L2) % 2  # level-one sector carrying the parity balance
    q4_lo = -4 * depth

    # contributions of length N sit at q-exponent <= N L - N^2/4
    def top4(N):
        return N * L2 * 2 - N * N

    # top4 falls past its peak at N = 2L, so no length above N_max reaches the window
    N_max = i
    while not (N_max + 2 >= L2 and top4(N_max + 2) < q4_lo):
        N_max += 2

    lhs = LaurentPoly()
    for N in range(i, N_max + 1, 2):
        need = depth + (N * L2 + 1) // 2 + 1
        # q^(N L) twist from the z-product scaling
        lhs = lhs + substitute(minimal_char(N, need), _INVERT_Q) * qz(2 * N * L2)
    lhs = window(lhs, q4_lo=q4_lo, zmax=zmax)

    dem = demazure_char(j, L2)
    chi_depth = depth + (dem.degree("q4") + 3) // 4 + 1
    chi = substitute(level1_char(chi_sector, chi_depth, zmax + L2), _INVERT_Q)
    rhs = window(chi * dem, q4_lo=q4_lo, zmax=zmax)
    return {
        "L2": L2,
        "sector": i,
        "finitization_sector": j,
        "level_one_sector": chi_sector,
        "window": {"q4_lo": q4_lo, "zmax": zmax},
        "passed": lhs == rhs,
        "lhs_terms": len(lhs.terms),
        "rhs_terms": len(rhs.terms),
    }