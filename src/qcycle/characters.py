"""Exact bivariate q, z series: level-one characters, their polynomial
finitizations, and the product identity for the truncated tower spaces.

Quarter-integer q-exponents are stored as integers scaled by four.  Series
are plain exact coefficient dictionaries; each verification routine states
the window on which its construction is exact and compares there.
"""

from __future__ import annotations

from fractions import Fraction


class QZSeries:
    """Exact coefficients (4*q-exponent, z-exponent) -> Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                val = Fraction(val)
                if val:
                    self.coeffs[key] = val

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, q4: int, z: int, coeff=1):
        return cls({(q4, z): coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return QZSeries(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for (q1, z1), v1 in self.coeffs.items():
            for (q2, z2), v2 in other.coeffs.items():
                key = (q1 + q2, z1 + z2)
                nv = out.get(key, 0) + v1 * v2
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return QZSeries(out)

    def scale(self, c):
        c = Fraction(c)
        return QZSeries({k: v * c for k, v in self.coeffs.items()})

    def shift(self, q4: int, z: int = 0):
        return QZSeries({(q + q4, zz + z): v for (q, zz), v in self.coeffs.items()})

    def flip_q(self):
        return QZSeries({(-q, z): v for (q, z), v in self.coeffs.items()})

    def restrict(self, q4_lo=None, q4_hi=None, zmax=None):
        out = {}
        for (q, z), v in self.coeffs.items():
            if q4_lo is not None and q < q4_lo:
                continue
            if q4_hi is not None and q > q4_hi:
                continue
            if zmax is not None and abs(z) > zmax:
                continue
            out[(q, z)] = v
        return QZSeries(out)

    def coeff(self, q4: int, z: int) -> Fraction:
        return self.coeffs.get((q4, z), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, QZSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("QZSeries is unhashable")

    def is_zero(self):
        return not self.coeffs

    def table(self):
        """Sorted [(q-exponent string, z, coefficient string)] rows."""
        rows = []
        for (q4, z) in sorted(self.coeffs):
            q = Fraction(q4, 4)
            rows.append((str(q), z, str(self.coeffs[(q4, z)])))
        return rows

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (q4, z) in sorted(self.coeffs):
            parts.append("%s q^%s z^%d" % (self.coeffs[(q4, z)], Fraction(q4, 4), z))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# q-binomials and Pochhammer pieces
# ---------------------------------------------------------------------------


def gauss_binom(m: int, k: int, inverse: bool = False) -> QZSeries:
    """The q-binomial coefficient; zero outside 0 <= k <= m.

    With inverse=True the variable is q^(-1).
    """
    if not 0 <= k <= m:
        return QZSeries()
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
    poly = row.get(k, {})
    sign = -1 if inverse else 1
    return QZSeries({(4 * e * sign, 0): c for e, c in poly.items()})


def qpoch_finite(n: int) -> QZSeries:
    """(q)_n = prod_{j=1..n} (1 - q^j)."""
    out = QZSeries.one()
    for j in range(1, n + 1):
        out = out * (QZSeries.one() - QZSeries.monomial(4 * j, 0))
    return out


def inv_qpoch_finite(n: int, qmax: int) -> QZSeries:
    """1/(q)_n, exact through q^qmax."""
    out = QZSeries.one()
    for j in range(1, n + 1):
        geom = QZSeries({(4 * j * k, 0): 1 for k in range(qmax // j + 1)})
        out = (out * geom).restrict(q4_hi=4 * qmax)
    return out


def inv_qpoch_inf(qmax: int) -> QZSeries:
    """1/(q)_infinity (the partition series), exact through q^qmax."""
    return inv_qpoch_finite(qmax, qmax)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def level1_char(i: int, qmax: int, zmax: int) -> QZSeries:
    """Level-one character: (q)_inf^-1 sum over m = i mod 2 of q^(m^2/4) z^m.

    Exact on q-exponent <= qmax, |z-exponent| <= zmax.
    """
    if i not in (0, 1):
        raise ValueError("sector must be 0 or 1")
    out = QZSeries()
    inv = inv_qpoch_inf(qmax)
    bound = zmax + 2 * int(qmax ** 0.5) + 4
    for m in range(-bound, bound + 1):
        if (m - i) % 2:
            continue
        if m * m > 4 * qmax and abs(m) > zmax:
            continue
        out = out + inv.shift(m * m, m)
    return out.restrict(q4_hi=4 * qmax, zmax=zmax)


def demazure_char(i: int, L2: int, qmax: int | None = None) -> QZSeries:
    """Polynomial finitization: sum of binom(2L, L + m/2) q^(m^2/4) z^m.

    L2 is twice the level cutoff; the sector parity must match it.
    """
    if L2 < 0 or i not in (0, 1) or (i - L2) % 2:
        raise ValueError("sector parity must match the cutoff parity")
    out = QZSeries()
    for mm in range(-L2, L2 + 1):
        if (mm - i) % 2:
            continue
        # L + m/2 = (L2 + mm)/2
        bot = (L2 + mm) // 2
        b = gauss_binom(L2, bot)
        out = out + b.shift(mm * mm, mm)
    if qmax is not None:
        out = out.restrict(q4_hi=4 * qmax)
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
    window = []
    for (q4, z), v in full.coeffs.items():
        if abs(z) <= z_window and q4 <= 4 * q_levels:
            window.append(((q4, z), v))
    with_factor = all(fin.coeff(q4, z) == v for (q4, z), v in window)
    bare = QZSeries({(m * m, m): 1 for m in range(-z_window, z_window + 1)
                     if (m - i) % 2 == 0})
    without_factor = all(fin.coeff(q4, z) == bare.coeff(q4, z) for (q4, z), _ in window)
    return {
        "sector": i,
        "limit_includes_partition_factor": with_factor,
        "limit_matches_bare_sum": without_factor,
    }


# ---------------------------------------------------------------------------
# the summation identity
# ---------------------------------------------------------------------------


def zpoch_tail(l: int, qmax: int, zmax: int) -> QZSeries:
    """(q^(l+1) z)_infinity, exact for q-exponent <= qmax and z-degree <= zmax."""
    out = QZSeries.one()
    for j in range(l + 1, qmax + 1):
        out = out * (QZSeries.one() - QZSeries.monomial(4 * j, 1))
        out = out.restrict(q4_hi=4 * qmax, zmax=zmax)
    return out


def sum_identity_report(L2: int, qmax: int = 8, zmax: int = 6) -> dict:
    """Telescoping check of the two z-expansions of the truncation identity.

    Left: sum over l of (q^(l+1) z)_inf / (q)_l * q^(l(l-2L)) z^l;
    right: sum over s of the inverse-q binomial times z^s.  Exact equality on
    the window q-exponent in [-L^2 - qmax, qmax], z-degree <= zmax.
    """
    q4_lo = -(L2 * L2) - 4 * qmax
    lhs = QZSeries()
    for l in range(0, zmax + 1):
        shift4 = 4 * l * l - 2 * l * L2 * 2  # 4 * l(l - 2L)
        head = zpoch_tail(l, qmax + L2 * L2, zmax - l)
        piece = head * inv_qpoch_finite(l, qmax + L2 * L2)
        piece = piece.shift(shift4, l)
        lhs = lhs + piece
    rhs = QZSeries()
    for s in range(0, zmax + 1):
        b = gauss_binom(L2, s, inverse=True)
        rhs = rhs + b.shift(0, s)
    window = dict(q4_lo=q4_lo, q4_hi=4 * qmax, zmax=zmax)
    left = lhs.restrict(**window)
    right = rhs.restrict(**window)
    return {
        "L2": L2,
        "window": window,
        "passed": left == right,
        "lhs_terms": len(left.coeffs),
        "rhs_terms": len(right.coeffs),
    }


# ---------------------------------------------------------------------------
# per-length characters of the minimal spaces
# ---------------------------------------------------------------------------


def minimal_char(N: int, qmax: int) -> QZSeries:
    """q^(N^2/4) (q)_N^-1 sum_l binom(N, l) z^(N-2l), in inverted-q form.

    This is the character of the length-N minimal space with the grading read
    through q -> q^-1, so it has positive q-exponents; exact through qmax.
    """
    out = QZSeries()
    inv = inv_qpoch_finite(N, qmax)
    for l in range(0, N + 1):
        piece = gauss_binom(N, l) * inv
        out = out + piece.shift(0, N - 2 * l)
    return out.shift(N * N).restrict(q4_hi=4 * qmax + N * N)


def measured_char(dims: dict, N: int) -> QZSeries:
    """Character assembled from measured orbit dimensions.

    dims maps (deg0, weight) to dimension; exponents follow the same
    inverted-q convention as minimal_char, so the two are directly comparable
    through q-exponent N^2/4 + max measured deg0.
    """
    out = {}
    for (d, m), dim in dims.items():
        key = (N * N + 4 * d, m)
        out[key] = out.get(key, 0) + dim
    return QZSeries(out)


def char_match_report(N: int, D: int, dims: dict) -> dict:
    """Measured dims versus the closed formula, through q-order N^2/4 + D."""
    measured = measured_char(dims, N)
    formula = minimal_char(N, D + N * N // 4 + 1)
    hi = N * N + 4 * D
    ok = measured.restrict(q4_hi=hi) == formula.restrict(q4_hi=hi)
    return {"N": N, "D": D, "passed": ok,
            "measured_terms": len(measured.coeffs)}


def char_product_report(L2: int, i: int, depth: int = 3, zmax: int = 4,
                        N_max: int = 6) -> dict:
    """The truncated tower-space character against the two-character product.

    Sums the twisted per-length characters over lengths of the fixed parity
    and compares with the product of the inverted-q level-one character and
    the polynomial finitization.  The window is q-exponent >= -depth (lengths
    above N_max must not reach it, which is checked), |z| <= zmax.

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

    next_N = N_max + (2 if (N_max - i) % 2 == 0 else 1)
    if not (next_N >= L2 and top4(next_N) < q4_lo):
        return {"L2": L2, "sector": i, "passed": False,
                "reason": "window needs lengths beyond N_max"}

    lhs = QZSeries()
    for N in range(i, N_max + 1, 2):
        need = depth + (N * L2 + 1) // 2 + 1
        per = minimal_char(N, need).flip_q()
        per = per.shift(2 * N * L2)  # q^(N L) twist from the z-product scaling
        lhs = lhs + per
    lhs = lhs.restrict(q4_lo=q4_lo, zmax=zmax)

    dem = demazure_char(j, L2)
    dem_top = max((q for q, _ in dem.coeffs), default=0)
    chi_depth = depth + (dem_top + 3) // 4 + 1
    chi = level1_char(chi_sector, chi_depth, zmax + L2).flip_q()
    rhs = (chi * dem).restrict(q4_lo=q4_lo, zmax=zmax)
    return {
        "L2": L2,
        "sector": i,
        "finitization_sector": j,
        "level_one_sector": chi_sector,
        "window": {"q4_lo": q4_lo, "zmax": zmax},
        "passed": lhs == rhs,
        "lhs_terms": len(lhs.coeffs),
        "rhs_terms": len(rhs.coeffs),
    }