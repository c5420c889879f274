"""Orbit generation, bigraded dimension tables, and the null-cycle layer.

The raising-and-lowering subalgebra acting on the unit of the length-N space
spans the whole space of minimal cycles with polynomial coefficients; this
module closes that orbit under the generator list, with incremental row
reduction per bigraded component, and measures the dimensions that the
character formulas predict.  The null-cycle subspace is spanned by the images
of the two zero-mode lowering operators and is handled over the rational
function field by Gauss-Jordan elimination (laurent.gauss_jordan).
"""

from __future__ import annotations

from itertools import combinations

from .cyclotomic import CycScalar, I
from .laurent import LaurentPoly, RationalFn, gauss_jordan
from .wedge import BiGrading, WedgeElem, bigrade
from .action import GenMode, act_series, apply_mode, atilde
from .cycles import InfCycle, map_tower
from .fermion import GrassmannElem, iso_to_wedge, sigma_ops


# ---------------------------------------------------------------------------
# exact row reduction over the scalar field
# ---------------------------------------------------------------------------


class SparseRref:
    """Incrementally maintained reduced row space over the scalar field."""

    def __init__(self):
        self.rows = {}  # pivot key -> dict key -> CycScalar (pivot coeff 1)

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        for piv in sorted(set(vec) & set(self.rows)):
            c = vec.get(piv)
            if c is None or c.is_zero():
                continue
            row = self.rows[piv]
            for k, rc in row.items():
                nv = vec.get(k, CycScalar.zero()) - c * rc
                if nv.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = nv
        return {k: v for k, v in vec.items() if not v.is_zero()}

    def insert(self, vec: dict) -> bool:
        """Reduce and insert; True when the row space grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = vec[piv].inverse()
        vec = {k: v * inv for k, v in vec.items()}
        for old_piv, row in list(self.rows.items()):
            c = row.get(piv)
            if c is None or c.is_zero():
                continue
            new_row = dict(row)
            for k, v in vec.items():
                nv = new_row.get(k, CycScalar.zero()) - c * v
                if nv.is_zero():
                    new_row.pop(k, None)
                else:
                    new_row[k] = nv
            self.rows[old_piv] = new_row
        self.rows[piv] = vec
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def wedge_coordinates(P: WedgeElem) -> dict:
    """Coordinates of a polynomial-coefficient element: (subset, mono) -> scalar."""
    out = {}
    for subset, coeff in P.terms.items():
        poly = coeff.as_laurent()
        for mono, c in poly.terms.items():
            out[(subset, mono)] = c
    return out


# ---------------------------------------------------------------------------
# generator tokens: plain modes plus divided-series coefficients
# ---------------------------------------------------------------------------


def apply_generator(token, P: WedgeElem) -> WedgeElem:
    """Apply a BFS generator: a GenMode or ("xminus2k", k) series coefficient."""
    if isinstance(token, GenMode):
        return apply_mode(token, P)
    kind, k = token
    if kind != "xminus2k" or k < 1:
        raise ValueError("unknown generator token %r" % (token,))
    series = act_series("xminus2", P, k, "zero")
    return series.stored(k).scaled(series.prefactor.inverse())


def generator_weight_shift(token) -> int:
    if isinstance(token, GenMode):
        return token.weight_shift()
    return -4


def generator_degree(token) -> int:
    if isinstance(token, GenMode):
        return abs(token.k)
    return token[1]


def act_tower_generator(token, cyc: InfCycle, verify: bool = True) -> InfCycle:
    return map_tower(cyc, generator_weight_shift(token),
                     lambda P: apply_generator(token, P), verify)


def default_generators(K: int):
    """The raising-side generator list with mode indices up to K."""
    gens = [GenMode("xminus", 0), GenMode("xminus2", 0), GenMode("xplus", 0)]
    for k in range(1, K + 1):
        gens.append(GenMode("xminus", k))
        gens.append(GenMode("xplus", k))
        gens.append(atilde(k))
        if k >= 2:
            gens.append(("xminus2k", k))
    return gens


# ---------------------------------------------------------------------------
# the orbit of the unit
# ---------------------------------------------------------------------------


class OrbitResult:
    __slots__ = ("N", "D", "dims", "vectors", "iterations", "stable")

    def __init__(self, N, D, dims, vectors, iterations, stable=True):
        self.N = N
        self.D = D
        self.dims = dims          # (deg0, weight) -> dimension
        self.vectors = vectors    # list of (bigrade, WedgeElem, word)
        self.iterations = iterations
        self.stable = stable      # False marks the dims as lower bounds only


def generate_W(N: int, D: int) -> OrbitResult:
    """Close the orbit of the unit under the generator list, up to deg0 <= D.

    Every generator raises deg0 by its mode index, so discarding components
    above the cutoff loses nothing below it; the closure stabilizes because
    each bigraded component is finite dimensional.  The generator list is
    default_generators(D); a frontier left after 60 rounds marks the result
    unstable.
    """
    gens = default_generators(D)
    unit = WedgeElem.unit(N)
    spans = {}
    vectors = []

    def bigrade_of(P):
        g = bigrade(P)
        if not isinstance(g, BiGrading):
            raise ArithmeticError("orbit vector is not homogeneous")
        return (g.deg0, g.weight)

    def insert(P, word):
        key = bigrade_of(P)
        span = spans.setdefault(key, SparseRref())
        if span.insert(wedge_coordinates(P)):
            vectors.append((key, P, word))
            return True
        return False

    insert(unit, ())
    frontier = [(unit, ())]
    iterations = 0
    while frontier and iterations < 60:
        iterations += 1
        new_frontier = []
        for P, word in frontier:
            gP = bigrade_of(P)
            for tok in gens:
                if gP[0] + generator_degree(tok) > D:
                    continue
                img = apply_generator(tok, P)
                if img.is_zero() or img.l > N or img.l < 0:
                    continue
                if bigrade_of(img)[0] > D:
                    continue
                if insert(img, (tok,) + word):
                    new_frontier.append((img, (tok,) + word))
        frontier = new_frontier
    dims = {key: span.dim for key, span in spans.items()}
    # an unexhausted frontier means the dimensions are only lower bounds
    return OrbitResult(N, D, dims, vectors, iterations, stable=not frontier)


# ---------------------------------------------------------------------------
# the null-cycle subspace
# ---------------------------------------------------------------------------


def null_generators(n: int, l: int):
    """Spanning set of the null layer in the (n, l) space, over K_n."""
    gens = []
    s1, s2 = sigma_ops(n)
    if l >= 1:
        for subset in combinations(range(1, n + 1), l - 1):
            e = GrassmannElem(n, {tuple(subset): LaurentPoly.one()})
            img = iso_to_wedge(s1.apply(e))
            if not img.is_zero():
                gens.append(img)
    if l >= 2:
        for subset in combinations(range(1, n + 1), l - 2):
            e = GrassmannElem(n, {tuple(subset): LaurentPoly.one()})
            img = iso_to_wedge(s2.apply(e))
            if not img.is_zero():
                gens.append(img)
    return gens


def _as_matrix(elems, n, l):
    basis = [tuple(c) for c in combinations(range(n), l)]
    return [[e.terms.get(s, _ZERO) for s in basis] for e in elems], basis


_ZERO = RationalFn.from_poly(LaurentPoly.zero())


def solve_ratfn(rows, rhs):
    """One solution of sum_i x_i rows[i] = rhs over K_n, or None.

    Gaussian elimination on the transposed augmented system; sizes here are
    tiny so plain field arithmetic is fine.
    """
    if not rows:
        return None if any(not c.is_zero() for c in rhs) else []
    ncols = len(rows[0])
    # columns: unknowns (one per generator row); rows: coordinates
    aug = [[rows[i][j] for i in range(len(rows))] + [rhs[j]] for j in range(ncols)]
    nunk = len(rows)
    pivots = gauss_jordan(aug, nunk)
    for k in range(len(pivots), len(aug)):
        if not aug[k][nunk].is_zero():
            return None
    sol = [_ZERO] * nunk
    for idx, c in enumerate(pivots):
        sol[c] = aug[idx][nunk]
    return sol


def member_mod_null(P: WedgeElem, target: WedgeElem, gens=None):
    """Does P equal target modulo the null layer?  Returns (bool, combination)."""
    if (P.n, P.l) != (target.n, target.l):
        raise ValueError("shape mismatch")
    n, l = P.n, P.l
    if gens is None:
        gens = null_generators(n, l)
    diff = P - target
    if diff.is_zero():
        return True, []
    rows, basis = _as_matrix(gens, n, l)
    rhs = [diff.terms.get(s, _ZERO) for s in basis]
    sol = solve_ratfn(rows, rhs)
    if sol is None:
        return False, None
    return True, sol


def null_contains(P: WedgeElem, gens=None) -> bool:
    ok, _ = member_mod_null(P, WedgeElem(P.n, P.l), gens)
    return ok


# ---------------------------------------------------------------------------
# lifting minimal cycles through the tower filtration
# ---------------------------------------------------------------------------


def extremal_tower_word(N: int):
    """Raising word and sign carrying the bottom parity tower up to weight N."""
    if N % 2 == 0:
        k = N // 2
        word = [GenMode("xplus", 2 * j - 1) for j in range(k, 0, -1)]
        sign = CycScalar((-1) ** k)
        return 0, word, sign
    k = (N + 1) // 2
    word = [GenMode("xplus", 2 * j - 2) for j in range(k, 1, -1)]
    return 1, word, CycScalar.one()


def verify_grW_iso(N: int, D: int) -> dict:
    """Lift every minimal orbit vector to a linked tower ending on it.

    For each minimal P in the measured orbit with its generating word g,
    the tower g . 1_N (with 1_N itself produced from the parity bottom by the
    extremal raising word) must reproduce P in its length-N component and
    vanish below; links are re-verified along the way.  Towers run up to
    n = N + 2.
    """
    from .cycles import distinguished_cycle, is_minimal

    report = {"N": N, "D": D, "checked": 0, "lifted": 0, "failures": []}
    i0, word, sign = extremal_tower_word(N)
    base = distinguished_cycle(i0, N + 2)
    tower = base
    for g in reversed(word):
        tower = act_tower_generator(g, tower)
    tower = tower.scaled(sign)
    expect = distinguished_cycle(N, N + 2)
    if not (tower - expect).is_zero():
        report["failures"].append("extremal word does not rebuild the unit tower")
        return report

    orbit = generate_W(N, D)
    if not orbit.stable:
        report["failures"].append("orbit closure did not stabilize")
        report["passed"] = False
        return report
    for (bg, P, word_p) in orbit.vectors:
        if not is_minimal(P)[0]:
            continue
        report["checked"] += 1
        lifted = expect
        try:
            for g in reversed(word_p):
                lifted = act_tower_generator(g, lifted)
        except Exception as exc:  # link re-verification failures surface here
            report["failures"].append((bg, repr(exc)))
            continue
        comp = lifted.components.get(N)
        below_zero = all(
            lifted.components[n].is_zero() for n in lifted.indices() if n < N
        )
        if comp is None or not (comp - P).is_zero() or not below_zero:
            report["failures"].append((bg, "lift does not end on the input"))
        else:
            report["lifted"] += 1
    report["passed"] = not report["failures"] and report["checked"] > 0
    return report