"""The acceptance suite: one callable per criterion, all exact.

Each criterion returns a CritResult with a pass flag and human-readable
detail lines; run_suite executes all of them in order and assembles the
conventions artifact.  Randomized criteria take seeds so reruns are
bit-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclotomic import CycScalar, I, parse_scalar
from .laurent import is_symmetric
from .wedge import WedgeElem
from .action import GenMode, act_series, apply_mode, atilde, xminus, xplus
from .cycles import (
    act_on_cycle,
    distinguished_cycle,
    example_towers,
    is_minimal,
    is_weakly_minimal,
    link_residual,
    verify_schur_formula,
)
from .orbit import generate_W, member_mod_null, null_contains, null_generators, verify_grW_iso
from .characters import char_match_report, char_product_report, sum_identity_report
from .fermion import (
    check_g_identity_double,
    check_g_identity_single,
    cross_check,
    iso_from_wedge,
    iso_to_wedge,
    sigma_ops,
)
from .sampling import random_symmetric, random_wedge
from . import conventions


class CritResult:
    def __init__(self, ident: str, title: str):
        self.ident = ident
        self.title = title
        self.passed = True
        self.lines = []
        self.artifacts = {}

    def check(self, ok: bool, line: str):
        self.passed = self.passed and bool(ok)
        self.lines.append(("ok " if ok else "FAIL ") + line)

    def note(self, line: str):
        self.lines.append("   " + line)

    def as_json(self):
        return {"id": self.ident, "title": self.title, "passed": self.passed,
                "lines": self.lines}


def criterion_1() -> CritResult:
    r = CritResult("criterion-1", "distinguished towers: links and degree")
    for m in range(0, 4):
        t = distinguished_cycle(m, m + 6)  # links verified on construction
        r.check(t.verify(), "weight %d tower links verified on n <= %d" % (m, m + 6))
        r.check(t.degree() == Fraction(m * m, 4),
                "weight %d tower degree equals %s" % (m, Fraction(m * m, 4)))
    return r


def criterion_2() -> CritResult:
    r = CritResult("criterion-2", "extremal raising relations")
    for m in range(0, 4):
        t = distinguished_cycle(m, m + 6)
        up = act_on_cycle(xplus(m + 1), t)
        want = distinguished_cycle(m + 2, m + 6).scaled(CycScalar((-1) ** (m + 1)))
        r.check((up - want).is_zero(),
                "x+_%d on the weight-%d tower gives (-1)^%d times the next tower"
                % (m + 1, m, m + 1))
        killed = all(
            act_on_cycle(xplus(k), t).is_zero() for k in range(0, m + 1)
        )
        r.check(killed, "x+_k annihilates the weight-%d tower for 0 <= k <= %d" % (m, m))
    return r


def criterion_3(seed: int = 2024, target: int = 50) -> CritResult:
    r = CritResult("criterion-3", "single modes map links to links")
    rng = random.Random(seed)
    pool = (
        [xminus(k) for k in range(-2, 3)]
        + [xplus(k) for k in range(-2, 3)]
        + [atilde(m) for m in (-2, -1, 1, 2)]
        + [GenMode("xminus2", 0), GenMode("xplus2", 0), GenMode("t1", 1)]
    )
    verified = 0
    words = 0
    while verified < target:
        m = rng.choice((0, 1))
        cur = distinguished_cycle(m, 6 if m == 0 else 5)
        length = rng.randint(1, 3)
        words += 1
        for _ in range(length):
            g = rng.choice(pool)
            cur = act_on_cycle(g, cur)  # raises LinkViolation on any failure
            verified += max(len(cur.indices()) - 1, 0)
        if words > 200:
            break
    r.check(verified >= target,
            "%d consecutive pairs re-verified across %d random words" % (verified, words))
    return r


def criterion_4(seed: int = 77, samples: int = 20, order: int = 3) -> CritResult:
    r = CritResult("criterion-4", "fermionic oracle equivalence")
    plan = {
        "xminus": [(2, 0), (3, 1), (4, 1), (4, 2)],
        "xminus2": [(2, 0), (3, 1), (4, 1), (4, 2)],
        "xplus": [(2, 1), (3, 1), (4, 2), (4, 3)],
        "xplus2": [(3, 2), (4, 2), (4, 3), (4, 4)],
        "aplus": [(2, 1), (3, 1), (4, 2), (3, 2)],
        "aminus": [(2, 1), (3, 1), (4, 2), (3, 2)],
    }
    observed = {}
    per_case = max(samples // 4, 1)
    for fam, cases in plan.items():
        scalars = set()
        ok = True
        for idx, (n, l) in enumerate(cases):
            rep = cross_check(fam, n, l, per_case, order, seed + idx)
            ok = ok and rep["passed"]
            if rep["scalar"] is not None:
                scalars.add(rep["scalar"])
        ok = ok and len(scalars) == 1
        scalar = scalars.pop() if len(scalars) == 1 else None
        observed[fam] = scalar
        expected = conventions.ORACLE_FAMILY_SCALARS[fam]
        r.check(ok and scalar == expected,
                "family %s matches the oracle with constant scalar %s" % (fam, scalar))
    r.artifacts["oracle_family_scalars"] = observed
    return r


def criterion_5() -> CritResult:
    r = CritResult("criterion-5", "basis-transport kernel identities")
    for n in range(1, 6):
        r.check(check_g_identity_single(n),
                "single-kernel identity clears denominators at n=%d" % n)
    for n in range(1, 5):
        r.check(check_g_identity_double(n),
                "divided-kernel identity clears denominators at n=%d" % n)
    return r


def _random_minimal(rng: random.Random, n: int) -> WedgeElem:
    """A random element of the minimal subspace: a generator word on the unit."""
    pool = [xminus(0), xminus(1), xminus(-1), GenMode("xminus2", 0),
            atilde(1), atilde(-1), atilde(2)]
    while True:
        P = WedgeElem.unit(n).scaled(random_symmetric(rng, n, span=(0, 1)))
        for _ in range(rng.randint(1, 2)):
            P = apply_mode(rng.choice(pool), P)
        if not P.is_zero() and P.l >= 2:
            return P


def _random_weakly_minimal(rng: random.Random, n: int) -> WedgeElem:
    """A random weakly minimal element.

    Degree 0 and 1 elements are weakly minimal for free and the weakly
    minimal subspace is stable under the whole action, so lowering words on
    random low-degree cycles sample it.
    """
    lowering = [xminus(0), xminus(1), xminus(-1), GenMode("xminus2", 0)]
    diagonal = [atilde(1), atilde(-1), atilde(2)]
    while True:
        P = random_wedge(rng, n, rng.choice((0, 1)), symmetric=True)
        if rng.random() < 0.4:
            P = apply_mode(rng.choice(diagonal), P)
        while not P.is_zero() and P.l < 2:
            P = apply_mode(rng.choice(lowering), P)
        if not P.is_zero() and 2 <= P.l <= n:
            return P


def criterion_6(seed: int = 31, samples: int = 30, order: int = 3) -> CritResult:
    r = CritResult("criterion-6", "divided raising series preserves the lattice")
    rng = random.Random(seed)
    done = 0
    failures = []
    while done < samples:
        n = rng.choice((2, 3, 4))
        minimal_case = done % 2 == 0
        P = _random_minimal(rng, n) if minimal_case else _random_weakly_minimal(rng, n)
        if P.l < 2 or P.is_zero():
            continue
        want_weak, _ = is_weakly_minimal(P)
        if not want_weak:
            failures.append((n, "sample generator broke weak minimality"))
            break
        for point in ("zero", "inf"):
            series = act_series("xplus2", P, order, point, expect_polynomial=True)
            for k, elem in series.coeffs.items():
                coeffs = elem.coeffs_as_laurent()
                if coeffs is None:
                    failures.append((n, point, k, "coefficient left the lattice"))
                    continue
                if not all(is_symmetric(c, n) for c in coeffs.values()):
                    failures.append((n, point, k, "coefficient not symmetric"))
                if not is_weakly_minimal(elem)[0]:
                    failures.append((n, point, k, "weak minimality lost"))
                if minimal_case and not is_minimal(elem)[0]:
                    failures.append((n, point, k, "minimality lost"))
        done += 1
    r.check(not failures and done == samples,
            "%d weakly-minimal/minimal samples stayed in the lattice "
            "with minimality preserved" % done)
    for f in failures[:5]:
        r.note(repr(f))
    return r


def criterion_7() -> CritResult:
    r = CritResult("criterion-7", "measured orbit dimensions match the character")
    for N in (0, 1, 2):
        res = generate_W(N, 4)
        rep = char_match_report(N, 4, res.dims)
        r.check(res.stable and rep["passed"],
                "length-%d orbit dims equal the formula through deg 4" % N)
    return r


def criterion_8() -> CritResult:
    r = CritResult("criterion-8", "q-series identities")
    for L2 in range(0, 5):
        rep = sum_identity_report(L2, qmax=8, zmax=6)
        r.check(rep["passed"], "summation identity at 2L=%d on (q^8, z^6)" % L2)
    for (L2, i) in ((0, 0), (2, 0), (1, 1)):
        rep = char_product_report(L2, i, depth=3, zmax=4)
        r.check(rep["passed"],
                "product identity at 2L=%d sector %d (level-one sector %s)"
                % (L2, i, rep.get("level_one_sector")))
    return r


def criterion_9(seed: int = 55) -> CritResult:
    r = CritResult("criterion-9", "null-cycle layer and the worked towers")
    rng = random.Random(seed)
    # zero-mode dictionary against the multiplication operators
    for n in (2, 3, 4):
        ok = True
        for _ in range(3):
            l = rng.randint(0, n - 1)
            P = random_wedge(rng, n, l)
            E = iso_from_wedge(P)
            s1, s2 = sigma_ops(n)
            ok = ok and apply_mode(xminus(0), P) == iso_to_wedge(s1.apply(E))
            ok = ok and apply_mode(GenMode("xminus2", 0), P).scaled(I) == iso_to_wedge(s2.apply(E))
        r.check(ok, "zero lowering modes match the multiplication operators at n=%d" % n)

    # rank inclusion: slot-vanishing subspace sits inside the null layer
    gens2 = null_generators(2, 1)
    r.check(null_contains(WedgeElem.monomial_wedge(2, (1,)), gens2),
            "slot-vanishing subspace inside the null layer at (2, 1)")
    gens4 = null_generators(4, 2)
    ok4 = all(
        null_contains(WedgeElem.monomial_wedge(4, s), gens4)
        for s in ((1, 2), (1, 3), (2, 3))
    )
    r.check(ok4, "slot-vanishing subspace inside the null layer at (4, 2)")

    # current towers from raising modes on the identity tower
    identity = distinguished_cycle(0, 6)
    _, jm = example_towers("jminus", 6)
    _, jp = example_towers("jplus", 6)
    up = act_on_cycle(xplus(1), identity)
    upm = act_on_cycle(xplus(-1), identity)
    sc_jm = parse_scalar(conventions.TOWER_SCALARS["jminus"])
    ok_jm = all(up.components[n] == jm[n].scaled(sc_jm) for n in (2, 4, 6))
    r.check(ok_jm, "first current tower equals x+_1 . identity times %s" % sc_jm)
    ok_jp = all(upm.components[n] == jp[n].scaled(-CycScalar.one()) for n in (2, 4, 6))
    r.check(ok_jp, "second current tower equals -x+_{-1} . identity exactly")

    # energy-momentum towers, modulo the null layer, with the recorded sign
    _, tz = example_towers("Tz", 4)
    _, tzbar = example_towers("Tzbar", 4)
    word_tz = act_on_cycle([xminus(1), xplus(1)], identity, verify=False)
    word_tzbar = act_on_cycle([xplus(-1), xminus(-1)], identity, verify=False)
    sc = parse_scalar(conventions.TOWER_SCALARS["Tz"]) * (-I)
    ok_tz = all(member_mod_null(tz[n], word_tz.components[n].scaled(sc))[0]
                for n in (2, 4))
    r.check(ok_tz, "holomorphic tensor tower matches %s times the word, modulo nulls" % sc)
    sc2 = parse_scalar(conventions.TOWER_SCALARS["Tzbar"]) * (-I)
    ok_tzb = all(member_mod_null(tzbar[n], word_tzbar.components[n].scaled(sc2))[0]
                 for n in (2, 4))
    r.check(ok_tzb, "antiholomorphic tensor tower matches %s times the word, modulo nulls" % sc2)

    # and the printed tensor sequences are genuinely not linked towers
    for name, comps in (("Tz", tz), ("Tzbar", tzbar)):
        broken = sum(
            1 for n in (0, 2) if not link_residual(comps[n], comps[n + 2]).is_zero()
        )
        r.check(broken >= 1, "%s component sequence fails at least one link" % name)
    return r


def criterion_10() -> CritResult:
    r = CritResult("criterion-10", "lowering words against the closed Schur forms")
    observed = {}
    for k, l_max in ((1, 2), (2, 1)):
        rep = verify_schur_formula(k, l_max)
        observed[k] = rep.get("scalar")
        expected = conventions.SCHUR_WORD_SCALARS[k]
        r.check(rep["passed"] and rep.get("scalar") == expected,
                "k=%d word proportional to the closed form with constant scalar %s"
                % (k, rep.get("scalar")))
    r.artifacts["schur_word_scalars"] = {str(k): v for k, v in observed.items()}
    return r


def criterion_11() -> CritResult:
    r = CritResult("criterion-11", "minimal cycles lift to linked towers")
    for N in (0, 1, 2):
        rep = verify_grW_iso(N, 3)
        r.check(rep["passed"],
                "all %d minimal orbit vectors lift through the length-%d tower"
                % (rep["checked"], N))
    return r


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]


def run_suite(selected=None) -> dict:
    results = []
    for fn in ALL_CRITERIA:
        ident = fn.__name__.replace("_", "-")
        if selected and ident not in selected:
            continue
        results.append(fn())
    artifacts = conventions.as_json()
    for res in results:
        artifacts.update(res.artifacts)
    return {
        "passed": all(res.passed for res in results),
        "results": results,
        "conventions": artifacts,
    }
