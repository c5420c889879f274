"""The four benchmark workloads: fixed op mixes, seeded coefficients.

Each workload fixes the shape of every op (family, n, l, basis subsets,
words, CLI verbs); the seed draws only coefficients.  `BUILDERS[name](seed,
workdir)` makes the inputs and returns the pass as a list of Op.  Running an
op returns its check results and a canonical text of its outputs: Laurent
coefficients, scalar strings and report booleans, never internal
factorisations.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from qcycle import action, conventions, cycles, fermion, orbit, sampling, serialize
from qcycle.cli import parse_word
from qcycle.cyclotomic import CycScalar, I, parse_scalar
from qcycle.laurent import LaurentPoly, is_symmetric, zvar
from qcycle.wedge import WedgeElem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")


class Op:
    """One timed unit of work.

    `fn()` returns (checks, text) where text is the canonical output text or a
    callable making it, which the worker calls after the op's clock stops.
    `child` marks an op whose work runs in a child process.
    """

    __slots__ = ("label", "fn", "child")

    def __init__(self, label, fn, child=False):
        self.label = label
        self.fn = fn
        self.child = child


def canon_elem(P: WedgeElem) -> str:
    """Canonical text of a lattice element in the public JSON polynomial form.

    The form is independent of how LaurentPoly stores its terms; an element
    that is not Laurent says so instead.
    """
    coeffs = P.coeffs_as_laurent()
    if coeffs is None:
        return "(%d,%d):not-laurent" % (P.n, P.l)
    return json.dumps([P.n, P.l, [[list(s), serialize.poly_to_json(coeffs[s])]
                                  for s in sorted(coeffs)]], sort_keys=True)


def canon_tower(cyc) -> str:
    return "w%d|" % cyc.weight + "|".join(
        "%d:%s" % (n, canon_elem(cyc.components[n])) for n in cyc.indices())


def seeded_rng(seed: int, *tag) -> random.Random:
    """Independent, reproducible stream per (seed, op); str seeds hash stably."""
    return random.Random("%d/%s" % (seed, "/".join(map(str, tag))))


def seeded_scalar(rng: random.Random) -> CycScalar:
    """A seeded scalar p/3 with p in +-1, +-2, +-4, +-5: always a proper fraction."""
    return CycScalar(Fraction(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), 3))


def seeded_symmetric(rng: random.Random, n: int):
    """c * (z1 + ... + zn) with a seeded nonzero integer c in -3..3.

    The terms are fixed, so the seed moves values, not the work shape.
    """
    p = LaurentPoly.zero()
    for j in range(1, n + 1):
        p = p + LaurentPoly.var(zvar(j))
    return p.scale(CycScalar(rng.choice((-3, -2, -1, 1, 2, 3))))


def spread(base, extra):
    """`base` with the ops of `extra` inserted evenly between its ops."""
    out, j = [], 0
    for i, op in enumerate(base):
        out.append(op)
        while j < (i + 1) * len(extra) // len(base):
            out.append(extra[j])
            j += 1
    return out


def weave(light, median, tail, heavy):
    """Order a pass: light ops, then the repeats in chunks between heavy ops.

    The median and tail groups are runs of like ops that put the latency
    percentiles inside a dense cluster; spreading them over the pass samples
    the machine at several points instead of one stretch.  The median falls
    near the middle of its group when about as many ops are faster than the
    group as slower.  The tail is the 11th slowest op (10 ops beyond it), so
    it falls in the middle of its group when the group has about 21 - 2 * H
    ops, H being the ops slower than the group (the heavy ops, say).
    """
    extra = spread(median, tail)
    pieces = len(heavy) + 1
    out = list(light)
    for i in range(pieces):
        out += extra[i * len(extra) // pieces:(i + 1) * len(extra) // pieces]
        if i < len(heavy):
            out.append(heavy[i])
    return out


# ---------------------------------------------------------------------------
# oracle: fermion.cross_check, one sample per op
# ---------------------------------------------------------------------------

def _subsets(n, l, count):
    return tuple(tuple(c) for c in combinations(range(n), l))[:count]


# (family, n, l, subsets): the criterion-4 cases at n <= 3, repeats of
# xplus(3,1) and xminus(3,1) for the latency median and tail, and the n = 4
# cases, at least one per family (xplus2 at l = 3), on a single basis
# element.  Each sampled coefficient is one monomial, so the seed moves
# exponents and values but not the work shape.
ORACLE_PLAN = {
    "light": [(f, n, l, _subsets(n, l, 2)) for f, n, l in (
        ("xminus", 2, 0), ("xminus", 3, 1), ("xminus2", 2, 0), ("xminus2", 3, 1),
        ("xplus", 2, 1), ("xplus", 3, 1), ("xplus2", 3, 2),
        ("aplus", 2, 1), ("aplus", 3, 1), ("aplus", 3, 2),
        ("aminus", 2, 1), ("aminus", 3, 1), ("aminus", 3, 2))],
    "median": [("xplus", 3, 1, _subsets(3, 1, 2))] * 60,
    "tail": [("xminus", 3, 1, _subsets(3, 1, 2))] * 5,
    "heavy": [("xminus", 4, 1, ((1,),)),
              ("xminus", 4, 2, ((0, 2),)),
              ("xminus2", 4, 2, ((0, 1),)),
              ("xplus", 4, 3, ((0, 1, 3),)),
              ("xplus2", 4, 3, ((1, 2, 3),)),
              ("aplus", 4, 2, ((1, 3),)),
              ("aminus", 4, 2, ((0, 2),))],
}

ORACLE_ORDER = 3


def oracle_shape(n: int, l: int, sample_seed: int):
    """The basis subsets and monomial counts of cross_check's first sample."""
    P = sampling.random_wedge(random.Random(sample_seed), n, l)
    return tuple(sorted((s, len(c.num.terms)) for s, c in P.terms.items()))


def oracle_sample_seed(seed: int, idx: int, n: int, l: int, subsets) -> int:
    """First seeded cross_check seed whose sample has the planned shape."""
    want = tuple(sorted((s, 1) for s in subsets))
    rng = seeded_rng(seed, "oracle", idx)
    while True:
        cand = rng.randrange(1 << 30)
        if oracle_shape(n, l, cand) == want:
            return cand


def build_oracle(seed, workdir):
    plan = [(part, case) for part in ("light", "median", "tail", "heavy")
            for case in ORACLE_PLAN[part]]
    groups = {part: [] for part in ORACLE_PLAN}
    for idx, (part, (fam, n, l, subsets)) in enumerate(plan):
        s = oracle_sample_seed(seed, idx, n, l, subsets)

        def run(fam=fam, n=n, l=l, s=s):
            rep = fermion.cross_check(fam, n, l, 1, ORACLE_ORDER, s)
            want = conventions.ORACLE_FAMILY_SCALARS[fam]
            checks = [bool(rep["passed"]), rep["scalar"] == want]
            return checks, "%s|%d|%d|%d|%s|%s" % (fam, n, l, s, rep["passed"], rep["scalar"])
        groups[part].append(Op("%s(%d,%d)" % (fam, n, l), run))
    return weave(**groups)


# ---------------------------------------------------------------------------
# lattice: the divided raising series on (weakly) minimal inputs
# ---------------------------------------------------------------------------

# (kind, n, start subsets, word): minimal inputs are a word on f * unit, as in
# the acceptance suite; weakly minimal ones a lowering word on sum_s f_s e_s,
# with every f seeded_symmetric.  Words use the CLI's mode tokens and apply
# right to left.  Repeats of one n = 2 and one n = 3 input hold the latency
# median and tail; the n = 4 inputs carry most of the time.
LATTICE_PLAN = {
    "light": [("minimal", 2, ((),), w) for w in (
        "x-1 x-0", "x-0 x--1", "xx-0", "a1 xx-0", "x--1 x-1", "a-1 xx-0")]
    + [("weak", 2, s, w) for s, w in (
        (((0,), (1,)), "x-0"), (((0,), (1,)), "x-1"), (((0,),), "x--1"),
        (((1,),), "x-0 a2"), (((),), "x-1 x-0"), (((),), "xx-0"))]
    + [("minimal", 3, ((),), w) for w in (
        "x-1 x-0", "x-0 x--1", "xx-0", "a1 xx-0", "x-0 xx-0", "a2 x-0 x-1")]
    + [("weak", 3, s, w) for s, w in (
        (((0,), (2,)), "x-0"), (((1,), (2,)), "x-1"), (((0,),), "x--1"),
        (((2,),), "x-0 a-1"), (((),), "x-1 x-0"), (((0,), (1,)), "xx-0"))],
    "median": [("minimal", 2, ((),), "x-1 x-0")] * 80,
    "tail": [("minimal", 3, ((),), "x-0 xx-0")] * 8,
    "heavy": [("minimal", 4, ((),), "x-1 x-0"),
              ("weak", 4, ((0,), (2,)), "x-0"),
              ("minimal", 4, ((),), "x-0 x--1"),
              ("weak", 4, ((1,), (3,)), "x-1"),
              ("minimal", 4, ((),), "x-1 x-0"),
              ("weak", 4, ((0,), (2,)), "x-0")],
}


def lattice_input(seed, idx, kind, n, subsets, word) -> WedgeElem:
    rng = seeded_rng(seed, "lattice", idx)
    l0 = len(subsets[0])
    P = WedgeElem(n, l0)
    for s in subsets:
        P = P + WedgeElem(n, l0, {s: seeded_symmetric(rng, n)})
    P = action.apply_word(parse_word(word), P)
    if P.is_zero() or P.l < 2:
        raise ValueError("lattice op %s does not reach l >= 2" % (idx,))
    return P


def build_lattice(seed, workdir):
    plan = [(part, case) for part in ("light", "median", "tail", "heavy")
            for case in LATTICE_PLAN[part]]
    groups = {part: [] for part in LATTICE_PLAN}
    for idx, (part, (kind, n, subsets, word)) in enumerate(plan):
        P = lattice_input(seed, idx, kind, n, subsets, word)

        def run(P=P, kind=kind):
            checks = [cycles.is_weakly_minimal(P)[0]]
            outputs = []
            for point in ("zero", "inf"):
                series = action.act_series("xplus2", P, 3, point, expect_polynomial=True)
                for k in sorted(series.coeffs):
                    elem = series.coeffs[k]
                    coeffs = elem.coeffs_as_laurent()
                    checks.append(coeffs is not None)
                    if coeffs is None:
                        continue
                    checks.append(all(is_symmetric(c, P.n) for c in coeffs.values()))
                    checks.append(cycles.is_weakly_minimal(elem)[0])
                    if kind == "minimal":
                        checks.append(cycles.is_minimal(elem)[0])
                    outputs.append((point, k, elem))
            return checks, lambda: "|".join(
                "%s%d:%s" % (point, k, canon_elem(elem)) for point, k, elem in outputs)
        groups[part].append(Op("%s(%d,%d)" % (kind, P.n, P.l), run))
    return weave(**groups)


# ---------------------------------------------------------------------------
# towers: words on distinguished towers, worked towers, Schur forms
# ---------------------------------------------------------------------------

# (weight, window top, word) from the criterion-3 mode pool, without the
# divided raising mode (the lattice workload runs it); words apply right to
# left, one op per mode
TOWER_WORDS = (
    (0, 4, "x-0 x--2"), (0, 4, "a1 x+-1"), (0, 4, "x-2 t1"), (0, 4, "x-1 a-2"),
    (0, 4, "x--1 a2 x+2"), (0, 4, "xx-0 x+1"),
    (1, 5, "x+0 x--1"), (1, 5, "x+-2 x-1 a1"),
)

# (weight, window top, mode, repeats): single modes on fresh seeded towers
# for the latency median and the tail; they run after the cold words
TOWER_REPEATS = ((0, 6, "a2", 100), (0, 6, "x--2", 7))


def build_towers(seed, workdir):
    """Every word cold (filling the kernel-series caches), then again warm."""
    ops = []
    results = {}
    starts = [cycles.distinguished_cycle(m, top).scaled(
        seeded_scalar(seeded_rng(seed, "towers", idx)))
        for idx, (m, top, _) in enumerate(TOWER_WORDS)]
    for rep in ("cold", "warm"):
        for idx, (m, top, word) in enumerate(TOWER_WORDS):
            state = {"cur": starts[idx]}
            for j, mode in enumerate(reversed(parse_word(word))):
                def run(state=state, mode=mode, key=(idx, j), rep=rep):
                    # act_on_cycle re-verifies every link and raises on failure
                    out = cycles.act_on_cycle(mode, state["cur"])
                    state["cur"] = out
                    checks = [True]
                    if rep == "warm":
                        checks.append(out == results[key])
                    else:
                        results[key] = out
                    return checks, lambda: canon_tower(out)
                ops.append(Op("%s:%r@w%d" % (rep, mode, m), run))

    repeats = []
    for m, top, tok, count in TOWER_REPEATS:
        mode = parse_word(tok)[0]
        repeats.append([])
        for i in range(count):
            start = cycles.distinguished_cycle(m, top).scaled(
                seeded_scalar(seeded_rng(seed, "towers", tok, i)))

            def run(start=start, mode=mode):
                out = cycles.act_on_cycle(mode, start)
                return [True], lambda: canon_tower(out)
            repeats[-1].append(Op("repeat:%r@w%d" % (mode, m), run))

    c = seeded_scalar(seeded_rng(seed, "towers", "worked"))
    identity = cycles.distinguished_cycle(0, 6).scaled(c)

    def current(name, mode, scalar):
        def run():
            _, comps = cycles.example_towers(name, 6)
            up = cycles.act_on_cycle(mode, identity)
            sc = scalar * c
            return ([all(up.components[n] == comps[n].scaled(sc) for n in (2, 4, 6))],
                    lambda: "%s|%s" % (name, canon_tower(up)))
        return run

    ops.append(Op("current:jminus", current(
        "jminus", action.xplus(1), parse_scalar(conventions.TOWER_SCALARS["jminus"]))))
    ops.append(Op("current:jplus", current("jplus", action.xplus(-1), -CycScalar.one())))

    def energy(name, word):
        def run():
            _, comps = cycles.example_towers(name, 4)
            acted = cycles.act_on_cycle(word, identity, verify=False)
            sc = parse_scalar(conventions.TOWER_SCALARS[name]) * (-I)
            checks = [orbit.member_mod_null(comps[n].scaled(c), acted.components[n].scaled(sc))[0]
                      for n in (2, 4)]
            return checks, lambda: "%s|%s" % (name, canon_tower(acted))
        return run

    ops.append(Op("energy:Tz", energy("Tz", [action.xminus(1), action.xplus(1)])))
    heavy = [Op("energy:Tzbar", energy("Tzbar", [action.xplus(-1), action.xminus(-1)]))]

    for k, l_max in ((1, 2), (2, 1)):
        def run(k=k, l_max=l_max):
            rep = cycles.verify_schur_formula(k, l_max)
            want = conventions.SCHUR_WORD_SCALARS[k]
            return ([bool(rep["passed"]), rep.get("scalar") == want],
                    "schur%d|%s|%s" % (k, rep["passed"], rep.get("scalar")))
        heavy.append(Op("schur:k%d" % k, run))
    return weave(ops, repeats[0], repeats[1], heavy)


# ---------------------------------------------------------------------------
# cli: sequential invocations through the benchmark's runner
# ---------------------------------------------------------------------------

GOLDEN_CASES = {
    "identity_tower_n6.json": ["tower", "--name", "identity", "--nmax", "6"],
    "jminus_tower_n6.json": ["tower", "--name", "jminus", "--nmax", "6"],
    "orbit_N1_deg3.json": ["orbit", "--N", "1", "--deg", "3"],
    "chi0_q3_z2.json": ["char", "--formula", "chi0", "--qmax", "3", "--zmax", "2"],
}


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(serialize.dumps(obj))
    return path


def seeded_calls(seed, workdir):
    """Invocations on seeded JSON inputs written to workdir."""
    calls = []
    # tower-act on seeded multiples of the distinguished towers
    for idx, (m, word) in enumerate(((0, "x+1"), (0, "x-0 x+1"), (1, "a1"), (1, "x+0"),
                                     (2, "x-1"), (0, "t1 x+-1"), (1, "x-2"), (2, "a-1"))):
        c = seeded_scalar(seeded_rng(seed, "cli", "tower", idx))
        cyc = cycles.distinguished_cycle(m, 5 if m % 2 else 6).scaled(c)
        path = _write(workdir, "tower%d.json" % idx, serialize.infcycle_to_json(cyc))
        calls.append((["tower-act", "--word", word, "--in", path], None))

    # link-check on consecutive components of seeded towers
    for idx in range(8):
        m = idx % 3
        c = seeded_scalar(seeded_rng(seed, "cli", "link", idx))
        cyc = cycles.distinguished_cycle(m, m + 6).scaled(c)
        n = m + 2 * (idx % 3)
        low, high = (_write(workdir, "%s%d.json" % (side, idx),
                            serialize.wedge_to_json(cyc.components[n + shift]))
                     for side, shift in (("low", 0), ("high", 2)))
        calls.append((["link-check", "--low", low, "--high", high], None))

    # act and act --series on seeded symmetric elements
    for idx, (n, l, fam, k) in enumerate((
            (2, 1, "xminus", 1), (3, 1, "xminus", 0), (3, 2, "xplus", 1), (2, 2, "xplus", -1),
            (3, 1, "aplus", 1), (3, 2, "aminus", -1), (2, 0, "xminus2", 0), (3, 2, "xplus2", 0),
            (2, 1, "t1", 1), (3, 1, "xplus", 0))):
        P = WedgeElem(n, l, {tuple(range(l)): seeded_symmetric(
            seeded_rng(seed, "cli", "act", idx), n)})
        path = _write(workdir, "act%d.json" % idx, serialize.wedge_to_json(P))
        calls.append((["act", "--family", fam, "--k", str(k), "--in", path], None))
        if fam in action.FAMILIES[:6] and idx < 8:
            calls.append((["act", "--family", fam, "--series", "--order", "3",
                           "--in", path], None))

    # minimal-check on seeded minimal elements
    for idx, word in enumerate(("x-1 x-0", "xx-0", "x-0 x--1", "a1 xx-0")):
        for n in (2, 3):
            P = lattice_input(seed, "cli/%d" % idx, "minimal", n, ((),), word)
            path = _write(workdir, "min%d_%d.json" % (idx, n),
                          serialize.wedge_to_json(P))
            calls.append((["minimal-check", "--in", path, "--require", "minimal"], None))

    # mod-null: an element against itself plus a seeded multiple of a null generator
    for idx, (n, l) in enumerate(((2, 1), (3, 1), (3, 2), (4, 2))):
        rng = seeded_rng(seed, "cli", "null", idx)
        P = WedgeElem(n, l, {tuple(range(l)): seeded_symmetric(rng, n)})
        gen = orbit.null_generators(n, l)[0]
        T = P + gen.scaled(seeded_symmetric(rng, n))
        a = _write(workdir, "nullP%d.json" % idx, serialize.wedge_to_json(P))
        b = _write(workdir, "nullT%d.json" % idx, serialize.wedge_to_json(T))
        calls.append((["mod-null", "--in", a, "--target", b], None))

    return calls


# like oracle invocations for the latency tail; about four invocations
# (tower-act, orbit) are slower, so 12 put the tail mid-group (see weave)
CLI_TAIL_REPEATS = 12


def cli_inputs(seed, workdir):
    """Write the seeded JSON inputs; returns the list of (argv, golden name)."""
    calls = []
    for name, argv in GOLDEN_CASES.items():
        calls += [(argv, name)] * 2
    for w in range(4):
        calls.append((["tower", "--name", "distinguished", "--weight", str(w),
                       "--nmax", "6"], None))
    for name in ("jplus", "Tz", "Tzbar"):
        calls.append((["tower", "--name", name, "--nmax", "6"], None))
    for n, l in ((2, 1), (3, 1), (3, 2), (4, 2)):
        calls.append((["null", "--n", str(n), "--l", str(l)], None))

    calls += seeded_calls(seed, workdir)

    calls.append((["orbit", "--N", "2", "--deg", "4"], None))
    dims = _write(workdir, "dims.json", {"N": 2, "dims": [
        {"deg0": d, "weight": w, "dim": 1} for d, w in ((0, 2), (1, 0))]})
    calls.append((["char", "--measured", dims, "--N", "2"], None))
    for L2 in range(3):
        calls.append((["char", "--verify", "sum-identity", "--L2", str(L2)], None))
    for L2, i in ((0, 0), (1, 1)):
        calls.append((["char", "--verify", "product", "--L2", str(L2), "--i", str(i)], None))
    for formula in ("chi0", "chi1", "minimal"):
        calls.append((["char", "--formula", formula, "--qmax", "5"], None))

    for idx, (fam, n, l) in enumerate((("xminus", 2, 0), ("xminus", 3, 1), ("xplus", 3, 1),
                                       ("xplus2", 3, 2), ("aplus", 3, 1), ("aminus", 3, 2),
                                       ("xminus2", 3, 1), ("xplus", 2, 1))):
        s = seeded_rng(seed, "cli", "oracle", idx).randrange(1 << 20)
        calls.append((["oracle", "--family", fam, "--n", str(n), "--l", str(l),
                       "--samples", "1", "--seed", str(s)], None))

    # the tail group, spread over the pass
    subsets = _subsets(3, 1, 2)
    tail = [(["oracle", "--family", "xminus", "--n", "3", "--l", "1", "--samples", "1",
              "--seed", str(oracle_sample_seed(seed, "cli%d" % i, 3, 1, subsets))], None)
            for i in range(CLI_TAIL_REPEATS)]
    return spread(calls, tail)


def cli_op(argv, want, workdir, env=None):
    """One invocation through the runner, checked by exit code and golden bytes."""
    cmd = [sys.executable, os.path.join(HERE, "clirun.py")] + argv
    # input paths differ between runs, so only the verb and output are hashed
    verb = " ".join(a for a in argv if not a.startswith(workdir))

    def run():
        proc = subprocess.run(cmd, capture_output=True, env=env)
        checks = [proc.returncode == 0]
        if want is not None:
            checks.append(proc.stdout == want)
        return checks, "%s|%d|%s" % (verb, proc.returncode, proc.stdout.decode())
    return run


def build_cli(seed, workdir, env_for=lambda idx: None):
    ops = []
    for idx, (argv, golden) in enumerate(cli_inputs(seed, workdir)):
        want = None
        if golden is not None:
            with open(os.path.join(GOLDEN, golden), "rb") as fh:
                want = fh.read()
        ops.append(Op(argv[0], cli_op(argv, want, workdir, env_for(idx)), child=True))
    return ops


BUILDERS = {"oracle": build_oracle, "lattice": build_lattice,
            "towers": build_towers, "cli": build_cli}
