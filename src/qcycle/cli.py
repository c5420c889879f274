"""Command-line front end: JSON in, JSON out, deterministic everywhere.

Verbs mirror the library surface: single-mode actions and series, link and
minimality checks, tower construction and componentwise words, orbit
dimension tables, the null layer, characters, the fermionic oracle, and the
full acceptance suite.  Identical invocations produce byte-identical output;
seeded verbs take --seed.  Exit codes: 0 success, 1 a verification failed,
2 malformed input, 3 shape mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON in %s: %s" % (path, exc))


def _emit(args, payload):
    text = serialize.dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_word(text: str):
    """Parse mode tokens: x+K, x-K, xx+0, xx-0, aK, t1, t1^-1."""
    from .action import GenMode

    out = []
    for tok in text.replace(",", " ").split():
        try:
            if tok == "t1":
                out.append(GenMode("t1", 1))
            elif tok == "t1^-1":
                out.append(GenMode("t1", -1))
            elif tok.startswith("xx+"):
                out.append(GenMode("xplus2", int(tok[3:])))
            elif tok.startswith("xx-"):
                out.append(GenMode("xminus2", int(tok[3:])))
            elif tok.startswith("x+"):
                out.append(GenMode("xplus", int(tok[2:])))
            elif tok.startswith("x-"):
                out.append(GenMode("xminus", int(tok[2:])))
            elif tok.startswith("a"):
                from .action import atilde
                out.append(atilde(int(tok[1:])))
            else:
                raise ValueError(tok)
        except ValueError:
            raise CliError("cannot parse mode token %r" % tok)
    return out


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------


def cmd_act(args):
    from .action import SERIES_FAMILIES, GenMode, act_series, apply_mode

    if args.series:
        if args.family not in SERIES_FAMILIES:
            raise CliError("--series takes a series family, not %r" % args.family)
    else:
        try:
            g = GenMode(args.family, args.k)
        except ValueError as exc:
            raise CliError(str(exc))
    P = serialize.wedge_from_json(_read_json(args.infile))
    if args.series:
        series = act_series(args.family, P, args.order)
        payload = {
            "family": args.family,
            "point": series.point,
            "order": series.order,
            "prefactor": str(series.prefactor),
            "coefficients": [
                {"t_power": k, "elem": serialize.wedge_to_json(series.coeffs[k])}
                for k in sorted(series.coeffs)
            ],
        }
    else:
        out = apply_mode(g, P)
        payload = serialize.wedge_to_json(out)
    _emit(args, payload)
    return 0


def cmd_link_check(args):
    from .cycles import link_residual

    low = serialize.wedge_from_json(_read_json(args.low))
    high = serialize.wedge_from_json(_read_json(args.high))
    try:
        res = link_residual(low, high)
    except ValueError as exc:
        raise CliError(str(exc), code=3)
    ok = res.is_zero()
    _emit(args, {"linked": ok})
    return 0 if ok else 1


def cmd_minimal_check(args):
    from .cycles import is_minimal, is_weakly_minimal

    P = serialize.wedge_from_json(_read_json(args.infile))
    minimal, _ = is_minimal(P)
    weak, _ = is_weakly_minimal(P)
    payload = {"weakly_minimal": weak, "minimal": minimal}
    _emit(args, payload)
    want = args.require
    if want == "minimal" and not minimal:
        return 1
    if want == "weak" and not weak:
        return 1
    return 0


def cmd_tower(args):
    from .cycles import distinguished_cycle, example_towers

    if args.name == "distinguished":
        cyc = distinguished_cycle(args.weight, args.nmax)
        payload = serialize.infcycle_to_json(cyc)
    else:
        weight, comps = example_towers(args.name, args.nmax)
        payload = serialize.tower_to_json(weight, comps)
    _emit(args, payload)
    return 0


def cmd_tower_act(args):
    from .cycles import LinkViolation, act_on_cycle

    try:
        cyc = serialize.tower_from_json(_read_json(args.infile))
    except LinkViolation:
        raise CliError("input tower is not linked", code=1)
    word = parse_word(args.word)
    try:
        out = act_on_cycle(word, cyc)
    except LinkViolation:
        raise CliError("action broke a link, which indicates corrupt input", code=1)
    _emit(args, serialize.infcycle_to_json(out))
    return 0


def cmd_orbit(args):
    from .orbit import generate_W

    res = generate_W(args.N, args.deg)
    dims = [
        {"deg0": d, "weight": m, "dim": res.dims[(d, m)]}
        for (d, m) in sorted(res.dims)
    ]
    _emit(args, {"N": args.N, "deg_cutoff": args.deg, "dims": dims,
                 "stable": res.stable})
    return 0 if res.stable else 1


def cmd_null(args):
    from .orbit import null_generators

    if args.l > args.n:
        raise CliError("--l must lie in 0..%d" % args.n)
    gens = null_generators(args.n, args.l)
    payload = {
        "n": args.n,
        "l": args.l,
        "generators": [serialize.wedge_to_json(g) for g in gens],
    }
    _emit(args, payload)
    return 0


def cmd_mod_null(args):
    from .orbit import member_mod_null

    P = serialize.wedge_from_json(_read_json(args.infile))
    target = serialize.wedge_from_json(_read_json(args.target))
    try:
        ok, _combo = member_mod_null(P, target)
    except ValueError as exc:
        raise CliError(str(exc), code=3)
    _emit(args, {"equal_mod_null": ok})
    return 0 if ok else 1


def cmd_char(args):
    from . import characters

    if args.formula:
        if args.formula in ("chi0", "chi1"):
            series = characters.level1_char(int(args.formula[-1]), args.qmax, args.zmax)
        elif args.formula == "demazure":
            series = characters.demazure_char(args.L2 % 2, args.L2)
        else:
            series = characters.minimal_char(args.N, args.qmax)
        _emit(args, {"formula": args.formula, "table": characters.table(series)})
        return 0
    if args.verify:
        if args.verify == "sum-identity":
            rep = characters.sum_identity_report(args.L2, qmax=args.qmax, zmax=args.zmax)
        elif args.verify == "product":
            rep = characters.char_product_report(args.L2, args.i, depth=args.depth,
                                                 zmax=args.zmax, N_max=args.nmax)
        else:
            rep = characters.stabilization_report(args.i)
            rep["passed"] = rep["limit_includes_partition_factor"]
        _emit(args, rep)
        return 0 if rep.get("passed") else 1
    if args.measured:
        dims = serialize.dims_from_json(_read_json(args.measured))
        series = characters.measured_char(dims, args.N)
        _emit(args, {"N": args.N, "table": characters.table(series)})
        return 0
    raise CliError("char needs one of --formula, --verify, --measured")


def _applicable_degrees(family: str, n: int):
    if family in ("xminus", "xminus2"):
        return list(range(0, n))
    if family == "xplus":
        return list(range(1, n + 1))
    if family == "xplus2":
        return list(range(2, n + 1))
    return list(range(0, n + 1))


def cmd_oracle(args):
    from .fermion import cross_check

    degrees = _applicable_degrees(args.family, args.n)
    if args.l is not None:
        if args.l not in degrees:
            raise CliError("--l %d does not apply to %s at n = %d" % (args.l, args.family, args.n))
        degrees = [args.l]
    if not degrees:
        raise CliError("no input degree applies to %s at n = %d" % (args.family, args.n))
    reports = []
    for idx, l in enumerate(degrees):
        reports.append(cross_check(args.family, args.n, l,
                                   args.samples, args.order, args.seed + idx))
    scalars = {rep["scalar"] for rep in reports if rep["scalar"] is not None}
    passed = all(rep["passed"] for rep in reports) and len(scalars) <= 1
    payload = {
        "family": args.family,
        "n": args.n,
        "passed": passed,
        "scalar": scalars.pop() if len(scalars) == 1 else None,
        "cases": reports,
    }
    _emit(args, payload)
    return 0 if passed else 1


def cmd_accept(args):
    from .acceptance import run_suite

    if args.suite != "primary":
        raise CliError("unknown suite %r" % args.suite)
    report = run_suite()
    for res in report["results"]:
        print("%s %s: %s" % ("PASS" if res.passed else "FAIL", res.ident, res.title))
        if args.verbose or not res.passed:
            for line in res.lines:
                print("    " + line)
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        with open(os.path.join(args.artifacts, "conventions.json"), "w") as fh:
            fh.write(serialize.dumps(report["conventions"]))
        with open(os.path.join(args.artifacts, "report.json"), "w") as fh:
            fh.write(serialize.dumps({
                "passed": report["passed"],
                "criteria": [res.as_json() for res in report["results"]],
            }))
    print("suite:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("%s is negative" % text)
    return value


def _positive(text: str) -> int:
    """argparse type for a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("%s is not positive" % text)
    return value


def build_parser():
    from .action import FAMILIES, SERIES_FAMILIES

    p = argparse.ArgumentParser(
        prog="qcycle",
        description="exact engine for deformed cycles and loop-algebra actions "
                    "at the fourth root of unity",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    pa = sub.add_parser("act", help="apply a generator mode or series")
    pa.add_argument("--family", required=True, choices=FAMILIES)
    pa.add_argument("--k", type=int, default=0)
    pa.add_argument("--series", action="store_true")
    pa.add_argument("--order", type=_natural, default=3)
    pa.add_argument("--in", dest="infile", required=True)
    pa.add_argument("--out")
    pa.set_defaults(fn=cmd_act)

    pl = sub.add_parser("link-check", help="verify the linking identity for a pair")
    pl.add_argument("--low", required=True)
    pl.add_argument("--high", required=True)
    pl.add_argument("--out")
    pl.set_defaults(fn=cmd_link_check)

    pm = sub.add_parser("minimal-check", help="test the two minimality conditions")
    pm.add_argument("--in", dest="infile", required=True)
    pm.add_argument("--require", choices=("none", "weak", "minimal"), default="none")
    pm.add_argument("--out")
    pm.set_defaults(fn=cmd_minimal_check)

    pt = sub.add_parser("tower", help="emit a named tower of cycles")
    pt.add_argument("--name", required=True,
                    choices=("distinguished", "identity", "jplus", "jminus", "Tz", "Tzbar"))
    pt.add_argument("--weight", type=_natural, default=0)
    pt.add_argument("--nmax", type=_natural, default=6)
    pt.add_argument("--out")
    pt.set_defaults(fn=cmd_tower)

    pw = sub.add_parser("tower-act", help="apply a word of modes componentwise")
    pw.add_argument("--word", required=True,
                    help="tokens like 'x+1 x-0 a2 xx-0 t1' applied right to left")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--out")
    pw.set_defaults(fn=cmd_tower_act)

    po = sub.add_parser("orbit", help="bigraded dimension table of the unit orbit")
    po.add_argument("--N", type=_natural, required=True)
    po.add_argument("--deg", type=_natural, required=True)
    po.add_argument("--out")
    po.set_defaults(fn=cmd_orbit)

    pn = sub.add_parser("null", help="emit null-layer generators")
    pn.add_argument("--n", type=_natural, required=True)
    pn.add_argument("--l", type=_natural, required=True)
    pn.add_argument("--out")
    pn.set_defaults(fn=cmd_null)

    pq = sub.add_parser("mod-null", help="compare two elements modulo the null layer")
    pq.add_argument("--in", dest="infile", required=True)
    pq.add_argument("--target", required=True)
    pq.add_argument("--out")
    pq.set_defaults(fn=cmd_mod_null)

    pc = sub.add_parser("char", help="character formulas and identities")
    pc.add_argument("--formula", choices=("chi0", "chi1", "demazure", "minimal"))
    pc.add_argument("--verify", choices=("sum-identity", "product", "stabilization"))
    pc.add_argument("--measured", help="dims JSON from the orbit verb")
    pc.add_argument("--qmax", type=_natural, default=6)
    pc.add_argument("--zmax", type=_natural, default=4)
    pc.add_argument("--L2", type=_natural, default=0, help="twice the cutoff level")
    pc.add_argument("--i", type=int, choices=(0, 1), default=0)
    pc.add_argument("--N", type=_natural, default=1)
    pc.add_argument("--depth", type=_natural, default=3)
    pc.add_argument("--nmax", type=_natural, default=6)
    pc.add_argument("--out")
    pc.set_defaults(fn=cmd_char)

    pf = sub.add_parser("oracle", help="cross-check one family against the fermions")
    pf.add_argument("--family", required=True, choices=SERIES_FAMILIES)
    pf.add_argument("--n", type=_natural, required=True)
    pf.add_argument("--l", type=_natural, help="input degree; defaults to all applicable")
    pf.add_argument("--samples", type=_positive, default=5)
    pf.add_argument("--order", type=_natural, default=3)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out")
    pf.set_defaults(fn=cmd_oracle)

    pacc = sub.add_parser("accept", help="run the acceptance suite")
    pacc.add_argument("--suite", default="primary")
    pacc.add_argument("--artifacts", help="directory for conventions.json and report.json")
    pacc.add_argument("--verbose", action="store_true")
    pacc.set_defaults(fn=cmd_accept)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except serialize.MalformedInput as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
