"""JSON forms for every value the command line reads or writes.

Scalars use the textual form "a + b*w + c*w^2 + d*w^3" with w the primitive
8th root of unity and rational components "p/q".  Polynomials are term lists
against a named-variable header; rational functions are num/den pairs with
the denominator flattened to a single polynomial.  All maps are emitted with
sorted keys so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json

from .cyclotomic import parse_scalar
from .laurent import LaurentPoly, RationalFn
from .wedge import WedgeElem
from .cycles import InfCycle


def poly_to_json(p: LaurentPoly) -> dict:
    names = p.variables()
    terms = []
    for mono in sorted(p.terms):
        d = dict(mono)
        terms.append({
            "exps": [d.get(v, 0) for v in names],
            "coeff": str(p.terms[mono]),
        })
    return {
        "vars": names,
        "laurent": [not v.startswith("X") for v in names],
        "terms": terms,
    }


def poly_from_json(obj: dict) -> LaurentPoly:
    names = list(obj["vars"])
    flags = list(obj.get("laurent", [not v.startswith("X") for v in names]))
    terms = {}
    for item in obj["terms"]:
        exps = item["exps"]
        if len(exps) != len(names):
            raise ValueError("exponent vector length does not match header")
        for v, flag, e in zip(names, flags, exps):
            if e < 0 and not flag:
                raise ValueError("negative exponent on non-Laurent variable %s" % v)
        mono = tuple(sorted((v, e) for v, e in zip(names, exps) if e))
        coeff = parse_scalar(item["coeff"])
        if mono in terms:
            terms[mono] = terms[mono] + coeff
        else:
            terms[mono] = coeff
    return LaurentPoly(terms)


def ratfn_to_json(r: RationalFn) -> dict:
    if r.is_poly():
        return poly_to_json(r.num)
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den_poly())}


def ratfn_from_json(obj: dict) -> RationalFn:
    if "num" in obj:
        num = poly_from_json(obj["num"])
        den = poly_from_json(obj["den"])
        return RationalFn(num, [den])
    return RationalFn.from_poly(poly_from_json(obj))


def wedge_to_json(P: WedgeElem) -> dict:
    return {
        "n": P.n,
        "l": P.l,
        "terms": [
            {"subset": list(s), "coeff": ratfn_to_json(P.terms[s])}
            for s in sorted(P.terms)
        ],
    }


def wedge_from_json(obj: dict) -> WedgeElem:
    terms = {}
    for item in obj["terms"]:
        terms[tuple(item["subset"])] = ratfn_from_json(item["coeff"])
    return WedgeElem(obj["n"], obj["l"], terms)


def tower_to_json(weight: int, components: dict) -> dict:
    return {
        "weight": weight,
        "window": [min(components), max(components)] if components else [],
        "components": [
            {"n": n, "elem": wedge_to_json(components[n])}
            for n in sorted(components)
        ],
    }


def infcycle_to_json(cyc: InfCycle) -> dict:
    return tower_to_json(cyc.weight, cyc.components)


def tower_from_json(obj: dict) -> InfCycle:
    """A linked tower; construction verifies every link (LinkViolation)."""
    comps = {item["n"]: wedge_from_json(item["elem"]) for item in obj["components"]}
    return InfCycle(obj["weight"], comps)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
