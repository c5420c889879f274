"""JSON forms for every value the command line reads or writes.

Scalars use the textual form "a + b*w + c*w^2 + d*w^3" with w the primitive
8th root of unity and rational components "p/q".  Polynomials are term lists
against a named-variable header; rational functions are num/den pairs with
the denominator flattened to a single polynomial.  All maps are emitted with
sorted keys so identical inputs give byte-identical files.  Reading checks
every field, and a value without the documented form raises MalformedInput.
"""

from __future__ import annotations

import json

from .cyclotomic import parse_scalar
from .laurent import LaurentPoly, RationalFn
from .wedge import WedgeElem
from .cycles import InfCycle


class MalformedInput(ValueError):
    """A JSON value that does not have the documented form."""


def _field(obj, key: str, kind: type = int):
    """obj[key], required to be a `kind` (an int is never a bool)."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput("missing field %r" % key)
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedInput("field %r is not a %s" % (key, kind.__name__))
    return value


def _int_list(obj, key: str) -> list:
    items = _field(obj, key, list)
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in items):
        raise MalformedInput("field %r holds a non-integer" % key)
    return items


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
    names = _field(obj, "vars", list)
    if not all(isinstance(v, str) for v in names):
        raise MalformedInput("variable names must be strings")
    flags = (_field(obj, "laurent", list) if "laurent" in obj
             else [not v.startswith("X") for v in names])
    terms = {}
    for item in _field(obj, "terms", list):
        exps = _int_list(item, "exps")
        if len(exps) != len(names):
            raise MalformedInput("exponent vector length does not match header")
        for v, flag, e in zip(names, flags, exps):
            if e < 0 and not flag:
                raise MalformedInput("negative exponent on non-Laurent variable %s" % v)
        mono = tuple(sorted((v, e) for v, e in zip(names, exps) if e))
        text = _field(item, "coeff", str)
        try:
            coeff = parse_scalar(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput("bad coefficient: %s" % exc)
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
    if isinstance(obj, dict) and "num" in obj:
        num = poly_from_json(_field(obj, "num", dict))
        den = poly_from_json(_field(obj, "den", dict))
        if den.is_zero():
            raise MalformedInput("zero denominator")
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
    n, l = _field(obj, "n"), _field(obj, "l")
    terms = {}
    for item in _field(obj, "terms", list):
        terms[tuple(_int_list(item, "subset"))] = ratfn_from_json(_field(item, "coeff", dict))
    return WedgeElem(n, l, terms)


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
    weight = _field(obj, "weight")
    comps = {_field(item, "n"): wedge_from_json(_field(item, "elem", dict))
             for item in _field(obj, "components", list)}
    return InfCycle(weight, comps)


def dims_from_json(obj: dict) -> dict:
    """(deg0, weight) -> dim from the `dims` rows the orbit verb writes."""
    return {(_field(row, "deg0"), _field(row, "weight")): _field(row, "dim")
            for row in _field(obj, "dims", list)}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
