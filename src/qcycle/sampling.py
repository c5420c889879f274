"""Seeded random elements for property checks and the acceptance suite.

Everything takes an explicit random.Random so that identical seeds reproduce
identical runs bit for bit.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from .cyclotomic import CycScalar
from .laurent import LaurentPoly, zvar
from .wedge import WedgeElem


def random_laurent(rng: random.Random, n: int, span=(-2, 2), terms=(1, 2)) -> LaurentPoly:
    """Small random Laurent polynomial in z1..zn."""
    p = LaurentPoly.zero()
    for _ in range(rng.randint(*terms)):
        mono = []
        for j in range(1, n + 1):
            e = rng.randint(*span)
            if e and rng.random() < 0.8:
                mono.append((zvar(j), e))
        p = p + LaurentPoly.monomial(tuple(sorted(mono)), rng.randint(-3, 3))
    return p


def random_symmetric(rng: random.Random, n: int, span=(-1, 2)) -> LaurentPoly:
    """Random symmetric Laurent polynomial (orbit sum of a random monomial)."""
    exps = [rng.randint(*span) for _ in range(n)]
    seen = set()
    p = LaurentPoly.zero()
    for perm in permutations(exps):
        if perm in seen:
            continue
        seen.add(perm)
        mono = tuple((zvar(j + 1), e) for j, e in enumerate(perm) if e)
        p = p + LaurentPoly.monomial(tuple(sorted(mono)), 1)
    c = rng.randint(-3, 3) or 1
    return p.scale(CycScalar(c))


def random_wedge(rng: random.Random, n: int, l: int, symmetric=False) -> WedgeElem:
    """Sparse random element of the (n, l) wedge space: two random terms."""
    out = WedgeElem(n, l)
    subsets = [tuple(c) for c in combinations(range(n), l)]
    for _ in range(2):
        s = rng.choice(subsets)
        c = random_symmetric(rng, n) if symmetric else random_laurent(rng, n)
        if c.is_zero():
            continue
        out = out + WedgeElem(n, l, {s: c})
    return out
