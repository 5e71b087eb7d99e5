"""Intermediate lattices L ⊂ L' ⊂ L*, in particular U(M) = π⁻¹(M).

An overlattice L' is stored as integers: the HNF rows of denom·L' ⊂ L in
the coordinates of the base lattice, with denom the exponent of L'/L, so
overlattice values compare by equality.
Construction never fails: integrality is a queried property, which makes
the failing direction of the metabolizer/unimodular-overlattice
correspondence testable.  det L' = det L/[L' : L]² comes from the base
lattice's det, so `corrterm.min_char_square` decides unimodularity without
factoring the Gram matrix of L'.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import exactmat
from .errors import InvariantViolation, NotIntegral


@dataclass(frozen=True)
class OverLattice:
    rows: tuple         # n×n int HNF rows H; the basis of L' is H/denom
    denom: int          # exponent of L'/L: the least e with e·L' ⊂ L
    scaled_gram: tuple  # n×n ints H·G_L·Hᵀ = denom²·gram(L')
    index: int          # [L' : L]
    det: Fraction       # det gram(L') = det L/[L' : L]²


def _canonical(lat, rows, denom):
    """Canonical overlattice spanned by rows/denom (int rows, in L-coords).

    The rows are put in HNF H, and H and denom are divided by their common
    gcd, so that denom is the exponent of L'/L and H is the HNF of the
    lattice denom·L' ⊂ L: equal lattices give equal values."""
    n = lat.rank
    h = exactmat.hnf(rows)[:n]
    pivots = prod(h[i][i] for i in range(n))
    if pivots == 0 or denom ** n % pivots != 0:
        raise InvariantViolation("spanning rows do not contain the lattice")
    index = denom ** n // pivots
    g = gcd(denom, *(x for row in h for x in row))
    h = [[x // g for x in row] for row in h]
    denom //= g
    gram = exactmat.gram_of_rows(h, lat.gram_rows())
    return OverLattice(rows=tuple(map(tuple, h)), denom=denom,
                       scaled_gram=tuple(map(tuple, gram)),
                       index=index, det=Fraction(lat.det, index * index))


def overlattice(grp, m):
    """U(M) = π⁻¹(M) for a subgroup M of a lattice-derived group grp."""
    n = grp.lattice.rank
    # the lift of an element lies in (1/e)·L for the exponent e of the group
    e = grp.exponent
    rows = [[e * (i == j) for j in range(n)] for i in range(n)]
    for x in m.generators:
        rows.append([sum(a * v[j] for a, v in zip(x, grp.lifts))
                     for j in range(n)])
    return _canonical(grp.lattice, rows, e)


def is_integral(u):
    d2 = u.denom * u.denom
    return all(x % d2 == 0 for row in u.scaled_gram for x in row)


def int_gram(u):
    """The Gram matrix of an integral overlattice, as plain ints, in one
    pass over H·G_L·Hᵀ that stops at the first entry denom² does not
    divide."""
    d2 = u.denom * u.denom
    gram = []
    for row in u.scaled_gram:
        out = []
        for x in row:
            q, r = divmod(x, d2)
            if r:
                raise NotIntegral("overlattice form is not integral")
            out.append(q)
        gram.append(out)
    return gram

