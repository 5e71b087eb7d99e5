"""Intermediate lattices L ⊂ L' ⊂ L*, in particular U(M) = π⁻¹(M).

An overlattice is stored by a canonical (HNF-reduced) basis in the
coordinates of the base lattice, so overlattice values compare by equality.
Construction never fails: integrality and unimodularity are queried
properties, which is what makes the failing direction of the
metabolizer/unimodular-overlattice correspondence testable.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import discgroup, exactmat
from .errors import InvariantViolation, NotIntegral


@dataclass(frozen=True)
class OverLattice:
    basis: tuple  # n×n Fraction rows, basis of L' in L-coordinates
    gram: tuple   # n×n Fractions, basis·gram_L·basisᵀ
    index: int    # [L' : L]


def _canonical(lat, rows):
    """Canonical overlattice from spanning rows (rational, in L-coords)."""
    n = lat.rank
    denom = lcm(*[x.denominator for row in rows for x in row], 1)
    int_rows = [[int(x * denom) for x in row] for row in rows]
    h, _ = exactmat.hnf(int_rows)
    basis = [[Fraction(x, denom) for x in h[i]] for i in range(n)]
    d = Fraction(1)
    for i in range(n):
        d *= basis[i][i]
    index = Fraction(1) / abs(d)
    if index.denominator != 1:
        raise InvariantViolation("spanning rows do not contain the lattice")
    g = lat.gram_rows()
    gram = exactmat.matmul(exactmat.matmul(basis, g), exactmat.transpose(basis))
    return OverLattice(
        basis=tuple(tuple(row) for row in basis),
        gram=tuple(tuple(Fraction(x) for x in row) for row in gram),
        index=int(index),
    )


def overlattice(grp, m):
    """U(M) = π⁻¹(M) for a subgroup M of a lattice-derived group grp."""
    lat = grp.lattice
    n = lat.rank
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for gen in m.generators:
        rows.append(list(discgroup.lift(grp, gen)))
    return _canonical(lat, rows)


def is_integral(u):
    return all(x.denominator == 1 for row in u.gram for x in row)


def is_unimodular(u):
    if not is_integral(u):
        return False
    g = [[int(x) for x in row] for row in u.gram]
    return abs(exactmat.det(g)) == 1


def int_gram(u):
    """The Gram matrix of an integral overlattice, as plain ints."""
    if not is_integral(u):
        raise NotIntegral("overlattice form is not integral")
    return [[int(x) for x in row] for row in u.gram]


def dual_of(lat, u):
    """The dual (L')* of an integral overlattice, in L-coordinates.

    Its basis rows are gram(L')⁻¹·basis(L'), which pair to the identity
    against the rows of basis(L').
    """
    if not is_integral(u):
        raise NotIntegral("dual of an overlattice requires an integral form")
    ginv = exactmat.inverse([list(r) for r in u.gram])
    rows = exactmat.matmul(ginv, [list(r) for r in u.basis])
    return _canonical(lat, rows)


def index_check(lat, u):
    """([L':L], [L*:(L')*]) for an integral intermediate lattice L'."""
    from . import lattice as lattice_mod
    if not is_integral(u):
        raise NotIntegral("index check requires an integral overlattice")
    disc = lattice_mod.discriminant(lat)
    dual = dual_of(lat, u)
    if disc % dual.index != 0:
        raise InvariantViolation("dual index does not divide the discriminant")
    return u.index, disc // dual.index
