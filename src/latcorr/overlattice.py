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

from . import exactmat
from .errors import InvariantViolation, NotIntegral


@dataclass(frozen=True)
class OverLattice:
    basis: tuple  # n×n Fraction rows, basis of L' in L-coordinates
    gram: tuple   # n×n Fractions, basis·gram_L·basisᵀ
    index: int    # [L' : L]


def integer_rows(rows):
    """(H, e) with rows = H/e for int or Fraction rows, e the least common
    denominator."""
    e = lcm(1, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (e // x.denominator) for x in row]
            for row in rows], e


def _canonical(lat, rows, denom):
    """Canonical overlattice spanned by rows/denom (int rows, in L-coords).

    The basis is H/denom for the HNF H of the rows, and its Gram matrix is
    the integer product H·G_L·Hᵀ, divided once by denom²."""
    n = lat.rank
    h = exactmat.hnf(rows)[0][:n]
    pivots = 1
    for i in range(n):
        pivots *= h[i][i]
    if pivots == 0 or denom ** n % pivots != 0:
        raise InvariantViolation("spanning rows do not contain the lattice")
    gram = exactmat.matmul(exactmat.matmul(h, lat.gram_rows()),
                           exactmat.transpose(h))
    d2 = denom * denom
    return OverLattice(
        basis=tuple(tuple(Fraction(x, denom) for x in row) for row in h),
        gram=tuple(tuple(Fraction(x, d2) for x in row) for row in gram),
        index=denom ** n // pivots,
    )


def overlattice(grp, m):
    """U(M) = π⁻¹(M) for a subgroup M of a lattice-derived group grp."""
    n = grp.lattice.rank
    # the lift of an element lies in (1/e)·L for the exponent e of the group
    e = grp.orders[-1] if grp.orders else 1
    lifts = [[x.numerator * (e // x.denominator) for x in gen]
             for gen in grp.generators]
    rows = [[e * (i == j) for j in range(n)] for i in range(n)]
    for x in m.generators:
        rows.append([sum(a * v[j] for a, v in zip(x, lifts))
                     for j in range(n)])
    return _canonical(grp.lattice, rows, e)


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
    return _canonical(lat, *integer_rows(rows))


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
