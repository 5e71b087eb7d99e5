"""Rational references on L⊗Q for the tests of the paper's identities.

Index duality, U(M)* = U(M^⊥), the constrained-minimum scan and the
characteristic witness are stated on the dual lattice, which the library
never builds.  These helpers build it from the Fraction references of
`latcorr.oracle`.  Vectors are rational coordinate vectors in the basis of
the lattice.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from latcorr import discgroup, exactmat, oracle
from latcorr.errors import NotInDualLattice
from latcorr.overlattice import _canonical, int_gram


def discriminant(lat):
    """|det(gram)|, the order of the discriminant group."""
    return abs(exactmat.det(lat.gram_rows()))


def dual_coords(lat, v):
    """Pairings of v with the lattice basis (gram·v); integral iff v ∈ L*."""
    return exactmat.mat_vec(lat.gram_rows(), [Fraction(x) for x in v])


def pairing(lat, v, w):
    """The rational value Q(v, w) for v, w in L⊗Q."""
    return sum(x * Fraction(y) for x, y in zip(dual_coords(lat, v), w))


def is_characteristic(lat, chi):
    """True iff Q(chi, y) ≡ Q(y, y) mod 2 for all basis vectors y."""
    w = dual_coords(lat, chi)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not pair integrally with the lattice")
    return all((int(wi) - lat.gram[i][i]) % 2 == 0 for i, wi in enumerate(w))


@lru_cache(maxsize=None)
def _smith(gram):
    dec = exactmat.snf([list(row) for row in gram])
    return dec.u, dec.divisors


def project(g, v):
    """π(v) ∈ L*/L for a dual vector v, in the SNF coordinates of the
    lattice-derived group g: with U·gram·V = D, the one `disc_group` reads,
    v = Σ y_i·g_i for y = U·gram·v."""
    w = dual_coords(g.lattice, v)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not lie in the dual lattice")
    u, divisors = _smith(g.lattice.gram)
    y = exactmat.mat_vec(u, [int(x) for x in w])
    return tuple(yi % d for yi, d in zip(y, divisors) if d > 1)


def lift(g, x):
    """A dual-vector lift of a group element: the sum of generator lifts."""
    return tuple(sum(a * gen[j] for a, gen in zip(x, g.generators))
                 for j in range(g.lattice.rank))


def annihilator(g, h):
    """M^⊥, the x with λ(x, y) = 0 for every y in the subgroup h, by a scan
    of G against the generators of h."""
    return discgroup.make_subgroup(g, [
        x for x in g.elements()
        if all(oracle.lam(g, x, y) == 0 for y in h.generators)])


def dual_of(lat, u):
    """The dual (L')* of an integral overlattice, in L-coordinates: its
    basis rows gram(L')⁻¹·basis(L') pair to the identity against the rows
    of basis(L')."""
    rows = exactmat.matmul(oracle.inverse(int_gram(u)), u.rows)
    # the dual basis is rows/denom; clear the inverse's denominators into e
    e = lcm(1, *(x.denominator for row in rows for x in row))
    return _canonical(lat, [[x.numerator * (e // x.denominator) for x in row]
                            for row in rows], e * u.denom)


def index_check(lat, u):
    """([L':L], [L*:(L')*]) for an integral intermediate lattice L', the
    second as the Fraction |L*/L| / [(L')*:L]."""
    return u.index, Fraction(discriminant(lat), dual_of(lat, u).index)
