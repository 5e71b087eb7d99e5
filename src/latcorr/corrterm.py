"""Lattice correction terms by exact characteristic-coset minimization.

The kernel minimizes (u+t)ᵀA(u+t) over integer vectors u for a positive
definite rational A, by depth-first branch and bound over the LDLᵀ
factorization.  All arithmetic is exact; the incumbent bound starts from a
greedy coordinate rounding, so pruning decisions never need re-checking.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor

from . import discgroup, exactmat
from .overlattice import (OverLattice, int_gram, is_unimodular,
                          overlattice as build_overlattice)
from .errors import EmptyConstraintSet, InputError, InvariantViolation
from .lattice import Lattice


@dataclass(frozen=True)
class MinimizationResult:
    minimum: int
    witness: tuple  # rational coordinates in the base-lattice basis
    nodes_visited: int

    @property
    def d(self):
        """The correction term (min χ² − n)/4, as an exact Fraction."""
        return Fraction(self.minimum - len(self.witness), 4)


@dataclass(frozen=True)
class DSetEntry:
    metabolizer: object  # Subgroup M of the discriminant group
    overlattice: object  # OverLattice U(M)
    result: MinimizationResult  # min χ² over U(M); result.d is d_{U(M)}


@dataclass(frozen=True)
class DSet:
    entries: tuple  # one DSetEntry per metabolizer
    contains_zero: bool


def _nearest(x):
    return floor(x + Fraction(1, 2))


def coset_min(a, t):
    """Exact min of (u+t)ᵀ·A·(u+t) over u ∈ Zⁿ, with a minimizing u.

    Returns (value, u, nodes).  Coordinates are fixed from the last index
    down; each level enumerates candidates outward from the real center and
    prunes once the partial sum reaches the incumbent.
    """
    n = len(t)
    lo, dd = exactmat.rational_cholesky(a)
    t = [Fraction(x) for x in t]
    s = [Fraction(0)] * n  # s[j] = u[j] + t[j] for fixed levels
    u = [0] * n

    # greedy rounding for the initial incumbent
    best_val = Fraction(0)
    for i in reversed(range(n)):
        c = t[i] + sum(lo[j][i] * s[j] for j in range(i + 1, n))
        u[i] = _nearest(-c)
        s[i] = u[i] + t[i]
        best_val += dd[i] * (u[i] + c) ** 2
    best_u = list(u)
    nodes = n

    def dfs(i, partial):
        nonlocal best_val, best_u, nodes
        if i < 0:
            if partial < best_val:
                best_val = partial
                best_u = list(u)
            return
        c = t[i] + sum(lo[j][i] * s[j] for j in range(i + 1, n))
        start = _nearest(-c)
        for first, step in ((start, -1), (start + 1, 1)):
            ui = first
            while True:
                nodes += 1
                term = dd[i] * (ui + c) ** 2
                if partial + term >= best_val:
                    break
                u[i] = ui
                s[i] = ui + t[i]
                dfs(i - 1, partial + term)
                ui += step

    dfs(n - 1, Fraction(0))
    return best_val, tuple(best_u), nodes


def _unimodular_gram(obj):
    """(int Gram, basis rows in L-coords) for a unimodular positive definite
    lattice or overlattice."""
    if isinstance(obj, Lattice):
        n = obj.rank
        basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        gram = obj.gram_rows()
        if abs(exactmat.det(gram)) != 1:
            raise InputError("correction term requires a unimodular lattice")
        return gram, basis
    if isinstance(obj, OverLattice):
        if not is_unimodular(obj):
            raise InputError("correction term requires a unimodular overlattice")
        return int_gram(obj), [list(r) for r in obj.basis]
    raise InputError(f"unsupported lattice object {type(obj).__name__}")


def min_char_square(obj):
    """Exact min of χ² over the characteristic vectors of a unimodular
    positive definite lattice, with a witness in base-lattice coordinates."""
    gram, basis = _unimodular_gram(obj)
    n = len(gram)
    w0 = [gram[i][i] % 2 for i in range(n)]
    a = exactmat.inverse(gram)
    t = [Fraction(w, 2) for w in w0]
    val, u, nodes = coset_min(a, t)
    minimum = 4 * val
    if minimum.denominator != 1:
        raise InvariantViolation("characteristic minimum is not an integer")
    w = [wi + 2 * ui for wi, ui in zip(w0, u)]
    coeffs = exactmat.mat_vec(a, w)
    witness = [sum(x * basis[k][j] for k, x in enumerate(coeffs))
               for j in range(n)]
    return MinimizationResult(minimum=int(minimum), witness=tuple(witness),
                              nodes_visited=nodes)


def d_set(grp, cap=discgroup.DEFAULT_GROUP_CAP):
    """One correction term d_{U(M)} per metabolizer M of the lattice-derived
    discriminant group grp, with U(M) and its characteristic minimum."""
    entries = []
    for m in discgroup.metabolizers_of_group(grp, cap=cap):
        u = build_overlattice(grp, m)
        entries.append(DSetEntry(metabolizer=m, overlattice=u,
                                 result=min_char_square(u)))
    return DSet(tuple(entries), any(e.result.d == 0 for e in entries))


def embeds_in_standard(lat, cap=discgroup.DEFAULT_GROUP_CAP):
    """True iff the lattice embeds in Zⁿ of the same rank (0 ∈ D)."""
    return d_set(discgroup.disc_group(lat), cap=cap).contains_zero


def constrained_min(grp, m):
    """Exact min of (χ² − n)/4 over characteristic covectors of L =
    grp.lattice whose projection lies in the subgroup M.

    The constraint set splits, per element of M and per mod-2 kernel class
    of the Gram matrix, into cosets of 2L; each piece is a plain coset
    minimization.
    """
    lat = grp.lattice
    gram = lat.gram_rows()
    n = lat.rank
    ginv = exactmat.inverse(gram)
    w0 = [gram[i][i] % 2 for i in range(n)]
    gfrac = [[Fraction(x) for x in row] for row in gram]
    best = None
    for elem in m.elements:
        cm = discgroup.lift(grp, elem)
        wm = [int(x) for x in exactmat.mat_vec(gram, list(cm))]
        rhs = [(a - b) % 2 for a, b in zip(w0, wm)]
        sol = exactmat.solve_mod2(gram, rhs)
        if sol is None:
            continue
        z0, kernel = sol
        for combo in product((0, 1), repeat=len(kernel)):
            z = list(z0)
            for pick, k in zip(combo, kernel):
                if pick:
                    z = [x + y for x, y in zip(z, k)]
            a_vec = [wi + sum(gram[i][j] * z[j] for j in range(n))
                     for i, wi in enumerate(wm)]
            t = [x / 2 for x in exactmat.mat_vec(ginv, a_vec)]
            val, _, _ = coset_min(gfrac, t)
            chi_sq = 4 * val
            if best is None or chi_sq < best:
                best = chi_sq
    if best is None:
        raise EmptyConstraintSet(
            "no characteristic covector projects into the subgroup")
    return (best - n) / 4
