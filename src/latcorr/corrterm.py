"""Lattice correction terms by exact characteristic-coset minimization.

The kernel minimizes (u+t)ᵀA(u+t) over integer vectors u for a positive
definite rational A, by depth-first branch and bound over the LDLᵀ
factorization.  All arithmetic is exact; the incumbent bound starts from a
greedy coordinate rounding, so pruning decisions never need re-checking.
`min_char_square` first LLL-reduces the basis and splits off the vectors of
square 1, so the search only sees the part of the lattice without them;
`constrained_min` searches its one characteristic coset in a reduced basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from . import discgroup, exactmat
from .overlattice import (OverLattice, int_gram, is_unimodular,
                          overlattice as build_overlattice)
from .errors import InputError, InvariantViolation, NotInDualLattice
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
    positive definite lattice, with a witness in base-lattice coordinates.

    The basis is LLL-reduced, and every reduced basis vector v of square 1
    is split off: U = Zv ⊕ v^⊥, and the characteristic minimum of Zv is 1,
    attained at v.  Reduction and splitting repeat until no basis vector
    of square 1 is left; only that rest goes to the branch and bound.
    """
    gram, basis = _unimodular_gram(obj)
    n = len(gram)
    rows = exactmat.identity(n)  # basis of the rest, in obj's basis
    chi = [0] * n  # the witness in obj's basis
    minimum = 0
    nodes = 0
    while rows:
        t, gram = exactmat.lll_gram(gram)
        rows = exactmat.matmul(t, rows)
        units = [i for i, row in enumerate(gram) if row[i] == 1]
        if not units:
            break
        # basis vectors of square 1 are pairwise orthogonal (Cauchy–Schwarz)
        for i in units:
            chi = [x + y for x, y in zip(chi, rows[i])]
        minimum += len(units)
        rest = [j for j in range(len(rows)) if j not in units]
        rows = [[x - sum(gram[j][i] * rows[i][c] for i in units)
                 for c, x in enumerate(rows[j])] for j in rest]
        gram = [[gram[j][k] - sum(gram[j][i] * gram[k][i] for i in units)
                 for k in rest] for j in rest]
    if rows:
        # characteristic vectors of the rest are x0 + 2u with gram·x0 ≡
        # diag(gram) mod 2; gram is invertible mod 2, so x0 is unique
        x0, _ = exactmat.solve_mod2(gram, [row[i] for i, row in
                                           enumerate(gram)])
        val, u, nodes = coset_min(gram, [Fraction(x, 2) for x in x0])
        if (4 * val).denominator != 1:
            raise InvariantViolation("characteristic minimum is not an integer")
        minimum += int(4 * val)
        for xi, ui, row in zip(x0, u, rows):
            chi = [x + (xi + 2 * ui) * y for x, y in zip(chi, row)]
    witness = [sum(x * basis[k][j] for k, x in enumerate(chi))
               for j in range(n)]
    return MinimizationResult(minimum=minimum, witness=tuple(witness),
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


def constrained_min(lat, u):
    """Exact min of (χ² − n)/4 over the characteristic covectors χ of L that
    lie in the intermediate lattice U = U(M), i.e. whose projection lies in
    the subgroup M.

    With B = u.basis, χ = c·B is characteristic for L exactly when
    (B·G_L)ᵀ·c ≡ diag(G_L) mod 2.  Two solutions differ by an element of
    Λ = U ∩ 2L*, so the constraint set is the one coset c₀ + Λ; it is
    searched once, in an LLL-reduced basis of Λ.
    """
    gram = lat.gram_rows()
    n = lat.rank
    p = exactmat.matmul([list(r) for r in u.basis], gram)
    if any(x.denominator != 1 for row in p for x in row):
        raise NotInDualLattice("overlattice is not contained in L*")
    sol = exactmat.solve_mod2([[int(x) for x in row]
                               for row in exactmat.transpose(p)],
                              [gram[i][i] for i in range(n)])
    if sol is None:
        # diag(G) ⊥ ker(G mod 2), so L ⊂ U holds characteristic vectors
        raise InvariantViolation("no characteristic covector lies in U")
    c0, kernel = sol
    twice = exactmat.scale(exactmat.identity(n), 2)
    rows = exactmat.hnf(kernel + twice)[0][:n]  # basis of Λ in U's basis
    a = exactmat.matmul(exactmat.matmul(rows, [list(r) for r in u.gram]),
                        exactmat.transpose(rows))
    denom = lcm(*(x.denominator for row in a for x in row))
    t, a = exactmat.lll_gram([[int(x * denom) for x in row] for row in a])
    rinv = exactmat.inverse(exactmat.matmul(t, rows))
    val, _, _ = coset_min(a, exactmat.mat_vec(exactmat.transpose(rinv), c0))
    return (val / denom - n) / 4
