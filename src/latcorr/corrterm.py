"""Lattice correction terms by exact characteristic-coset minimization.

The kernel minimizes (u+t)ᵀA(u+t) over integer vectors u for a positive
definite A, by depth-first branch and bound over the fraction-free LDLᵀ
factorization, with the form scaled so that every centre, term and bound
is an integer.  The incumbent bound starts from a greedy coordinate
rounding, so pruning decisions never need re-checking.  `min_char_square`
first LLL-reduces the basis and splits off the vectors of square 1, so the
search only sees the part of the lattice without them; `constrained_min`
searches its one characteristic coset in a reduced basis.  Both work on
integer Gram matrices and on integer basis rows over one denominator.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import discgroup, exactmat
from .overlattice import (OverLattice, int_gram, integer_rows, is_unimodular,
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


def coset_min(a, t):
    """Exact min of (u+t)ᵀ·A·(u+t) over u ∈ Zⁿ, with a minimizing u.

    A is positive definite with int or Fraction entries, and t holds ints
    or Fractions.  Returns (value, u, nodes) with value a Fraction.
    Coordinates are fixed from the last index down; each level enumerates
    candidates outward from the real centre and prunes once the partial
    sum reaches the incumbent.

    The search runs on integers only.  A rational A is scaled to integers
    once and factored by the fraction-free `exactmat.ldl`; with q the
    common denominator of t, the form is scaled by q²·lcm(d_i·d_{i+1}),
    so that centres, terms and the incumbent are all integers.  The value
    is divided back once, on return.
    """
    n = len(t)
    den_a = lcm(1, *(x.denominator for row in a for x in row))
    d, lam = exactmat.ldl([[x.numerator * (den_a // x.denominator)
                            for x in row] for row in a])
    q = lcm(1, *(x.denominator for x in t))
    tq = [x.numerator * (q // x.denominator) for x in t]  # q·t
    scale = lcm(1, *(d[i] * d[i + 1] for i in range(n)))
    # at level i, with C = q·d_{i+1}·c the scaled centre offset, the
    # scaled term is w[i]·(e[i]·u_i + C)²
    w = [scale // (d[i] * d[i + 1]) for i in range(n)]
    e = [q * d[i + 1] for i in range(n)]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    s = [0] * n  # s[j] = q·(u[j] + t[j]) for fixed levels
    u = [0] * n

    def centre(i):
        return d[i + 1] * tq[i] + sum(map(mul, cols[i], s[i + 1:]))

    # greedy rounding for the initial incumbent
    best_val = 0
    for i in reversed(range(n)):
        c = centre(i)
        u[i] = (e[i] - 2 * c) // (2 * e[i])  # nearest integer to −c/e[i]
        s[i] = q * u[i] + tq[i]
        best_val += w[i] * (e[i] * u[i] + c) ** 2
    best_u = list(u)
    nodes = n

    def dfs(i, partial):
        nonlocal best_val, best_u, nodes
        if i < 0:
            if partial < best_val:
                best_val = partial
                best_u = list(u)
            return
        c = centre(i)
        ei, wi = e[i], w[i]
        start = (ei - 2 * c) // (2 * ei)
        for first, step in ((start, -1), (start + 1, 1)):
            ui = first
            while True:
                nodes += 1
                term = wi * (ei * ui + c) ** 2
                if partial + term >= best_val:
                    break
                u[i] = ui
                s[i] = q * ui + tq[i]
                dfs(i - 1, partial + term)
                ui += step

    dfs(n - 1, 0)
    return Fraction(best_val, q * q * scale * den_a), tuple(best_u), nodes


def _unimodular_gram(obj):
    """(int Gram, int basis rows H, denominator e) for a unimodular positive
    definite lattice or overlattice; its basis in L-coords is H/e."""
    if isinstance(obj, Lattice):
        gram = obj.gram_rows()
        if abs(exactmat.det(gram)) != 1:
            raise InputError("correction term requires a unimodular lattice")
        return gram, exactmat.identity(obj.rank), 1
    if isinstance(obj, OverLattice):
        if not is_unimodular(obj):
            raise InputError("correction term requires a unimodular overlattice")
        return (int_gram(obj),) + integer_rows(obj.basis)
    raise InputError(f"unsupported lattice object {type(obj).__name__}")


def min_char_square(obj):
    """Exact min of χ² over the characteristic vectors of a unimodular
    positive definite lattice, with a witness in base-lattice coordinates.

    The basis is LLL-reduced, and every reduced basis vector v of square 1
    is split off: U = Zv ⊕ v^⊥, and the characteristic minimum of Zv is 1,
    attained at v.  Reduction and splitting repeat until no basis vector
    of square 1 is left; only that rest goes to the branch and bound.
    """
    gram, basis, denom = _unimodular_gram(obj)
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
    witness = [Fraction(x, denom) for x in exactmat.mat_vec(
        exactmat.transpose(basis), chi)]
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
    searched once, in an LLL-reduced basis of Λ, where c₀ is placed by
    integer solves.
    """
    gram = lat.gram_rows()
    n = lat.rank
    h, e = integer_rows(u.basis)  # B = h/e
    p = exactmat.matmul(h, gram)  # e·B·G_L
    if any(x % e for row in p for x in row):
        raise NotInDualLattice("overlattice is not contained in L*")
    sol = exactmat.solve_mod2([[x // e for x in row]
                               for row in exactmat.transpose(p)],
                              [gram[i][i] for i in range(n)])
    if sol is None:
        # diag(G) ⊥ ker(G mod 2), so L ⊂ U holds characteristic vectors
        raise InvariantViolation("no characteristic covector lies in U")
    c0, kernel = sol
    twice = exactmat.scale(exactmat.identity(n), 2)
    rows = exactmat.hnf(kernel + twice)[0][:n]  # basis of Λ in U's basis
    r = exactmat.matmul(rows, h)  # e·(basis of Λ in L-coords)
    a = exactmat.matmul(exactmat.matmul(r, gram), exactmat.transpose(r))
    # Λ's Gram matrix is a/e² = (a/g)/denom, in lowest terms
    g = gcd(e * e, *(x for row in a for x in row))
    denom = e * e // g
    t, a = exactmat.lll_gram([[x // g for x in row] for row in a])
    # c₀ in the reduced basis T·rows of Λ is z/2 with z = 2c₀·(T·rows)⁻¹,
    # integral because 2U ⊂ Λ: solve y·rows = 2c₀ against the triangular
    # HNF rows, then z = y·T⁻¹, with T⁻¹ the transform of hnf(T) = I
    y = []
    for j in range(n):
        q, r = divmod(2 * c0[j] - sum(y[i] * rows[i][j] for i in range(j)),
                      rows[j][j])
        if r:
            raise InvariantViolation("2U is not contained in U ∩ 2L*")
        y.append(q)
    z = exactmat.mat_vec(exactmat.transpose(exactmat.hnf(t)[1]), y)
    val, _, _ = coset_min(a, [Fraction(x, 2) for x in z])
    return (val / denom - n) / 4
