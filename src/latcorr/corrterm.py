"""Lattice correction terms by exact characteristic-coset minimization.

The kernel minimizes vᵀAv over the integer vectors v ≡ x (mod 2) for a
positive definite integer A, by depth-first branch and bound over the
fraction-free LDLᵀ factorization, with the form scaled so that every
centre, term and bound is an integer.  The incumbent bound starts from a
greedy coordinate rounding, so pruning decisions never need re-checking.
`min_char_square` splits the basis vectors of square 1 off the input
basis, then LLL-reduces what is left and splits again until none remain,
so the search only sees the part of the lattice without them; each
reduction also yields det G, the one place unimodularity is decided.
`constrained_min` searches its one characteristic coset in a reduced
basis.  Both work on integer Gram matrices and on integer basis rows over
one denominator.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import discgroup, exactmat
from .overlattice import (OverLattice, int_gram,
                          overlattice as build_overlattice)
from .errors import (InputError, InvariantViolation, NotInDualLattice,
                     NotIntegral)
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


def coset_min(a, x):
    """Exact min of vᵀ·A·v over the integer vectors v ≡ x (mod 2), with a
    minimizing v.

    A is a positive definite integer matrix and x an integer vector.
    Returns (value, v, nodes), all ints.  With v = 2u + x, coordinates u_i
    are fixed from the last index down; each level enumerates candidates
    outward from the real centre and prunes once the partial sum reaches
    the incumbent.

    The search runs on integers only: A is factored by the fraction-free
    `exactmat.ldl`, and the form is scaled by lcm(d_i·d_{i+1}) so that
    centres, terms and the incumbent are all integers.  The value is
    divided back once, on return.
    """
    n = len(x)
    d, lam = exactmat.ldl(a)
    scale = lcm(1, *(d[i] * d[i + 1] for i in range(n)))
    # at level i, with C = 2·d_{i+1}·c the scaled centre offset, the
    # scaled term is w[i]·(e[i]·u_i + C)²
    w = [scale // (d[i] * d[i + 1]) for i in range(n)]
    e = [2 * d[i + 1] for i in range(n)]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    v = [0] * n  # v[j] = 2u_j + x_j for fixed levels

    def centre(i):
        return d[i + 1] * x[i] + sum(map(mul, cols[i], v[i + 1:]))

    # greedy rounding for the initial incumbent
    best_val = 0
    for i in reversed(range(n)):
        c = centre(i)
        ui = (e[i] - 2 * c) // (2 * e[i])  # nearest integer to −c/e[i]
        v[i] = 2 * ui + x[i]
        best_val += w[i] * (e[i] * ui + c) ** 2
    best_v = tuple(v)
    nodes = n

    def dfs(i, partial):
        nonlocal best_val, best_v, nodes
        if i < 0:
            if partial < best_val:
                best_val = partial
                best_v = tuple(v)
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
                v[i] = 2 * ui + x[i]
                dfs(i - 1, partial + term)
                ui += step

    dfs(n - 1, 0)
    return best_val // scale, best_v, nodes


def _integral_gram(obj):
    """(int Gram, int basis rows H, denominator e, kind) for a positive
    definite integral lattice or overlattice; its basis in L-coords is H/e.
    H is None for a lattice, whose basis is its own.  Unimodularity is left
    to `min_char_square`, which reads det G off its reductions."""
    if isinstance(obj, Lattice):
        return obj.gram_rows(), None, 1, "lattice"
    if isinstance(obj, OverLattice):
        try:
            return int_gram(obj), obj.rows, obj.denom, "overlattice"
        except NotIntegral:
            raise InputError(
                "correction term requires a unimodular overlattice") from None
    raise InputError(f"unsupported lattice object {type(obj).__name__}")


def _split(gram, rows, units):
    """The Gram matrix and basis rows of what is left after splitting the
    basis vectors `units`, of square 1, off a definite integral lattice.

    Distinct basis vectors of square 1 are orthogonal (|v·w| ≤ 1, with
    equality only for v = ±w), so basis vector j projects to
    b_j − Σ c_ji·b_i over the units i, with C = gram[rest][units], and the
    rest's Gram matrix is gram[rest][rest] − C·Cᵀ.  rows None means the
    identity basis."""
    rest = [j for j, row in enumerate(gram) if row[j] != 1]
    if not rest:
        return [], []
    c = [[gram[j][i] for i in units] for j in rest]
    if rows is None:
        n = len(gram)
        rows = [[int(k == j) for k in range(n)] for j in rest]
        for row, cj in zip(rows, c):
            for i, x in zip(units, cj):
                row[i] = -x
    else:
        proj = exactmat.matmul(c, [rows[i] for i in units])
        rows = [[x - y for x, y in zip(rows[j], p)]
                for j, p in zip(rest, proj)]
    cct = exactmat.matmul(c, exactmat.transpose(c))
    return [[gram[j][k] - y for k, y in zip(rest, row)]
            for j, row in zip(rest, cct)], rows


def min_char_square(obj):
    """Exact min of χ² over the characteristic vectors of a unimodular
    positive definite lattice, with a witness in base-lattice coordinates.

    Every basis vector v of square 1 is split off: U = Zv ⊕ v^⊥, and the
    characteristic minimum of Zv is 1, attained at v.  The split starts on
    the input basis; the rest is LLL-reduced and split again, until a
    reduced basis has no vector of square 1.  Only that rest goes to the
    branch and bound.  A split keeps the determinant, so each reduction's
    det G decides unimodularity; when everything splits, U is Zⁿ.
    """
    gram, basis, denom, kind = _integral_gram(obj)
    rows = None  # basis of the rest, in obj's basis; None means the identity
    chi = [0] * len(gram)  # the witness in obj's basis
    minimum = 0
    nodes = 0
    units = [i for i, row in enumerate(gram) if row[i] == 1]
    while True:
        if units:
            minimum += len(units)
            if rows is None:
                for i in units:
                    chi[i] = 1
            else:
                chi = [sum(col) for col in zip(chi, *(rows[i] for i in units))]
            gram, rows = _split(gram, rows, units)
            if not gram:
                break
        t, gram, det = exactmat.lll_gram(gram)
        if det != 1:
            raise InputError(f"correction term requires a unimodular {kind}")
        if rows is None:
            rows = t
        elif t != exactmat.identity(len(t)):  # T = I: the rest was reduced
            rows = exactmat.matmul(t, rows)
        units = [i for i, row in enumerate(gram) if row[i] == 1]
        if not units:
            break
    if gram:
        # characteristic vectors of the rest are x0 + 2u with gram·x0 ≡
        # diag(gram) mod 2; gram is invertible mod 2, so x0 is unique
        x0, _ = exactmat.solve_mod2(gram, [row[i] for i, row in
                                           enumerate(gram)])
        val, v, nodes = coset_min(gram, x0)
        minimum += val
        for vi, row in zip(v, rows):
            chi = [x + vi * y for x, y in zip(chi, row)]
    if basis is not None:
        chi = exactmat.mat_vec(exactmat.transpose(basis), chi)
    witness = [Fraction(x, denom) for x in chi]
    return MinimizationResult(minimum=minimum, witness=tuple(witness),
                              nodes_visited=nodes)


def d_set(grp):
    """One correction term d_{U(M)} per metabolizer M of the lattice-derived
    discriminant group grp, with U(M) and its characteristic minimum."""
    entries = []
    for m in discgroup.metabolizers_of_group(grp):
        u = build_overlattice(grp, m)
        entries.append(DSetEntry(metabolizer=m, overlattice=u,
                                 result=min_char_square(u)))
    return DSet(tuple(entries), any(e.result.d == 0 for e in entries))


def embeds_in_standard(lat):
    """True iff the lattice embeds in Zⁿ of the same rank (0 ∈ D)."""
    return d_set(discgroup.disc_group(lat)).contains_zero


def constrained_min(lat, u):
    """Exact min of (χ² − n)/4 over the characteristic covectors χ of L that
    lie in the intermediate lattice U = U(M), i.e. whose projection lies in
    the subgroup M.

    With B = u.rows/u.denom the basis of U, χ = c·B is characteristic for
    L exactly when (B·G_L)ᵀ·c ≡ diag(G_L) mod 2.  Two solutions differ by
    an element of Λ = U ∩ 2L*, so the constraint set is the one coset
    c₀ + Λ; it is searched once, in an LLL-reduced basis of Λ, where c₀ is
    placed by an integer triangular solve and one solve over F₂.
    """
    gram = lat.gram_rows()
    n = lat.rank
    h, e = u.rows, u.denom  # B = h/e
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
    rows = exactmat.hnf(kernel + twice)[:n]  # basis of Λ in U's basis
    r = exactmat.matmul(rows, h)  # e·(basis of Λ in L-coords)
    a = exactmat.gram_of_rows(r, gram)
    # Λ's Gram matrix is a/e² = (a/g)/denom, in lowest terms
    g = gcd(e * e, *(x for row in a for x in row))
    denom = e * e // g
    t, a, _ = exactmat.lll_gram([[x // g for x in row] for row in a])
    # c₀ in the reduced basis T·rows of Λ is z/2 with z = 2c₀·(T·rows)⁻¹,
    # integral because 2U ⊂ Λ: solve y·rows = 2c₀ against the triangular
    # HNF rows; coset_min reads z mod 2 only, so z·T ≡ y is solved over F₂
    y = []
    for j in range(n):
        q, r = divmod(2 * c0[j] - sum(y[i] * rows[i][j] for i in range(j)),
                      rows[j][j])
        if r:
            raise InvariantViolation("2U is not contained in U ∩ 2L*")
        y.append(q)
    z, _ = exactmat.solve_mod2(exactmat.transpose(t), y)
    # c₀ + Λ is {v/2 : v ≡ z (mod 2)} in that basis, so its minimum
    # square is min vᵀav/(4·denom)
    val, _, _ = coset_min(a, z)
    return (Fraction(val, 4 * denom) - n) / 4
