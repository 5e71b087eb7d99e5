"""Rational references on L⊗Q for the tests of the paper's identities.

Index duality, U(M)* = U(M^⊥), the constrained-minimum scan and the
characteristic witness are stated on the dual lattice, which the library
never builds.  These helpers build it from the Fraction references of
`latcorr.oracle`.  Vectors are rational coordinate vectors in the basis of
the lattice.  `snf` is the reference Smith form that also tracks the row
transform U, which the library's `exactmat.snf` drops.  `constrained_min`
is the reference constrained minimum that searches the one coset c₀ + Λ in
a basis of Λ = U ∩ 2L*, where the library's searches the classes of U/2U.
`split_units` maps the unit vectors that a kept reduction splits off back
to the base lattice, the rows of an embedding certificate.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from latcorr import corrterm, discgroup, exactmat, oracle
from latcorr.errors import InvariantViolation, NotInDualLattice
from latcorr.overlattice import _canonical, int_gram, is_integral


def mat_vec(a, v):
    """A·v for a matrix and a vector, both with exact entries."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def discriminant(lat):
    """|det(gram)|, the order of the discriminant group."""
    return abs(exactmat.det(lat.gram_rows()))


def dual_coords(lat, v):
    """Pairings of v with the lattice basis (gram·v); integral iff v ∈ L*."""
    return mat_vec(lat.gram_rows(), [Fraction(x) for x in v])


def pairing(lat, v, w):
    """The rational value Q(v, w) for v, w in L⊗Q."""
    return sum(x * Fraction(y) for x, y in zip(dual_coords(lat, v), w))


def is_characteristic(lat, chi):
    """True iff Q(chi, y) ≡ Q(y, y) mod 2 for all basis vectors y."""
    w = dual_coords(lat, chi)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not pair integrally with the lattice")
    return all((int(wi) - lat.gram[i][i]) % 2 == 0 for i, wi in enumerate(w))


@dataclass(frozen=True)
class SmithDecomposition:
    """U·A·V = D with U, V unimodular and D diagonal, d_1 | d_2 | ... | d_k."""

    d: tuple
    u: tuple
    v: tuple

    @property
    def divisors(self):
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(k))


def snf(a):
    """Smith normal form by elementary row/column operations, with both
    transforms.  The same pivots and operations as `exactmat.snf`, which
    must return the same divisors and V.

    Chooses the smallest nonzero pivot at each step; the divisibility chain
    is enforced by re-reducing whenever a remaining entry is not divisible
    by the current pivot.
    """
    rows, cols = exactmat.dims(a)
    d = exactmat.copy_matrix(a)
    u = exactmat.identity(rows)
    v = exactmat.identity(cols)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        live = [(abs(d[i][j]), i, j) for i in range(t, rows)
                for j in range(t, cols) if d[i][j] != 0]
        if not live:
            break
        _, pi, pj = min(live)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # divisibility fix-up: fold any non-divisible entry into the pivot
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    row_op(t, i, -1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SmithDecomposition(
        d=tuple(tuple(row) for row in d),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )


@lru_cache(maxsize=None)
def _smith(gram):
    dec = snf([list(row) for row in gram])
    return dec.u, dec.divisors


def project(g, v):
    """π(v) ∈ L*/L for a dual vector v, in the SNF coordinates of the
    lattice-derived group g: with U·gram·V = D, the one `disc_group` reads,
    v = Σ y_i·g_i for y = U·gram·v."""
    w = dual_coords(g.lattice, v)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not lie in the dual lattice")
    u, divisors = _smith(g.lattice.gram)
    y = mat_vec(u, [int(x) for x in w])
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


def is_unimodular(u):
    return is_integral(u) and abs(exactmat.det(int_gram(u))) == 1


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


def constrained_min(lat, u):
    """min (χ² − n)/4 over the characteristic covectors χ = c·B of L in U,
    B = u.rows/u.denom, by one search of the coset c₀ + Λ.

    Λ = U ∩ 2L* is the c with (B·G_L)ᵀ·c ≡ 0 mod 2: its basis is the HNF of
    the kernel mod 2 and 2·I, in U's basis.  The coset is searched once, in
    an LLL-reduced basis of Λ, where c₀ is placed by an integer triangular
    solve and one solve over F₂."""
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
        raise InvariantViolation("no characteristic covector lies in U")
    c0, kernel = sol
    twice = [[2 * (i == j) for j in range(n)] for i in range(n)]
    rows = exactmat.hnf(kernel + twice)[:n]  # basis of Λ in U's basis
    a = exactmat.gram_of_rows(exactmat.matmul(rows, h), gram)  # R·H·G_L·Hᵀ·Rᵀ
    # Λ's Gram matrix is a/e² = (a/g)/denom, in lowest terms
    g = gcd(e * e, *(x for row in a for x in row))
    denom = e * e // g
    t, a = exactmat.lll_gram([[x // g for x in row] for row in a])
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
    val, _, _ = corrterm.coset_min(a, z)
    return (Fraction(val, 4 * denom) - n) / 4


def split_units(obj):
    """The unit vectors that `obj.reduction` splits off, in the order split,
    as Fraction rows in the coordinates of the base lattice; obj is a
    lattice or an overlattice.

    A unit found at stage s is a coordinate vector of that stage's basis,
    mapped back through the stages before it.  Through a split (units,
    rest, C), whose rest basis is b_j − Σ_i c_ji·b_i, v keeps its rest
    coordinates and takes −Σ_j v_j·c_ji on each unit i split there.
    Through an LLL stage T, whose rows are the reduced basis, v becomes
    v·T.  Last, an overlattice's basis is H/e."""
    stages, _ = obj.reduction
    found = []
    for s, stage in enumerate(stages):
        if type(stage) is not tuple:
            continue
        units, rest, _ = stage
        for i in units:
            v = [int(j == i) for j in range(len(units) + len(rest))]
            for earlier in reversed(stages[:s]):
                if type(earlier) is tuple:
                    e_units, e_rest, c = earlier
                    w = dict(zip(e_rest, v))
                    for k, u in enumerate(e_units):
                        w[u] = -sum(vj * cj[k] for vj, cj in zip(v, c))
                    v = [w[j] for j in range(len(w))]
                else:
                    v = mat_vec(exactmat.transpose(earlier), v)
            if obj.rows is not None:
                v = mat_vec(exactmat.transpose(obj.rows), v)
            found.append([Fraction(x, obj.denom) for x in v])
    return found
