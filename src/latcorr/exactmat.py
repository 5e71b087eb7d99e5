"""Exact integer matrix kernel.

Matrices are plain lists of lists of Python ints (arbitrary precision).
Factorizations are fraction-free: `ldl` and `lll_gram` carry leading minors
and scaled Gram–Schmidt coefficients as integers, `det` is Bareiss
elimination, `hnf` returns the canonical row basis H alone, `snf` returns
the elementary divisors and the column transform V alone, and `solve_mod2`
places a class mod 2, so no transform is inverted.  `split_reduce` splits
the basis vectors of square 1 off a positive definite Gram matrix and
LLL-reduces what is left, writing the lattice Zᵏ ⊕ R.  Nothing here builds
a fractions.Fraction or a float; the Fraction inverse and LDLᵀ that the
oracles use live in `oracle`.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import NotPositiveDefinite


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def copy_matrix(a):
    return [list(row) for row in a]


def dims(a):
    return len(a), len(a[0]) if a else 0


def is_square(a):
    return len(a) > 0 and all(len(row) == len(a) for row in a)


def is_symmetric(a):
    return is_square(a) and list(zip(*a)) == list(map(tuple, a))


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    """A·B by row combination: row i is the sum of a_ik·b_k over the
    nonzero a_ik, so a zero coefficient costs nothing.  Put the sparser
    factor (an HNF) on the left."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = None
        for x, bk in zip(row, b):
            if x:
                acc = ([x * y for y in bk] if acc is None
                       else [s + x * y for s, y in zip(acc, bk)])
        out.append([0] * cols if acc is None else acc)
    return out


def gram_of_rows(x, g):
    """X·G·Xᵀ for a symmetric G, formed as X·(X·G)ᵀ so that X, the factor
    that is sparse in practice, is on the left of both products."""
    return matmul(x, transpose(matmul(x, g)))


def det(a):
    """Exact determinant of a square integer matrix (Bareiss fraction-free)."""
    if not is_square(a):
        raise ValueError("determinant requires a square matrix")
    n = len(a)
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hnf(a):
    """Row Hermite normal form H of A, the canonical basis of its row
    lattice: pivots positive, entries above each pivot reduced into
    [0, pivot), zero rows at the bottom.  Pivot selection takes the smallest
    nonzero entry to limit coefficient growth (adequate at desk scale).
    """
    rows, cols = dims(a)
    h = copy_matrix(a)
    r = 0
    for c in range(cols):
        while True:
            live = [(abs(h[i][c]), i) for i in range(r, rows) if h[i][c] != 0]
            if not live:
                break
            _, p = min(live)
            h[r], h[p] = h[p], h[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
            if r == rows:
                break
    return h


@dataclass(frozen=True)
class SmithDecomposition:
    """U·A·V = D for some unimodular U, with V unimodular and D diagonal,
    d_1 | d_2 | ... | d_k; only the diagonal and V are kept."""

    divisors: tuple
    v: tuple


def snf(a, modulus=None):
    """Smith normal form by elementary row/column operations, tracking V
    alone: no caller reads U.

    The pivot is the minimum of (|x|, i, j) over the nonzero entries of the
    remaining block, so a ±1 ends the scan at the first one in row-major
    order; the divisibility chain is enforced by re-reducing whenever a
    remaining entry is not divisible by the current pivot.

    Given a modulus M, the entries of D stay bounded: after each row and
    column operation an entry above B = max(M², 2⁵¹²) in absolute value is
    replaced by its symmetric residue mod M.  Only the entries an operation
    changed are compared with B, a row at once by its largest |x|.  V is
    never folded.  A fold adds a multiple of M, so the divisors read as
    gcd(d_tt, M) (M at every position after the elimination stops on a
    zero block) are those of Aℤⁿ + Mℤⁿ: gcd(s_i, M) for A's own s_i, so
    s_i when M is a multiple.
    """
    rows, cols = dims(a)
    d = copy_matrix(a)
    v = identity(cols)
    big = None if modulus is None else max(modulus * modulus, 1 << 512)

    def fold(x):  # the symmetric residue mod M of an entry above B
        x %= modulus
        return x - modulus if 2 * x > modulus else x

    def row_op(i, j, q):  # row i -= q * row j
        r = [x - q * y for x, y in zip(d[i], d[j])]
        if big and max(map(abs, r)) > big:
            r = [x if -big <= x <= big else fold(x) for x in r]
        d[i] = r

    def col_op(i, j, q):  # col i -= q * col j, skipping zeros of col j
        for row in d:
            if row[j]:
                x = row[i] - q * row[j]
                row[i] = fold(x) if big and not -big <= x <= big else x
        for row in v:
            if row[j]:
                row[i] -= q * row[j]

    def swap_cols(i, j):
        for m in (d, v):
            for row in m:
                row[i], row[j] = row[j], row[i]

    def pivot(t):
        best = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = abs(x), i, j
                    if best[0] == 1:
                        return best
        return best

    t = 0
    while t < min(rows, cols):
        best = pivot(t)
        if best is None:
            break
        _, pi, pj = best
        d[t], d[pi] = d[pi], d[t]
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        d[t], d[i] = d[i], d[t]
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # divisibility fix-up: fold any non-divisible entry into the pivot;
        # a ±1 divides every entry, so it needs no scan
        p = d[t][t]
        i = None if abs(p) == 1 else next(
            (i for i in range(t + 1, rows)
             if any(x % p for x in d[i][t + 1:])), None)
        if i is not None:
            row_op(t, i, -1)
            continue
        d[t][t] = abs(p)
        t += 1

    k = min(rows, cols)
    divisors = [d[i][i] for i in range(k)]
    if big:
        divisors = [gcd(x, modulus) for x in divisors]
    return SmithDecomposition(divisors=tuple(divisors),
                              v=tuple(tuple(row) for row in v))


def _extend(g, d, lam, k):
    """Fraction-free Gram–Schmidt step for row k of the Gram matrix g
    (Cohen, GTM 138, Alg. 2.6.7), given rows 0..k-1: sets lam[k][j] =
    d[j+1]·μ_kj for j < k and d[k+1], the (k+1)-th leading minor.  Every
    division is exact.  Raises NotPositiveDefinite when that minor is not
    positive."""
    for j in range(k + 1):
        u = g[k][j]
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        elif u <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        else:
            d[k + 1] = u


def ldl(g):
    """Fraction-free LDLᵀ of a symmetric integer matrix.

    Returns (d, lam): d[k] is the k-th leading minor (d[0] = 1) and
    lam[i][j] = d[j+1]·L[i][j] for j < i, where G = L·diag(D)·Lᵀ with L
    unit lower triangular and D[k] = d[k+1]/d[k].  Integers only.  Raises
    NotPositiveDefinite when some minor is ≤ 0, which by Sylvester's
    criterion happens exactly when G is not positive definite.
    """
    if not is_symmetric(g):
        raise ValueError("LDL^T requires a symmetric matrix")
    n = len(g)
    d = [1] + [0] * n
    lam = zeros(n, n)
    for k in range(n):
        _extend(g, d, lam, k)
    return d, lam


def lll_gram(gram):
    """Integral LLL reduction (δ = 3/4) of a positive definite integer Gram
    matrix, after Cohen, GTM 138, Algorithm 2.6.7.

    Returns (T, T·G·Tᵀ) with T unimodular; the rows of T are the reduced
    basis in the input basis.  Only integers are used: d[i] is the Gram
    determinant of the first i vectors and lam[k][j] = d[j+1]·μ_kj.  Raises
    NotPositiveDefinite when some d[i] is not positive.
    """
    n = len(gram)
    g = copy_matrix(gram)
    t = identity(n)
    d = [1] + [0] * n
    lam = zeros(n, n)

    def red(k, l):  # b_k -= q·b_l with q the integer nearest μ_kl
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        t[k] = [x - q * y for x, y in zip(t[k], t[l])]
        g[k] = [x - q * y for x, y in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):  # exchange b_{k-1} and b_k
        t[k - 1], t[k] = t[k], t[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            old = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * old) // d[k]
            lam[i][k - 1] = (b * old + mu * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        _extend(g, d, lam, 0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            _extend(g, d, lam, k)
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            red(k, l)
        k += 1
    return t, g


def is_even(gram):
    """True iff every square of the integer lattice is even, which holds
    iff every square of a basis, on the diagonal, is."""
    return not any(row[i] & 1 for i, row in enumerate(gram))


def split_reduce(gram):
    """Split off the basis vectors of square 1 of a positive definite
    integer Gram matrix, again after every split, and LLL-reduce only a
    rest with no 1 on its diagonal, until a reduced basis has none or the
    rest is even.

    Returns (stages, rest): the splits (units, rest, C) and the LLL
    transforms T, in order, and the Gram matrix of what is left.  A split
    can leave a projected basis vector of square 1, a unit vector of the
    rest, so the diagonal is read again before anything is reduced.  An
    even rest has no vector of square 1, so the loop stops there, neither
    reduced nor factored.  Each stage is a unimodular change of basis, so
    the lattice is Zᵏ ⊕ R with the two parts orthogonal, k the number of
    units split off and R the lattice of `rest`.
    """
    stages = []
    while True:
        units = [i for i, row in enumerate(gram) if row[i] == 1]
        if units:
            # distinct basis vectors of square 1 are orthogonal (|v·w| ≤ 1,
            # with equality only for v = ±w), so b_j of the rest projects to
            # b_j − Σ c_ji·b_i over the units i, C = gram[rest][units], and
            # the rest's Gram matrix is gram[rest][rest] − C·Cᵀ
            rest = [j for j, row in enumerate(gram) if row[j] != 1]
            c = [[gram[j][i] for i in units] for j in rest]
            stages.append((units, rest, c))
            gram = [[gram[j][k] - sum(map(mul, cj, ck))
                     for k, ck in zip(rest, c)] for j, cj in zip(rest, c)]
        elif (stages and type(stages[-1]) is not tuple) or is_even(gram):
            # a reduced basis without units, or an even rest (also when
            # nothing is left)
            return stages, gram
        else:
            t, gram = lll_gram(gram)
            stages.append(t)


def solve_mod2(a, b):
    """Solve A·x = b over F₂ by Gauss–Jordan elimination on bit-packed
    rows: bit j of row i is a_ij mod 2 and bit `cols` is b_i mod 2, so a
    row operation is one XOR.

    Returns (particular, kernel_basis) as 0/1 lists, or None when the
    system has no solution.
    """
    rows, cols = dims(a)
    m = []
    for i in range(rows):
        row, packed = a[i], (b[i] & 1) << cols
        for j in range(cols):
            if row[j] & 1:
                packed |= 1 << j
        m.append(packed)
    pivots = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        p = next((i for i in range(r, rows) if m[i] & bit), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r]
        for i in range(rows):
            if i != r and m[i] & bit:
                m[i] ^= pivot
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if any(m[i] >> cols for i in range(r, rows)):
        return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i] >> cols
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for f in free:
        k = [0] * cols
        k[f] = 1
        for i, c in enumerate(pivots):
            k[c] = m[i] >> f & 1
        kernel.append(k)
    return x, kernel
