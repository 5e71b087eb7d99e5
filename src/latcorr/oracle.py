"""Brute-force oracles cross-validating the optimized paths.

Everything here privileges obviousness over speed: exhaustive enumeration
with hard caps, single-threaded, and no incumbent-based pruning.  Exceeding
a cap raises SearchTooLarge rather than silently truncating the search.
The Fraction references live here too: `inverse`, `rational_cholesky` and
the pairing `lam`, which the integer paths are tested against and which
run only under `--oracle`.  `brute_char_min` takes a lattice or an
integral overlattice alike: `overlattice.int_gram` reads only the
`gram_denom` and `gram` that both carry.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import discgroup, exactmat
from .overlattice import int_gram
from .errors import (InvariantViolation, NotPositiveDefinite, SearchTooLarge,
                     SingularMatrix)

EMBED_DIAG_CAP = 36
EMBED_RANK_CAP = 8
SUBGROUP_CAP = 512
ENUM_NODE_CAP = 2_000_000


@lru_cache(maxsize=None)
def _vectors_of_norm(dim, norm):
    """All integer vectors of the given squared length, as tuples."""
    if dim == 0:
        return ((),) if norm == 0 else ()
    out = []
    r = isqrt(norm)
    for x in range(-r, r + 1):
        for rest in _vectors_of_norm(dim - 1, norm - x * x):
            out.append((x,) + rest)
    return tuple(out)


def brute_embed(lat):
    """Exhaustive search for an embedding of the lattice into Zⁿ.

    Returns (found, witness) where witness lists the images of the basis
    vectors.  The first image is canonicalized to sorted nonnegative
    coordinates, which is the only symmetry reduction used.
    """
    n = lat.rank
    gram = lat.gram
    if n > EMBED_RANK_CAP or any(gram[i][i] > EMBED_DIAG_CAP
                                 for i in range(n)):
        raise SearchTooLarge("lattice exceeds the brute-embed caps")
    chosen = []

    def candidates(i):
        vs = _vectors_of_norm(n, gram[i][i])
        if i == 0:
            vs = [v for v in vs
                  if all(x >= 0 for x in v) and list(v) == sorted(v, reverse=True)]
        return [v for v in vs
                if all(sum(a * b for a, b in zip(v, w)) == gram[i][j]
                       for j, w in enumerate(chosen))]

    def search(i):
        if i == n:
            return True
        for v in candidates(i):
            chosen.append(v)
            if search(i + 1):
                return True
            chosen.pop()
        return False

    if search(0):
        return True, list(chosen)
    return False, None


def inverse(a):
    """Exact inverse as a Fraction matrix; raises SingularMatrix if det = 0."""
    if not exactmat.is_square(a):
        raise ValueError("inverse requires a square matrix")
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def rational_cholesky(g):
    """Square-root-free LDLᵀ factorization of a symmetric rational matrix.

    Returns (L, D) with L unit lower triangular (Fractions), D a list of
    positive Fractions, and L·diag(D)·Lᵀ = G.  Raises NotPositiveDefinite
    when G is indefinite or semidefinite.  The library factors through
    `ldl`; this Fraction version is the oracles' independent reference.
    """
    if not exactmat.is_symmetric(g):
        raise ValueError("LDL^T requires a symmetric matrix")
    n = len(g)
    lo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    dd = [Fraction(0)] * n
    for j in range(n):
        dd[j] = Fraction(g[j][j]) - sum(dd[k] * lo[j][k] ** 2 for k in range(j))
        if dd[j] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        for i in range(j + 1, n):
            s = Fraction(g[i][j]) - sum(dd[k] * lo[i][k] * lo[j][k] for k in range(j))
            lo[i][j] = s / dd[j]
    return lo, dd


def _enumerate_coset(a, t, radius):
    """All integer u with (u+t)ᵀ·A·(u+t) ≤ radius, with values.

    Plain box enumeration from the LDLᵀ radii; yields (u, value) pairs.
    """
    n = len(t)
    lo, dd = rational_cholesky(a)
    t = [Fraction(x) for x in t]
    s = [Fraction(0)] * n
    u = [0] * n
    nodes = 0

    def walk(i, used):
        nonlocal nodes
        if i < 0:
            yield tuple(u), used
            return
        c = t[i] + sum(lo[j][i] * s[j] for j in range(i + 1, n))
        center = -c
        start = (center + Fraction(1, 2)).__floor__()
        for first, step in ((start, -1), (start + 1, 1)):
            ui = first
            while True:
                nodes += 1
                if nodes > ENUM_NODE_CAP:
                    raise SearchTooLarge("enumeration exceeded the node cap")
                term = dd[i] * (ui + c) ** 2
                if used + term > radius:
                    break
                u[i] = ui
                s[i] = ui + t[i]
                yield from walk(i - 1, used + term)
                ui += step

    yield from walk(n - 1, Fraction(0))


def brute_char_min(obj, bound):
    """Exact min of χ² over characteristic vectors, by full enumeration of
    the coset points with square ≤ bound (the caller supplies an achieved
    bound, e.g. the square of any characteristic vector)."""
    gram = int_gram(obj)
    n = len(gram)
    a = inverse(gram)
    w0 = [gram[i][i] % 2 for i in range(n)]
    t = [Fraction(w, 2) for w in w0]
    radius = Fraction(bound, 4)
    best = None
    for _, val in _enumerate_coset(a, t, radius):
        if best is None or val < best:
            best = val
    if best is None:
        raise InvariantViolation("bound below the true minimum")
    m = 4 * best
    if m.denominator != 1:
        raise InvariantViolation("characteristic minimum is not an integer")
    return int(m)


def lam(g, x, y):
    """The pairing λ(x, y) as a canonical Fraction in [0, 1), summed over
    the Fraction view: the reference for `discgroup._row` and
    `discgroup._isotropic`."""
    pairing = g.pairing
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * pairing[i][j]
    return total % 1


def _grow(g, h, x):
    """The subgroup generated by the subgroup h (a set) and x: the union of
    the translates h + k·x, k = 0, 1, ..., up to the first k·x in h."""
    span, y = set(h), x
    while y not in h:
        span.update(tuple((a + b) % d for a, b, d in zip(e, y, g.orders))
                    for e in h)
        y = tuple((a + b) % d for a, b, d in zip(y, x, g.orders))
    return frozenset(span)


def _subgroup(g, elements):
    """The Subgroup of a closed element set; generators are picked greedily
    by (−order, element) among those outside the span so far."""
    trivial = frozenset({g.identity})
    gens, span = [], trivial
    for x in sorted(elements, key=lambda e: (-len(_grow(g, trivial, e)), e)):
        if x not in span:
            gens.append(x)
            span = _grow(g, span, x)
    return discgroup.Subgroup(tuple(sorted(elements)), tuple(gens))


def brute_subgroups(g):
    """All subgroups: each round grows each subgroup found in the round
    before by one element, starting from the trivial group.  Uses no
    subgroup helper of `discgroup`, so that it stays a reference for them."""
    if g.order > SUBGROUP_CAP:
        raise SearchTooLarge(f"group order {g.order} exceeds the oracle cap")
    elements = list(g.elements())
    seen = new = {frozenset({g.identity})}
    while new:
        new = {_grow(g, h, x) for h in new for x in elements
               if x not in h} - seen
        seen = seen | new
    return sorted((_subgroup(g, s) for s in seen),
                  key=lambda sg: (sg.order, sg.elements))
