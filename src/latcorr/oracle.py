"""Brute-force oracles cross-validating the optimized paths.

Everything here privileges obviousness over speed: exhaustive enumeration
with hard caps, single-threaded, and no incumbent-based pruning.  Exceeding
a cap raises SearchTooLarge rather than silently truncating the search.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import discgroup, exactmat
from .overlattice import int_gram
from .errors import InvariantViolation, SearchTooLarge
from .lattice import Lattice

EMBED_DIAG_CAP = 36
EMBED_RANK_CAP = 8
SUBGROUP_CAP = 512
STANDARD_RANK_CAP = 12
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


def brute_embed(lat, diag_cap=EMBED_DIAG_CAP, rank_cap=EMBED_RANK_CAP):
    """Exhaustive search for an embedding of the lattice into Zⁿ.

    Returns (found, witness) where witness lists the images of the basis
    vectors.  The first image is canonicalized to sorted nonnegative
    coordinates, which is the only symmetry reduction used.
    """
    n = lat.rank
    gram = lat.gram
    if n > rank_cap or any(gram[i][i] > diag_cap for i in range(n)):
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


def _enumerate_coset(a, t, radius, node_cap=ENUM_NODE_CAP):
    """All integer u with (u+t)ᵀ·A·(u+t) ≤ radius, with values.

    Plain box enumeration from the LDLᵀ radii; yields (u, value) pairs.
    """
    n = len(t)
    lo, dd = exactmat.rational_cholesky(a)
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
                if nodes > node_cap:
                    raise SearchTooLarge("enumeration exceeded the node cap")
                term = dd[i] * (ui + c) ** 2
                if used + term > radius:
                    break
                u[i] = ui
                s[i] = ui + t[i]
                yield from walk(i - 1, used + term)
                ui += step

    yield from walk(n - 1, Fraction(0))


def gram_of(obj):
    """The int Gram matrix of a lattice or of an integral overlattice."""
    if isinstance(obj, Lattice):
        return obj.gram_rows()
    return int_gram(obj)


def brute_char_min(obj, bound):
    """Exact min of χ² over characteristic vectors, by full enumeration of
    the coset points with square ≤ bound (the caller supplies an achieved
    bound, e.g. the square of any characteristic vector)."""
    gram = gram_of(obj)
    n = len(gram)
    a = exactmat.inverse(gram)
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


def brute_subgroups(g, cap=SUBGROUP_CAP):
    """All subgroups, by closure-based lattice walk from the trivial group."""
    if g.order > cap:
        raise SearchTooLarge(f"group order {g.order} exceeds the oracle cap")
    elements = list(g.elements())
    trivial = frozenset({g.identity})
    seen = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for x in elements:
            if x in h:
                continue
            grown = frozenset(discgroup.closure(g, list(h | {x})))
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
    return sorted((discgroup.make_subgroup(g, s) for s in seen),
                  key=lambda sg: (sg.order, sg.elements))


def is_standard(obj, rank_cap=STANDARD_RANK_CAP):
    """True iff the unimodular positive definite lattice is Zⁿ: it must
    contain exactly 2n vectors of square one, spanning the lattice."""
    gram = gram_of(obj)
    n = len(gram)
    if n > rank_cap:
        raise SearchTooLarge("rank exceeds the is_standard cap")
    gfrac = [[Fraction(x) for x in row] for row in gram]
    t = [Fraction(0)] * n
    units = [u for u, val in _enumerate_coset(gfrac, t, Fraction(1)) if val == 1]
    if len(units) != 2 * n:
        return False
    h = exactmat.hnf([list(v) for v in units])
    d = 1
    for i in range(n):
        d *= h[i][i]
    return abs(d) == 1
