"""Discriminant groups L*/L with their Q/Z-valued pairing, stored on ints.

The group is presented in Smith normal form coordinates: orders
(d_1, ..., d_k) with d_1 | ... | d_k and d_i > 1, elements as coefficient
tuples.  With N = d_k the exponent, the pairing is stored as the integer
table P = N·λ(g_i, g_j) mod N, and a lattice-derived group stores its
generator lifts as integer rows over the one denominator N.  Groups from
an external table carry orders and P only.
`pairing` and `generators` are the Fraction views of P and of the lifts.
Subgroups of order m are built one prime power q ∥ m at a time inside
G[q] = {x : q·x = 0}, enumerated directly: G[q] itself when it has order
q, else by one depth-first search, and the parts are summed as element
sets; `metabolizers_of_group` first reads the Witt class of λ on each odd
p-part, and a nonzero class answers "none" without a search; the 2-part
never obstructs.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

from . import exactmat
from .errors import GroupTooLarge, InputError, InvariantViolation

GROUP_CAP = 10 ** 4  # the largest |G| either search enumerates


@dataclass(frozen=True)
class DiscGroup:
    orders: tuple
    form: tuple  # k×k ints P = N·λ(g_i, g_j) mod N, N the exponent
    lifts: tuple = None  # int rows, g_i = lifts[i]/N, when lattice-derived
    lattice: object = field(default=None, repr=False)

    @property
    def order(self):
        return prod(self.orders)

    @property
    def exponent(self):
        return self.orders[-1] if self.orders else 1

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def _over_exponent(self, rows):
        n = self.exponent
        return tuple(tuple(Fraction(x, n) for x in row) for row in rows)

    @property
    def pairing(self):
        """λ(g_i, g_j) as Fractions in [0, 1)."""
        return self._over_exponent(self.form)

    @property
    def generators(self):
        """The generator lifts in rational L-coordinates, or None."""
        return self.lifts and self._over_exponent(self.lifts)

    def elements(self):
        return itertools.product(*[range(d) for d in self.orders])


@dataclass(frozen=True)
class Subgroup:
    elements: tuple  # sorted element tuples (canonical form)
    generators: tuple

    @property
    def order(self):
        return len(self.elements)


def add(g, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, g.orders))


def neg(g, x):
    return tuple((-a) % d for a, d in zip(x, g.orders))


def element_order(g, x):
    n = 1
    for a, d in zip(x, g.orders):
        if a:
            n = n * (d // gcd(a, d)) // gcd(n, d // gcd(a, d))
    return n


def _row(g, x):
    """r(x) = xᵀP mod N.  N·λ(x, y) ≡ r(x)·y (mod N), so λ(x, y) = 0 iff
    that integer dot product vanishes mod N."""
    n = g.exponent
    return tuple(sum(map(mul, x, col)) % n for col in zip(*g.form))


def _isotropic(n, r, y):
    """λ(x, y) = 0, given r = r(x) and the exponent n."""
    return sum(map(mul, r, y)) % n == 0


def disc_group(lat):
    """The discriminant group of a lattice, in SNF coordinates.

    Generators are the dual vectors gram⁻¹·U⁻¹·e_i = V·D⁻¹·e_i for the SNF
    decomposition U·gram·V = D, restricted to elementary divisors d_i > 1;
    with c_i the i-th column of V, the lift of g_i is (N/d_i)·c_i over N.
    """
    gram = lat.gram_rows()
    dec = exactmat.snf(gram)
    divisors = dec.divisors
    keep = [i for i, d in enumerate(divisors) if d > 1]
    orders = tuple(divisors[i] for i in keep)
    n = orders[-1] if orders else 1
    cols = [[row[i] for row in dec.v] for i in keep]  # Vᵀ, kept rows
    # N·λ(g_i, g_j) = −N·(Vᵀ·G·V)_ij/(d_i·d_j) mod N, from integer columns
    form = [[divmod(-n * x, di * dj) for x, dj in zip(row, orders)]
            for row, di in zip(exactmat.gram_of_rows(cols, gram), orders)]
    if any(r for row in form for _, r in row):
        raise InvariantViolation("pairing value incompatible with group order")
    return DiscGroup(
        orders=orders,
        form=tuple(tuple(p % n for p, _ in row) for row in form),
        lifts=tuple(tuple(n // d * x for x in col)
                    for col, d in zip(cols, orders)),
        lattice=lat,
    )


def _ratio(x):
    """x = p/q in lowest terms, q > 0, for an int, Fraction or string."""
    if isinstance(x, float):  # already rounded
        raise InputError(f"pairing value {x!r} is a float")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def group_from_table(orders, pairing):
    """An abstract discriminant group given by orders and a pairing table,
    each entry p/q checked on p and q: 0 ≤ p < q and q | its row's order."""
    orders = tuple(orders)
    for d in orders:
        if isinstance(d, bool) or not isinstance(d, int):
            raise InputError(f"group order {d!r} is not an integer")
    if any(d <= 1 for d in orders):
        raise InputError("group orders must all be > 1")
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise InputError("group orders must form a divisibility chain")
    k = len(orders)
    if len(pairing) != k or any(len(row) != k for row in pairing):
        raise InputError("pairing table must be k×k for k group orders")
    table = [[_ratio(x) for x in row] for row in pairing]
    for i in range(k):
        for j in range(k):
            p, q = table[i][j]
            if not 0 <= p < q:
                raise InputError("pairing values must lie in [0, 1)")
            if table[i][j] != table[j][i]:
                raise InputError("pairing table must be symmetric")
            if orders[i] % q:
                raise InputError("pairing value incompatible with generator order")
    n = max(orders, default=1)
    return DiscGroup(orders, tuple(tuple(n // q * p for p, q in row)
                                   for row in table))


def closure(g, h, x):
    """⟨h, x⟩ for a subgroup h (a set, left as it is) and an element x, as
    a set.

    The cosets h + j·x, j = 1, 2, …, are added until j·x lies in h.  Each
    is the last one translated by x one coordinate at a time: a column of
    the layer at once.
    """
    out, layer, y = set(h), list(h), x
    while y not in h:
        layer = list(zip(*[[(a + b) % d for a in col] for col, b, d
                           in zip(zip(*layer), x, g.orders)]))
        out.update(layer)
        y = add(g, y, x)
    return out


def make_subgroup(g, elements):
    """Canonical Subgroup from a closed element set (greedy generator pick)."""
    elems = sorted(elements)
    gens = []
    have = {g.identity}
    for x in sorted(elems, key=lambda e: (-element_order(g, e), e)):
        if x not in have:
            gens.append(x)
            have = closure(g, have, x)
    return Subgroup(elements=tuple(elems), generators=tuple(gens))


def _check_cap(g):
    if g.order > GROUP_CAP:
        raise GroupTooLarge(
            f"group order {g.order} exceeds the enumeration cap {GROUP_CAP}")


def _prime_powers(m):
    """The prime powers q = p^e ∥ m, one per prime p | m, by increasing p."""
    out, p = [], 2
    while m > 1:
        if p * p > m:
            p = m
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q > 1:
            out.append(q)
        p += 1
    return out


def _search(g, q, candidates, rows):
    """The subgroups of order q spanned by candidates (the nonzero elements
    of G[q] in lexicographic order; for metabolizers only those with
    λ(x, x) = 0), as a set of frozensets; with rows (r(x) for each
    candidate x) given, only those on which λ vanishes.

    Depth first over increasing sequences of candidates: a step takes an x
    outside the current subgroup H with (q/|H|)·x in H and grows H to
    ⟨H, x⟩.  Every order in G[q] is a power of the prime p | q, so the
    order k of x modulo H keeps |H|·k a divisor of q iff k divides q/|H|,
    iff that one multiple lies in H: no set is built that would overshoot.
    With rows given, taking x keeps only the later candidates y with
    λ(x, y) = 0, which keeps H isotropic by bilinearity.
    """
    n = g.exponent
    found = set()

    def grow(h, rest):
        if len(h) == q:
            found.add(frozenset(h))
            return
        c = q // len(h)
        for i, x in enumerate(rest):
            if x not in h and tuple(
                    c * a % d for a, d in zip(x, g.orders)) in h:
                later = rest[i + 1:]
                if rows is not None:
                    later = [y for y in later if _isotropic(n, rows[x], y)]
                grow(closure(g, h, x), later)

    grow({g.identity}, candidates)
    return found


def _torsion_gens(g, q):
    """The SNF generators (d_i/gcd(d_i, q))·e_i of G[q] = {x : q·x = 0},
    one for each d_i with gcd(d_i, q) > 1."""
    k = len(g.orders)
    return [tuple(d // gcd(d, q) if j == i else 0 for j in range(k))
            for i, d in enumerate(g.orders) if gcd(d, q) > 1]


def _subgroups(g, m, isotropic):
    """All subgroups of order m, canonically sorted, duplicate-free; with
    isotropic set, only those on which λ vanishes.

    G is the direct sum of its p-parts G_p, the elements of p-power order,
    so a subgroup of order m is the sum of one subgroup of order q in G_p
    for each prime power q ∥ m, and that subgroup lies in
    G[q] = {x : q·x = 0}, the product of the multiples of d_i/gcd(d_i, q),
    enumerated directly in lexicographic order.  When |G[q]| = q, G[q] is
    the only subgroup of order q (by Lagrange) and is taken without a
    search.  For a metabolizer it is isotropic as well: |G_p| = q², and
    |G[q]| = q only when G_p ≅ ℤ/q², whose subgroup q·G_p pairs to
    q²·λ(x, y) = 0, since λ(x, y) has order dividing q² on it.  Otherwise
    the part is searched among the nonzero elements of G[q].
    Each choice of one subgroup per part is summed as the set {x + y}.
    Isotropy is tested within a part only: λ(G_p, G_p') = 0 for p ≠ p'.
    """
    n = g.exponent
    parts = []
    for q in _prime_powers(m) or [1]:
        torsion = list(itertools.product(
            *[range(0, d, d // gcd(d, q)) for d in g.orders]))
        if len(torsion) == q:
            parts.append([frozenset(torsion)])
            continue
        candidates, rows = torsion[1:], None  # torsion[0] is 0
        if isotropic:
            rows = {x: _row(g, x) for x in candidates}
            candidates = [x for x in candidates if _isotropic(n, rows[x], x)]
        parts.append(_search(g, q, candidates, rows))
    found = parts[0]
    for part in parts[1:]:
        found = [{add(g, x, y) for x in s for y in t}
                 for s in found for t in part]
    return sorted((make_subgroup(g, s) for s in found),
                  key=lambda sg: sg.elements)


def subgroups_of_order(g, m):
    """All subgroups of order m, canonically sorted, duplicate-free."""
    _check_cap(g)
    if isinstance(m, bool) or not isinstance(m, int):
        raise InputError(f"subgroup order {m!r} is not an integer")
    if m <= 0 or g.order % m != 0:
        raise InputError(f"{m} does not divide the group order {g.order}")
    return _subgroups(g, m, isotropic=False)


def _witt_class_vanishes(g, q, p):
    """Whether λ on G_p (p odd, q = p^e the p-part of the exponent) is 0 in
    the Witt group W(F_p); None when λ on G_p is degenerate.

    G_p is split orthogonally into cyclic summands ⟨u/p^k⟩.  With p^k the
    largest element order left, a step takes an x among the generators and
    their pairwise sums with λ(x, x) of order p^k; one exists whenever λ is
    nondegenerate there (2 is a unit mod p), and then x has order p^k too.
    Every generator y is replaced by its projection y − c·x onto x^⊥, which
    divides the order of the part left by p^k, so the loop ends.  A summand
    with k even is metabolic, and one with k odd has the class of ⟨u⟩ in
    W(F_p); with r of them, r is even since |G_p| is a square, and the sum
    vanishes iff the discriminant (−1)^{r/2}·∏u is a square mod p (Euler's
    criterion).
    """
    n = g.exponent

    def pair(x, y):  # N·λ(x, y) mod N
        return sum(map(mul, _row(g, x), y)) % n

    gens = _torsion_gens(g, q)
    r, units = 0, 1
    while gens:
        m = max(element_order(g, y) for y in gens)
        x = next((x for x in itertools.chain(
            gens, (add(g, y, z) for y, z in itertools.combinations(gens, 2)))
            if n // gcd(pair(x, x), n) == m), None)
        if x is None:
            return None
        # λ(x, x) = u/p^k with p^k = m, the order of x, so λ(x, y) has
        # order dividing m for every y and is cancelled by a multiple of x
        u = pair(x, x) // (n // m)
        inv = pow(u, -1, m)
        rest = []
        for y in gens:
            c = pair(x, y) // (n // m) * inv
            y = tuple((a - c * xa) % d for a, xa, d in zip(y, x, g.orders))
            if any(y):
                rest.append(y)
        gens = rest
        if isqrt(m) ** 2 != m:
            r, units = r + 1, units * u
    return pow((-1) ** (r // 2) * units, (p - 1) // 2, p) == 1


def _witt_obstructed(g):
    """For |G| a square: True when λ on some odd p-part G_p is
    nondegenerate with a nonzero Witt class, which no form with a
    metabolizer has: a metabolizer M of G has p-part M_p with
    |M_p|² = |G_p|, so M_p = M_p^⊥ and λ on G_p is metabolic.  The 2-part
    never obstructs: a nondegenerate form on a 2-group of square order
    > 1 has a nonzero isotropic x, and ⟨x⟩^⊥/⟨x⟩ is again one of square
    order, so it has a metabolizer by induction."""
    for q in _prime_powers(g.exponent):
        p = next(d for d in itertools.count(2) if q % d == 0)
        if p > 2 and _witt_class_vanishes(g, q, p) is False:
            return True
    return False


def metabolizers_of_group(g):
    """All metabolizers: subgroups M with |M|² = |G| and λ|_{M×M} ≡ 0.

    There are none when |G| is not a square, or when the Witt class of λ
    on some odd p-part is nonzero; otherwise they are searched for.
    """
    _check_cap(g)
    n = g.order
    m = isqrt(n)
    if m * m != n or _witt_obstructed(g):
        return []
    return _subgroups(g, m, isotropic=True)

