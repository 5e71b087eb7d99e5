"""Discriminant groups L*/L with their Q/Z-valued pairing, stored on ints.

The group is presented in Smith normal form coordinates: orders
(d_1, ..., d_k) with d_1 | ... | d_k and d_i > 1, elements as coefficient
tuples.  With N = d_k the exponent, the pairing is stored as the integer
table P = N·λ(g_i, g_j) mod N, and a lattice-derived group stores its
generator lifts as integer rows over the one denominator N.  Groups from
an external table carry orders and P only.
`pairing` and `generators` are the Fraction views of P and of the lifts.
Subgroups are found by one depth-first search, run once per prime;
`metabolizers_of_group` first reads the Witt class of λ on each odd
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


def group_from_table(orders, pairing):
    """An abstract discriminant group given by orders and a pairing table."""
    orders = tuple(int(d) for d in orders)
    if any(d <= 1 for d in orders):
        raise InputError("group orders must all be > 1")
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise InputError("group orders must form a divisibility chain")
    k = len(orders)
    if len(pairing) != k or any(len(row) != k for row in pairing):
        raise InputError("pairing table must be k×k for k group orders")
    table = tuple(tuple(Fraction(x) for x in row) for row in pairing)
    for i in range(k):
        for j in range(k):
            if not 0 <= table[i][j] < 1:
                raise InputError("pairing values must lie in [0, 1)")
            if table[i][j] != table[j][i]:
                raise InputError("pairing table must be symmetric")
            if (orders[i] * table[i][j]) % 1 != 0:
                raise InputError("pairing value incompatible with generator order")
    n = max(orders, default=1)
    return DiscGroup(orders, tuple(tuple(int(n * x) for x in row)
                                   for row in table))


def _order_mod(g, h, x):
    """The order of x modulo the subgroup h (a set): the least k ≥ 1 with
    k·x in h."""
    k, y = 1, x
    while y not in h:
        y = add(g, y, x)
        k += 1
    return k


def closure(g, gens, base=None):
    """The subgroup generated by the subgroup base (a set; the trivial one
    if None) and the given elements, as a set.

    Each x grows the current subgroup H to the union of the cosets H + j·x,
    0 ≤ j < k, with k the order of x modulo H.  A coset is the last one
    translated by x one coordinate at a time: a column of the layer at once.
    """
    h = {g.identity} if base is None else set(base)
    for x in map(tuple, gens):
        layer = list(h)
        for _ in range(_order_mod(g, h, x) - 1):
            layer = list(zip(*[[(a + b) % d for a in col] for col, b, d
                               in zip(zip(*layer), x, g.orders)]))
            h.update(layer)
    return h


def make_subgroup(g, elements):
    """Canonical Subgroup from a closed element set (greedy generator pick)."""
    elems = sorted(elements)
    gens = []
    have = {g.identity}
    for x in sorted(elems, key=lambda e: (-element_order(g, e), e)):
        if x not in have:
            gens.append(x)
            have = closure(g, (x,), have)
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
    """The subgroups of order q spanned by candidates, as a dict from the
    element set to the generators that built it; with rows (r(x) for each
    candidate x) given, only those on which λ vanishes.

    Depth first over sequences of candidate generators: a step takes a
    candidate x outside the current subgroup H (isotropic to the generators
    so far, if asked; sufficient by bilinearity) whose order k modulo H
    keeps |H|·k a divisor of q, and only then grows H by the cosets
    H + j·x.  `path` holds the open branch, each subgroup with the next
    candidate to try.
    """
    n = g.exponent
    found = {}
    path = [(0, {g.identity}, ())]
    while path:
        start, current, gens = path.pop()
        if len(current) == q:
            found.setdefault(frozenset(current), gens)
            continue
        for i in range(start, len(candidates)):
            x = candidates[i]
            if x in current or rows is not None and not all(
                    _isotropic(n, rows[x], h) for h in gens):
                continue
            if q % (len(current) * _order_mod(g, current, x)) == 0:
                path.append((i + 1, current, gens))
                path.append((i + 1, closure(g, (x,), current), gens + (x,)))
                break
    return found


def _subgroups(g, m, isotropic):
    """All subgroups of order m, canonically sorted, duplicate-free; with
    isotropic set, only those on which λ vanishes.

    G is the direct sum of its p-parts G_p, the elements of p-power order,
    so a subgroup of order m is the sum of one subgroup of order q in G_p
    for each prime power q ∥ m.  Each part is searched on its own, among
    the elements whose order divides q, and the parts are summed by one
    `closure` per combination.  Isotropy is tested within a part only:
    λ(G_p, G_p') = 0 for p ≠ p'.
    """
    n = g.exponent
    order_of = {x: element_order(g, x) for x in g.elements()}
    candidates = [x for x, k in order_of.items() if k > 1 and m % k == 0]
    rows = None
    if isotropic:
        rows = {x: _row(g, x) for x in candidates}
        candidates = [x for x in candidates if _isotropic(n, rows[x], x)]
    parts = [_search(g, q, [x for x in candidates if q % order_of[x] == 0],
                     rows)
             for q in _prime_powers(m) or [1]]
    if len(parts) == 1:
        found = parts[0]
    else:
        found = [closure(g, [x for _, gens in rest for x in gens], first)
                 for (first, _), *rest in itertools.product(
                     *[part.items() for part in parts])]
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

    gens = [tuple(d // gcd(d, q) if j == i else 0
                  for j in range(len(g.orders)))
            for i, d in enumerate(g.orders) if d % p == 0]
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

