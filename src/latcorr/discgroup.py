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
sets.  For metabolizers one greedy pass over each G[q] first finds a
maximal isotropic subgroup, and one smaller than q answers "none".
"""

import itertools
import re
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
    The Smith form is taken modulo M = det G, which `make_lattice` read off
    its LDLᵀ and which every d_i divides, so its entries stay bounded.
    """
    gram = lat.gram
    dec = exactmat.snf(gram, modulus=lat.det)
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


# only p or p/q: Fraction alone takes "1e999999999" and builds a 10⁹-digit
# integer; [0-9] and not \d, which would take other scripts' digits
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s):
    """An int or a string "p" or "p/q" of ASCII digits as a Fraction."""
    if type(s) is int:
        return Fraction(s)
    if type(s) is not str:  # a float is rounded, a bool no number
        raise InputError(f"bad rational value {s!r}: not a string or int")
    m = _RATIONAL.fullmatch(s)
    try:
        if m is None:
            raise ValueError(f"Invalid literal for Fraction: {s!r}")
        p, q = m.groups()
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError) as e:
        # int() past the digit limit and Fraction(p, 0) raise the messages
        # Fraction(s) raises, so the error line is the same either way
        raise InputError(f"bad rational value {s!r}: {e}")


def _ratio(x):
    """x = p/q in lowest terms, q > 0, for a Fraction, or an int or string
    read by `parse_rational`."""
    if isinstance(x, float):  # already rounded
        raise InputError(f"pairing value {x!r} is a float")
    if not isinstance(x, Fraction):
        x = parse_rational(x)
    return x.numerator, x.denominator


def group_from_table(orders, pairing):
    """An abstract discriminant group given by orders and a pairing table,
    each entry p/q checked on p and q: 0 ≤ p < q and q | its row's order."""
    if not isinstance(orders, (list, tuple)):
        raise InputError(f"group orders {orders!r} are not a list")
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
    if not isinstance(pairing, (list, tuple)) or len(pairing) != k or any(
            not isinstance(row, (list, tuple)) or len(row) != k
            for row in pairing):
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


def _maximal_isotropic(g, elements):
    """What one greedy pass takes from elements (G[q] ∖ 0 in lexicographic
    order): the least x left is taken if λ(x, x) = 0, and then only the
    later y with λ(x, y) = 0 are kept, else x is dropped; only a taken x
    gets its row r(x).  The taken elements are isotropic and pairwise
    orthogonal, so with 0 they span an isotropic S, and an isotropic y
    orthogonal to them all is never dropped, so it is taken: S is the
    taken set with 0, and a maximal isotropic subgroup of G[q].

    Maximal isotropic subgroups H, K of a finite form have one order:
    (K ∩ H^⊥) + H is isotropic, so K ∩ H^⊥ = K ∩ H, and x ↦ λ(x, ·) embeds
    K/(K ∩ H) into the characters of H/(K ∩ H); so |K| ≤ |H|, and equality
    holds by symmetry.  So G[q] has an isotropic subgroup of order q iff
    the pass takes at least q − 1 elements there.
    """
    n = g.exponent
    taken, rest = [], elements[::-1]  # decreasing, so pop() takes the least
    while rest:
        x = rest.pop()
        r = _row(g, x)
        if _isotropic(n, r, x):
            taken.append(x)
            rest = [y for y in rest if _isotropic(n, r, y)]
    return taken


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
    the part is searched among the nonzero elements of G[q]; with isotropic
    set, only once a greedy pass has found order q in every such part.
    Each choice of one subgroup per part is summed as the set {x + y}.
    Isotropy is tested within a part only: λ(G_p, G_p') = 0 for p ≠ p'.
    """
    n = g.exponent
    torsions = [(q, list(itertools.product(
        *[range(0, d, d // gcd(d, q)) for d in g.orders])))
        for q in _prime_powers(m) or [1]]
    if isotropic and any(len(t) > q and
                         len(_maximal_isotropic(g, t[1:])) < q - 1
                         for q, t in torsions):
        return []
    parts = []
    for q, torsion in torsions:
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


def metabolizers_of_group(g):
    """All metabolizers: subgroups M with |M|² = |G| and λ|_{M×M} ≡ 0.

    There are none when |G| is not a square; otherwise `_subgroups`
    decides by one greedy pass per prime before it searches.
    """
    _check_cap(g)
    n = g.order
    m = isqrt(n)
    if m * m != n:
        return []
    return _subgroups(g, m, isotropic=True)

