"""Discriminant groups L*/L with their Q/Z-valued pairing, stored on ints.

The group is presented in Smith normal form coordinates: orders
(d_1, ..., d_k) with d_1 | ... | d_k and d_i > 1, elements as coefficient
tuples.  With N = d_k the exponent, the pairing is stored as the integer
table P = N·λ(g_i, g_j) mod N, and a lattice-derived group stores its
generator lifts as integer rows over the one denominator N, together with
a projection map.  Groups from an external table carry orders and P only.
`pairing` and `generators` are the Fraction views of P and of the lifts.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

from . import exactmat, lattice as lattice_mod
from .errors import (GroupTooLarge, InputError, InvariantViolation,
                     NotInDualLattice)

GROUP_CAP = 10 ** 4  # the largest |G| either search enumerates


@dataclass(frozen=True)
class DiscGroup:
    orders: tuple
    form: tuple  # k×k ints P = N·λ(g_i, g_j) mod N, N the exponent
    lifts: tuple = None  # int rows, g_i = lifts[i]/N, when lattice-derived
    lattice: object = field(default=None, repr=False)
    _proj_u: tuple = field(default=None, repr=False)
    _proj_divisors: tuple = field(default=None, repr=False)

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


def lam(g, x, y):
    """The pairing λ(x, y) as a canonical Fraction in [0, 1), summed over
    the Fraction view: the reference for `_row` and `_isotropic`."""
    pairing = g.pairing
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * pairing[i][j]
    return total % 1


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
        _proj_u=dec.u,
        _proj_divisors=divisors,
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


def project(g, v):
    """π(v) ∈ L*/L for a dual vector v, in SNF coordinates."""
    if g.lattice is None:
        raise InputError("group carries no projection map (table-derived)")
    w = lattice_mod.dual_coords(g.lattice, v)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not lie in the dual lattice")
    y = exactmat.mat_vec([list(r) for r in g._proj_u], [int(x) for x in w])
    keep = [i for i, d in enumerate(g._proj_divisors) if d > 1]
    return tuple(int(y[i]) % g._proj_divisors[i] for i in keep)


def lift(g, x):
    """A dual-vector lift of a group element (sum of generator lifts)."""
    if g.lifts is None:
        raise InputError("group carries no lifts (table-derived)")
    n = g.exponent
    return tuple(Fraction(sum(a * row[j] for a, row in zip(x, g.lifts)), n)
                 for j in range(g.lattice.rank))


def closure(g, gens):
    """The subgroup generated by the given elements, as a set."""
    seen = {g.identity}
    frontier = [g.identity]
    gens = [tuple(x) for x in gens]
    while frontier:
        cur = frontier.pop()
        for x in gens:
            nxt = add(g, cur, x)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def make_subgroup(g, elements):
    """Canonical Subgroup from a closed element set (greedy generator pick)."""
    elems = sorted(elements)
    gens = []
    have = {g.identity}
    for x in sorted(elems, key=lambda e: (-element_order(g, e), e)):
        if x not in have:
            gens.append(x)
            have = closure(g, gens)
    return Subgroup(elements=tuple(elems), generators=tuple(gens))


def _check_cap(g):
    if g.order > GROUP_CAP:
        raise GroupTooLarge(
            f"group order {g.order} exceeds the enumeration cap {GROUP_CAP}")


def _subgroups(g, m, isotropic):
    """All subgroups of order m, canonically sorted, duplicate-free; with
    isotropic set, only those on which λ vanishes.

    Depth first over sequences of candidate generators: a step adds a
    candidate outside the current subgroup (isotropic to the generators so
    far, if asked; sufficient by bilinearity) and keeps the closure of the
    generators while its order divides m.  `path` holds the open branch,
    each subgroup with the next candidate to try.
    """
    candidates = [x for x in g.elements()
                  if x != g.identity and m % element_order(g, x) == 0]
    if isotropic:
        n = g.exponent
        rows = {x: _row(g, x) for x in candidates}
        candidates = [x for x in candidates if _isotropic(n, rows[x], x)]
    found = set()
    path = [(0, {g.identity}, ())]
    while path:
        start, current, gens = path.pop()
        if len(current) == m:
            found.add(frozenset(current))
            continue
        for i in range(start, len(candidates)):
            x = candidates[i]
            if x in current or isotropic and not all(
                    _isotropic(n, rows[x], h) for h in gens):
                continue
            grown = closure(g, gens + (x,))
            if m % len(grown) == 0:
                path.append((i + 1, current, gens))
                path.append((i + 1, grown, gens + (x,)))
                break
    return sorted((make_subgroup(g, s) for s in found),
                  key=lambda sg: sg.elements)


def subgroups_of_order(g, m):
    """All subgroups of order m, canonically sorted, duplicate-free."""
    _check_cap(g)
    if m <= 0 or g.order % m != 0:
        raise InputError(f"{m} does not divide the group order {g.order}")
    return _subgroups(g, m, isotropic=False)


def metabolizers_of_group(g):
    """All metabolizers: subgroups M with |M|² = |G| and λ|_{M×M} ≡ 0."""
    _check_cap(g)
    n = g.order
    m = isqrt(n)
    if m * m != n:
        return []
    return _subgroups(g, m, isotropic=True)


def annihilator(g, h):
    """All x with λ(x, y) = 0 for every y in the subgroup h."""
    n = g.exponent
    rows = [_row(g, gen) for gen in h.generators]
    elems = [x for x in g.elements()
             if all(_isotropic(n, r, x) for r in rows)]
    return make_subgroup(g, elems)
