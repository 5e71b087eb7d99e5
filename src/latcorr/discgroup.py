"""Discriminant groups L*/L with their Q/Z-valued pairing.

The group is presented in Smith normal form coordinates: orders
(d_1, ..., d_k) with d_1 | ... | d_k and d_i > 1, elements as coefficient
tuples.  Groups may come from a lattice (carrying generator lifts and a
projection map) or from an external table (orders and pairing only).
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from . import exactmat, lattice as lattice_mod
from .errors import GroupTooLarge, InputError, NotInDualLattice

DEFAULT_GROUP_CAP = 10 ** 4


@dataclass(frozen=True)
class DiscGroup:
    orders: tuple
    pairing: tuple  # k×k Fractions in [0, 1)
    generators: tuple = None  # dual-vector lifts, when lattice-derived
    lattice: object = field(default=None, repr=False)
    _proj_u: tuple = field(default=None, repr=False)
    _proj_divisors: tuple = field(default=None, repr=False)

    @property
    def order(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def identity(self):
        return (0,) * len(self.orders)

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
    """The pairing λ(x, y) as a canonical Fraction in [0, 1)."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * g.pairing[i][j]
    return total % 1


def disc_group(lat):
    """The discriminant group of a lattice, in SNF coordinates.

    Generators are the dual vectors gram⁻¹·U⁻¹·e_i = V·D⁻¹·e_i for the SNF
    decomposition U·gram·V = D, restricted to elementary divisors d_i > 1.
    """
    gram = lat.gram_rows()
    dec = exactmat.snf(gram)
    divisors = dec.divisors
    keep = [i for i, d in enumerate(divisors) if d > 1]
    orders = tuple(divisors[i] for i in keep)
    gens = [tuple(Fraction(row[i], divisors[i]) for row in dec.v)
            for i in keep]
    pairing = tuple(
        tuple((-lattice_mod.pairing(lat, gi, gj)) % 1 for gj in gens)
        for gi in gens
    )
    return DiscGroup(
        orders=orders,
        pairing=pairing,
        generators=tuple(gens),
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
    return DiscGroup(orders=orders, pairing=table)


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
    if g.generators is None:
        raise InputError("group carries no lifts (table-derived)")
    n = g.lattice.rank
    coords = [Fraction(0)] * n
    for a, gen in zip(x, g.generators):
        if a:
            coords = [c + a * gc for c, gc in zip(coords, gen)]
    return tuple(coords)


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


def _check_cap(g, cap):
    if g.order > cap:
        raise GroupTooLarge(
            f"group order {g.order} exceeds the enumeration cap {cap}")


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
                  if x != g.identity and m % element_order(g, x) == 0
                  and (not isotropic or lam(g, x, x) == 0)]
    found = set()
    path = [(0, {g.identity}, ())]
    while path:
        start, current, gens = path.pop()
        if len(current) == m:
            found.add(frozenset(current))
            continue
        for i in range(start, len(candidates)):
            x = candidates[i]
            if x in current or isotropic and any(
                    lam(g, x, h) != 0 for h in gens):
                continue
            grown = closure(g, gens + (x,))
            if m % len(grown) == 0:
                path.append((i + 1, current, gens))
                path.append((i + 1, grown, gens + (x,)))
                break
    return sorted((make_subgroup(g, s) for s in found),
                  key=lambda sg: sg.elements)


def subgroups_of_order(g, m, cap=DEFAULT_GROUP_CAP):
    """All subgroups of order m, canonically sorted, duplicate-free."""
    _check_cap(g, cap)
    if m <= 0 or g.order % m != 0:
        raise InputError(f"{m} does not divide the group order {g.order}")
    return _subgroups(g, m, isotropic=False)


def metabolizers_of_group(g, cap=DEFAULT_GROUP_CAP):
    """All metabolizers: subgroups M with |M|² = |G| and λ|_{M×M} ≡ 0."""
    _check_cap(g, cap)
    n = g.order
    m = isqrt(n)
    if m * m != n:
        return []
    return _subgroups(g, m, isotropic=True)


def annihilator(g, h):
    """All x with λ(x, y) = 0 for every y in the subgroup h."""
    elems = [x for x in g.elements()
             if all(lam(g, x, gen) == 0 for gen in h.generators)]
    return make_subgroup(g, elems)
