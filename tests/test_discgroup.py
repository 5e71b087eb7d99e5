import dataclasses
from fractions import Fraction
from math import isqrt, prod

import pytest

from latcorr import discgroup, exactmat, lattice as lattice_mod, oracle, topo
from latcorr.errors import GroupTooLarge, InputError

from conftest import (DATA_DIR, a8_gram, basis_change, d4_gram,
                      random_posdef_gram, random_unimodular)
from duality import annihilator, lift, pairing, snf as smith_reference


def test_disc_group_of_nine():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    assert g.orders == (9,)
    assert g.order == 9
    assert g.pairing == ((Fraction(8, 9),),)


def test_disc_group_of_a8():
    g = discgroup.disc_group(lattice_mod.make_lattice(a8_gram()))
    assert g.orders == (9,)
    # the generator pairs with itself to -8/9 mod 1, the A8 glue value
    assert g.pairing[0][0] == Fraction(1, 9)


def test_disc_group_unimodular_is_trivial():
    g = discgroup.disc_group(lattice_mod.make_lattice([[1, 0], [0, 1]]))
    assert g.orders == ()
    assert g.order == 1
    assert list(g.elements()) == [()]


def test_disc_group_generators_are_dual_lifts(rng):
    # generator i is gram⁻¹·U⁻¹·e_i for the Smith form U·gram·V = D
    for _ in range(20):
        gram = random_posdef_gram(rng, max_rank=5, max_disc=200)
        g = discgroup.disc_group(lattice_mod.make_lattice(gram))
        dec = smith_reference(gram)
        ginv = oracle.inverse(gram)
        uinv = oracle.inverse([list(r) for r in dec.u])
        expect = tuple(
            tuple(exactmat.mat_vec(ginv, [row[i] for row in uinv]))
            for i, d in enumerate(dec.divisors) if d > 1)
        assert g.generators == expect


def test_group_arithmetic():
    g = discgroup.group_from_table((2, 4), [["0", "0"], ["0", "1/4"]])
    assert discgroup.add(g, (1, 3), (1, 2)) == (0, 1)
    assert discgroup.neg(g, (1, 1)) == (1, 3)
    assert discgroup.element_order(g, (1, 2)) == 2
    assert discgroup.element_order(g, (0, 1)) == 4
    assert discgroup.element_order(g, (1, 1)) == 4
    assert discgroup.element_order(g, g.identity) == 1


def test_lam_bilinearity():
    lat = lattice_mod.make_lattice(d4_gram())
    g = discgroup.disc_group(lat)
    elems = list(g.elements())
    for x in elems:
        for y in elems:
            assert oracle.lam(g, x, y) == oracle.lam(g, y, x)
            s = discgroup.add(g, x, y)
            for z in elems[:3]:
                lhs = oracle.lam(g, s, z)
                rhs = (oracle.lam(g, x, z) + oracle.lam(g, y, z)) % 1
                assert lhs == rhs


def test_lam_nondegenerate_on_lattice_groups(rng):
    # for each nonzero x there is y with lam(x, y) != 0
    for _ in range(10):
        lat = lattice_mod.make_lattice(random_posdef_gram(rng))
        g = discgroup.disc_group(lat)
        elems = list(g.elements())
        for x in elems:
            if x == g.identity:
                continue
            assert any(oracle.lam(g, x, y) != 0 for y in elems)


def test_pairing_consistency_with_lifts():
    # lam computed from the table equals -Q(lift, lift) mod 1
    for gram in (a8_gram(), d4_gram(), [[5]]):
        lat = lattice_mod.make_lattice(gram)
        g = discgroup.disc_group(lat)
        for x in g.elements():
            for y in g.elements():
                vx = lift(g, x)
                vy = lift(g, y)
                expect = (-pairing(lat, vx, vy)) % 1
                assert oracle.lam(g, x, y) == expect


def test_group_from_table_validation():
    with pytest.raises(InputError):
        discgroup.group_from_table((1,), [["0"]])
    with pytest.raises(InputError):
        discgroup.group_from_table((4, 2), [["0", "0"], ["0", "0"]])
    with pytest.raises(InputError):
        discgroup.group_from_table((2,), [["1/2", "0"]])
    with pytest.raises(InputError):
        discgroup.group_from_table((2, 2), [["0", "1/2"], ["1/4", "0"]])
    with pytest.raises(InputError):
        discgroup.group_from_table((2,), [["3/2"]])
    with pytest.raises(InputError):
        discgroup.group_from_table((2,), [["1/3"]])


def test_subgroups_of_order_nine():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    subs = discgroup.subgroups_of_order(g, 3)
    assert len(subs) == 1
    assert subs[0].elements == ((0,), (3,), (6,))
    assert discgroup.subgroups_of_order(g, 1)[0].elements == ((0,),)
    assert len(discgroup.subgroups_of_order(g, 9)) == 1
    with pytest.raises(InputError):
        discgroup.subgroups_of_order(g, 2)


def test_subgroup_order_must_be_an_int():
    # the order is split into prime powers, so it must be an int; a bool
    # is not one, and a float or Fraction that divides |G| is refused too
    g = discgroup.disc_group(lattice_mod.make_lattice([[6]]))
    assert len(discgroup.subgroups_of_order(g, 2)) == 1
    for m in (2.0, 3.0, Fraction(2), True, False, "2", None):
        with pytest.raises(InputError):
            discgroup.subgroups_of_order(g, m)


def test_metabolizers_nine():
    lat = lattice_mod.make_lattice([[9]])
    mets = discgroup.metabolizers_of_group(discgroup.disc_group(lat))
    assert len(mets) == 1
    assert mets[0].elements == ((0,), (3,), (6,))


def test_metabolizers_d4():
    g = discgroup.disc_group(lattice_mod.make_lattice(d4_gram()))
    mets = discgroup.metabolizers_of_group(g)
    assert len(mets) == 3
    for m in mets:
        assert m.order == 2


def test_metabolizers_three_three_empty():
    # (Z/3)² with diagonal form <1/3, 1/3> has no isotropic order-3 subgroup
    g = discgroup.disc_group(lattice_mod.make_lattice([[3, 0], [0, 3]]))
    mets = discgroup.metabolizers_of_group(g)
    assert mets == []


def test_metabolizers_non_square_order():
    g = discgroup.disc_group(lattice_mod.make_lattice([[2]]))
    mets = discgroup.metabolizers_of_group(g)
    assert mets == []


def test_metabolizers_isotropy():
    lat = lattice_mod.make_lattice([[1, 0], [0, 25]])
    g = discgroup.disc_group(lat)
    for m in discgroup.metabolizers_of_group(g):
        assert m.order ** 2 == g.order
        for x in m.elements:
            for y in m.elements:
                assert oracle.lam(g, x, y) == 0


def test_metabolizers_of_three_generators():
    # (Z/2)⁶ with λ = diag(1/2): the metabolizers are the self-dual binary
    # codes of length 6, (2 + 1)(4 + 1) = 15 of them, each needing three
    # generators, so every new generator must be checked against all
    # earlier ones
    g = discgroup.group_from_table(
        (2,) * 6, [["1/2" if i == j else "0" for j in range(6)]
                   for i in range(6)])
    mets = discgroup.metabolizers_of_group(g)
    assert len(mets) == 15
    for m in mets:
        assert len(m.generators) == 3
        assert all(oracle.lam(g, x, y) == 0
                   for x in m.elements for y in m.elements)


def test_metabolizer_cap():
    # 10007 is a prime just above GROUP_CAP
    lat = lattice_mod.make_lattice([[10007]])
    with pytest.raises(GroupTooLarge):
        discgroup.metabolizers_of_group(discgroup.disc_group(lat))


def test_annihilator():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    ann = annihilator(g, m)
    # a metabolizer is self-annihilating
    assert ann.elements == m.elements
    full = annihilator(g, discgroup.make_subgroup(g, {g.identity}))
    assert full.order == g.order


def test_make_subgroup_canonical():
    g = discgroup.group_from_table((3, 3), [["1/3", "0"], ["0", "2/3"]])
    elems = {(0, 0), (1, 0), (2, 0)}
    s1 = discgroup.make_subgroup(g, elems)
    s2 = discgroup.make_subgroup(g, list(elems))
    assert s1 == s2
    assert discgroup.closure(g, s1.generators) == elems


def test_pairing_table_matches_lattice_pairing_of_lifts(rng):
    # the table is read off integer columns of the Smith form; on every
    # pair of generator lifts it must agree with −Q(g_i, g_j) mod 1 from
    # the rational pairing of the lattice, also after a change of basis
    seen = 0
    for _ in range(30):
        gram = random_posdef_gram(rng, max_rank=5, max_disc=64)
        for g in (gram, basis_change(gram, random_unimodular(rng, len(gram)))):
            lat = lattice_mod.make_lattice(g)
            grp = discgroup.disc_group(lat)
            gens = grp.generators
            assert grp.pairing == tuple(
                tuple((-pairing(lat, gi, gj)) % 1 for gj in gens)
                for gi in gens)
            seen += len(gens)
    assert seen >= 30


def _diag(ds):
    return [[d if i == j else 0 for j in range(len(ds))]
            for i, d in enumerate(ds)]


A2_A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]


def _conjugate_group(rng, gram):
    """The discriminant group of a seeded change of basis of gram."""
    t = random_unimodular(rng, len(gram))
    return discgroup.disc_group(lattice_mod.make_lattice(basis_change(gram, t)))


def _hyperbolic(p, m):
    """The hyperbolic form on (Z/p)^{2m}: λ(e_{2i}, e_{2i+1}) = 1/p, all
    other table entries 0 (an alternating form when p = 2)."""
    k = 2 * m
    table = [["0"] * k for _ in range(k)]
    for i in range(0, k, 2):
        table[i][i + 1] = table[i + 1][i] = f"1/{p}"
    return discgroup.group_from_table((p,) * k, table)


def _sample_groups(rng):
    lattice_groups = [_conjugate_group(rng, gram) for gram in (
        _diag((2, 2, 4, 4)), _diag((3, 3, 9, 9)), _diag((5, 125)), A2_A2)]
    table_groups = [_hyperbolic(2, 1), _hyperbolic(2, 2), _hyperbolic(3, 2)]
    trivial = discgroup.disc_group(lattice_mod.make_lattice([[1]]))
    return lattice_groups + table_groups + [trivial]


def test_integer_rows_agree_with_lam(rng):
    # N·λ(x, y) ≡ r(x)·y (mod N), with N the exponent of G.  Every pair is
    # checked on groups up to order 81; on the groups of order 625 and 729
    # (all pairs take about 40 s through the Fraction reference) every
    # element is checked against the basis and a seeded sample
    groups = _sample_groups(rng)
    assert [g.orders for g in groups] == [
        (2, 2, 4, 4), (3, 3, 9, 9), (5, 125), (3, 3),
        (2, 2), (2, 2, 2, 2), (3, 3, 3, 3), ()]
    for g in groups:
        n = g.exponent
        assert n == (g.orders[-1] if g.orders else 1)
        elems = list(g.elements())
        basis = [tuple(int(i == j) for j in range(len(g.orders)))
                 for i in range(len(g.orders))]
        ys = elems if len(elems) <= 81 else basis + rng.sample(elems, 8)
        for x in elems:
            r = discgroup._row(g, x)
            assert all(0 <= v < n for v in r)
            for y in ys:
                lam = oracle.lam(g, x, y)
                assert Fraction(sum(a * b for a, b in zip(r, y)) % n, n) == lam
                assert discgroup._isotropic(n, r, y) == (lam == 0)


def _holds_ints(value):
    if isinstance(value, (tuple, list)):
        return all(_holds_ints(v) for v in value)
    return type(value) is int


def test_group_fields_hold_ints(rng):
    # a group stores the integer form N·λ and integer lifts over N; the
    # Fractions are views.  Rebuilding a lattice group from its own
    # pairing table gives the same orders and form
    lattice_groups = [discgroup.disc_group(lattice_mod.make_lattice(
        random_posdef_gram(rng, max_rank=5, max_disc=200))) for _ in range(20)]
    lattice_groups += _sample_groups(rng)[:4]
    table_groups = [discgroup.group_from_table(g.orders, g.pairing)
                    for g in lattice_groups]
    table_groups += [_hyperbolic(2, 2), _hyperbolic(3, 2),
                     discgroup.group_from_table((2, 4), [["0", "1/2"],
                                                         ["1/2", "3/4"]])]
    assert sum(len(g.orders) for g in lattice_groups) >= 30
    for g in lattice_groups + table_groups:
        for f in dataclasses.fields(g):
            value = getattr(g, f.name)
            if f.name != "lattice" and value is not None:
                assert _holds_ints(value), f.name
        n = g.exponent
        assert g.pairing == tuple(tuple(Fraction(x, n) for x in row)
                                  for row in g.form)
    for g, h in zip(lattice_groups, table_groups):
        assert (h.orders, h.form, h.lifts) == (g.orders, g.form, None)
        assert g.generators == tuple(tuple(Fraction(x, g.exponent)
                                           for x in row) for row in g.lifts)


def test_annihilator_matches_lam_scan(rng):
    # by bilinearity, the elements λ-orthogonal to the generators of H
    # (the scan of `duality.annihilator`) are those orthogonal to every
    # element of H
    groups = [_conjugate_group(rng, gram) for gram in (
        _diag((2, 2, 4, 4)), _diag((3, 9)), _diag((5, 25)), A2_A2)]
    groups += [_hyperbolic(2, 2), _hyperbolic(3, 2)]
    groups += [discgroup.disc_group(lattice_mod.make_lattice(
        random_posdef_gram(rng, max_rank=4, max_disc=100))) for _ in range(6)]
    checked = 0
    for g in groups:
        elems = list(g.elements())
        for _ in range(3):
            h = discgroup.make_subgroup(
                g, discgroup.closure(g, rng.sample(elems, min(2, len(elems)))))
            expect = [x for x in elems
                      if all(oracle.lam(g, x, y) == 0 for y in h.elements)]
            assert annihilator(g, h) == discgroup.make_subgroup(g, expect)
            checked += 1
    assert checked == 3 * len(groups)


@pytest.mark.parametrize("p, m, count", [
    (2, 1, 3), (2, 2, 15), (2, 3, 135), (3, 2, 8), (5, 2, 12)])
def test_lagrangian_counts_of_hyperbolic_forms(p, m, count):
    # ∏_{i=1}^{m}(2ⁱ + 1) Lagrangians for the alternating form on
    # (Z/2)^{2m}, and ∏_{i=0}^{m-1}(pⁱ + 1) for the hyperbolic form on
    # (Z/p)^{2m}, p odd: counts that hold whatever the search does
    g = _hyperbolic(p, m)
    mets = discgroup.metabolizers_of_group(g)
    assert len(mets) == count
    assert len({met.elements for met in mets}) == count
    for met in mets:
        assert met.order == p ** m
        assert all(oracle.lam(g, x, y) == 0
                   for x in met.elements for y in met.elements)


def test_subgroup_search_never_calls_lam(monkeypatch):
    # the searches and the obstructions built on them test isotropy on the
    # integer form; oracle.lam is the Fraction reference only
    def forbidden(*args):
        raise AssertionError("oracle.lam called")

    monkeypatch.setattr(oracle, "lam", forbidden)
    g = discgroup.disc_group(lattice_mod.make_lattice(_diag((2, 2, 4, 4))))
    assert len(discgroup.metabolizers_of_group(g)) > 0
    assert len(discgroup.subgroups_of_order(g, 8)) > 0
    assert len(discgroup.metabolizers_of_group(_hyperbolic(3, 2))) == 8
    s39 = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    assert topo.rb_correction_obstruction(s39).verdict == "obstructed"
    z = topo.load_dtable(str(DATA_DIR / "z_example.json"))
    assert topo.definite_filling_obstruction(z).verdict == "obstructed"


def _ref_sum(orders, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, orders))


def _ref_span(orders, gens):
    """The span of gens, breadth first over sums: the reference for
    `closure`, built on its own modular sum."""
    seen = {(0,) * len(orders)}
    layer = list(seen)
    while layer:
        sums = {_ref_sum(orders, y, x) for y in layer for x in gens}
        layer = [z for z in sums if z not in seen]
        seen.update(layer)
    return seen


def _growth_groups(rng):
    """Seeded lattice groups 2², 4², 3²⊕9², 5⊕125, the hyperbolic form on
    (Z/3)⁴, then the cyclic group of order 27 (one coordinate), the
    three-prime group 6⊕30 and the trivial group (no coordinate)."""
    return [_conjugate_group(rng, _diag(ds)) for ds in (
        (2, 2), (4, 4), (3, 3, 9, 9), (5, 125))] + [_hyperbolic(3, 2)] + [
            _conjugate_group(rng, _diag(ds)) for ds in ((27,), (2, 6, 15))] + [
            discgroup.disc_group(lattice_mod.make_lattice([[1]]))]


def test_coset_growth_matches_a_reference_span(rng):
    # closure(g, gens, base) is the span of base ∪ gens, whatever the base,
    # and _order_mod(g, h, x) the least k ≥ 1 with k·x in h
    groups = _growth_groups(rng)
    assert [g.orders for g in groups[-3:]] == [(27,), (6, 30), ()]
    checked = 0
    for g in groups:
        elems = list(g.elements())
        for _ in range(6):
            base_gens = rng.sample(elems, min(len(elems), rng.randint(1, 2)))
            base = _ref_span(g.orders, base_gens)
            frozen = set(base)
            gens = rng.sample(elems, min(len(elems), rng.randint(1, 3)))
            assert discgroup.closure(g, gens) == _ref_span(g.orders, gens)
            assert discgroup.closure(g, gens, base) == _ref_span(
                g.orders, base_gens + gens)
            inside = rng.sample(sorted(base), min(3, len(base)))
            assert discgroup.closure(g, inside, base) == base
            assert base == frozen
            for x in gens + inside:
                k, y = 1, x
                while y not in base:
                    k, y = k + 1, _ref_sum(g.orders, y, x)
                assert discgroup._order_mod(g, base, x) == k
            checked += 1
    assert checked == 6 * len(groups)


def test_search_builds_only_subgroups_dividing_the_order(rng, monkeypatch):
    # a candidate is rejected by its order modulo H before any set is built,
    # so every set either search builds has an order dividing the target
    closure = discgroup.closure
    built = []

    def recording(*args):
        h = closure(*args)
        built.append(len(h))
        return h

    def sets_built(m, search, *args):
        built.clear()
        found = search(*args)
        assert all(m % n == 0 for n in built), (args, m)
        assert all(s.order == m for s in found)
        return len(built)

    monkeypatch.setattr(discgroup, "closure", recording)
    small = [_conjugate_group(rng, _diag(ds))
             for ds in ((2, 2, 4), (3, 9), (2, 2, 2, 2), (3, 3, 3))]
    n_built = 0
    for g in _growth_groups(rng) + small:
        # every divisor up to order 27; beyond it the search, which visits
        # every ordering of every generating sequence, takes seconds to
        # minutes per order above 9, so it stops there
        for m in range(1, g.order + 1):
            if g.order % m == 0 and (g.order <= 27 or m <= 9):
                n_built += sets_built(m, discgroup.subgroups_of_order, g, m)
        n_built += sets_built(isqrt(g.order), discgroup.metabolizers_of_group,
                              g)
    assert n_built > 1000


def _table_form(rng, p, diagonal):
    """A seeded table form of square order on a p-group with exponent up to
    p³ and |G| ≤ 625: if diagonal, random units on the diagonal; otherwise
    random entries λ(g_i, g_j) of order dividing min(d_i, d_j) everywhere,
    so that some forms are degenerate."""
    while True:
        ds = sorted(p ** rng.choice((1, 1, 2, 3))
                    for _ in range(rng.randint(1, 4)))
        if isqrt(prod(ds)) ** 2 == prod(ds) and prod(ds) <= 625:
            break
    table = [[Fraction(0)] * len(ds) for _ in ds]
    for i, d in enumerate(ds):
        for j in range(i + 1):
            if diagonal and j == i:
                table[i][i] = Fraction(rng.choice(
                    [u for u in range(d) if u % p]), d)
            elif not diagonal:
                table[i][j] = table[j][i] = Fraction(rng.randrange(ds[j]),
                                                     ds[j])
    return discgroup.group_from_table(ds, table)


def _searched_metabolizers(g):
    """The metabolizers found without the Witt certificate: by the oracle
    when |G| ≤ 512, by the search above that."""
    m = isqrt(g.order)
    if g.order <= 512:
        return [s.elements for s in oracle.brute_subgroups(g)
                if s.order == m and all(oracle.lam(g, x, y) == 0
                                        for x in s.elements
                                        for y in s.elements)]
    return [s.elements for s in discgroup._subgroups(g, m, isotropic=True)]


def _nondegenerate(g):
    try:
        topo._check_nondegenerate(g)
    except InputError:
        return False
    return True


def test_witt_class_decides_whether_a_metabolizer_exists(rng):
    # on a nondegenerate form of odd square order, the Witt class of some
    # p-part is nonzero iff there is no metabolizer; on a degenerate one
    # the certificate decides nothing
    groups = [_table_form(rng, rng.choice((3, 5, 7, 11, 13)), True)
              for _ in range(10)]
    groups += [_table_form(rng, rng.choice((3, 5, 7)), False)
               for _ in range(12)]
    groups += [_conjugate_group(rng, _diag(ds)) for ds in (
        (3, 3), (5, 5), (7, 7), (3, 27), (9, 9), (5, 125), (11, 11),
        (3, 3, 9, 9), (5, 5, 5, 5), (5, 5, 7, 7))]
    n_lattices = 0
    while n_lattices < 8:
        # seeded B·Bᵀ lattices, whose discriminant (det B)² is a square
        g = discgroup.disc_group(lattice_mod.make_lattice(
            random_posdef_gram(rng, max_rank=5, max_disc=150)))
        if g.order % 2 and g.order > 1 and isqrt(g.order) ** 2 == g.order:
            groups.append(g)
            n_lattices += 1
    tally = {True: 0, False: 0, None: 0}
    for g in groups:
        obstructed = discgroup._witt_obstructed(g)
        if _nondegenerate(g):
            assert obstructed == (_searched_metabolizers(g) == []), g
            tally[obstructed] += 1
        else:
            assert obstructed is False
            assert [s.elements for s in discgroup.metabolizers_of_group(g)
                    ] == _searched_metabolizers(g)
            tally[None] += 1
    assert tally[True] >= 5 and tally[False] >= 5 and tally[None] >= 1


def _two_primary_form(rng, ds):
    """A seeded nondegenerate table form on the 2-group ⊕ Z/d_i: random
    entries λ(g_i, g_j) of order dividing min(d_i, d_j), redrawn until the
    form passes the d-table reader's nondegeneracy check."""
    while True:
        table = [[Fraction(0)] * len(ds) for _ in ds]
        for i, d in enumerate(ds):
            for j in range(i, len(ds)):
                table[i][j] = table[j][i] = Fraction(rng.randrange(d), d)
        g = discgroup.group_from_table(ds, table)
        if _nondegenerate(g):
            return g


def test_two_primary_forms_of_square_order_are_metabolic(rng):
    # a nonzero isotropic x of order 2 exists once |G| > 2: 2^{k-1}·y for y
    # of order 2^k ≥ 4, else one of a, b, a + b for independent a, b of
    # order 2; H^⊥/H for H = ⟨x⟩ is again nondegenerate of square order,
    # so by induction a metabolizer exists and the 2-part never obstructs.
    # The oracle enumerates every subgroup, which on 2⁶ (2,825 of them)
    # takes seconds, so there each metabolizer is checked directly.
    for ds in ((2, 2), (4,), (2,) * 4, (2, 2, 4), (4, 4), (2, 2, 4, 4),
               (8, 8), (2,) * 6):
        for _ in range(2):
            g = _two_primary_form(rng, ds)
            assert discgroup._witt_obstructed(g) is False
            mets = discgroup.metabolizers_of_group(g)
            assert mets, ds
            if ds != (2,) * 6:
                assert [s.elements for s in mets] == \
                    _searched_metabolizers(g)
                continue
            for s in mets:
                assert s.order ** 2 == g.order
                assert all(discgroup.add(g, x, y) in s.elements
                           for x in s.generators for y in s.elements)
                assert all(oracle.lam(g, x, y) == 0
                           for x in s.generators for y in s.generators)


def _forbid_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the metabolizer search ran")

    monkeypatch.setattr(discgroup, "closure", forbidden)
    monkeypatch.setattr(discgroup, "_search", forbidden)


def test_anisotropic_odd_parts_need_no_search(rng, monkeypatch):
    # 3⁶ and 3²⊕9² with diagonal forms, and the lattices I₄ ⊕ diag(3, 3)
    # and I₃ ⊕ A₂ ⊕ A₂, have no metabolizer, and a nonzero Witt class of
    # their 3-part says so before any subgroup is built
    i3_a2_a2 = [[int(i == j) for j in range(3)] + [0] * 4
                for i in range(3)] + [[0] * 3 + row for row in A2_A2]
    groups = [_conjugate_group(rng, gram) for gram in (
        _diag((3,) * 6), _diag((3, 3, 9, 9)), _diag((1, 1, 1, 1, 3, 3)),
        i3_a2_a2)]
    assert [g.orders for g in groups] == [(3,) * 6, (3, 3, 9, 9), (3, 3),
                                          (3, 3)]
    _forbid_search(monkeypatch)
    for g in groups:
        assert discgroup.metabolizers_of_group(g) == []


def test_witt_certificate_leaves_the_two_part_to_the_search(monkeypatch):
    # on 6² the 3-part ⟨1/3⟩ ⊕ ⟨1/3⟩ is anisotropic, so nothing is built;
    # the 2-part ⟨1/2⟩ ⊕ ⟨1/2⟩, the image of that form at p = 2, has the
    # metabolizer {0, (1, 1)}, and beside the 3-part ⟨1/3⟩ ⊕ ⟨2/3⟩ of class
    # zero it is searched and found
    anisotropic = discgroup.group_from_table((6, 6), [["5/6", "0"],
                                                      ["0", "5/6"]])
    mixed = discgroup.group_from_table((6, 6), [["5/6", "0"],
                                                ["0", "1/6"]])
    expect = _searched_metabolizers(mixed)
    assert len(expect) == 2
    built = []
    closure = discgroup.closure

    def recording(*args):
        built.append(args)
        return closure(*args)

    monkeypatch.setattr(discgroup, "closure", recording)
    assert [s.elements for s in discgroup.metabolizers_of_group(mixed)
            ] == expect
    assert built
    _forbid_search(monkeypatch)
    assert _searched_metabolizers(anisotropic) == []
    assert discgroup.metabolizers_of_group(anisotropic) == []


def test_witt_certificate_ends_on_a_degenerate_form():
    # λ vanishes on the second generator, so no split reaches it: the
    # certificate decides nothing and the search answers
    g = discgroup.group_from_table((3, 3), [["1/3", "0"], ["0", "0"]])
    assert discgroup._witt_obstructed(g) is False
    assert [s.elements for s in discgroup.metabolizers_of_group(g)] == [
        ((0, 0), (0, 1), (0, 2))]
