import dataclasses
from fractions import Fraction

import pytest

from latcorr import discgroup, exactmat, lattice as lattice_mod, topo
from latcorr.errors import GroupTooLarge, InputError, NotInDualLattice

from conftest import (DATA_DIR, a8_gram, basis_change, d4_gram,
                      random_posdef_gram, random_unimodular)


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
        dec = exactmat.snf(gram)
        ginv = exactmat.inverse(gram)
        uinv = exactmat.inverse([list(r) for r in dec.u])
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
            assert discgroup.lam(g, x, y) == discgroup.lam(g, y, x)
            s = discgroup.add(g, x, y)
            for z in elems[:3]:
                lhs = discgroup.lam(g, s, z)
                rhs = (discgroup.lam(g, x, z) + discgroup.lam(g, y, z)) % 1
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
            assert any(discgroup.lam(g, x, y) != 0 for y in elems)


def test_project_and_lift_roundtrip():
    for gram in ([[9]], a8_gram(), d4_gram(), [[1, 0], [0, 12]]):
        lat = lattice_mod.make_lattice(gram)
        g = discgroup.disc_group(lat)
        for x in g.elements():
            # project raises NotInDualLattice on a lift outside L*
            assert discgroup.project(g, discgroup.lift(g, x)) == x


def test_project_lift_independence():
    # shifting a lift by a lattice vector does not change the projection
    lat = lattice_mod.make_lattice(a8_gram())
    g = discgroup.disc_group(lat)
    x = (4,)
    v = discgroup.lift(g, x)
    shifted = tuple(a + b for a, b in zip(v, (1, 0, -2, 0, 0, 3, 0, 1)))
    assert discgroup.project(g, shifted) == x


def test_project_rejects_non_dual():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    with pytest.raises(NotInDualLattice):
        discgroup.project(g, (Fraction(1, 2),))


def test_pairing_consistency_with_lifts():
    # lam computed from the table equals -Q(lift, lift) mod 1
    for gram in (a8_gram(), d4_gram(), [[5]]):
        lat = lattice_mod.make_lattice(gram)
        g = discgroup.disc_group(lat)
        for x in g.elements():
            for y in g.elements():
                vx = discgroup.lift(g, x)
                vy = discgroup.lift(g, y)
                expect = (-lattice_mod.pairing(lat, vx, vy)) % 1
                assert discgroup.lam(g, x, y) == expect


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
                assert discgroup.lam(g, x, y) == 0


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
        assert all(discgroup.lam(g, x, y) == 0
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
    ann = discgroup.annihilator(g, m)
    # a metabolizer is self-annihilating
    assert ann.elements == m.elements
    full = discgroup.annihilator(g, discgroup.make_subgroup(g, {g.identity}))
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
                tuple((-lattice_mod.pairing(lat, gi, gj)) % 1 for gj in gens)
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
                lam = discgroup.lam(g, x, y)
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
    # the annihilator of H is the scan of G for elements λ-orthogonal to
    # every element of H, also off the generators
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
                      if all(discgroup.lam(g, x, y) == 0 for y in h.elements)]
            assert discgroup.annihilator(g, h) == discgroup.make_subgroup(
                g, expect)
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
        assert all(discgroup.lam(g, x, y) == 0
                   for x in met.elements for y in met.elements)


def test_subgroup_search_never_calls_lam(monkeypatch):
    # the searches and the obstructions built on them test isotropy on the
    # integer form; discgroup.lam is the Fraction reference only
    def forbidden(*args):
        raise AssertionError("discgroup.lam called")

    monkeypatch.setattr(discgroup, "lam", forbidden)
    g = discgroup.disc_group(lattice_mod.make_lattice(_diag((2, 2, 4, 4))))
    assert len(discgroup.metabolizers_of_group(g)) > 0
    assert len(discgroup.subgroups_of_order(g, 8)) > 0
    met = discgroup.metabolizers_of_group(_hyperbolic(3, 2))[0]
    assert discgroup.annihilator(_hyperbolic(3, 2), met) == met
    s39 = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    assert topo.rb_correction_obstruction(s39).verdict == "obstructed"
    z = topo.load_dtable(str(DATA_DIR / "z_example.json"))
    assert topo.definite_filling_obstruction(z).verdict == "obstructed"
