from fractions import Fraction

import pytest

from latcorr import discgroup, lattice as lattice_mod
from latcorr.errors import GroupTooLarge, InputError, NotInDualLattice

from conftest import a8_gram, d4_gram, random_posdef_gram


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
            v = discgroup.lift(g, x)
            assert lattice_mod.in_dual(lat, v)
            assert discgroup.project(g, v) == x


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


def test_metabolizer_cap():
    lat = lattice_mod.make_lattice([[101]])
    with pytest.raises(GroupTooLarge):
        discgroup.metabolizers_of_group(discgroup.disc_group(lat), cap=100)


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
