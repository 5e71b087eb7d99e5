import random

import pytest

from latcorr import discgroup, exactmat, lattice as lattice_mod, oracle
from latcorr.overlattice import (_canonical, int_gram, is_integral,
                                 overlattice as build_overlattice)
from latcorr.errors import NotIntegral

from conftest import a8_gram, d4_gram, random_posdef_gram, textbook_matmul
from duality import (annihilator, discriminant, dual_of, index_check,
                      is_unimodular)


def _trivial_subgroup(g):
    return discgroup.make_subgroup(g, {g.identity})


def test_trivial_overlattice_is_the_lattice():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    u = build_overlattice(g, _trivial_subgroup(g))
    assert u.index == 1
    assert (u.rows, u.denom) == (((1,),), 1)
    assert u.scaled_gram == ((9,),)


def test_nine_metabolizer_overlattice_is_standard():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    m = discgroup.metabolizers_of_group(g)[0]
    u = build_overlattice(g, m)
    assert u.index == 3
    assert is_integral(u)
    assert is_unimodular(u)
    assert int_gram(u) == [[1]]


def test_thirtysix_order_two_subgroup():
    # (1/2)Z over 36Z: gram becomes [[9]], index 2, integral but not unimodular
    lat = lattice_mod.make_lattice([[36]])
    g = discgroup.disc_group(lat)
    m = discgroup.make_subgroup(g, discgroup.closure(g, [(18,)]))
    u = build_overlattice(g, m)
    assert u.index == 2
    assert int_gram(u) == [[9]]
    assert index_check(lat, u) == (2, 2)


def test_non_metabolizing_subgroup_gives_non_integral_form():
    # order-3 subgroups of the (Z/3)² form <1/3, 1/3> never metabolize,
    # so their overlattices must fail integrality
    lat = lattice_mod.make_lattice([[3, 0], [0, 3]])
    g = discgroup.disc_group(lat)
    subs = discgroup.subgroups_of_order(g, 3)
    assert len(subs) == 4
    for s in subs:
        u = build_overlattice(g, s)
        assert u.index == 3
        assert not is_integral(u)
        assert not is_unimodular(u)
        with pytest.raises(NotIntegral):
            int_gram(u)


def test_metabolizer_iff_unimodular(rng):
    # both directions of the correspondence on random square-disc lattices
    for _ in range(40):
        lat = lattice_mod.make_lattice(random_posdef_gram(rng))
        g = discgroup.disc_group(lat)
        disc = discriminant(lat)
        mets = {m.elements for m in discgroup.metabolizers_of_group(g)}
        for order in sorted({s for s in range(1, disc + 1)
                             if s * s == disc and disc % s == 0}):
            for s in discgroup.subgroups_of_order(g, order):
                u = build_overlattice(g, s)
                assert is_unimodular(u) == (s.elements in mets)


def test_index_and_gram_scaling():
    lat = lattice_mod.make_lattice(d4_gram())
    g = discgroup.disc_group(lat)
    for m in discgroup.metabolizers_of_group(g):
        u = build_overlattice(g, m)
        assert u.index == 2
        assert is_unimodular(u)
        # disc(L) = [U:L]² · disc(U)
        assert discriminant(lat) == u.index ** 2


def test_dual_of_unimodular_is_itself():
    lat = lattice_mod.make_lattice(d4_gram())
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    u = build_overlattice(g, m)
    assert dual_of(lat, u) == u


def test_dual_of_lattice_itself():
    lat = lattice_mod.make_lattice(a8_gram())
    g = discgroup.disc_group(lat)
    u = build_overlattice(g, _trivial_subgroup(g))
    dual = dual_of(lat, u)
    # [L* : L] = disc
    assert dual.index == discriminant(lat)


def test_index_identity_intermediate(rng):
    # [L':L] = [L*:(L')*] for every integral intermediate lattice
    checked = 0
    while checked < 8:
        lat = lattice_mod.make_lattice(random_posdef_gram(rng, max_disc=12))
        disc = discriminant(lat)
        if disc == 1:
            continue
        checked += 1
        g = discgroup.disc_group(lat)
        for order in range(1, disc + 1):
            if disc % order != 0:
                continue
            for s in discgroup.subgroups_of_order(g, order):
                u = build_overlattice(g, s)
                if not is_integral(u):
                    continue
                up, down = index_check(lat, u)
                assert up == down == s.order


def test_canonical_form_is_basis_independent():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    m = discgroup.metabolizers_of_group(g)[0]
    u1 = build_overlattice(g, m)
    # same subgroup handed over with a different generator
    m2 = discgroup.Subgroup(elements=m.elements, generators=((6,),))
    u2 = build_overlattice(g, m2)
    assert u1 == u2


@pytest.fixture(scope="module")
def seeded_overlattices():
    """(lattice, group, subgroup, U(subgroup)) for every subgroup of the
    discriminant groups of 16 seeded lattices with 1 < |G| ≤ 64."""
    rng = random.Random(20240817)
    cases, lattices = [], 0
    while lattices < 16:
        lat = lattice_mod.make_lattice(random_posdef_gram(rng, max_disc=64))
        g = discgroup.disc_group(lat)
        if g.order == 1:
            continue
        lattices += 1
        cases += [(lat, g, s, build_overlattice(g, s))
                  for s in oracle.brute_subgroups(g)]
    return cases


def test_canonical_form_ignores_a_common_factor(seeded_overlattices):
    # the rows over their denominator name the lattice, not the scale: k·H
    # over k·denom gives the same value, and every field is a plain int
    for lat, _, _, u in seeded_overlattices:
        assert type(u.denom) is type(u.index) is int
        assert all(type(x) is int for m in (u.rows, u.scaled_gram)
                   for row in m for x in row)
        for k in (2, 6):
            scaled = [[k * x for x in row] for row in u.rows]
            assert _canonical(lat, scaled, k * u.denom) == \
                _canonical(lat, u.rows, u.denom) == u
    assert len(seeded_overlattices) >= 200


def test_dual_of_overlattice_is_overlattice_of_annihilator(
        seeded_overlattices):
    # U(M)* = U(M^⊥) for every subgroup M with integral U(M)
    checked = 0
    for lat, g, s, u in seeded_overlattices:
        if is_integral(u):
            ann = annihilator(g, s)
            assert dual_of(lat, u) == build_overlattice(g, ann)
            checked += 1
    assert checked >= 40


def test_dual_of_is_unchanged_by_the_product(seeded_overlattices,
                                             monkeypatch):
    # dual_of multiplies a Fraction inverse by int rows; with every product
    # taken as the textbook triple sum it gives the same canonical value
    duals = [dual_of(lat, u) for lat, _, _, u in seeded_overlattices
             if is_integral(u)]
    monkeypatch.setattr(exactmat, "matmul", textbook_matmul)
    assert duals == [dual_of(lat, u) for lat, _, _, u in seeded_overlattices
                     if is_integral(u)]
    assert len(duals) >= 40
