import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from math import gcd

import pytest

from latcorr import (corrterm, discgroup, exactmat, lattice as lattice_mod,
                     oracle)
from latcorr.overlattice import (_canonical, int_gram, is_integral,
                                 overlattice as build_overlattice)
from latcorr.errors import NotIntegral

from conftest import (a8_gram, basis_change, d4_gram, e8_gram,
                      random_posdef_gram, random_unimodular, textbook_matmul)
from duality import (annihilator, discriminant, dual_of, index_check,
                      is_unimodular)


def _trivial_subgroup(g):
    return discgroup.make_subgroup(g, {g.identity})


def test_trivial_overlattice_is_the_lattice():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    u = build_overlattice(g, _trivial_subgroup(g))
    assert u.index == 1
    assert (u.rows, u.denom) == (((1,),), 1)
    assert (u.gram, u.gram_denom) == (((9,),), 1)


def _unimodular_lattices():
    """Five seeded conjugates each of I8, I12, E8, E8 ⊕ E8 and E8 ⊕ I3."""
    e8 = e8_gram()
    grams = (exactmat.identity(8), exactmat.identity(12), e8,
             [row + [0] * 8 for row in e8] + [[0] * 8 + row for row in e8],
             [row + [0] * 3 for row in e8] + exactmat.identity(11)[8:])
    rng = random.Random(8)
    return [lattice_mod.make_lattice(basis_change(
                g, random_unimodular(rng, len(g), ops=2 * len(g))))
            for g in grams for _ in range(5)]


def test_trivial_overlattice_of_a_unimodular_lattice_is_the_lattice():
    # U = L over basis rows I and denominator 1 has L's Gram matrix, so
    # min_char_square reads the same fields of both and maps the same
    # witness back; the brute oracle agrees at rank ≤ 9 (I8 and E8)
    lattices = _unimodular_lattices()
    for lat in lattices:
        g = discgroup.disc_group(lat)
        u = build_overlattice(g, _trivial_subgroup(g))
        assert u.gram == lat.gram
        assert (u.rows, u.denom, u.gram_denom) == (
            tuple(map(tuple, exactmat.identity(lat.rank))), 1, 1)
        res, res_u = corrterm.min_char_square(lat), corrterm.min_char_square(u)
        assert (res.minimum, res.witness) == (res_u.minimum, res_u.witness)
        if lat.rank <= 9:
            assert oracle.brute_char_min(lat, res.minimum) == res.minimum
    assert len(lattices) == 25


def test_a_lattice_keeps_its_reduction_out_of_its_value():
    # as on an OverLattice, `reduction` is made on first read and kept,
    # outside ==, hash and repr; gram_denom, rows and denom are class
    # values, not fields, and a frozen lattice cannot set them
    for lat in _unimodular_lattices():
        twin = lattice_mod.make_lattice(lat.gram)
        before = hash(lat), repr(lat)
        reduction = lat.reduction
        assert lat.reduction is reduction
        assert reduction == exactmat.split_reduce(lat.gram)
        assert (hash(lat), repr(lat)) == before == (hash(twin), repr(twin))
        assert lat == twin and "reduction" not in vars(twin)
        assert "reduction" not in repr(lat)
        assert (lat.gram_denom, lat.rows, lat.denom) == (1, None, 1)
    assert [f.name for f in fields(lat)] == ["gram", "det", "negated"]
    for name in ("gram_denom", "rows", "denom", "reduction"):
        with pytest.raises(FrozenInstanceError):
            setattr(lat, name, 2)


def test_min_char_square_reduces_a_lattice_once(monkeypatch):
    # the second call reads the reduction that the first one made
    real, reduced = exactmat.split_reduce, []

    def spy(gram):
        reduced.append(gram)
        return real(gram)

    monkeypatch.setattr(exactmat, "split_reduce", spy)
    for lat in _unimodular_lattices():
        reduced.clear()
        first = corrterm.min_char_square(lat)
        assert corrterm.min_char_square(lat) == first
        assert reduced == [lat.gram]


def test_nine_metabolizer_overlattice_is_standard():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    m = discgroup.metabolizers_of_group(g)[0]
    u = build_overlattice(g, m)
    assert u.index == 3
    assert is_integral(u)
    assert is_unimodular(u)
    assert int_gram(u) == ((1,),)


def test_thirtysix_order_two_subgroup():
    # (1/2)Z over 36Z: gram becomes [[9]], index 2, integral but not unimodular
    lat = lattice_mod.make_lattice([[36]])
    g = discgroup.disc_group(lat)
    m = discgroup.make_subgroup(g, discgroup.closure(g, {g.identity}, (18,)))
    u = build_overlattice(g, m)
    assert u.index == 2
    assert int_gram(u) == ((9,),)
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
    # over k·denom gives the same value, and every field but det is a
    # plain int
    for lat, _, _, u in seeded_overlattices:
        assert type(u.denom) is type(u.index) is int
        assert type(u.gram_denom) is int
        assert all(type(x) is int for m in (u.rows, u.gram)
                   for row in m for x in row)
        for k in (2, 6):
            scaled = [[k * x for x in row] for row in u.rows]
            assert _canonical(lat, scaled, k * u.denom) == \
                _canonical(lat, u.rows, u.denom) == u
    assert len(seeded_overlattices) >= 200


def test_overlattice_det_is_det_l_over_the_index_squared(seeded_overlattices):
    # det U = det L/[U : L]², from the det make_lattice read off its LDLᵀ;
    # the Bareiss det of U's Gram matrix gram/gram_denom is the reference
    for lat, _, _, u in seeded_overlattices:
        assert u.det * u.index ** 2 == lat.det
        assert u.det == Fraction(exactmat.det([list(r) for r in u.gram]),
                                 u.gram_denom ** lat.rank)


def test_gram_is_in_lowest_terms_over_gram_denom(seeded_overlattices):
    # gram/gram_denom is U's Gram matrix H·G_L·Hᵀ/e² in lowest terms: the
    # two share no factor, and gram_denom is 1 exactly when e² divides
    # every entry of H·G_L·Hᵀ (det(gram) = det U·gram_denomⁿ is checked
    # with det U above)
    integral = 0
    for lat, _, _, u in seeded_overlattices:
        h = [list(r) for r in u.rows]
        scaled = textbook_matmul(textbook_matmul(h, lat.gram_rows()),
                                 exactmat.transpose(h))
        e2 = u.denom ** 2
        assert [[Fraction(x, u.gram_denom) for x in r] for r in u.gram] == \
            [[Fraction(x, e2) for x in r] for r in scaled]
        assert gcd(u.gram_denom, *(x for r in u.gram for x in r)) == 1
        assert is_integral(u) == (u.gram_denom == 1) == \
            all(x % e2 == 0 for r in scaled for x in r)
        integral += is_integral(u)
    assert 40 <= integral < len(seeded_overlattices)


def test_reading_the_reduction_leaves_the_value_unchanged(
        seeded_overlattices):
    # `reduction` is made on first read and kept, and it stays out of ==,
    # hash and repr: a U that was reduced equals its unreduced twin
    for _, g, s, _ in seeded_overlattices[:60]:
        u, twin = build_overlattice(g, s), build_overlattice(g, s)
        before = hash(u), repr(u)
        reduction = u.reduction
        assert u.reduction is reduction
        assert reduction == exactmat.split_reduce(u.gram)
        assert (hash(u), repr(u)) == before == (hash(twin), repr(twin))
        assert u == twin and "reduction" not in vars(twin)


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
