from fractions import Fraction

import pytest

from latcorr import corrterm, discgroup, exactmat, lattice as lattice_mod, oracle
from latcorr.errors import InvariantViolation, SearchTooLarge

from conftest import a8_gram, e8_gram, random_posdef_gram


def test_vectors_of_norm():
    assert set(oracle._vectors_of_norm(2, 1)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert oracle._vectors_of_norm(1, 3) == ()
    assert oracle._vectors_of_norm(0, 0) == ((),)


def test_brute_char_min_rejects_bound_below_minimum():
    # the caller's bound must be achieved; [[1]] has min χ² = 1
    with pytest.raises(InvariantViolation):
        oracle.brute_char_min(lattice_mod.make_lattice([[1]]), 0)


def test_brute_embed_finds_witness():
    lat = lattice_mod.make_lattice([[2, 1], [1, 2]])
    found, witness = oracle.brute_embed(lat)
    # A2 does not embed in Z²
    assert not found and witness is None
    lat = lattice_mod.make_lattice([[2, 0], [0, 2]])
    found, witness = oracle.brute_embed(lat)
    assert found
    for i, v in enumerate(witness):
        for j, w in enumerate(witness):
            assert sum(a * b for a, b in zip(v, w)) == lat.gram[i][j]


def test_brute_embed_a4_fails():
    # A4 has no embedding into Z⁴ (it needs Z⁵)
    a4 = [row[:4] for row in a8_gram()[:4]]
    found, _ = oracle.brute_embed(lattice_mod.make_lattice(a4))
    assert not found


def test_brute_embed_caps():
    with pytest.raises(SearchTooLarge):
        oracle.brute_embed(lattice_mod.make_lattice([[37]]))
    big = exactmat.identity(9)
    with pytest.raises(SearchTooLarge):
        oracle.brute_embed(lattice_mod.make_lattice(big))


def test_brute_char_min_agrees_with_optimized(rng):
    cases = [exactmat.identity(3), e8_gram()]
    while len(cases) < 12:
        g = random_posdef_gram(rng, max_rank=3)
        if abs(exactmat.det(g)) == 1:
            cases.append(g)
    for g in cases:
        lat = lattice_mod.make_lattice(g)
        res = corrterm.min_char_square(lat)
        n = len(g)
        ginv = exactmat.inverse(g)
        w0 = [g[i][i] % 2 for i in range(n)]
        bound = sum(w0[i] * ginv[i][j] * w0[j]
                    for i in range(n) for j in range(n))
        assert oracle.brute_char_min(lat, int(bound)) == res.minimum


def test_brute_subgroups_nine():
    g = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    subs = oracle.brute_subgroups(g)
    assert [s.order for s in subs] == [1, 3, 9]
    assert subs[1].elements == ((0,), (3,), (6,))


def test_brute_subgroups_two_two():
    g = discgroup.group_from_table(
        (2, 2), [["1/2", "0"], ["0", "1/2"]])
    subs = oracle.brute_subgroups(g)
    # Klein four-group: trivial, three order-2, full
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def test_brute_subgroups_cap():
    g = discgroup.group_from_table((1024,), [["1/1024"]])
    with pytest.raises(SearchTooLarge):
        oracle.brute_subgroups(g)


def _oracle_groups(rng):
    """Seeded lattice groups with |G| ≤ 36, four of them of order 16 or 25,
    and table groups, among them even, non-homogeneous and
    hyperbolic ones."""
    groups = [discgroup.disc_group(lattice_mod.make_lattice(
        random_posdef_gram(rng, max_disc=9))) for _ in range(4)]
    while len(groups) < 8:
        lat = lattice_mod.make_lattice(random_posdef_gram(rng, max_disc=36))
        g = discgroup.disc_group(lat)
        if g.order in (16, 25):
            groups.append(g)
    for orders, pairing in [
            ((2, 4), [["1/2", "0"], ["0", "1/4"]]),
            ((2, 8), [["1/2", "0"], ["0", "1/8"]]),
            ((2, 2), [["0", "1/2"], ["1/2", "0"]]),
            ((4, 4), [["0", "1/4"], ["1/4", "0"]]),
            ((2, 2, 2, 2), [["0", "1/2", "0", "0"], ["1/2", "0", "0", "0"],
                            ["0", "0", "1/2", "0"], ["0", "0", "0", "1/2"]])]:
        groups.append(discgroup.group_from_table(orders, pairing))
    return groups


def test_brute_subgroups_match_subgroups_of_order(rng):
    n_mets = 0
    for g in _oracle_groups(rng):
        subs = oracle.brute_subgroups(g)
        by_order = {}
        for s in subs:
            by_order.setdefault(s.order, []).append(s)
        for order, got in by_order.items():
            expect = discgroup.subgroups_of_order(g, order)
            assert [s.elements for s in got] == [s.elements for s in expect]
        isotropic = [s.elements for s in subs if s.order ** 2 == g.order
                     and all(discgroup.lam(g, x, y) == 0
                             for x in s.elements for y in s.elements)]
        got = [m.elements for m in discgroup.metabolizers_of_group(g)]
        assert got == isotropic
        n_mets += len(got)
    assert n_mets > 10


def test_brute_subgroups_use_no_discgroup_subgroup_helper(rng,
                                                         monkeypatch):
    # the oracle must stay a reference when the search's own helpers are
    # wrong, so it may not call them at all
    groups = _oracle_groups(rng)
    before = [oracle.brute_subgroups(g) for g in groups]

    def broken(*args):
        raise AssertionError("the oracle called a discgroup helper")

    for name in ("add", "closure", "element_order", "make_subgroup"):
        monkeypatch.setattr(discgroup, name, broken)
    assert [oracle.brute_subgroups(g) for g in groups] == before


def test_is_standard():
    assert oracle.is_standard(lattice_mod.make_lattice(exactmat.identity(4)))
    assert not oracle.is_standard(lattice_mod.make_lattice(e8_gram()))
    # unimodular but with an off-basis: still standard as a lattice
    g = [[2, 1], [1, 1]]
    assert oracle.is_standard(lattice_mod.make_lattice(g))


def test_is_standard_cap():
    with pytest.raises(SearchTooLarge):
        oracle.is_standard(lattice_mod.make_lattice(exactmat.identity(13)))


def test_enumerate_coset_node_cap(monkeypatch):
    monkeypatch.setattr(oracle, "ENUM_NODE_CAP", 50)
    a = [[Fraction(1, 1000)]]
    with pytest.raises(SearchTooLarge):
        list(oracle._enumerate_coset(a, [Fraction(0)], Fraction(10)))
