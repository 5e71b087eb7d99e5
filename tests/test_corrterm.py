from fractions import Fraction
from itertools import product

import pytest

from latcorr import corrterm, discgroup, exactmat, lattice as lattice_mod
from latcorr.errors import InputError
from latcorr.overlattice import overlattice as build_overlattice

from conftest import (basis_change, d4_gram, e8_gram, one_plus_a8_gram,
                      neg_one_a8_gram, random_unimodular, z_plus_e8_gram)


def test_coset_min_trivial():
    val, u, _ = corrterm.coset_min([[Fraction(1)]], [Fraction(0)])
    assert val == 0 and u == (0,)


def test_coset_min_half_shift():
    val, u, _ = corrterm.coset_min([[Fraction(1)]], [Fraction(1, 2)])
    assert val == Fraction(1, 4)
    assert u in ((0,), (-1,))


def test_coset_min_matches_grid_scan():
    # independent check by scanning a box certainly containing the minimum
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    for t in ((Fraction(1, 3), Fraction(5, 7)),
              (Fraction(-3, 2), Fraction(9, 4))):
        val, u, _ = corrterm.coset_min(a, list(t))
        best = None
        for u0 in range(-4, 5):
            for u1 in range(-4, 5):
                s = [u0 + t[0], u1 + t[1]]
                q = sum(s[i] * a[i][j] * s[j] for i in range(2) for j in range(2))
                best = q if best is None else min(best, q)
        assert val == best
        s = [u[i] + t[i] for i in range(2)]
        assert val == sum(s[i] * a[i][j] * s[j]
                          for i in range(2) for j in range(2))


def test_min_char_square_standard():
    for n in (1, 2, 5):
        lat = lattice_mod.make_lattice(exactmat.identity(n))
        res = corrterm.min_char_square(lat)
        assert res.minimum == n
        assert res.d == 0


def test_min_char_square_e8():
    lat = lattice_mod.make_lattice(e8_gram())
    res = corrterm.min_char_square(lat)
    assert res.minimum == 0
    assert res.witness == (0,) * 8
    assert res.d == -2


def test_min_char_square_z_plus_e8():
    lat = lattice_mod.make_lattice(z_plus_e8_gram())
    res = corrterm.min_char_square(lat)
    assert res.minimum == 1
    assert res.d == -2


def test_min_char_square_rejects_non_unimodular():
    with pytest.raises(InputError):
        corrterm.min_char_square(lattice_mod.make_lattice([[9]]))


def test_witness_is_characteristic():
    for gram in (exactmat.identity(3), e8_gram(), z_plus_e8_gram()):
        lat = lattice_mod.make_lattice(gram)
        res = corrterm.min_char_square(lat)
        assert lattice_mod.is_characteristic(lat, res.witness)
        assert lattice_mod.pairing(lat, res.witness, res.witness) == res.minimum


def test_overlattice_witness_lies_in_overlattice_dual():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    u = build_overlattice(g, m)
    res = corrterm.min_char_square(u)
    assert res.minimum == 1
    # witness is given in base-lattice coordinates; its square is the minimum
    assert lattice_mod.pairing(lat, res.witness, res.witness) == 1


def test_d_invariant_stable_under_basis_change(rng):
    lat0 = lattice_mod.make_lattice(e8_gram())
    d0 = corrterm.min_char_square(lat0).d
    for _ in range(5):
        t = random_unimodular(rng, 8)
        lat = lattice_mod.make_lattice(basis_change(e8_gram(), t))
        assert corrterm.min_char_square(lat).d == d0


def test_d_of_direct_sum_with_z():
    # d(Z ⊕ U) = d(U): adding a unit summand does not change the invariant
    g = e8_gram()
    padded = [[1] + [0] * 8] + [[0] + row for row in g]
    assert corrterm.min_char_square(lattice_mod.make_lattice(padded)).d == \
        corrterm.min_char_square(lattice_mod.make_lattice(g)).d


def test_d_set_nine():
    lat = lattice_mod.make_lattice([[9]])
    ds = corrterm.d_set(discgroup.disc_group(lat))
    assert len(ds.entries) == 1
    e = ds.entries[0]
    assert e.metabolizer.elements == ((0,), (3,), (6,))
    assert e.result.d == 0
    assert e.result.minimum == 1
    assert ds.contains_zero
    assert corrterm.embeds_in_standard(lat)


def test_d_set_neg_one_a8():
    lat = lattice_mod.make_lattice(neg_one_a8_gram())
    ds = corrterm.d_set(discgroup.disc_group(lat))
    assert {e.result.d for e in ds.entries} == {Fraction(-2)}
    assert not ds.contains_zero
    assert not corrterm.embeds_in_standard(lat)


def test_d_set_no_metabolizers_is_empty():
    ds = corrterm.d_set(discgroup.disc_group(lattice_mod.make_lattice([[2]])))
    assert ds.entries == ()
    assert not ds.contains_zero


def test_constrained_min_nine():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    assert corrterm.constrained_min(g, m) == 0


def test_constrained_min_matches_direct_scan():
    # scan characteristic covectors chi = w/gram with w odd, |w| small, and
    # keep those whose projection lies in the metabolizer
    lat = lattice_mod.make_lattice([[9]])
    grp = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(grp)[0]
    elems = set(m.elements)
    best = None
    for w in range(-45, 46, 2):
        chi = (Fraction(w, 9),)
        if discgroup.project(grp, chi) not in elems:
            continue
        sq = lattice_mod.pairing(lat, chi, chi)
        best = sq if best is None else min(best, sq)
    assert corrterm.constrained_min(grp, m) == (best - 1) / 4


def test_constrained_min_bounds_d_over(rng):
    # d_{U(M)} >= constrained minimum, for several small lattices
    for gram in ([[9]], [[4]], d4_gram(), [[1, 0], [0, 9]]):
        lat = lattice_mod.make_lattice(gram)
        grp = discgroup.disc_group(lat)
        for m in discgroup.metabolizers_of_group(grp):
            d_over = corrterm.min_char_square(build_overlattice(grp, m)).d
            cmin = corrterm.constrained_min(grp, m)
            assert d_over >= cmin


def test_constrained_min_full_group():
    # constraining to the whole group is the unconstrained characteristic
    # minimum of L, shifted
    lat = lattice_mod.make_lattice([[4]])
    grp = discgroup.disc_group(lat)
    full = discgroup.make_subgroup(grp, set(grp.elements()))
    # [[4]] is even, so characteristic dual coordinates are even; w = 0 is
    # characteristic with square 0, hence (0 - 1)/4
    assert corrterm.constrained_min(grp, full) == Fraction(-1, 4)
