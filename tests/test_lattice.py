from fractions import Fraction

import pytest

from latcorr import lattice as lattice_mod
from latcorr.errors import (IndefiniteForm, InputError, NotInDualLattice,
                            SingularForm)

from conftest import a8_gram, neg_one_a8_gram


def test_make_lattice_positive():
    lat = lattice_mod.make_lattice([[9]])
    assert lat.rank == 1
    assert not lat.negated
    assert lattice_mod.discriminant(lat) == 9


def test_make_lattice_negates():
    lat = lattice_mod.make_lattice(neg_one_a8_gram())
    assert lat.negated
    assert lat.rank == 9
    assert lat.gram[0][0] == 1
    assert lattice_mod.discriminant(lat) == 9


def test_make_lattice_rejections():
    with pytest.raises(InputError):
        lattice_mod.make_lattice([])
    with pytest.raises(InputError):
        lattice_mod.make_lattice([[1, 2], [0, 1]])
    with pytest.raises(InputError):
        lattice_mod.make_lattice([[Fraction(1, 2)]])
    with pytest.raises(InputError):
        lattice_mod.make_lattice([[True]])
    with pytest.raises(SingularForm):
        lattice_mod.make_lattice([[1, 1], [1, 1]])
    with pytest.raises(IndefiniteForm):
        lattice_mod.make_lattice([[1, 0], [0, -1]])


def test_load_lattice(tmp_path):
    p = tmp_path / "lat.json"
    p.write_text('{"gram": [[2, -1], [-1, 2]]}')
    lat = lattice_mod.load_lattice(str(p))
    assert lattice_mod.discriminant(lat) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(InputError):
        lattice_mod.load_lattice(str(bad))
    with pytest.raises(InputError):
        lattice_mod.load_lattice(str(tmp_path / "missing.json"))


def test_dual_coords_and_membership():
    lat = lattice_mod.make_lattice([[9]])
    v = (Fraction(1, 9),)
    assert lattice_mod.dual_coords(lat, v) == [1]
    assert lattice_mod.in_dual(lat, v)
    assert not lattice_mod.in_dual(lat, (Fraction(1, 2),))
    # lattice vectors always lie in the dual
    assert lattice_mod.in_dual(lat, (3,))


def test_pairing_values():
    lat = lattice_mod.make_lattice(a8_gram())
    e0 = [1] + [0] * 7
    e1 = [0, 1] + [0] * 6
    assert lattice_mod.pairing(lat, e0, e0) == 2
    assert lattice_mod.pairing(lat, e0, e1) == -1
    assert lattice_mod.pairing(lat, e0, e1) == lattice_mod.pairing(lat, e1, e0)


def test_is_characteristic():
    lat = lattice_mod.make_lattice([[9]])
    # chi with gram·chi = 1 ≡ 9 mod 2
    assert lattice_mod.is_characteristic(lat, (Fraction(1, 9),))
    assert not lattice_mod.is_characteristic(lat, (Fraction(2, 9),))
    with pytest.raises(NotInDualLattice):
        lattice_mod.is_characteristic(lat, (Fraction(1, 2),))


def test_characteristic_base_is_characteristic():
    for gram in ([[9]], a8_gram(), [[1, 0], [0, 3]]):
        lat = lattice_mod.make_lattice(gram)
        coset = lattice_mod.characteristic_base(lat)
        assert lattice_mod.is_characteristic(lat, coset.base)
        # shifting by twice any sublattice row stays characteristic
        for row in coset.sublattice:
            shifted = tuple(b + 2 * r for b, r in zip(coset.base, row))
            assert lattice_mod.is_characteristic(lat, shifted)


def test_characteristic_base_even_lattice_is_zero():
    lat = lattice_mod.make_lattice(a8_gram())
    coset = lattice_mod.characteristic_base(lat)
    assert all(x == 0 for x in coset.base)
