from fractions import Fraction

import pytest

from latcorr import exactmat, lattice as lattice_mod
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
    with pytest.raises(IndefiniteForm):
        lattice_mod.make_lattice([[0, 1], [1, 0]])
    with pytest.raises(SingularForm):
        lattice_mod.make_lattice([[0, 0], [0, 1]])


@pytest.mark.parametrize("gram", [[[9]], neg_one_a8_gram()],
                         ids=["nine", "neg-one-a8"])
def test_make_lattice_factors_once(monkeypatch, gram):
    # one fraction-free LDLᵀ of the form, signed by its first diagonal
    # entry, decides definiteness by its leading minors; the Fraction
    # LDLᵀ is not used, and the determinant is needed only to name the
    # error for a form that is not definite
    calls = {"ldl": 0, "rational_cholesky": 0, "det": 0}
    for name in calls:
        real = getattr(exactmat, name)

        def counting(a, name=name, real=real):
            calls[name] += 1
            return real(a)

        monkeypatch.setattr(exactmat, name, counting)
    lattice_mod.make_lattice(gram)
    assert calls == {"ldl": 1, "rational_cholesky": 0, "det": 0}


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
    # v lies in L* iff its pairings with the basis are integers
    assert lattice_mod.dual_coords(lat, (Fraction(1, 2),)) == [Fraction(9, 2)]


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
