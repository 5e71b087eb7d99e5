import random
from fractions import Fraction

import pytest

from latcorr import exactmat, lattice as lattice_mod, oracle
from latcorr.errors import IndefiniteForm, InputError, SingularForm

from conftest import neg_one_a8_gram, random_posdef_gram
from duality import discriminant


def test_make_lattice_positive():
    lat = lattice_mod.make_lattice([[9]])
    assert lat.rank == 1
    assert not lat.negated
    assert discriminant(lat) == 9


def test_make_lattice_negates():
    lat = lattice_mod.make_lattice(neg_one_a8_gram())
    assert lat.negated
    assert lat.rank == 9
    assert lat.gram[0][0] == 1
    assert discriminant(lat) == 9


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
    # LDLᵀ of the oracle is not used, and the determinant is needed only to
    # name the error for a form that is not definite
    calls = {"ldl": 0, "rational_cholesky": 0, "det": 0}
    for name in calls:
        module = oracle if name == "rational_cholesky" else exactmat
        real = getattr(module, name)

        def counting(a, name=name, real=real):
            calls[name] += 1
            return real(a)

        monkeypatch.setattr(module, name, counting)
    lattice_mod.make_lattice(gram)
    assert calls == {"ldl": 1, "rational_cholesky": 0, "det": 0}


def test_lattice_det_is_the_bareiss_det_of_the_signed_form():
    # make_lattice keeps the last minor of its one LDLᵀ: det of the
    # positive definite signed form, on seeded definite forms of both signs
    rng = random.Random(29)
    for _ in range(200):
        gram = random_posdef_gram(rng, max_rank=6, max_disc=400)
        for sign in (1, -1):
            signed = [[sign * x for x in row] for row in gram]
            lat = lattice_mod.make_lattice(signed)
            assert lat.negated == (sign < 0)
            assert lat.det == exactmat.det(lat.gram_rows()) == \
                abs(exactmat.det(signed)) > 0
    assert lattice_mod.make_lattice(neg_one_a8_gram()).det == 9


def test_load_lattice(tmp_path):
    p = tmp_path / "lat.json"
    p.write_text('{"gram": [[2, -1], [-1, 2]]}')
    lat = lattice_mod.load_lattice(str(p))
    assert discriminant(lat) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(InputError):
        lattice_mod.load_lattice(str(bad))
    with pytest.raises(InputError):
        lattice_mod.load_lattice(str(tmp_path / "missing.json"))
