"""Lens-space plumbings as embedding cases with known answers."""

from fractions import Fraction

from latcorr import corrterm, discgroup, exactmat, lattice as lattice_mod

from lens import casson_harer, hj_expansion, plumbing_gram


def _d_set(gram):
    return corrterm.d_set(discgroup.disc_group(lattice_mod.make_lattice(gram)))


def test_hj_expansion():
    assert hj_expansion(4, 1) == [4]
    assert hj_expansion(9, 2) == [5, 2]
    assert hj_expansion(9, 8) == [2] * 8
    assert hj_expansion(25, 9) == [3, 5, 2]
    for _, _, p, q in casson_harer():
        assert exactmat.det(plumbing_gram(p, q)) == p
        assert exactmat.det(plumbing_gram(p, p - q)) == p


def test_casson_harer_plumbings_embed():
    # L(m², mk − 1) bounds a rational ball, so the plumbings of p/q and of
    # p/(p − q) both embed in the standard lattice of their rank
    cases = [(p, r) for _, _, p, q in casson_harer() for r in (q, p - q)]
    assert len(cases) == 82
    for p, r in cases:
        gram = plumbing_gram(p, r)
        assert len(gram) <= 12
        assert _d_set(gram).contains_zero, (p, r)


def test_lens_space_m_squared_one_is_obstructed():
    # the plumbing of m²/(m² − 1) is A_{m²−1}; its one metabolizer gives an
    # even U(M), so D = {−(m² − 1)/4} = {−2}, {−6}, {−12} and L(m², 1)
    # bounds no rational ball
    for m, d in [(3, -2), (5, -6), (7, -12)]:
        p = m * m
        gram = plumbing_gram(p, p - 1)
        assert gram == [[2 if i == j else -1 if abs(i - j) == 1 else 0
                         for j in range(p - 1)] for i in range(p - 1)]
        ds = _d_set(gram)
        assert [e.result.d for e in ds.entries] == [Fraction(d)]
        assert not ds.contains_zero
