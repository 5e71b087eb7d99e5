"""End-to-end acceptance checks.

Each test prints a single PASS line on success so a verbose run reads as a
checklist.  All comparisons are exact (integers and Fractions throughout).
"""

import random
from fractions import Fraction
from math import isqrt

from latcorr import (cli, corrterm, discgroup, exactmat,
                     lattice as lattice_mod, oracle, topo)
from latcorr.overlattice import (int_gram, is_integral,
                                 overlattice as build_overlattice)

from conftest import (DATA_DIR, basis_change, e8_gram, one_plus_a8_gram,
                      neg_one_a8_gram, random_posdef_gram, random_unimodular,
                      z_plus_e8_gram)
from duality import discriminant, index_check, is_unimodular


def _ok(capsys, line):
    # suspend capture so the checklist shows up in a plain `pytest -v` run
    with capsys.disabled():
        print(f"PASS: {line}")


def test_negative_nine_by_nine_does_not_embed(capsys):
    lat = lattice_mod.make_lattice(neg_one_a8_gram())
    assert lat.negated
    assert discriminant(lat) == 9
    mets = discgroup.metabolizers_of_group(discgroup.disc_group(lat))
    assert len(mets) == 1
    assert mets[0].elements == ((0,), (3,), (6,))
    ds = corrterm.d_set(discgroup.disc_group(lat))
    assert {e.result.d for e in ds.entries} == {Fraction(-2)}
    assert not ds.contains_zero
    code = cli.main(["lattice", "embed-check", str(DATA_DIR / "neg_one_a8.json")])
    capsys.readouterr()
    assert code == 2
    _ok(capsys, "rank-9 negative definite form: D = {-2}, no embedding, exit 2")


def test_nine_embeds(capsys):
    lat = lattice_mod.make_lattice([[9]])
    ds = corrterm.d_set(discgroup.disc_group(lat))
    assert [e.result.d for e in ds.entries] == [Fraction(0)]
    assert corrterm.embeds_in_standard(lat)
    found, witness = oracle.brute_embed(lat)
    assert found and witness == [(3,)]
    code = cli.main(["lattice", "embed-check", str(DATA_DIR / "nine.json")])
    capsys.readouterr()
    assert code == 0
    _ok(capsys, "[[9]] embeds in Z (witness 3), D = {0}, exit 0")


def test_filling_obstruction_fires_on_positive_metabolizer(capsys):
    table = topo.load_dtable(str(DATA_DIR / "z_example.json"))
    rep = topo.definite_filling_obstruction(table)
    assert rep.verdict == "obstructed"
    vals = [v for _, v in rep.evidence[0].d_values]
    assert vals == [2, 2, 2]
    code = cli.main(["topo", "filling-obstruction",
                     "--dtable", str(DATA_DIR / "z_example.json")])
    capsys.readouterr()
    assert code == 2
    _ok(capsys, "metabolizer values {2,2,2}: no definite filling, exit 2")


def test_s39_rb_obstructed_but_filling_consistent(capsys):
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    rb = topo.rb_correction_obstruction(table)
    assert rb.verdict == "obstructed"
    assert [v for _, v in rb.evidence[0].d_values] == [2, 0, 0]
    fill = topo.definite_filling_obstruction(table)
    assert fill.verdict == "unobstructed"
    chain = topo.chain_check([[9]], table)
    assert chain.verdict == "unobstructed"
    assert all(r.chain_holds for r in chain.evidence)
    code = cli.main(["topo", "rb-obstruction",
                     "--dtable", str(DATA_DIR / "s39_t23.json")])
    capsys.readouterr()
    assert code == 2
    _ok(capsys, "surgery table {2,0,0}: no rational ball (exit 2), chain with [[9]] "
        "consistent")


def test_even_order_caveat(capsys):
    filling = topo.linking_form_of_filling([[4]])
    mets = discgroup.metabolizers_of_group(filling.group)
    assert len(mets) == 1
    assert mets[0].elements == ((0,), (2,))
    code = cli.main(["topo", "rb-obstruction",
                     "--dtable", str(DATA_DIR / "l41.json")])
    capsys.readouterr()
    assert code == 3
    rep = topo.rb_correction_obstruction(
        topo.load_dtable(str(DATA_DIR / "l41.json")))
    assert rep.verdict == "inconclusive"
    assert rep.caveat == topo.EVEN_ORDER_CAVEAT
    _ok(capsys, "order-4 group: unique metabolizer {0,2}, even-order verdict is "
        "inconclusive, exit 3")


def test_correction_term_sign_and_rigidity(capsys):
    # d <= 0 for every unimodular positive definite lattice, with equality
    # exactly for the standard lattice; each case is Iₙ, E8 or Z ⊕ E8 up to
    # a change of basis, so whether it is standard is known by construction
    rng = random.Random(20240818)
    named = [(exactmat.identity(n), True) for n in range(1, 10)]
    named += [(e8_gram(), False), (z_plus_e8_gram(), False)]
    cases = list(named)
    for g, standard in ((exactmat.identity(4), True),
                        (exactmat.identity(8), True),
                        (e8_gram(), False), (z_plus_e8_gram(), False)):
        for _ in range(15):
            cases.append((basis_change(g, random_unimodular(rng, len(g))),
                          standard))
    assert len(cases) >= 50 + len(named)
    for g, standard in cases:
        lat = lattice_mod.make_lattice(g)
        d = corrterm.min_char_square(lat).d
        assert d <= 0
        assert (d == 0) == standard
    for n in range(1, 10):
        std = lattice_mod.make_lattice(exactmat.identity(n))
        assert corrterm.min_char_square(std).d == 0
    e8 = lattice_mod.make_lattice(e8_gram())
    assert corrterm.min_char_square(e8).d == -2
    _ok(capsys, f"d <= 0 with equality iff standard, on {len(cases)} unimodular "
        "lattices")


def _square_disc_suite(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_posdef_gram(rng, max_rank=4, max_disc=36)
        lat = lattice_mod.make_lattice(g)
        disc = discriminant(lat)
        r = isqrt(disc)
        if r * r == disc:
            out.append((lat, disc, r))
    return out


def test_metabolizer_unimodular_correspondence(capsys):
    # U(H) is unimodular exactly when H is a metabolizer, and the index
    # identity disc(L) = disc(U)·[U:L]² holds for integral U
    suite = _square_disc_suite(100, seed=20240819)
    checked = 0
    for lat, disc, r in suite:
        g = discgroup.disc_group(lat)
        mets = {m.elements for m in discgroup.metabolizers_of_group(g)}
        for s in discgroup.subgroups_of_order(g, r):
            u = build_overlattice(g, s)
            assert is_unimodular(u) == (s.elements in mets)
            if is_integral(u):
                du = abs(exactmat.det(int_gram(u)))
                assert disc == du * u.index ** 2
            checked += 1
    assert checked >= 100
    _ok(capsys, f"metabolizer <-> unimodular overlattice on {len(suite)} lattices "
        f"({checked} subgroups)")


def test_index_duality(capsys):
    # [L':L] = [L*:(L')*] for integral intermediate lattices
    suite = _square_disc_suite(100, seed=20240820)
    checked = 0
    for lat, disc, r in suite:
        g = discgroup.disc_group(lat)
        for order in range(1, disc + 1):
            if disc % order:
                continue
            for s in discgroup.subgroups_of_order(g, order):
                u = build_overlattice(g, s)
                if not is_integral(u):
                    continue
                up, down = index_check(lat, u)
                assert up == down == s.order
                checked += 1
    assert checked >= 100
    _ok(capsys, f"index duality [L':L] = [L*:(L')*] on {len(suite)} lattices "
        f"({checked} intermediate lattices)")


def test_constrained_minimum_bounds_overlattice_term(capsys):
    # d_{U(M)} >= constrained characteristic minimum, always; report (but do
    # not fail on) any odd-discriminant instance where equality breaks
    suite = _square_disc_suite(60, seed=20240821)
    strict = []
    checked = 0
    for lat, disc, _ in suite:
        g = discgroup.disc_group(lat)
        for m in discgroup.metabolizers_of_group(g):
            u = build_overlattice(g, m)
            d_over = corrterm.min_char_square(u).d
            cmin = corrterm.constrained_min(lat, u)
            assert d_over >= cmin
            checked += 1
            if disc % 2 == 1 and d_over != cmin:
                strict.append((lat.gram, m.elements, d_over, cmin))
    assert checked >= 30
    if strict:
        with capsys.disabled():
            print(f"FINDING: equality failed on {len(strict)} "
                  "odd-discriminant instances (inequality still held)")
    _ok(capsys, f"d_U(M) >= constrained minimum on {checked} metabolizers; equality "
        f"held on all odd-discriminant instances" if not strict else
        f"d_U(M) >= constrained minimum on {checked} metabolizers")


def test_oracle_equivalence(capsys):
    # optimized decisions agree with the brute-force oracles
    rng = random.Random(20240822)
    count = 0
    while count < 200:
        g = random_posdef_gram(rng, max_rank=4, max_disc=36)
        lat = lattice_mod.make_lattice(g)
        fast = corrterm.embeds_in_standard(lat)
        slow, _ = oracle.brute_embed(lat)
        assert fast == slow
        count += 1
    # named larger lattices: optimized characteristic minima against the
    # enumeration oracle
    for gram in (e8_gram(), z_plus_e8_gram()):
        lat = lattice_mod.make_lattice(gram)
        res = corrterm.min_char_square(lat)
        n = len(gram)
        ginv = oracle.inverse(gram)
        w0 = [gram[i][i] % 2 for i in range(n)]
        bound = sum(w0[i] * ginv[i][j] * w0[j]
                    for i in range(n) for j in range(n))
        assert oracle.brute_char_min(lat, int(bound)) == res.minimum
    # rank 9: the unique unimodular overlattice of <1> + A8
    lat9 = lattice_mod.make_lattice(one_plus_a8_gram())
    g9 = discgroup.disc_group(lat9)
    m = discgroup.metabolizers_of_group(g9)[0]
    u = build_overlattice(g9, m)
    res = corrterm.min_char_square(u)
    assert oracle.brute_char_min(u, res.minimum) == res.minimum
    _ok(capsys, f"optimized paths match brute-force oracles on {count} random "
        "lattices and the named rank-8/9 forms")
