import random
from fractions import Fraction
from itertools import product
from math import floor, isqrt, lcm

import pytest

from latcorr import (corrterm, discgroup, exactmat, lattice as lattice_mod,
                     oracle)
from latcorr.errors import (InputError, InvariantViolation,
                            NotInDualLattice)
from latcorr.overlattice import (_canonical, int_gram,
                                 overlattice as build_overlattice)

from conftest import (basis_change, d4_gram, d12_plus_gram, e8_gram,
                      one_plus_a8_gram, neg_one_a8_gram, random_posdef_gram,
                      random_unimodular, z_plus_e8_gram)
from duality import (constrained_min as lambda_search_min, is_characteristic,
                      mat_vec, pairing, project)


def test_coset_min_trivial():
    val, v, _ = corrterm.coset_min([[1]], [0])
    assert val == 0 and v == (0,)


def test_coset_min_half_shift():
    val, v, _ = corrterm.coset_min([[1]], [1])
    assert val == 1
    assert v in ((1,), (-1,))


def _congruent(v, x):
    return all((a - b) % 2 == 0 for a, b in zip(v, x))


def test_coset_min_matches_grid_scan():
    # independent check by scanning a box certainly containing the minimum
    a = [[2, 1], [1, 3]]
    for x in ((1, 0), (0, 1), (1, 1), (-3, 6)):
        val, v, _ = corrterm.coset_min(a, list(x))
        best = min(_quad(a, w) for w in product(range(-5, 6), repeat=2)
                   if _congruent(w, x))
        assert val == best == _quad(a, v)
        assert _congruent(v, x)


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
    # U = L* is not integral, U = L is integral with determinant 9; both
    # give the overlattice InputError, not NotIntegral
    g = discgroup.disc_group(lattice_mod.make_lattice([[1, 0], [0, 9]]))
    whole = discgroup.make_subgroup(
        g, discgroup.closure(g, {g.identity}, (1,)))
    trivial = discgroup.make_subgroup(g, {g.identity})
    for m in (whole, trivial):
        with pytest.raises(InputError,
                           match="^correction term requires a unimodular "
                                 "overlattice$"):
            corrterm.min_char_square(build_overlattice(g, m))


def test_min_char_square_on_standard_lattice_neither_reduces_nor_factors(
        monkeypatch):
    # every basis vector of Iₙ is a unit vector, so everything splits at once
    def refuse(*args):
        raise AssertionError("Iₙ needs no reduction and no determinant")

    monkeypatch.setattr(exactmat, "lll_gram", refuse)
    monkeypatch.setattr(exactmat, "det", refuse)
    for n in (1, 4, 12):
        res = corrterm.min_char_square(
            lattice_mod.make_lattice(exactmat.identity(n)))
        assert (res.minimum, res.nodes_visited) == (n, 0)
        assert res.witness == (1,) * n


def test_min_char_square_reduces_only_what_the_units_leave(monkeypatch):
    # on E8 ⊕ I_k the unit basis vectors split off as they stand, and what
    # they leave is E8, which is even, so nothing is reduced
    def refuse(*args):
        raise AssertionError("E8 ⊕ I_k needs no reduction")

    monkeypatch.setattr(exactmat, "lll_gram", refuse)
    for k in (1, 3):
        res = corrterm.min_char_square(
            lattice_mod.make_lattice(_padded(e8_gram(), k)))
        assert res.minimum == k and res.d == -2
        assert res.witness == (0,) * 8 + (1,) * k


def test_min_char_square_checks_elkies_bound(monkeypatch):
    # min χ² ≤ n on every unimodular lattice (Elkies), so a minimum above
    # the rank is a fault of the search, raised and never returned
    lat = lattice_mod.make_lattice(d12_plus_gram())
    assert corrterm.min_char_square(lat).minimum == 4
    real = corrterm.coset_min
    monkeypatch.setattr(corrterm, "coset_min",
                        lambda a, x: (13,) + real(a, x)[1:])
    with pytest.raises(InvariantViolation, match="13 > rank 12"):
        corrterm.min_char_square(lat)


def test_witness_is_characteristic(monkeypatch):
    for gram in (exactmat.identity(3), e8_gram(), z_plus_e8_gram(),
                 d12_plus_gram()):
        lat = lattice_mod.make_lattice(gram)
        res = corrterm.min_char_square(lat)
        assert is_characteristic(lat, res.witness)
        assert pairing(lat, res.witness, res.witness) == res.minimum
    # on seeded conjugates of D12⁺ ⊕ I_k the input basis splits, the rest
    # is reduced, split and reduced again, and D12⁺ is odd with no vector
    # of square 1, so it is searched: the witness is mapped back from
    # coset_min through several stages
    real = exactmat.lll_gram
    sizes = []  # per case, the sizes of the Gram matrices reduced

    def spy(gram):
        sizes[-1].append(len(gram))
        return real(gram)

    monkeypatch.setattr(exactmat, "lll_gram", spy)
    rng = random.Random(5)
    for k in range(6):
        for _ in range(3):
            lat = lattice_mod.make_lattice(basis_change(
                _padded(d12_plus_gram(), k),
                random_unimodular(rng, 12 + k, ops=24)))
            sizes.append([])
            res = corrterm.min_char_square(lat)
            assert res.d == -2 and res.nodes_visited > 0
            assert is_characteristic(lat, res.witness)
            assert pairing(lat, res.witness, res.witness) == res.minimum
    # a reduction of a smaller rest means a split ran between the two
    assert any(b < a for s in sizes for a, b in zip(s, s[1:]))


def _is_even(gram):
    return all(row[i] % 2 == 0 for i, row in enumerate(gram))


def _even_rest_cases():
    """(lattice or overlattice, minimum, witness, d) whose split-off rest
    is even: E8, E8 ⊕ E8, seeded conjugates of E8 ⊕ I_k and the U(M) ≅
    Z ⊕ E8 of ⟨1⟩ ⊕ A8.  The values are those the loop gave when it still
    reduced and searched an even rest."""
    make = lattice_mod.make_lattice
    yield make(e8_gram()), 0, (0,) * 8, -2
    yield make(_direct_sum(e8_gram(), e8_gram())), 0, (0,) * 16, -4
    rng = random.Random(27)
    witnesses = {1: (1, 0, 0, 0, 0, 0, 0, 0, -1),
                 2: (0, 1, 0, 0, 0, 0, 0, -1, 1, 0),
                 3: (0, 0, 2, -1, 0, 1, 0, 0, 0, 1, 1)}
    for k, witness in witnesses.items():
        yield (make(basis_change(_padded(e8_gram(), k),
                                 random_unimodular(rng, 8 + k, ops=24))),
               k, witness, -2)
    grp = discgroup.disc_group(make(one_plus_a8_gram()))
    [m] = discgroup.metabolizers_of_group(grp)
    yield build_overlattice(grp, m), 1, (1,) + (0,) * 8, -2


def test_an_even_rest_is_neither_reduced_nor_searched(monkeypatch):
    # 0 is characteristic on an even lattice and its least square, so
    # nothing runs on an even rest: not even an LDLᵀ, since the
    # determinant comes with the lattice or overlattice
    cases = list(_even_rest_cases())
    real_lll = exactmat.lll_gram
    reduced = []

    def lll(gram):
        reduced.append(_is_even(gram))
        return real_lll(gram)

    def refuse(*args):
        raise AssertionError("an even rest needs no search or factoring")

    monkeypatch.setattr(exactmat, "lll_gram", lll)
    monkeypatch.setattr(exactmat, "ldl", refuse)
    monkeypatch.setattr(exactmat, "solve_mod2", refuse)
    monkeypatch.setattr(corrterm, "coset_min", refuse)
    for obj, minimum, witness, d in cases:
        reduced.clear()
        res = corrterm.min_char_square(obj)
        assert (res.minimum, res.witness, res.d) == (minimum, witness, d)
        assert res.nodes_visited == 0
        assert not any(reduced)


def test_an_even_rest_must_have_determinant_one():
    a2 = [[2, -1], [-1, 2]]
    for gram in ([[2]], a2, _padded(a2, 1), _direct_sum([[4]], e8_gram())):
        with pytest.raises(InputError,
                           match="^correction term requires a unimodular "
                                 "lattice$"):
            corrterm.min_char_square(lattice_mod.make_lattice(gram))


def test_unimodularity_is_decided_before_any_factorization(monkeypatch):
    # det comes with the lattice (make_lattice's LDLᵀ) or the overlattice
    # (det L/[U:L]²), so a form of det ≠ 1 or a U that is not integral is
    # refused before anything is reduced, factored or searched, with the
    # same error line as when the det was read off a reduction
    a2 = [[2, -1], [-1, 2]]
    make = lattice_mod.make_lattice
    lattices = [make(g) for g in (
        [[2]], [[9]], a2, _padded(a2, 1), _direct_sum([[4]], e8_gram()),
        _diag(1, 1, 3), basis_change(_diag(1, 2, 1, 5),
                                     random_unimodular(random.Random(3), 4)))]
    overlattices = []
    for gram in ([[36]], _diag(2, 2, 2, 2), one_plus_a8_gram(), a2):
        grp = discgroup.disc_group(make(gram))
        mets = discgroup.metabolizers_of_group(grp)
        overlattices += [build_overlattice(grp, m)
                         for m in oracle.brute_subgroups(grp)
                         if m not in mets]
    # some have det 1 and are refused only because they are not integral
    assert len(overlattices) >= 20 and any(u.det == 1 for u in overlattices)

    def refuse(*args):
        raise AssertionError("unimodularity needs no factorization")

    for name in ("lll_gram", "ldl", "solve_mod2"):
        monkeypatch.setattr(exactmat, name, refuse)
    monkeypatch.setattr(corrterm, "coset_min", refuse)
    for objs, kind in ((lattices, "lattice"), (overlattices, "overlattice")):
        for obj in objs:
            with pytest.raises(InputError, match="^correction term requires "
                                                 f"a unimodular {kind}$"):
                corrterm.min_char_square(obj)


def test_overlattice_witness_lies_in_overlattice_dual():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    u = build_overlattice(g, m)
    res = corrterm.min_char_square(u)
    assert res.minimum == 1
    # witness is given in base-lattice coordinates; its square is the minimum
    assert pairing(lat, res.witness, res.witness) == 1


def test_d_invariant_stable_under_basis_change(rng):
    lat0 = lattice_mod.make_lattice(e8_gram())
    d0 = corrterm.min_char_square(lat0).d
    for _ in range(5):
        t = random_unimodular(rng, 8)
        lat = lattice_mod.make_lattice(basis_change(e8_gram(), t))
        assert corrterm.min_char_square(lat).d == d0


def _padded(gram, k):
    """gram ⊕ I_k."""
    n = len(gram)
    return [list(row) + [0] * k for row in gram] + \
        [[0] * n + [int(i == j) for j in range(k)] for i in range(k)]


def test_d_of_direct_sum_with_z(rng):
    # d(U ⊕ Zᵏ) = d(U): unit summands do not change the invariant, also
    # after a change of basis of the sum
    grams = [e8_gram(), z_plus_e8_gram(), exactmat.identity(2)]
    grams += [basis_change(e8_gram(), random_unimodular(rng, 8, ops=20))]
    for gram in grams:
        d = corrterm.min_char_square(lattice_mod.make_lattice(gram)).d
        for k in (1, 3):
            padded = _padded(gram, k)
            t = random_unimodular(rng, len(padded), ops=30)
            for g in (padded, basis_change(padded, t)):
                res = corrterm.min_char_square(lattice_mod.make_lattice(g))
                assert res.d == d


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
    # no metabolizer, so D is empty and [[2]] cannot embed
    lat = lattice_mod.make_lattice([[2]])
    ds = corrterm.d_set(discgroup.disc_group(lat))
    assert ds.entries == ()
    assert not ds.contains_zero
    assert not corrterm.embeds_in_standard(lat)


def test_constrained_min_nine():
    lat = lattice_mod.make_lattice([[9]])
    g = discgroup.disc_group(lat)
    m = discgroup.metabolizers_of_group(g)[0]
    assert corrterm.constrained_min(lat, build_overlattice(g, m)) == 0


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
        if project(grp, chi) not in elems:
            continue
        sq = pairing(lat, chi, chi)
        best = sq if best is None else min(best, sq)
    assert corrterm.constrained_min(lat, build_overlattice(grp, m)) == \
        (best - 1) / 4


def test_constrained_min_bounds_d_over(rng):
    # d_{U(M)} >= constrained minimum, for several small lattices
    for gram in ([[9]], [[4]], d4_gram(), [[1, 0], [0, 9]]):
        lat = lattice_mod.make_lattice(gram)
        grp = discgroup.disc_group(lat)
        for m in discgroup.metabolizers_of_group(grp):
            u = build_overlattice(grp, m)
            d_over = corrterm.min_char_square(u).d
            cmin = corrterm.constrained_min(lat, u)
            assert d_over >= cmin


def test_constrained_min_full_group():
    # constraining to the whole group is the unconstrained characteristic
    # minimum of L, shifted
    lat = lattice_mod.make_lattice([[4]])
    grp = discgroup.disc_group(lat)
    full = discgroup.make_subgroup(grp, set(grp.elements()))
    # [[4]] is even, so characteristic dual coordinates are even; w = 0 is
    # characteristic with square 0, hence (0 - 1)/4
    assert corrterm.constrained_min(lat, build_overlattice(grp, full)) == \
        Fraction(-1, 4)


def test_constrained_min_rejects_overlattice_outside_dual():
    # U(M) of [[9]] has basis 1/3, which pairs to 4/3 against [[4]]
    grp = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
    u = build_overlattice(grp, discgroup.metabolizers_of_group(grp)[0])
    with pytest.raises(NotInDualLattice):
        corrterm.constrained_min(lattice_mod.make_lattice([[4]]), u)


def test_constrained_min_matches_coset_scan(rng):
    # Char(L) = χ₀ + 2L* with χ₀ = G⁻¹·(diag G mod 2): in dual coordinates
    # w = G·χ the characteristic covectors are the w ≡ diag G mod 2, and
    # |w_i| ≤ √(χ²·G_ii) by Cauchy–Schwarz, so a box scan finds every χ up
    # to the largest square the fast path returns
    checked = 0
    for _ in range(12):
        gram = random_posdef_gram(rng, max_rank=4, max_disc=36)
        lat = lattice_mod.make_lattice(gram)
        grp = discgroup.disc_group(lat)
        n = lat.rank
        subgroups = oracle.brute_subgroups(grp)
        fast = [corrterm.constrained_min(lat, build_overlattice(grp, m))
                for m in subgroups]
        bound = 4 * max(fast) + n
        ginv = oracle.inverse(gram)
        box = []
        for g in (gram[i][i] for i in range(n)):
            r = isqrt(floor(bound * g))
            box.append([w for w in range(-r, r + 1) if (w - g) % 2 == 0])
        best = {}  # group element -> least scanned χ² in its class
        for w in product(*box):
            chi = mat_vec(ginv, list(w))
            sq = sum(x * y for x, y in zip(w, chi))
            if sq <= bound:
                e = project(grp, chi)
                best[e] = min(best.get(e, sq), sq)
        for m, value in zip(subgroups, fast):
            scan = min(best[e] for e in m.elements if e in best)
            assert value == (scan - n) / 4
            checked += 1
    assert checked >= 90


def _kernel_dim(lat, u):
    """r, the F₂-dimension of the c with (B·G_L)ᵀ·c ≡ 0 mod 2 for the
    basis B of U: the constraint set is 2^r classes of U/2U."""
    gram = lat.gram_rows()
    p = exactmat.matmul(u.rows, gram)
    system = [[x // u.denom for x in row] for row in exactmat.transpose(p)]
    return len(exactmat.solve_mod2(system, [0] * lat.rank)[1])


def test_constrained_min_matches_the_lambda_search_on_every_subgroup():
    # the walk over the classes of U/2U against the one search of c₀ + Λ in
    # a reduced basis of Λ = U ∩ 2L* (the reference in tests/duality.py), on
    # every subgroup of small lattices, M = 0 and M = G included
    rng = random.Random(7)
    pairs, dims = 0, set()
    for _ in range(40):
        lat = lattice_mod.make_lattice(
            random_posdef_gram(rng, max_rank=5, max_disc=48))
        grp = discgroup.disc_group(lat)
        subgroups = oracle.brute_subgroups(grp)
        assert subgroups[0].order == 1 and subgroups[-1].order == grp.order
        for m in subgroups:
            u = build_overlattice(grp, m)
            assert (corrterm.constrained_min(lat, u)
                    == lambda_search_min(lat, u))
            dims.add(_kernel_dim(lat, u))
            pairs += 1
    assert pairs >= 300
    assert {0, 1, 2, 3} <= dims


def test_constrained_min_factors_the_rest_once(monkeypatch):
    # every class of R searched shares one LDLᵀ of R, with the values of
    # the reference search, on every subgroup of seeded lattices of rank
    # up to 6
    rng = random.Random(7)
    real_ldl, real_coset_min = exactmat.ldl, corrterm.coset_min
    calls = {"ldl": 0, "coset_min": 0}

    def ldl(a):
        calls["ldl"] += 1
        return real_ldl(a)

    def coset_min(*args):
        calls["coset_min"] += 1
        return real_coset_min(*args)

    monkeypatch.setattr(exactmat, "ldl", ldl)
    monkeypatch.setattr(corrterm, "coset_min", coset_min)
    shared = 0
    for _ in range(30):
        lat = lattice_mod.make_lattice(
            random_posdef_gram(rng, max_rank=6, max_disc=64))
        grp = discgroup.disc_group(lat)
        for m in oracle.brute_subgroups(grp):
            u = build_overlattice(grp, m)
            expected = lambda_search_min(lat, u)
            calls.update(ldl=0, coset_min=0)
            assert corrterm.constrained_min(lat, u) == expected
            assert calls["ldl"] == (calls["coset_min"] > 0)
            shared += calls["coset_min"] > 1
    assert shared >= 10


def test_constrained_min_reduces_an_even_rest_itself(rng, monkeypatch):
    # G = Z/4 for ⟨4⟩ ⊕ E8, and U(M) ≅ Z ⊕ E8 for M of order 2, whose rest
    # E8 `_reduce` leaves even and unreduced: constrained_min reduces it
    # and walks the classes in that reduced basis as before
    lats = [lattice_mod.make_lattice(g) for g in (
        _direct_sum([[4]], e8_gram()),
        basis_change(_direct_sum([[4]], e8_gram()),
                     random_unimodular(rng, 9, ops=24)))]
    real = exactmat.lll_gram
    reduced = []

    def spy(gram):
        reduced.append(_is_even(gram))
        return real(gram)

    for lat in lats:
        grp = discgroup.disc_group(lat)
        subgroups = oracle.brute_subgroups(grp)
        assert [m.order for m in subgroups] == [1, 2, 4]
        us = [build_overlattice(grp, m) for m in subgroups]
        assert corrterm.min_char_square(us[1]).d == -2
        expected = [lambda_search_min(lat, u) for u in us]
        monkeypatch.setattr(exactmat, "lll_gram", spy)
        reduced.clear()
        assert [corrterm.constrained_min(lat, u) for u in us] == expected
        monkeypatch.setattr(exactmat, "lll_gram", real)
        assert any(reduced)


def test_reduce_maps_the_characteristic_class_to_the_char_minimum(rng):
    # on a unimodular U(M) the class of U's own characteristic vectors,
    # mapped through the stages of _reduce, is odd on every unit split off,
    # and one unit each plus its coset minimum on the rest is min χ² over U
    grams = [basis_change(g, random_unimodular(rng, len(g), ops=8))
             for g in (one_plus_a8_gram(), z_plus_e8_gram(),
                       _diag(2, 2, 2, 2), _diag(1, 9, 4))]
    grams += [random_posdef_gram(rng, max_rank=5, max_disc=48)
              for _ in range(60)]
    checked = rests = 0
    for gram in grams:
        grp = discgroup.disc_group(lattice_mod.make_lattice(gram))
        for m in discgroup.metabolizers_of_group(grp):
            u = build_overlattice(grp, m)
            a = int_gram(u)
            assert u.det == 1  # det L/[U:L]², carried from make_lattice
            stages, rest = corrterm._reduce(a)
            x, _ = exactmat.solve_mod2(a, [a[i][i] for i in range(len(a))])
            [(odd, bits)] = corrterm._classes_mod2(stages, [x])
            units = sum(len(s[0]) for s in stages if type(s) is tuple)
            assert odd == (1 << units) - 1
            value = units
            if rest:
                rests += 1
                value += corrterm.coset_min(
                    rest, [bits >> j & 1 for j in range(len(rest))])[0]
            assert value == corrterm.min_char_square(u).minimum
            checked += 1
    assert checked >= 20 and rests >= 2


def _unimodular_conjugates():
    """(lattice, minimum): 300 seeded conjugates of I₈…I₁₂, E8, E8 ⊕ E8
    and E8 ⊕ I₁…₄, thirty shapes a round as a `dinv` benchmark round
    draws them, each T from as many row operations as its rank."""
    e8 = e8_gram()
    shapes = ([(e8, 0)] * 2 + [(_direct_sum(e8, e8), 0)] * 2
              + [(_padded(e8, k), k) for k in (1, 2, 3, 4)]
              + [(exactmat.identity(n), n)
                 for n in [8, 9] + [10] * 10 + [11] * 5 + [12] * 5])
    rng = random.Random(0)
    for _ in range(10):
        for gram, minimum in shapes:
            n = len(gram)
            yield (lattice_mod.make_lattice(basis_change(
                gram, random_unimodular(rng, n, ops=n))), minimum)


def test_unimodular_conjugates_take_32_reductions(monkeypatch):
    # every unit on the diagonal is split off, also one that a split
    # leaves, before anything is reduced: 32 LLL calls for the 300
    # conjugates (234 when a split was followed by an LLL at once), with
    # the minima unchanged and every witness characteristic
    real, calls = exactmat.lll_gram, []

    def spy(gram):
        calls.append(len(gram))
        return real(gram)

    monkeypatch.setattr(exactmat, "lll_gram", spy)
    cases = 0
    for lat, minimum in _unimodular_conjugates():
        res = corrterm.min_char_square(lat)
        assert res.minimum == minimum and res.nodes_visited == 0
        assert is_characteristic(lat, res.witness)
        assert pairing(lat, res.witness, res.witness) == minimum
        cases += 1
    assert cases == 300
    assert len(calls) == 32


def test_reduce_reduces_no_gram_with_a_unit_on_its_diagonal(rng,
                                                            monkeypatch):
    # `_reduce` reads the diagonal again after every split: no Gram matrix
    # it hands to lll_gram, and no rest it returns, has a 1 on its
    # diagonal, on unimodular conjugates, D12⁺ ⊕ I_k, U(M) and forms of
    # any determinant
    real, reduced = exactmat.lll_gram, []

    def spy(gram):
        reduced.append(gram)
        return real(gram)

    grams = [lat.gram_rows() for lat, _ in _unimodular_conjugates()]
    grams += [basis_change(_padded(d12_plus_gram(), k),
                           random_unimodular(rng, 12 + k, ops=24))
              for k in range(4)]
    grams += [random_posdef_gram(rng, max_rank=6, max_disc=64)
              for _ in range(80)]
    for gram in grams[-80:]:
        grp = discgroup.disc_group(lattice_mod.make_lattice(gram))
        grams += [int_gram(build_overlattice(grp, m))
                  for m in discgroup.metabolizers_of_group(grp)]
    monkeypatch.setattr(exactmat, "lll_gram", spy)
    for gram in grams:
        _, rest = corrterm._reduce(gram)
        assert all(row[i] != 1 for i, row in enumerate(rest))
    assert len(reduced) >= 40
    assert all(row[i] != 1 for g in reduced for i, row in enumerate(g))


def _even_order_lattices(rng):
    """Seeded lattices whose discriminant group has even square order, so
    that most have metabolizers: small random forms, and conjugates of
    ⟨4⟩ ⊕ E8, ⟨2, 2⟩ ⊕ E8 and D12⁺ ⊕ ⟨2, 2⟩, whose U(M) leave a rest that
    is reduced."""
    lats = []
    while len(lats) < 40:
        lat = lattice_mod.make_lattice(
            random_posdef_gram(rng, max_rank=6, max_disc=64))
        if lat.det % 2 == 0 and isqrt(lat.det) ** 2 == lat.det:
            lats.append(lat)
    for base in (_direct_sum([[4]], e8_gram()),
                 _direct_sum(_diag(2, 2), e8_gram()),
                 _direct_sum(d12_plus_gram(), _diag(2, 2))):
        for _ in range(2):
            lats.append(lattice_mod.make_lattice(basis_change(
                base, random_unimodular(rng, len(base), ops=24))))
    return lats


def test_constrained_min_takes_the_reduction_of_d_set(rng):
    # on every metabolizer of even-order lattices, the constrained minimum
    # from the reduction d_set kept equals the one that reduces U(M)
    # itself, and both equal the search of c₀ + Λ in tests/duality.py
    entries = reduced = 0
    for lat in _even_order_lattices(rng):
        for e in corrterm.d_set(discgroup.disc_group(lat)).entries:
            u, reduction = e.overlattice, e.result.reduction
            handed = corrterm.constrained_min(lat, u, reduction)
            assert handed == corrterm.constrained_min(lat, u)
            assert handed == lambda_search_min(lat, u)
            entries += 1
            reduced += any(type(s) is not tuple for s in reduction[0])
    assert entries >= 40 and reduced >= 4


def test_constrained_min_on_the_metabolizers_of_2i6(monkeypatch):
    # every metabolizer M of 2·I₆ leaves r = 3, so 8 classes of U(M)/2U(M)
    # to walk; U(M) is unimodular of rank 6, so Z⁶, and splits fully, so no
    # class needs a search
    lat = lattice_mod.make_lattice(_diag(2, 2, 2, 2, 2, 2))
    grp = discgroup.disc_group(lat)
    mets = discgroup.metabolizers_of_group(grp)
    assert len(mets) == 15
    us = [build_overlattice(grp, m) for m in mets]
    expected = [lambda_search_min(lat, u) for u in us]

    def forbidden(*args):
        raise AssertionError("coset_min called")

    monkeypatch.setattr(corrterm, "coset_min", forbidden)
    for u, value in zip(us, expected):
        assert _kernel_dim(lat, u) == 3
        assert corrterm.constrained_min(lat, u) == value


def _basis(u):
    """The basis rows/denom of an overlattice, in base-lattice coordinates."""
    return [[Fraction(x, u.denom) for x in row] for row in u.rows]


def _assert_witness(lat, basis, res):
    """The witness lies in the lattice spanned by basis (rows in the
    coordinates of lat), is characteristic there and has square minimum."""
    w = res.witness
    inv = oracle.inverse([list(r) for r in basis])
    coords = [sum(w[i] * inv[i][j] for i in range(len(w)))
              for j in range(len(w))]
    assert all(x.denominator == 1 for x in coords)
    for row in basis:
        assert (pairing(lat, w, row) - pairing(lat, row, row)) % 2 == 0
    assert pairing(lat, w, w) == res.minimum


def _unimodular_cases(rng):
    """Seeded conjugates of Iₙ (n ≤ 6) and of E8 ⊕ I_k (k ≤ 3)."""
    for n in range(1, 7):
        yield basis_change(exactmat.identity(n),
                           random_unimodular(rng, n, ops=4 * n))
    for k in range(4):
        yield basis_change(_padded(e8_gram(), k),
                           random_unimodular(rng, 8 + k, ops=24))


def test_min_char_square_matches_oracle_on_conjugates(rng):
    for gram in _unimodular_cases(rng):
        lat = lattice_mod.make_lattice(gram)
        res = corrterm.min_char_square(lat)
        n = len(gram)
        assert oracle.brute_char_min(lat, res.minimum) == res.minimum
        assert res.minimum == (n - 8 if n >= 8 else n)
        _assert_witness(lat, exactmat.identity(n), res)


def test_min_char_square_matches_oracle_on_overlattices(rng):
    seen = 0
    grams = [one_plus_a8_gram(), [[1, 0], [0, 9]]]
    while seen < 20:
        gram = grams.pop() if grams else random_posdef_gram(rng)
        lat = lattice_mod.make_lattice(gram)
        grp = discgroup.disc_group(lat)
        for m in discgroup.metabolizers_of_group(grp):
            u = build_overlattice(grp, m)
            res = corrterm.min_char_square(u)
            assert oracle.brute_char_min(u, res.minimum) == res.minimum
            _assert_witness(lat, _basis(u), res)
            seen += 1


def test_conjugate_of_i16_needs_no_search():
    # all sixteen unit vectors are split off, so branch and bound never runs
    rng = random.Random(16)
    gram = basis_change(exactmat.identity(16),
                        random_unimodular(rng, 16, ops=64))
    res = corrterm.min_char_square(lattice_mod.make_lattice(gram))
    assert res.minimum == 16 and res.d == 0
    assert res.nodes_visited == 0


def test_min_char_square_multiplies_by_no_identity(monkeypatch):
    # the first LLL transform is the basis of the rest, a transform T = I
    # is not applied, and a lattice's witness is χ itself, so no product
    # has an identity factor
    rng = random.Random(17)
    real = exactmat.matmul
    factors = []

    def spy(a, b):
        factors.extend((a, b))
        return real(a, b)

    def run(gram):
        lat = lattice_mod.make_lattice(gram)
        monkeypatch.setattr(exactmat, "matmul", spy)
        res = corrterm.min_char_square(lat)
        monkeypatch.undo()
        _assert_witness(lat, exactmat.identity(len(gram)), res)
        return res

    for n in range(1, 17):
        for ops in (0, 2, 4 * n):
            res = run(basis_change(exactmat.identity(n),
                                   random_unimodular(rng, n, ops=ops)))
            assert res.minimum == n and res.nodes_visited == 0
    # in a reduced basis of E8 ⊕ I_k the rest after the input split is
    # already reduced, so its reduction returns T = I; for k = 0 nothing
    # splits first, and that T = I is the basis of the rest
    for k in (0, 1, 3):
        _, gram = exactmat.lll_gram(_padded(e8_gram(), k))
        res = run(gram)
        assert res.minimum == k and res.d == -2
    assert not any(f == exactmat.identity(len(f)) for f in factors)


def _quad(a, s):
    return sum(s[i] * a[i][j] * s[j] for i in range(len(s)) for j in range(len(s)))


def _random_form(rng, n):
    """A random positive definite integer A = B·Bᵀ, and a random integer
    vector x."""
    while True:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if exactmat.det(b):
            break
    a = exactmat.matmul(b, exactmat.transpose(b))
    return a, [rng.randint(-20, 20) for _ in range(n)]


def test_coset_min_matches_brute_scan_on_integer_forms():
    # every v with vᵀAv ≤ V has v_i² ≤ V·(A⁻¹)_ii, so a box of that size,
    # with V the value returned, holds every v of the class that is as
    # small; the value is attained at the returned v
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, x = _random_form(rng, n)
        val, v, _ = corrterm.coset_min(a, x)
        assert type(val) is int and all(type(c) is int for c in v)
        assert _congruent(v, x) and val == _quad(a, v)
        ainv = oracle.inverse(a)
        # v_i runs over the integers ≡ x_i (mod 2) in [−r − 1, r]
        box = [range(-r - (r + c) % 2, r + 1, 2) for r, c in
               zip((isqrt(floor(val * ainv[i][i])) + 1 for i in range(n)), x)]
        assert val == min(_quad(a, w) for w in product(*box))


def _fraction_coset_min(a, t):
    """The branch and bound over Fractions and the Fraction LDLᵀ: the same
    search order and pruning as `coset_min`, as an independent reference
    for its values, witnesses and node counts."""
    n = len(t)
    lo, dd = oracle.rational_cholesky(a)
    t = [Fraction(x) for x in t]
    s = [Fraction(0)] * n
    u = [0] * n
    best = [Fraction(0), None, n]
    for i in reversed(range(n)):
        c = t[i] + sum(lo[j][i] * s[j] for j in range(i + 1, n))
        u[i] = floor(-c + Fraction(1, 2))
        s[i] = u[i] + t[i]
        best[0] += dd[i] * (u[i] + c) ** 2
    best[1] = tuple(u)

    def dfs(i, partial):
        if i < 0:
            if partial < best[0]:
                best[0], best[1] = partial, tuple(u)
            return
        c = t[i] + sum(lo[j][i] * s[j] for j in range(i + 1, n))
        start = floor(-c + Fraction(1, 2))
        for first, step in ((start, -1), (start + 1, 1)):
            ui = first
            while True:
                best[2] += 1
                term = dd[i] * (ui + c) ** 2
                if partial + term >= best[0]:
                    break
                u[i], s[i] = ui, ui + t[i]
                dfs(i - 1, partial + term)
                ui += step

    dfs(n - 1, Fraction(0))
    return tuple(best)


def test_coset_min_visits_the_same_nodes_as_the_fraction_search(rng):
    # the integer search scales the form, so it must take every pruning
    # decision the Fraction search at t = x/2 takes: the same value (times
    # 4), the witness v = 2u + x and the same nodes
    cases = [_random_form(rng, rng.randint(1, 6)) for _ in range(30)]
    for gram in _unimodular_cases(rng):
        x0, _ = exactmat.solve_mod2(gram, [gram[i][i] for i in range(len(gram))])
        cases.append((gram, x0))
    nodes = 0
    for a, x in cases:
        val, u, count = _fraction_coset_min(a, [Fraction(c, 2) for c in x])
        v = tuple(2 * ui + c for ui, c in zip(u, x))
        assert corrterm.coset_min(a, x) == (4 * val, v, count)
        nodes += count
    assert nodes > 1000


def test_coset_min_reads_its_class_mod_2(rng):
    # x ↦ x + 2k shifts every u by −k, so the search visits the same v in
    # the same order; constrained_min relies on this to place its coset
    # by its residue mod 2 alone
    cases = [_random_form(rng, rng.randint(1, 6)) for _ in range(30)]
    for gram in _unimodular_cases(rng):
        x0, _ = exactmat.solve_mod2(gram, [gram[i][i] for i in range(len(gram))])
        cases.append((gram, x0))
    for a, x in cases:
        k = [rng.randint(-9, 9) for _ in x]
        assert corrterm.coset_min(a, [c + 2 * d for c, d in zip(x, k)]) == \
            corrterm.coset_min(a, x)
        assert corrterm.coset_min(a, [c % 2 for c in x]) == \
            corrterm.coset_min(a, x)


def test_constrained_min_matches_scan_of_overlattice_vectors(rng):
    # brute force inside U itself: χ = c·B runs over a box of coordinates
    # c in the basis B of U, large enough by |c_i|² ≤ χ²·(G_U⁻¹)_ii to hold
    # every χ up to the square the fast path returns; χ must be
    # characteristic for L
    checked = 0
    for _ in range(8):
        lat = lattice_mod.make_lattice(
            random_posdef_gram(rng, max_rank=3, max_disc=12))
        grp = discgroup.disc_group(lat)
        n = lat.rank
        for m in oracle.brute_subgroups(grp):
            u = build_overlattice(grp, m)
            fast = corrterm.constrained_min(lat, u)
            bound = 4 * fast + n
            ginv = oracle.inverse([[Fraction(x, u.denom ** 2) for x in r]
                                     for r in u.scaled_gram])
            box = [range(-r, r + 1) for r in
                   (isqrt(floor(bound * ginv[i][i])) + 1 for i in range(n))]
            best = None
            for c in product(*box):
                chi = tuple(sum(ci * row[j] for ci, row in zip(c, _basis(u)))
                            for j in range(n))
                if is_characteristic(lat, chi):
                    sq = pairing(lat, chi, chi)
                    best = sq if best is None else min(best, sq)
            assert fast == (best - n) / 4
            checked += 1
    assert checked >= 15


def _direct_sum(g1, g2):
    n1, n2 = len(g1), len(g2)
    return [list(row) + [0] * n2 for row in g1] + \
        [[0] * n1 + list(row) for row in g2]


def test_min_char_square_is_additive(rng):
    # d(L₁ ⊕ L₂) = d(L₁) + d(L₂), also after a change of basis of the sum;
    # the summands are conjugates of Iₙ, E8 ⊕ I_k and unimodular U(M)
    grams = list(_unimodular_cases(rng))
    while len(grams) < 16:
        lat = lattice_mod.make_lattice(random_posdef_gram(rng))
        grp = discgroup.disc_group(lat)
        for m in discgroup.metabolizers_of_group(grp):
            grams.append(int_gram(build_overlattice(grp, m)))

    def d(gram):
        return corrterm.min_char_square(lattice_mod.make_lattice(gram)).d

    for _ in range(12):
        g1, g2 = rng.sample(grams, 2)
        total = _direct_sum(g1, g2)
        conj = basis_change(total, random_unimodular(rng, len(total), ops=30))
        assert d(total) == d(conj) == d(g1) + d(g2)


def test_d_set_is_basis_independent(rng):
    # the d-set and its verdict belong to the lattice, not to its basis
    nonempty = 0
    for _ in range(25):
        gram = random_posdef_gram(rng, max_rank=4, max_disc=36)
        conj = basis_change(gram, random_unimodular(rng, len(gram), ops=12))
        sets = [corrterm.d_set(discgroup.disc_group(
            lattice_mod.make_lattice(g))) for g in (gram, conj)]
        values = [sorted(e.result.d for e in ds.entries) for ds in sets]
        assert values[0] == values[1]
        assert sets[0].contains_zero == sets[1].contains_zero
        nonempty += bool(values[0])
    assert nonempty >= 10


def _diag(*entries):
    return [[x if i == j else 0 for j, _ in enumerate(entries)]
            for i, x in enumerate(entries)]


@pytest.mark.parametrize("first, second", [
    ((5, 5), (2, 2, 2, 2)), ((5, 5), (9, 9)), ((4, 4), (5, 5))],
    ids=["5x5+2x2x2x2", "5x5+9x9", "4x4+5x5"])
def test_metabolizers_of_a_coprime_sum_are_products(rng, first, second):
    # with coprime discriminants L*/L splits as L₁*/L₁ ⊕ L₂*/L₂, so each
    # metabolizer is M₁ ⊕ M₂ and U(M) = U(M₁) ⊕ U(M₂), and d adds
    grams = [basis_change(_diag(*entries),
                          random_unimodular(rng, len(entries), ops=12))
             for entries in (first, second)]
    parts = [corrterm.d_set(discgroup.disc_group(lattice_mod.make_lattice(g)))
             for g in grams]
    total = lattice_mod.make_lattice(_direct_sum(*grams))
    whole = corrterm.d_set(discgroup.disc_group(total))
    n1 = len(grams[0])
    products = set()
    for e1, e2 in product(parts[0].entries, parts[1].entries):
        u1, u2 = e1.overlattice, e2.overlattice
        denom = lcm(u1.denom, u2.denom)
        rows = ([[denom // u1.denom * x for x in row] + [0] * len(grams[1])
                 for row in u1.rows]
                + [[0] * n1 + [denom // u2.denom * x for x in row]
                   for row in u2.rows])
        products.add(_canonical(total, rows, denom))
    assert len(products) == len(parts[0].entries) * len(parts[1].entries) > 0
    assert len(whole.entries) == len(products)
    assert {e.overlattice for e in whole.entries} == products
    assert sorted(e.result.d for e in whole.entries) == sorted(
        e1.result.d + e2.result.d
        for e1, e2 in product(parts[0].entries, parts[1].entries))
