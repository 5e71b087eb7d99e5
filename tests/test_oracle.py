import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest

from latcorr import corrterm, discgroup, exactmat, lattice as lattice_mod, oracle
from latcorr.errors import (InvariantViolation, NotPositiveDefinite,
                            SearchTooLarge, SingularMatrix)

from conftest import (a8_gram, basis_change, cpu_alarm, e8_gram,
                      index_k_sublattices, random_posdef_gram,
                      random_unimodular)
from fuzzing import run_json


def test_inverse_examples():
    assert oracle.inverse([[9]]) == [[Fraction(1, 9)]]
    inv = oracle.inverse(a8_gram())
    assert exactmat.matmul(a8_gram(), inv) == exactmat.identity(8)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        oracle.inverse([[1, 1], [1, 1]])


def test_inverse_random_exact():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if exactmat.det(a) == 0:
            continue
        assert exactmat.matmul(a, oracle.inverse(a)) == exactmat.identity(n)


def test_cholesky_identity():
    lo, dd = oracle.rational_cholesky(exactmat.identity(2))
    assert dd == [1, 1]


def test_cholesky_2x2_pivots():
    lo, dd = oracle.rational_cholesky([[2, 1], [1, 2]])
    assert dd == [Fraction(2), Fraction(3, 2)]
    # reconstruct L·D·Lᵀ
    n = 2
    recon = [[sum(lo[i][k] * dd[k] * lo[j][k] for k in range(n))
              for j in range(n)] for i in range(n)]
    assert recon == [[2, 1], [1, 2]]


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        oracle.rational_cholesky([[1, 2], [2, 1]])


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


def _past_the_caps(gram):
    return max(row[i] for i, row in enumerate(gram)) > oracle.EMBED_DIAG_CAP


def _rank_7_cases():
    """Seeded definite forms of rank 5–7 past the brute-embed caps: index-k
    sublattices of Iₙ, and conjugates of diagonal forms whose discriminant
    forms are metabolic or not (|G| a square or not)."""
    cases = [gram for gram, _ in index_k_sublattices(
        count=30, ranks=(5, 6, 7), seed=4) if _past_the_caps(gram)]
    rng = random.Random(4)
    for diag in ((2, 2), (3, 3), (2, 8), (4, 9), (5, 5), (3, 12), (6, 6),
                 (2, 3), (7,), (2, 2, 2, 2), (3, 3, 3), (5, 20)):
        n = rng.randint(max(5, len(diag)), 7)
        d = [1] * (n - len(diag)) + list(diag)
        gram = [[x if i == j else 0 for j in range(n)]
                for i, x in enumerate(d)]
        while not _past_the_caps(gram):
            gram = basis_change(gram, random_unimodular(rng, n, ops=4 * n))
        cases.append(gram)
    return cases


def test_every_d_at_rank_at_most_7_is_zero(tmp_path):
    # a positive definite unimodular lattice of rank ≤ 7 is Zⁿ, so every
    # d_{U(M)} is 0 and a lattice embeds exactly when its discriminant
    # form has a metabolizer; checked past the brute-embed caps, where
    # --oracle cannot confirm embedding
    path = tmp_path / "lattice.json"
    cases, embeds = _rank_7_cases(), 0
    for gram in cases:
        lat = lattice_mod.make_lattice(gram)
        with cpu_alarm(2):
            grp = discgroup.disc_group(lat)
            mets = discgroup.metabolizers_of_group(grp)
            ds = corrterm.d_set(grp)
            path.write_text(json.dumps({"gram": gram}))
            code, payload = run_json(["lattice", "embed-check", str(path)])
        assert [e.metabolizer for e in ds.entries] == mets
        assert all(e.result.d == 0 for e in ds.entries)
        assert payload["embeds"] == bool(mets) and code == (0 if mets else 2)
        embeds += bool(mets)
    assert len(cases) >= 30 and 15 <= embeds < len(cases)


def _rank_4_census(max_product=100):
    """Every positive definite rank-4 Gram matrix with a₁₁ ≤ a₂₂ ≤ a₃₃ ≤
    a₄₄, 2|a_ij| ≤ a_ii for i < j, ∏ a_ii ≤ max_product and a square det
    ≤ 25.  Every Minkowski-reduced form satisfies the first two, and at
    rank 4 its ∏ a_ii is at most 4·det, so each class of det ≤ 25 is in."""
    squares = {k * k for k in range(1, 6)}

    def spread(a):
        return range(-(a // 2), a // 2 + 1)

    for a in range(1, 4):
        for b in range(a, max_product // a ** 3 + 1):
            for c in range(b, max_product // (a * b * b) + 1):
                for d in range(c, max_product // (a * b * c) + 1):
                    for x12, x13, x23 in itertools.product(
                            spread(a), spread(a), spread(b)):
                        if exactmat.det([[a, x12, x13], [x12, b, x23],
                                         [x13, x23, c]]) <= 0:
                            continue
                        for x14, x24, x34 in itertools.product(
                                spread(a), spread(b), spread(c)):
                            g = [[a, x12, x13, x14], [x12, b, x23, x24],
                                 [x13, x23, c, x34], [x14, x24, x34, d]]
                            if exactmat.det(g) in squares:
                                yield g


def test_embed_check_agrees_with_brute_embed_on_the_rank_4_census(tmp_path):
    # every U(M) of the census goes through `_reduce`: at rank 4 it is Z⁴,
    # so embed-check says "embeds" exactly when a metabolizer exists, and
    # brute_embed, under its caps here, must agree on every form
    path = tmp_path / "lattice.json"
    forms = embeds = 0
    with cpu_alarm(30):
        for gram in _rank_4_census():
            path.write_text(json.dumps({"gram": gram}))
            code, payload = run_json(["lattice", "embed-check", str(path)])
            found, _ = oracle.brute_embed(lattice_mod.make_lattice(gram))
            assert (payload["embeds"], code) == (found, 0 if found else 2)
            forms += 1
            embeds += found
    assert (forms, embeds) == (1616, 1497)


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
        ginv = oracle.inverse(g)
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
                     and all(oracle.lam(g, x, y) == 0
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

    for name in ("add", "closure", "element_order", "make_subgroup",
                 "_prime_powers", "_search"):
        monkeypatch.setattr(discgroup, name, broken)
    assert [oracle.brute_subgroups(g) for g in groups] == before


def _prime_power_parts(n):
    """{p: p^e} over the prime powers p^e ∥ n, by trial division."""
    parts = {}
    for p in range(2, n + 1):
        while n % p == 0:
            parts[p] = parts.get(p, 1) * p
            n //= p
    return parts


def _is_sum_of_its_p_parts(g, s):
    """S is the direct sum of its p-parts S_p = {x in S : order(x) | q},
    q ∥ |G| the p-power: every choice of one x per part sums to a distinct
    element of S."""
    def order(x):
        return lcm(*(d // gcd(a, d) for a, d in zip(x, g.orders)))

    parts = [[x for x in s.elements if q % order(x) == 0]
             for q in _prime_power_parts(g.order).values()]
    sums = {tuple(sum(col) % d for col, d in zip(zip(*xs), g.orders))
            for xs in itertools.product(*parts)}
    return prod(map(len, parts)) == s.order and sums == set(s.elements)


def _conjugate_diag(rng, ds):
    """The discriminant group of a seeded change of basis of diag(ds)."""
    gram = [[d if i == j else 0 for j in range(len(ds))]
            for i, d in enumerate(ds)]
    return discgroup.disc_group(lattice_mod.make_lattice(basis_change(
        gram, random_unimodular(rng, len(ds)))))


def _mixed_groups(rng):
    """Seeded lattice groups on two or three primes (6², 2²⊕6, 30, 2⊕30,
    12²), the table group 6² whose 2-part is the hyperbolic plane and
    whose 3-part is ⟨1/3⟩ ⊕ ⟨2/3⟩, the hyperbolic table group 12²,
    whose 2- and 3-parts are both hyperbolic, so that it has metabolizers
    (the seeded 12² has none: its 3-part is anisotropic), and seeded
    ℤ/144, ℤ/2⊕ℤ/18 and ℤ/4⊕ℤ/36, each with parts whose q-torsion G[q]
    has order q and is taken without a search."""
    groups = [_conjugate_diag(rng, ds)
              for ds in ((6, 6), (2, 2, 6), (30,), (6, 10))]
    groups.append(discgroup.group_from_table(
        (6, 6), [["1/3", "1/2"], ["1/2", "2/3"]]))
    groups.append(_conjugate_diag(rng, (12, 12)))
    groups.append(discgroup.group_from_table(
        (12, 12), [["0", "1/12"], ["1/12", "0"]]))
    groups += [_conjugate_diag(rng, ds) for ds in ((1, 144), (2, 18), (4, 36))]
    return groups


def test_mixed_order_subgroups_are_sums_of_per_prime_subgroups(rng):
    # G is the sum of its p-parts, so the subgroups of order m are the sums
    # of one subgroup of order q per prime power q ∥ m, and a metabolizer
    # is a sum of per-prime metabolizers
    groups = _mixed_groups(rng)
    assert [g.orders for g in groups] == [
        (6, 6), (2, 2, 6), (30,), (2, 30), (6, 6), (12, 12), (12, 12),
        (144,), (2, 18), (4, 36)]
    n_mets = 0
    for g in groups:
        primes = _prime_power_parts(g.order)
        assert len(primes) >= 2
        subs = oracle.brute_subgroups(g)
        count = Counter(s.order for s in subs)
        assert sorted(count) == [m for m in range(1, g.order + 1)
                                 if g.order % m == 0]
        for m in count:
            got = discgroup.subgroups_of_order(g, m)
            assert got == [s for s in subs if s.order == m]
            assert count[m] == prod(count[q] for q in
                                    _prime_power_parts(m).values())
            assert all(_is_sum_of_its_p_parts(g, s) for s in got)
        # the isotropic subgroups of order √|G| and, per prime, √|G_p|
        halves = {isqrt(g.order)} | {isqrt(q) for q in primes.values()}
        isotropic = Counter()
        mets = []
        for s in subs:
            if s.order in halves and all(oracle.lam(g, x, y) == 0
                                         for x in s.elements
                                         for y in s.elements):
                isotropic[s.order] += 1
                if s.order ** 2 == g.order:
                    mets.append(s)
        assert discgroup.metabolizers_of_group(g) == mets
        if isqrt(g.order) ** 2 == g.order:
            assert len(mets) == prod(isotropic[isqrt(q)]
                                     for q in primes.values())
        n_mets += len(mets)
    # the hyperbolic 12² has 5·2 = 10: five metabolizers of its 2-part, the
    # hyperbolic form on (ℤ/4)², times two of its 3-part; ℤ/144, ℤ/2⊕ℤ/18
    # and ℤ/4⊕ℤ/36 have one each
    assert n_mets == 19
    # 2² ⊕ 6² has 402 subgroups, and the oracle takes about 4 s to list
    # them, so here the counts are checked against the search's own
    # prime-power answers
    g = _conjugate_diag(rng, (2, 2, 6, 6))
    assert g.orders == (2, 2, 6, 6)
    for m in range(1, g.order + 1):
        if g.order % m == 0:
            got = discgroup.subgroups_of_order(g, m)
            assert len(got) == prod(
                len(discgroup.subgroups_of_order(g, q))
                for q in _prime_power_parts(m).values())
            assert all(_is_sum_of_its_p_parts(g, s) for s in got)


def test_enumerate_coset_node_cap(monkeypatch):
    monkeypatch.setattr(oracle, "ENUM_NODE_CAP", 50)
    a = [[Fraction(1, 1000)]]
    with pytest.raises(SearchTooLarge):
        list(oracle._enumerate_coset(a, [Fraction(0)], Fraction(10)))
