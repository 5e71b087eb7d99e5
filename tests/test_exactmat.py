import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from latcorr import exactmat, oracle
from latcorr.errors import NotPositiveDefinite

from conftest import (a8_gram, basis_change, cpu_alarm, e8_gram,
                      random_unimodular, textbook_matmul)
from duality import snf as smith_reference


def cofactor_det(a):
    """Independent determinant oracle: Laplace expansion with memoization
    on column subsets."""
    n = len(a)
    memo = {}

    def rec(row, cols):
        if row == n:
            return 1
        key = cols
        if key in memo:
            return memo[key]
        total = 0
        sign = 1
        for idx, c in enumerate(cols):
            if a[row][c]:
                total += sign * a[row][c] * rec(row + 1, cols[:idx] + cols[idx + 1:])
            sign = -sign
        memo[key] = total
        return total

    return rec(0, tuple(range(n)))


def minor_gcds(a):
    """d_k = gcd of all k×k minors; elementary divisors are d_k/d_{k-1}."""
    n = len(a)
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(exactmat.det(sub)))
        out.append(g)
    return out


def is_row_hnf(h):
    rows = len(h)
    cols = len(h[0])
    last_pivot = -1
    seen_zero_row = False
    for i in range(rows):
        nz = [j for j in range(cols) if h[i][j] != 0]
        if not nz:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        p = nz[0]
        if p <= last_pivot or h[i][p] <= 0:
            return False
        if any(not 0 <= h[k][p] < h[i][p] for k in range(i)):
            return False
        last_pivot = p
    return True


def _minor_gcd(a, k):
    """gcd of the k×k minors of A: a rank-k row lattice's invariant, which
    a sublattice of index j multiplies by j."""
    g = 0
    for rows in combinations(range(len(a)), k):
        for cols in combinations(range(len(a[0])), k):
            g = gcd(g, exactmat.det([[a[i][j] for j in cols] for i in rows]))
    return g


def _in_row_lattice(v, h):
    """True iff v is an integer combination of the rows of the row echelon
    form h, by back-substitution on its pivots."""
    v = list(v)
    for row in h:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            break
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _assert_same_row_lattice(a, h):
    # every row of A lies in the lattice of H, and that sublattice has the
    # same rank and minor gcd, so index 1: the rows of H lie in A's lattice
    assert all(_in_row_lattice(row, h) for row in a)
    rank = sum(1 for row in h if any(row))
    if rank:
        assert _minor_gcd(a, rank) == _minor_gcd(h, rank)
    assert rank == len(a) or _minor_gcd(a, rank + 1) == 0


def _hnf_cases(rng):
    """Seeded square, tall and rank-deficient integer matrices."""
    for _ in range(12):
        n = rng.randint(1, 4)
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield [[rng.randint(-6, 6) for _ in range(n)]
               for _ in range(n + rng.randint(1, 3))]
        base = [[rng.randint(-5, 5) for _ in range(n + 1)]
                for _ in range(rng.randint(1, n))]
        yield [[sum(rng.randint(-2, 2) * x for x in col) for col in
                zip(*base)] for _ in range(len(base) + rng.randint(1, 2))]


def test_hnf_identity_fixed_point():
    assert exactmat.hnf(exactmat.identity(3)) == exactmat.identity(3)


def test_hnf_positive_diagonal_fixed_point():
    a = [[2, 0], [0, 2]]
    assert exactmat.hnf(a) == a


def test_hnf_general_2x2():
    a = [[1, 2], [3, 4]]
    h = exactmat.hnf(a)
    assert is_row_hnf(h)
    assert h == [[1, 0], [0, 2]]
    _assert_same_row_lattice(a, h)


def test_hnf_random_property():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        h = exactmat.hnf(a)
        assert is_row_hnf(h)
        assert (len(h), len(h[0])) == (rows, cols)
        _assert_same_row_lattice(a, h)


def test_hnf_is_invariant_under_unimodular_rows():
    # H depends on the row lattice alone: U·A spans what A spans
    rng = random.Random(8)
    shapes = set()
    for a in _hnf_cases(rng):
        h = exactmat.hnf(a)
        u = random_unimodular(rng, len(a), ops=4 * len(a))
        assert exactmat.hnf(exactmat.matmul(u, a)) == h
        _assert_same_row_lattice(a, h)
        rank = sum(1 for row in h if any(row))
        shapes.add("square" if len(a) == len(a[0]) == rank
                   else "deficient" if rank < min(len(a), len(a[0]))
                   else "tall")
    assert shapes == {"square", "tall", "deficient"}


def test_hnf_is_idempotent():
    rng = random.Random(9)
    for a in _hnf_cases(rng):
        h = exactmat.hnf(a)
        assert exactmat.hnf(h) == h


def test_snf_single_entry():
    assert exactmat.snf([[9]]).divisors == (9,)


def test_snf_diagonal():
    assert exactmat.snf([[2, 0], [0, 2]]).divisors == (2, 2)


def test_snf_a8_divisors_against_minor_gcd_oracle():
    a8 = a8_gram()
    dec = exactmat.snf(a8)
    assert dec.divisors == (1, 1, 1, 1, 1, 1, 1, 9)
    assert abs(exactmat.det(a8)) == 9
    gcds = minor_gcds(a8)
    expected = []
    prev = 1
    for g in gcds:
        expected.append(g // prev)
        prev = g
    assert list(dec.divisors) == expected


def _snf_random_cases():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        yield [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]


def _snf_lattice_cases():
    """Pipeline-shaped B·Bᵀ (B = I_n with one or two rows replaced, then a
    basis change, n from 5 to 9) and direct sums of A8 and E8."""
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(5, 9)
        b = exactmat.identity(n)
        for i in rng.sample(range(n), rng.randint(1, 2)):
            b[i] = [rng.randint(0, 1) for _ in range(n)]
            b[i][i] = rng.randint(2, 5)
        g = exactmat.matmul(b, exactmat.transpose(b))
        yield basis_change(g, random_unimodular(rng, n, ops=3))
    a8, e8 = a8_gram(), e8_gram()
    for x, y in ((a8, e8), (e8, a8), (a8, a8), (e8, e8)):
        g = [row + [0] * 8 for row in x] + [[0] * 8 + row for row in y]
        yield g
        yield basis_change(g, random_unimodular(rng, 16, ops=12))


def test_snf_random_property():
    # the reference form with both transforms: U·A·V = D
    for a in _snf_random_cases():
        dec = smith_reference(a)
        u = [list(r) for r in dec.u]
        v = [list(r) for r in dec.v]
        assert exactmat.matmul(exactmat.matmul(u, a), v) == [list(r) for r in dec.d]
        assert abs(exactmat.det(u)) == 1
        assert abs(exactmat.det(v)) == 1
        divs = [d for d in dec.divisors if d != 0]
        assert all(d > 0 for d in divs)
        assert all(b % a_ == 0 for a_, b in zip(divs, divs[1:]))
        # zeros only after the nonzero chain
        tail = list(dec.divisors[len(divs):])
        assert all(d == 0 for d in tail)


def test_snf_matches_the_reference_with_both_transforms():
    # same pivots, same operations: the divisors and V are the reference's
    cases = list(_snf_random_cases()) + list(_snf_lattice_cases())
    for a in cases:
        dec, ref = exactmat.snf(a), smith_reference(a)
        assert dec.divisors == ref.divisors
        assert dec.v == ref.v


def test_snf_v_is_unimodular_and_g_v_d_inverse_is_unimodular():
    # on the library's own result: with U·G·V = D, U⁻¹ = G·V·D⁻¹ must be
    # an integer matrix with |det| = 1
    for g in _snf_lattice_cases():
        dec = exactmat.snf(g)
        v = [list(r) for r in dec.v]
        assert abs(exactmat.det(v)) == 1
        gv = exactmat.matmul(g, v)
        assert all(x % d == 0 for row in gv
                   for x, d in zip(row, dec.divisors))
        uinv = [[x // d for x, d in zip(row, dec.divisors)] for row in gv]
        assert abs(exactmat.det(uinv)) == 1


def _random_table_form(rng, n, k):
    """A random symmetric k×k integer form with entries in [0, n), as a
    d-table pairing on (ℤ/n)ᵏ gives; many are degenerate."""
    a = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            a[i][j] = a[j][i] = rng.randrange(n)
    return a


def _valuations_mod(a, p, e):
    """Reference: the p-valuations of the Smith divisors of a over the
    local ring ℤ/pᵉ, e standing for 0.  There an entry of least valuation
    divides its row and its column, so one elimination per pivot does."""
    n = p ** e
    m = [[x % n for x in row] for row in a]

    def val(x):
        v = 0
        while v < e and x % p ** (v + 1) == 0:
            v += 1
        return v

    out = []
    for t in range(len(m)):
        v, i, j = min((val(m[i][j]), i, j) for i in range(t, len(m))
                      for j in range(t, len(m)))
        if v == e:
            return out + [e] * (len(m) - t)
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        inv = pow(m[t][t] // p ** v, -1, n)
        for i in range(t + 1, len(m)):
            q = m[i][t] // p ** v * inv
            m[i] = [(x - q * y) % n for x, y in zip(m[i], m[t])]
        for j in range(t + 1, len(m)):
            q = m[t][j] // p ** v * inv
            for row in m:
                row[j] = (row[j] - q * row[t]) % n
        out.append(v)
    return out


def test_snf_modulus_reads_each_divisor_mod_m():
    # given a modulus M, each divisor is gcd(d_t, M) of the unfolded one,
    # and M after a zero block, so ∏ M/gcd(M, s_i) is unchanged
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 27)
        a = _random_table_form(rng, n, rng.randint(1, 5))
        plain = exactmat.snf(a).divisors
        assert exactmat.snf(a, modulus=n).divisors == tuple(
            gcd(s, n) for s in plain)
    assert exactmat.snf([[3, 0], [0, 0]], modulus=9).divisors == (3, 9)


@pytest.mark.parametrize("p, e, k", [(7, 1, 8), (7, 1, 12), (7, 1, 16),
                                     (2, 1, 24), (101, 1, 8), (101, 1, 12),
                                     (3, 2, 10)])
def test_snf_modulus_bounds_the_hard_table_forms(p, e, k):
    # without a modulus the Smith form of such a form ran past 2 s on
    # nearly every seed; folded it takes milliseconds, and its divisors
    # mod pᵉ are those of the elimination over ℤ/pᵉ
    rng = random.Random(k * p)
    for _ in range(3):
        a = _random_table_form(rng, p ** e, k)
        with cpu_alarm(1):
            dec = exactmat.snf(a, modulus=p ** e)
        got = [next(v for v in range(e + 1) if s == p ** v)
               for s in dec.divisors]
        assert sorted(got) == sorted(_valuations_mod(a, p, e))


def test_det_examples():
    assert exactmat.det([[9]]) == 9
    assert exactmat.det(exactmat.identity(5)) == 1
    assert exactmat.det(a8_gram()) == 9
    assert exactmat.det(a8_gram()) == cofactor_det(a8_gram())


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert exactmat.det(a) == cofactor_det(a)


def test_cholesky_iff_leading_minors_positive():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 4)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        minors_positive = all(
            exactmat.det([row[: k + 1] for row in a[: k + 1]]) > 0
            for k in range(n))
        assert exactmat.is_positive_definite(a) == minors_positive


def test_solve_mod2_roundtrip():
    rng = random.Random(17)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        x_true = [rng.randint(0, 1) for _ in range(cols)]
        b = [sum(a[i][j] * x_true[j] for j in range(cols)) % 2
             for i in range(rows)]
        sol = exactmat.solve_mod2(a, b)
        assert sol is not None
        x, kernel = sol
        assert [sum(a[i][j] * x[j] for j in range(cols)) % 2
                for i in range(rows)] == b
        for k in kernel:
            assert all(sum(a[i][j] * k[j] for j in range(cols)) % 2 == 0
                       for i in range(rows))


def _solve_mod2_reference(a, b):
    """The list version of `exactmat.solve_mod2`: the same pivots and row
    operations on 0/1 lists, so the same particular solution and kernel."""
    rows, cols = len(a), len(a[0]) if a else 0
    m = [[a[i][j] & 1 for j in range(cols)] + [b[i] & 1] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols]:
            return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for f in free:
        k = [0] * cols
        k[f] = 1
        for i, c in enumerate(pivots):
            k[c] = m[i][f]
        kernel.append(k)
    return x, kernel


def _mod2_systems(rng, count, max_rows, max_cols):
    """Seeded systems over F₂, written with integer entries of either sign:
    random ones (many inconsistent), ones with zero rows, and full-rank
    square ones built from a unimodular matrix."""
    for n in range(count):
        kind = n % 3
        if kind == 2:
            size = rng.randint(1, min(max_rows, max_cols))
            a = random_unimodular(rng, size, ops=2 * size)
        else:
            rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
            a = [[rng.randint(-3, 3) for _ in range(cols)]
                 for _ in range(rows)]
            if kind == 1:
                for i in rng.sample(range(rows), rng.randint(1, rows)):
                    a[i] = [2 * rng.randint(-1, 1) for _ in range(cols)]
        yield a, [rng.randint(-3, 3) for _ in a]


def _span_mod2(vectors, cols):
    span = {(0,) * cols}
    for v in vectors:
        span |= {tuple((x + y) % 2 for x, y in zip(s, v)) for s in span}
    return span


def test_solve_mod2_against_brute_force():
    rng = random.Random(29)
    for a, b in _mod2_systems(rng, 300, 6, 8):
        cols = len(a[0])
        solutions = [x for x in product((0, 1), repeat=cols)
                     if all(sum(ai * xi for ai, xi in zip(row, x)) % 2
                            == bi % 2 for row, bi in zip(a, b))]
        null = {x for x in product((0, 1), repeat=cols)
                if all(sum(ai * xi for ai, xi in zip(row, x)) % 2 == 0
                       for row in a)}
        sol = exactmat.solve_mod2(a, b)
        if not solutions:
            assert sol is None
            continue
        x, kernel = sol
        assert tuple(x) in solutions
        # the kernel is a basis of the null space: it spans it and has
        # log₂|null| vectors
        assert _span_mod2(kernel, cols) == null
        assert 2 ** len(kernel) == len(null)


def test_solve_mod2_matches_the_list_version():
    rng = random.Random(31)
    for a, b in _mod2_systems(rng, 600, 9, 9):
        assert exactmat.solve_mod2(a, b) == _solve_mod2_reference(a, b)


def _assert_lll_reduced(gram, t, reduced):
    """T unimodular, T·G·Tᵀ the returned Gram, |μ_kj| ≤ 1/2 and the Lovász
    condition with δ = 3/4, the last two read off an independent LDLᵀ."""
    assert all(type(x) is int for row in t + reduced for x in row)
    assert abs(cofactor_det(t)) == 1
    assert exactmat.matmul(exactmat.matmul(t, gram),
                           exactmat.transpose(t)) == reduced
    mu, b = oracle.rational_cholesky(reduced)
    n = len(gram)
    for k in range(n):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        if k:
            assert b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]


def _conjugate(rng, gram, ops):
    return basis_change(gram, random_unimodular(rng, len(gram), ops=ops))


def test_lll_gram_conjugates_of_standard_lattice():
    rng = random.Random(31)
    for n in range(1, 13):
        g = _conjugate(rng, exactmat.identity(n), 4 * n)
        t, reduced, det = exactmat.lll_gram(g)
        _assert_lll_reduced(g, t, reduced)
        assert det == exactmat.det(g)
        # every reduced basis of Zⁿ seen here is the standard one up to signs
        assert reduced == exactmat.identity(n)


def test_lll_gram_e8_plus_standard():
    rng = random.Random(32)
    for k in range(4):
        g = [row + [0] * k for row in e8_gram()] + \
            [[0] * 8 + [int(i == j) for j in range(k)] for i in range(k)]
        g = _conjugate(rng, g, 30)
        t, reduced, det = exactmat.lll_gram(g)
        _assert_lll_reduced(g, t, reduced)
        assert det == exactmat.det(g)
        assert sorted(reduced[i][i] for i in range(8 + k)) == \
            [1] * k + [2] * 8


def test_lll_gram_random_forms():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 7)
        while True:
            b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if exactmat.det(b):
                break
        g = exactmat.matmul(b, exactmat.transpose(b))
        t, reduced, det = exactmat.lll_gram(g)
        _assert_lll_reduced(g, t, reduced)
        assert det == exactmat.det(g)


def test_lll_gram_rejects_non_definite():
    for g in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]]):
        with pytest.raises(NotPositiveDefinite):
            exactmat.lll_gram(g)


def _random_symmetric(rng, n, lo=-4, hi=4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return a


def test_ldl_matches_rational_cholesky():
    # differential check against the Fraction LDLᵀ: the same L and D on
    # definite input, and the same refusal on indefinite and singular input
    rng = random.Random(41)
    kinds = {"definite": 0, "indefinite": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        if rng.random() < 0.4:  # B·Bᵀ: definite, or singular when B is
            b = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(max(1, n - 1), n))]
            b += [[0] * n] * (n - len(b))
            a = exactmat.matmul(b, exactmat.transpose(b))
        else:
            a = _random_symmetric(rng, n)
        try:
            lo, dd = oracle.rational_cholesky(a)
        except NotPositiveDefinite:
            with pytest.raises(NotPositiveDefinite):
                exactmat.ldl(a)
            kinds["singular" if exactmat.det(a) == 0 else "indefinite"] += 1
            continue
        d, lam = exactmat.ldl(a)
        assert all(type(x) is int for x in d)
        assert all(type(x) is int for row in lam for x in row)
        assert dd == [Fraction(d[k + 1], d[k]) for k in range(n)]
        assert lo == [[Fraction(lam[i][j], d[j + 1]) if j < i else int(i == j)
                       for j in range(n)] for i in range(n)]
        kinds["definite"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_ldl_minors_are_leading_determinants():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 6)
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if exactmat.det(b) == 0:
            continue
        a = exactmat.matmul(b, exactmat.transpose(b))
        d, _ = exactmat.ldl(a)
        assert d == [1] + [cofactor_det([row[:k] for row in a[:k]])
                           for k in range(1, n + 1)]


def test_ldl_rejects_asymmetric():
    with pytest.raises(ValueError):
        exactmat.ldl([[1, 2], [0, 1]])


def _random_matrix(rng, rows, cols, kind, zero_rows=0):
    def entry():
        x = rng.randint(-7, 7)
        return x if kind == "int" else Fraction(x, rng.randint(1, 9))

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), min(zero_rows, rows)):
        m[i] = [0 * x for x in m[i]]
    return m


def _shapes(rng):
    """(m, k, n) for A m×k times B k×n: 1×1, 1×n, n×1 factors and random
    rectangular ones."""
    for n in range(1, 7):
        yield from ((1, 1, 1), (1, 1, n), (1, n, 1), (n, 1, 1), (n, 1, n),
                    (1, n, n), (n, n, 1))
    for _ in range(40):
        yield rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)


def _hnf_like(rng, n):
    """Upper triangular, positive pivots, mostly zero above them."""
    rows = [[rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(n)]
            for _ in range(n)]
    c = rng.choice((2, 3, 6))
    h = exactmat.hnf(rows + [[c * (i == j) for j in range(n)]
                             for i in range(n)])
    return h[:n]


@pytest.mark.parametrize("kind_a, kind_b", [
    ("int", "int"), ("fraction", "fraction"), ("fraction", "int"),
    ("int", "fraction")])
def test_matmul_matches_textbook_product(kind_a, kind_b):
    rng = random.Random(41)
    for m, k, n in _shapes(rng):
        a = _random_matrix(rng, m, k, kind_a, zero_rows=rng.randint(0, m))
        b = _random_matrix(rng, k, n, kind_b, zero_rows=rng.randint(0, k))
        assert exactmat.matmul(a, b) == textbook_matmul(a, b)
    for n in range(1, 10):
        b = _random_matrix(rng, n, n, kind_b)
        for a in (exactmat.identity(n), exactmat.zeros(n, n),
                  _hnf_like(rng, n)):
            assert exactmat.matmul(a, b) == textbook_matmul(a, b)
            assert exactmat.matmul(b, a) == textbook_matmul(b, a)
        assert exactmat.matmul(exactmat.identity(n), b) == b


def test_gram_of_rows_matches_the_triple_product():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _random_symmetric(rng, n, -9, 9)
        for x in (_random_matrix(rng, rng.randint(1, 9), n, "int",
                                 zero_rows=rng.randint(0, 2)),
                  _hnf_like(rng, n), exactmat.identity(n)):
            assert exactmat.gram_of_rows(x, g) == textbook_matmul(
                textbook_matmul(x, g), exactmat.transpose(x))
