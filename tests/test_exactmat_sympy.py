"""Differential tests of the exact kernels against sympy's normal forms and
LLL; skipped when sympy is not installed."""

import pytest

from latcorr import exactmat
from latcorr.lattice import make_lattice

from conftest import cpu_alarm, index_k_sublattices

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import (hermite_normal_form,  # noqa: E402
                                        smith_normal_form)
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _matrix(rng, rows, cols):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def _ints(m):
    return [[int(x) for x in row] for row in m.tolist()]


def test_snf_divisors_match_sympy(rng):
    for _ in range(200):
        a = _matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        s = smith_normal_form(sympy.Matrix(a), domain=sympy.ZZ)
        expect = [abs(int(s[i, i])) for i in range(min(s.shape))]
        assert list(exactmat.snf(a).divisors) == expect, a


def test_snf_modulo_det_matches_sympy_on_index_k_sublattices():
    # the family on which the Smith form without a modulus ran past 3 s:
    # modulo det G, taken from make_lattice, the divisors are sympy's
    for gram, _ in index_k_sublattices():
        lat = make_lattice(gram)
        with cpu_alarm(1):
            divisors = exactmat.snf(gram, modulus=lat.det).divisors
        s = smith_normal_form(sympy.Matrix(gram), domain=sympy.ZZ)
        assert list(divisors) == [abs(int(s[i, i])) for i in range(len(gram))]


def test_hnf_matches_sympy(rng):
    # sympy's HNF is the column form with pivots in the last columns; on a
    # full-column-rank A, reversing the columns of A before and the rows
    # and columns of the result after turns it into the row HNF
    def rev_cols(m):
        return [row[::-1] for row in m]

    checked = 0
    while checked < 300:
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        a = _matrix(rng, rows, cols)
        if sympy.Matrix(a).rank() != cols:
            continue
        checked += 1
        s = _ints(hermite_normal_form(
            sympy.Matrix(exactmat.transpose(rev_cols(a)))))
        expect = rev_cols(exactmat.transpose(s))[::-1]
        h = exactmat.hnf(a)
        assert h[:cols] == expect, a
        assert not any(x for row in h[cols:] for x in row)


def test_lll_gram_matches_sympy(rng):
    # T·B, with T from lll_gram(B·Bᵀ), is sympy's LLL basis (δ = 3/4) of B
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        b = _matrix(rng, n, n)
        if exactmat.det(b) == 0:
            continue
        checked += 1
        g = exactmat.gram_of_rows(b, exactmat.identity(n))
        t, reduced = exactmat.lll_gram(g)
        assert exactmat.det(reduced) == exactmat.det(g)
        assert abs(exactmat.det(t)) == 1
        reduced = DomainMatrix([[sympy.ZZ(x) for x in row] for row in b],
                               (n, n), sympy.ZZ).lll()
        assert exactmat.matmul(t, b) == _ints(reduced.to_Matrix()), b
