"""Lens spaces as a test bed: L(p, q) bounds the linear plumbing of
p/q = [a_1, ..., a_n]⁻ (Hirzebruch–Jung), whose intersection form, negated
to be positive definite, has a_i on the diagonal and −1 next to it."""

from math import gcd


def hj_expansion(p, q):
    """[a_1, ..., a_n], all a_i ≥ 2, with p/q = a_1 − 1/(a_2 − 1/(... a_n))
    for coprime p > q ≥ 1."""
    if not (p > q >= 1 and gcd(p, q) == 1):
        raise ValueError(f"need coprime p > q >= 1, got {p}/{q}")
    out = []
    while q:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def plumbing_gram(p, q):
    """The positive definite Gram matrix of the linear plumbing of p/q;
    its determinant is p."""
    a = hj_expansion(p, q)
    n = len(a)
    return [[a[i] if i == j else -1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]


def casson_harer():
    """(m, k, p, q) for the lens spaces L(m², mk − 1) with 2 ≤ m ≤ 11,
    1 ≤ k < m and gcd(m, k) = 1, each of which bounds a rational ball."""
    return [(m, k, m * m, m * k - 1) for m in range(2, 12)
            for k in range(1, m) if gcd(m, k) == 1]
