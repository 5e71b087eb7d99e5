import contextlib
import random
import signal
from pathlib import Path

import pytest

from latcorr import exactmat

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def a8_gram():
    """Tridiagonal 2/-1 Gram of the A8 root lattice (determinant 9)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i in range(7):
        g[i][i + 1] = g[i + 1][i] = -1
    return g


def e8_gram():
    """Gram of the E8 root lattice: a 7-chain with the last node attached
    to the fifth (determinant 1, even)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i in range(6):
        g[i][i + 1] = g[i + 1][i] = -1
    g[7][4] = g[4][7] = -1
    return g


def one_plus_a8_gram():
    a8 = a8_gram()
    return [[1] + [0] * 8] + [[0] + row for row in a8]


def z_plus_e8_gram():
    e8 = e8_gram()
    return [[1] + [0] * 8] + [[0] + row for row in e8]


def neg_one_a8_gram():
    """The 9x9 negative definite form ⟨-1⟩ ⊕ (-A8)."""
    return [[-x for x in row] for row in one_plus_a8_gram()]


def d12_plus_gram():
    """Gram of D12⁺ = D12 ∪ (D12 + s), s = (½)¹²: odd (s·s = 3) and
    unimodular, with no vector of square 1, so d = −2.  Its basis is s,
    e_i + e_12 for i = 2…11, and 2e_12, here in coordinates doubled."""
    rows = [[1] * 12] + [[2 * (j == i) + 2 * (j == 11) for j in range(12)]
                         for i in range(1, 12)]
    return [[sum(x * y for x, y in zip(r, s)) // 4 for s in rows]
            for r in rows]


def d4_gram():
    return [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def random_unimodular(rng, n, ops=6):
    """A random unimodular matrix built from elementary row operations."""
    t = exactmat.identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1:
            break
        kind = rng.randrange(3)
        if kind == 0:
            sign = rng.choice((-1, 1))
            t[i] = [x + sign * y for x, y in zip(t[i], t[j])]
        elif kind == 1:
            t[i], t[j] = t[j], t[i]
        else:
            t[i] = [-x for x in t[i]]
    return t


def textbook_matmul(a, b):
    """Independent product oracle: (A·B)_ij = Σ_t a_it·b_tj."""
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
            for row in a]


def basis_change(gram, t):
    return exactmat.matmul(exactmat.matmul(t, gram), exactmat.transpose(t))


def random_posdef_gram(rng, max_rank=4, max_disc=36):
    """A random positive definite integral Gram with bounded discriminant.

    Mixes B·Bᵀ forms (square discriminant, always embeddable) with
    unimodular conjugates of small diagonal forms.
    """
    while True:
        n = rng.randint(1, max_rank)
        if rng.random() < 0.5:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            d = exactmat.det(b)
            if d == 0 or d * d > max_disc:
                continue
            return exactmat.matmul(b, exactmat.transpose(b))
        diag = []
        disc = 1
        for _ in range(n):
            d = rng.randint(1, 6)
            if disc * d > max_disc:
                d = 1
            diag.append(d)
            disc *= d
        g = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return basis_change(g, random_unimodular(rng, n, ops=4))


# ROADMAP item 1's reproductions: without a modulus, the Smith form of
# each ran until killed (`lattice info` past 8 s on the first, `lattice
# dset` past 10 s on the second)
DET_36_GRAM = [[1015, -994, 546, -557, -1050, -583],
               [-994, 976, -537, 545, 1029, 572],
               [546, -537, 297, -299, -567, -315],
               [-557, 545, -299, 307, 575, 321],
               [-1050, 1029, -567, 575, 1089, 603],
               [-583, 572, -315, 321, 603, 337]]
# a filling of det 225: I₄ ⊕ diag(15, 15) after 24 row operations
DET_225_GRAM = [[21, 3, 19, -36, 20, -18], [3, 3, 2, -2, 3, -1],
                [19, 2, 18, -34, 18, -17], [-36, -2, -34, 83, -34, 49],
                [20, 3, 18, -34, 20, -17], [-18, -1, -17, 49, -17, 32]]


def index_k_sublattices(count=60, ranks=(6, 7, 8), seed=0):
    """Seeded pairs (A·B·Aᵀ, B) for index-k sublattices of B: B is Iₙ, or
    E8 at rank 8, and A = U·diag(1, …, 1, k)·W with 2 ≤ k ≤ 30 and U, W
    products of 4n elementary operations.  Without a modulus the Smith
    form ran past 1 s on 24 of the 60 at ranks 6–8."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.choice(ranks)
        b = e8_gram() if n == 8 and rng.random() < 0.5 else \
            exactmat.identity(n)
        k = rng.randint(2, 30)
        a = exactmat.matmul(random_unimodular(rng, n, ops=4 * n),
                            exactmat.identity(n)[:-1] +
                            [[0] * (n - 1) + [k]])
        a = exactmat.matmul(a, random_unimodular(rng, n, ops=4 * n))
        pairs.append((basis_change(b, a), b))
    return pairs


def seeded_7_12_table():
    """A d-table on (ℤ/7)¹² with one record and a symmetric pairing of
    entries randrange(7)/7, drawn in row order for i ≤ j from Random(0).
    The form has rank 11 over GF(7), so the pairing is degenerate; its
    Smith form without a modulus runs past 8 s."""
    rng, k = random.Random(0), 12
    pairing = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            pairing[i][j] = pairing[j][i] = f"{rng.randrange(7)}/7"
    return {"orders": [7] * k, "pairing": pairing,
            "d": [{"elem": [0] * k, "value": "0"}],
            "z2_homology_sphere": True}


@contextlib.contextmanager
def cpu_alarm(seconds):
    """Fail the block with TimeoutError after `seconds` of CPU time."""
    def expire(*args):
        raise TimeoutError(f"took more than {seconds} s of CPU")

    old = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def data_dir():
    return DATA_DIR
