"""Lattice correction terms by exact characteristic-coset minimization.

The kernel minimizes vᵀAv over the integer vectors v ≡ x (mod 2) for a
positive definite integer A, by depth-first branch and bound over the
fraction-free LDLᵀ factorization, with the form scaled so that every
centre, term and bound is an integer.  The incumbent bound starts from a
greedy coordinate rounding, so pruning decisions never need re-checking.
`_reduce` splits the basis vectors of square 1 off the input basis, and
again after each split while the rest shows one, then LLL-reduces what is
left and splits again until none remain or what is left is even, so that
a lattice is written Zᵏ ⊕ R with the parts orthogonal and the search only
sees R.  `min_char_square` decides unimodularity first, on the det G
that `make_lattice` read off its LDLᵀ (or det L/[U:L]² for an
overlattice), runs the loop, maps the search's one witness back through
the recorded stages, and keeps the stages and R with its result.  On an
even R, 0 is characteristic and the least square, so nothing is searched
or factored (Elkies' step stops there).  `constrained_min` takes that
reduction of U(M), or runs the loop on U(M) itself, whose constraint set
is 2^r classes of U/2U, and reduces an even R; a class costs its odd unit
coordinates plus one search on R, which is factored once for all its
classes, and the classes are visited by that lower bound until it
reaches the least square found.
Both work on integer Gram matrices and on integer basis rows over one
denominator.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import discgroup, exactmat
from .overlattice import (OverLattice, int_gram,
                          overlattice as build_overlattice)
from .errors import (InputError, InvariantViolation, NotInDualLattice,
                     NotIntegral)
from .lattice import Lattice


@dataclass(frozen=True)
class MinimizationResult:
    minimum: int
    witness: tuple  # rational coordinates in the base-lattice basis
    nodes_visited: int
    # `_reduce`'s (stages, rest) of the integer Gram matrix, which
    # `constrained_min` takes instead of reducing U(M) again
    reduction: tuple = field(default=None, compare=False, repr=False)

    @property
    def d(self):
        """The correction term (min χ² − n)/4, as an exact Fraction."""
        return Fraction(self.minimum - len(self.witness), 4)


@dataclass(frozen=True)
class DSetEntry:
    metabolizer: object  # Subgroup M of the discriminant group
    overlattice: object  # OverLattice U(M)
    # min χ² over U(M); result.d is d_{U(M)}, and result.reduction is U(M)'s
    # one reduction, which `topo.chain_check` hands to `constrained_min`
    result: MinimizationResult


@dataclass(frozen=True)
class DSet:
    entries: tuple  # one DSetEntry per metabolizer
    contains_zero: bool


def _factor(a):
    """What `coset_min` needs of a positive definite integer A, from one
    fraction-free `exactmat.ldl`: (scale, w, e, cols, minors).  A caller
    that searches several classes of one A factors it once."""
    n = len(a)
    d, lam = exactmat.ldl(a)
    scale = lcm(1, *(d[i] * d[i + 1] for i in range(n)))
    # at level i, with C = 2·d_{i+1}·c the scaled centre offset, the
    # scaled term is w[i]·(e[i]·u_i + C)²
    w = [scale // (d[i] * d[i + 1]) for i in range(n)]
    e = [2 * d[i + 1] for i in range(n)]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    return scale, w, e, cols, d


def coset_min(a, x, factored=None):
    """Exact min of vᵀ·A·v over the integer vectors v ≡ x (mod 2), with a
    minimizing v.

    A is a positive definite integer matrix and x an integer vector.
    Returns (value, v, nodes), all ints.  With v = 2u + x, coordinates u_i
    are fixed from the last index down; each level enumerates candidates
    outward from the real centre and prunes once the partial sum reaches
    the incumbent.

    The search runs on integers only: A is factored by the fraction-free
    `exactmat.ldl`, and the form is scaled by lcm(d_i·d_{i+1}) so that
    centres, terms and the incumbent are all integers.  The value is
    divided back once, on return.  `factored`, when given, is `_factor(a)`,
    and A is not factored again.
    """
    n = len(x)
    scale, w, e, cols, d = factored or _factor(a)
    v = [0] * n  # v[j] = 2u_j + x_j for fixed levels

    def centre(i):
        return d[i + 1] * x[i] + sum(map(mul, cols[i], v[i + 1:]))

    # greedy rounding for the initial incumbent
    best_val = 0
    for i in reversed(range(n)):
        c = centre(i)
        ui = (e[i] - 2 * c) // (2 * e[i])  # nearest integer to −c/e[i]
        v[i] = 2 * ui + x[i]
        best_val += w[i] * (e[i] * ui + c) ** 2
    best_v = tuple(v)
    nodes = n

    def dfs(i, partial):
        nonlocal best_val, best_v, nodes
        if i < 0:
            if partial < best_val:
                best_val = partial
                best_v = tuple(v)
            return
        c = centre(i)
        ei, wi = e[i], w[i]
        start = (ei - 2 * c) // (2 * ei)
        for first, step in ((start, -1), (start + 1, 1)):
            ui = first
            while True:
                nodes += 1
                term = wi * (ei * ui + c) ** 2
                if partial + term >= best_val:
                    break
                v[i] = 2 * ui + x[i]
                dfs(i - 1, partial + term)
                ui += step

    dfs(n - 1, 0)
    return best_val // scale, best_v, nodes


def _unimodular_gram(obj):
    """(int Gram, int basis rows H, denominator e) of a positive definite
    unimodular lattice or overlattice; its basis in L-coords is H/e, and H
    is None for a lattice, whose basis is its own.  Unimodularity is read
    off the det that `make_lattice` and `overlattice` carry, so nothing is
    factored or reduced to decide it; an overlattice must be integral too.
    """
    if isinstance(obj, Lattice):
        if obj.det == 1:
            return obj.gram_rows(), None, 1
        kind = "lattice"
    elif isinstance(obj, OverLattice):
        if obj.det == 1:
            try:
                return int_gram(obj), obj.rows, obj.denom
            except NotIntegral:
                pass
        kind = "overlattice"
    else:
        raise InputError(f"unsupported lattice object {type(obj).__name__}")
    raise InputError(f"correction term requires a unimodular {kind}")


def _is_even(gram):
    """True iff every square of the integer lattice is even, which holds
    iff every square of a basis, on the diagonal, is."""
    return not any(row[i] & 1 for i, row in enumerate(gram))


def _reduce(gram):
    """Split off the basis vectors of square 1 of a positive definite
    integer Gram matrix, again after every split, and LLL-reduce only a
    rest with no 1 on its diagonal, until a reduced basis has none or the
    rest is even.

    Returns (stages, rest): the splits (units, rest, C) and the LLL
    transforms T, in order, and the Gram matrix of what is left.  A split
    can leave a projected basis vector of square 1, a unit vector of the
    rest, so the diagonal is read again before anything is reduced.  An
    even rest has no vector of square 1, so the loop stops there, neither
    reduced nor factored.  Each stage is a unimodular change of basis, so
    the lattice is Zᵏ ⊕ R with the two parts orthogonal, k the number of
    units split off and R the lattice of `rest`.
    """
    stages = []
    while True:
        units = [i for i, row in enumerate(gram) if row[i] == 1]
        if units:
            # distinct basis vectors of square 1 are orthogonal (|v·w| ≤ 1,
            # with equality only for v = ±w), so b_j of the rest projects to
            # b_j − Σ c_ji·b_i over the units i, C = gram[rest][units], and
            # the rest's Gram matrix is gram[rest][rest] − C·Cᵀ
            rest = [j for j, row in enumerate(gram) if row[j] != 1]
            c = [[gram[j][i] for i in units] for j in rest]
            stages.append((units, rest, c))
            gram = [[gram[j][k] - sum(map(mul, cj, ck))
                     for k, ck in zip(rest, c)] for j, cj in zip(rest, c)]
        elif (stages and type(stages[-1]) is not tuple) or _is_even(gram):
            # a reduced basis without units, or an even rest (also when
            # nothing is left)
            return stages, gram
        else:
            t, gram = exactmat.lll_gram(gram)
            stages.append(t)


def min_char_square(obj):
    """Exact min of χ² over the characteristic vectors of a unimodular
    positive definite lattice, with a witness in base-lattice coordinates.

    Every basis vector v of square 1 is split off: U = Zv ⊕ v^⊥, and the
    characteristic minimum of Zv is 1, attained at v.  `_reduce` splits
    and LLL-reduces until a reduced basis has no vector of square 1 or the
    rest is even.  An even rest has χ = 0 as a characteristic vector of
    least square, so it adds 0 to the minimum and 0 to the witness without
    a search; any other rest goes to the branch and bound.  Unimodularity
    is decided first, on the det the lattice or overlattice carries;
    when everything splits, U is Zⁿ.  The rest's witness is mapped back
    through the splits and reductions.
    """
    gram, basis, denom = _unimodular_gram(obj)
    reduction = stages, gram = _reduce(gram)
    minimum = sum(len(s[0]) for s in stages if type(s) is tuple)
    v, nodes = [0] * len(gram), 0  # 0 is characteristic on an even rest
    if not _is_even(gram):
        # characteristic vectors of the rest are x0 + 2u with gram·x0 ≡
        # diag(gram) mod 2; gram is invertible mod 2, so x0 is unique
        x0, _ = exactmat.solve_mod2(gram, [row[i] for i, row in
                                           enumerate(gram)])
        val, v, nodes = coset_min(gram, x0)
        minimum += val
    for stage in reversed(stages):
        if type(stage) is tuple:  # v on the rest, 1 − Σ_j v_j·c_ji on unit i
            units, rest, c = stage
            w = dict(zip(rest, v))
            for k, i in enumerate(units):
                w[i] = 1 - sum(vj * cj[k] for vj, cj in zip(v, c))
            v = [w[i] for i in range(len(w))]
        else:  # the rows of T are the reduced basis
            v = [sum(map(mul, v, col)) for col in zip(*stage)]
    if basis is not None:  # an overlattice's basis is H/e
        v = [sum(map(mul, v, col)) for col in zip(*basis)]
    if minimum > len(v):  # Elkies: min χ² ≤ n, so d ≤ 0
        raise InvariantViolation(f"min char square {minimum} > rank {len(v)}")
    return MinimizationResult(
        minimum=minimum, witness=tuple(Fraction(x, denom) for x in v),
        nodes_visited=nodes, reduction=reduction)


def d_set(grp):
    """One correction term d_{U(M)} per metabolizer M of the lattice-derived
    discriminant group grp, with U(M) and its characteristic minimum.  Each
    U(M) is reduced once, and its entry's result keeps that reduction."""
    entries = []
    for m in discgroup.metabolizers_of_group(grp):
        u = build_overlattice(grp, m)
        entries.append(DSetEntry(metabolizer=m, overlattice=u,
                                 result=min_char_square(u)))
    return DSet(tuple(entries), any(e.result.d == 0 for e in entries))


def embeds_in_standard(lat):
    """True iff the lattice embeds in Zⁿ of the same rank (0 ∈ D)."""
    return d_set(discgroup.disc_group(lat)).contains_zero


def _bits(x):
    return sum((b & 1) << j for j, b in enumerate(x))


def _classes_mod2(stages, vectors):
    """Map integer vectors, coordinates in the input basis of `_reduce`,
    mod 2 through its stages.  Returns one (odd, rest) pair of bit masks
    per vector: bit k of odd is its parity on the k-th unit split off, bit
    j of rest its parity on coordinate j of the rest.  The map is linear
    over F₂, so the image of a sum mod 2 is the XOR of the images."""
    odd = [[] for _ in vectors]
    for stage in stages:
        if type(stage) is tuple:  # on unit i, x is x_i + Σ_j x_j·c_ji
            units, rest, c = stage
            for x, bits in zip(vectors, odd):
                bits += [x[i] + sum(x[j] * cj[k] for j, cj in zip(rest, c))
                         for k, i in enumerate(units)]
            vectors = [[x[j] for j in rest] for x in vectors]
        else:  # x = y·T for y in the reduced basis, the rows of T
            tt = exactmat.transpose(stage)
            vectors = [exactmat.solve_mod2(tt, x)[0] for x in vectors]
    return [(_bits(o), _bits(x)) for o, x in zip(odd, vectors)]


def constrained_min(lat, u, reduction=None):
    """Exact min of (χ² − n)/4 over the characteristic covectors χ of L that
    lie in the intermediate lattice U = U(M), i.e. whose projection lies in
    the subgroup M.

    With B = u.rows/u.denom the basis of U, χ = c·B is characteristic for
    L exactly when (B·G_L)ᵀ·c ≡ diag(G_L) mod 2.  Two solutions differ by
    an element of Λ = U ∩ 2L* ⊃ 2U, so the constraint set is the union of
    the 2^r classes c₀ + span(kernel) of U/2U, r the kernel's dimension
    over F₂, and each class's least square is a coset minimum of U's Gram
    matrix.  `_reduce` writes U = Zᵏ ⊕ R with the parts orthogonal (an
    even R, which it leaves unreduced, is LLL-reduced here before its
    classes are searched), so a class costs 1 per odd unit coordinate plus
    its coset minimum on R: 0 for the zero class of R, at least 1 for any
    other.  The classes are visited in increasing order of that lower
    bound, and the walk stops once the bound reaches the least square
    found.

    `reduction`, when given, is `_reduce`'s (stages, rest) of U's integer
    Gram matrix, as `min_char_square` keeps it, and U is not reduced
    again.  U is reduced here when it is not given or U is not integral,
    so any intermediate lattice U may be passed.
    """
    gram = lat.gram_rows()
    n = lat.rank
    h, e = u.rows, u.denom  # B = h/e
    p = exactmat.matmul(h, gram)  # e·B·G_L
    if any(x % e for row in p for x in row):
        raise NotInDualLattice("overlattice is not contained in L*")
    sol = exactmat.solve_mod2([[x // e for x in row]
                               for row in exactmat.transpose(p)],
                              [gram[i][i] for i in range(n)])
    if sol is None:
        # diag(G) ⊥ ker(G mod 2), so L ⊂ U holds characteristic vectors
        raise InvariantViolation("no characteristic covector lies in U")
    c0, kernel = sol
    # U's Gram matrix is H·G_L·Hᵀ/e² = (H·G_L·Hᵀ/g)/denom, in lowest terms
    g = gcd(e * e, *(x for row in u.scaled_gram for x in row))
    denom = e * e // g
    if reduction is None or denom != 1:  # none given, or U is not integral
        reduction = _reduce([[x // g for x in row] for row in u.scaled_gram])
    stages, rest = reduction
    if rest and _is_even(rest):  # `_reduce` leaves an even rest unreduced
        t, rest = exactmat.lll_gram(rest)
        stages = stages + [t]  # a handed-over reduction stays as it was
    factored = None  # R's LDLᵀ, made for the first class searched
    classes = _classes_mod2(stages, [c0] + kernel)
    cosets = classes[:1]  # c₀ + span(kernel), formed by XOR
    for ko, kr in classes[1:]:
        cosets += [(o ^ ko, r ^ kr) for o, r in cosets]
    best = None
    for bound, o, r in sorted((o.bit_count() + (r != 0), o, r)
                              for o, r in cosets):
        if best is not None and bound >= best:
            break
        val = o.bit_count()
        if r:
            factored = factored or _factor(rest)
            val += coset_min(rest, [r >> j & 1 for j in range(len(rest))],
                             factored)[0]
        best = val if best is None else min(best, val)
    return (Fraction(best, denom) - n) / 4
