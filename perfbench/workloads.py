"""Seeded inputs and query streams for the three benchmark workloads.

A workload is a pool of rounds. A round holds one instance of each of the
workload's templates, in a seeded order, so every whole number of rounds has
the same mix of query shapes. The seed changes the instances (basis changes,
the coordinates a group is presented in, d-table values), never the mix;
that keeps the cost of a run steady from seed to seed.

Every input is written to a file under the run's input directory, and the
program sees only those files (plus the bundled `data/` examples). The one
exception is `subgroups_of_order`, a library-only entry point: its group is
written to a file and built from it during set-up, and a query is one call.

Why each workload exists, and which shapes were left out, is in README.md.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("groups", "unimodular", "pipeline")

# Rounds in a workload's pool. A timed run cycles through whole rounds; the
# pool is sized so that a run at today's speed does not reach its end.
POOL_ROUNDS = {"groups": 16, "unimodular": 24, "pipeline": 32}

# Rounds the traced run executes, so that its work counters are fixed.
TRACE_ROUNDS = {"groups": 1, "unimodular": 1, "pipeline": 2}

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@dataclass
class Query:
    """One query of a workload's stream.

    `argv` is the `latcorr` command line, or None for a library call, in
    which case `call` names it. `expect` holds the answers known by
    construction; `source` holds in-memory copies of the inputs, for the
    checker.
    """

    qid: str
    template: str
    argv: list = None
    call: tuple = None
    expect: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)


# ---- integer matrices -------------------------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diag(ds):
    return [[d if i == j else 0 for j, _ in enumerate(ds)]
            for i, d in enumerate(ds)]


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def chain_gram(n, attach=None):
    """Gram of a root lattice on a path of n nodes (2 on the diagonal, -1
    along the path), with node n-1 attached to `attach` instead of n-2."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        j = i + 1 if (attach is None or i + 1 < n - 1) else None
        if j is not None:
            g[i][j] = g[j][i] = -1
    if attach is not None:
        g[n - 1][attach] = g[attach][n - 1] = -1
    return g


E8 = chain_gram(8, attach=4)   # determinant 1, even
A8 = chain_gram(8)             # determinant 9
A2 = chain_gram(2)             # determinant 3


def unimodular(rng, n, ops):
    """A random unimodular matrix from `ops` elementary row operations."""
    t = identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            sign = rng.choice((-1, 1))
            t[i] = [x + sign * y for x, y in zip(t[i], t[j])]
        elif kind == 1:
            t[i], t[j] = t[j], t[i]
        else:
            t[i] = [-x for x in t[i]]
    return t


def conjugate(rng, gram, ops=None):
    """T·G·Tᵀ for a random unimodular T: the same lattice in another basis."""
    n = len(gram)
    t = unimodular(rng, n, n if ops is None else ops)
    return matmul(matmul(t, gram), transpose(t))


# ---- files ---------------------------------------------------------------

def _frac(x):
    return str(Fraction(x))


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def _table_obj(orders, pairing, values):
    return {"orders": list(orders),
            "pairing": [[_frac(x) for x in row] for row in pairing],
            "d": [{"elem": list(e), "value": _frac(v)} for e, v in values],
            "z2_homology_sphere": all(d % 2 == 1 for d in orders)}


def _elements(orders):
    out = [()]
    for d in orders:
        out = [e + (a,) for e in out for a in range(d)]
    return out


class _Writer:
    """Names and writes the input files of one round."""

    def __init__(self, root, rnd):
        self.root = root
        self.rnd = rnd
        self.slot = 0

    def path(self, kind):
        self.slot += 1
        return self.root / f"r{self.rnd:03d}-{self.slot:02d}-{kind}.json"

    def lattice(self, gram):
        p = self.path("lattice")
        _write(p, {"gram": gram})
        return str(p)

    def table(self, obj):
        p = self.path("dtable")
        _write(p, obj)
        return str(p)


# ---- groups ----------------------------------------------------------------

# Finite abelian groups as diagonal forms diag(orders): the pairing is
# -1/d on each cyclic factor. The metabolizer count is an isometry
# invariant, so it is known whatever basis the lattice is presented in.
GROUP_SHAPES = {
    "2^6": ([2] * 6, 15), "4^4": ([4] * 4, 3), "2^2+4^2": ([2, 2, 4, 4], 3),
    "3^4": ([3] * 4, 8), "3^2+9^2": ([3, 3, 9, 9], 0),
    "5^4": ([5] * 4, 12), "5+125": ([5, 125], 2), "13^2": ([13, 13], 2),
    "5^2": ([5, 5], 2), "2^4": ([2] * 4, 3), "9^2": ([9, 9], 1),
    "3^3": ([3, 3, 3], 0),
}

# (way, shape, conjugated); way is how the group reaches latcorr.
GROUP_TEMPLATES = [
    ("metabolizers", "2^6", True), ("metabolizers", "4^4", False),
    ("metabolizers", "5^4", True), ("metabolizers", "3^4", True),
    ("metabolizers", "2^2+4^2", True), ("metabolizers", "3^2+9^2", True),
    ("metabolizers", "5+125", True), ("metabolizers", "13^2", False),
    ("metabolizers", "3^3", True),
    ("rb-obstruction", "5^4", True), ("rb-obstruction", "3^4", True),
    ("rb-obstruction", "2^2+4^2", True), ("rb-obstruction", "13^2", True),
    ("rb-obstruction", "5+125", True), ("rb-obstruction", "3^2+9^2", True),
    ("filling-obstruction", "4^4", True),
    ("filling-obstruction", "3^4", True),
    ("filling-obstruction", "5^2", True), ("filling-obstruction", "9^2", True),
    ("filling-obstruction", "2^4", True),
]

# subgroups_of_order(g, m) on the groups of diag(orders): (orders, m, count).
SUBGROUP_TEMPLATES = [
    ((6, 6), 6, 12), ((6, 6), 12, 4), ((6, 6), 18, 3),
    ((2, 2, 2, 2), 4, 35), ((5, 5), 5, 6), ((4, 4), 4, 7),
    ((10, 10), 10, 18),
]


def _table_values(rng, orders, zero_share, positive):
    """Seeded d-values: each element gets 0 with probability `zero_share`,
    otherwise a rational with denominator dividing the group order."""
    n = 1
    for d in orders:
        n *= d
    values = []
    for e in _elements(orders):
        if rng.random() < zero_share:
            v = Fraction(0)
        else:
            v = Fraction(rng.randint(1, 4 * n), n)
            if not positive and rng.random() < 0.5:
                v = -v
        values.append((e, v))
    return values


def _group_round(rng, w, latcorr):
    out = []
    for way, shape, conj in GROUP_TEMPLATES:
        ds, count = GROUP_SHAPES[shape]
        gram = conjugate(rng, diag(ds)) if conj else diag(ds)
        name = f"{way}:{shape}"
        if way == "metabolizers":
            path = w.lattice(gram)
            out.append(Query(name, name,
                             argv=["lattice", "metabolizers", path],
                             expect={"exit": 0, "count": count},
                             source={"gram": gram}))
            continue
        grp = latcorr.discgroup.disc_group(latcorr.lattice.make_lattice(gram))
        if way == "rb-obstruction":
            values = _table_values(rng, grp.orders, 0.85, positive=False)
        else:
            values = _table_values(rng, grp.orders, 0.1, positive=True)
        table = _table_obj(grp.orders, grp.pairing, values)
        path = w.table(table)
        out.append(Query(name, name, argv=["topo", way, "--dtable", path],
                         expect={"count": count}, source={"table": table}))
    for orders, m, count in SUBGROUP_TEMPLATES:
        gram = conjugate(rng, diag(list(orders)))
        grp = latcorr.discgroup.disc_group(latcorr.lattice.make_lattice(gram))
        table = _table_obj(grp.orders, grp.pairing, [])
        path = w.table(table)
        name = f"subgroups_of_order:{'x'.join(map(str, orders))}@{m}"
        out.append(Query(name, name, call=("subgroups_of_order", path, m),
                         expect={"count": count}, source={"table": table}))
    return out


# ---- unimodular ------------------------------------------------------------

# (name, gram, d, has norm-1 vectors). d is 0 for I_n and -2 per E8 summand.
# Thirty lattices a round, in cost blocks: ten cheap ones (E8 sums, I8, I9),
# then I10, I11 and I12 ten, five and five times. The median query then
# falls in the middle of the I10 block and p90 in the middle of the I12
# block, not on the edge between two shapes of different cost.
UNIMODULAR_TEMPLATES = (
    [("E8", E8, -2, False)] * 2
    + [("E8+E8", direct_sum(E8, E8), -4, False)] * 2
    + [(f"E8+I{k}", direct_sum(E8, identity(k)), -2, True)
       for k in (1, 2, 3, 4)]
    + [(f"I{n}", identity(n), 0, True)
       for n in [8, 9] + [10] * 10 + [11] * 5 + [12] * 5]
)


def _unimodular_round(rng, w, latcorr):
    out = []
    for name, base, d, norm1 in UNIMODULAR_TEMPLATES:
        gram = conjugate(rng, base)
        path = w.lattice(gram)
        out.append(Query(f"dinv:{name}", f"dinv:{name}",
                         argv=["lattice", "dinv", path],
                         expect={"exit": 0, "d": d, "norm1": norm1},
                         source={"gram": gram}))
    return out


# ---- pipeline --------------------------------------------------------------

def _embedded(n, rows):
    """B·Bᵀ for B = I_n with the given rows replaced: the images of the
    basis in Zⁿ, so the lattice embeds by construction."""
    b = identity(n)
    for i, row in rows.items():
        b[i] = row
    return matmul(b, transpose(b))


# (name, gram, kind): "embeds" forms embed by construction; "a8" is
# <1>+A8 with D = {-2}; "nomet" forms have an anisotropic discriminant form,
# so no metabolizer and no embedding. The median query falls among the
# 30-55 ms ones and p90 among the 90-135 ms ones, not on the edge of a
# block of one shape. Discriminants stay at or below 144: `topo chain` on
# larger ones (225, 289, 400) has a heavy tail under a basis change, one
# query taking 2.5 to 22 s where the median is 20 to 40 ms.
PIPELINE_TEMPLATES = [
    ("bbt5", _embedded(5, {4: [1, 1, 0, 0, 3]}), "embeds"),
    ("bbt6", _embedded(6, {5: [1, 0, 1, 1, 0, 5]}), "embeds"),
    ("bbt6-2", _embedded(6, {4: [1, 0, 1, 0, 2, 0],
                             5: [0, 1, 0, 1, 1, 3]}), "embeds"),
    ("bbt6-3", _embedded(6, {4: [1, 0, 1, 0, 3, 0],
                             5: [0, 1, 0, 1, 1, 4]}), "embeds"),
    ("bbt7", _embedded(7, {5: [0, 1, 0, 1, 0, 2, 0],
                           6: [1, 0, 1, 0, 0, 1, 2]}), "embeds"),
    ("bbt7-2", _embedded(7, {6: [1, 1, 0, 1, 0, 1, 4]}), "embeds"),
    ("bbt8", _embedded(8, {7: [1, 1, 0, 1, 0, 0, 1, 4]}), "embeds"),
    ("bbt8-2", _embedded(8, {7: [1, 0, 1, 0, 0, 1, 0, 3]}), "embeds"),
    ("bbt9", _embedded(9, {8: [0, 1, 0, 1, 0, 0, 1, 0, 3]}), "embeds"),
    ("one+a8", direct_sum([[1]], A8), "a8"),
    ("i4+3^2", direct_sum(identity(4), diag([3, 3])), "nomet"),
    ("i3+a2+a2", direct_sum(identity(3), A2, A2), "nomet"),
]

# A milder basis change than the other workloads use: with more row
# operations the chain's coset minimizations grow a tail of slow instances.
PIPELINE_CONJUGATION_OPS = 3

DATA_QUERIES = [
    (["lattice", "info", "nine.json"], 0),
    (["lattice", "embed-check", "nine.json"], 0),
    (["lattice", "embed-check", "neg_one_a8.json"], 2),
    (["lattice", "dset", "neg_one_a8.json"], 0),
    (["lattice", "metabolizers", "four.json"], 0),
    (["topo", "linking-form", "four.json"], 0),
    (["topo", "rb-obstruction", "--dtable", "s39_t23.json"], 2),
    (["topo", "filling-obstruction", "--dtable", "z_example.json"], 2),
    (["topo", "filling-obstruction", "--dtable", "l41.json"], 0),
    (["topo", "chain", "--filling", "nine.json", "--dtable", "s39_t23.json"],
     0),
]


def _chain_table(rng, fp, rank, style):
    """A complete d-table on the boundary of a filling. "low" values lie
    below -rank/4, the least a constrained minimum can be, so the chain
    holds; "high" values are positive, so it fails at every metabolizer;
    "mixed" values straddle both. The chain reads a negative definite
    filling's table with its signs reversed, so those values are stored
    negated."""
    sign = -1 if fp.negated else 1
    lo = Fraction(-rank, 4)
    values = []
    for e in _elements(fp.group.orders):
        x = Fraction(rng.randint(0, 64), 16)
        if style == "low":
            v = lo - 1 - x
        elif style == "high":
            v = 1 + x
        else:
            v = lo - 1 + x
        values.append((e, sign * v))
    return _table_obj(fp.group.orders, fp.boundary_pairing, values)


def _pipeline_round(rng, w, latcorr):
    out = []
    for name, base, kind in PIPELINE_TEMPLATES:
        gram = conjugate(rng, base, ops=PIPELINE_CONJUGATION_OPS)
        negated = rng.random() < 0.5
        if negated:
            gram = [[-x for x in row] for row in gram]
        path = w.lattice(gram)
        expect = {"kind": kind, "negated": negated}
        src = {"gram": gram}
        for cmd in ("embed-check", "dset"):
            out.append(Query(f"{cmd}:{name}", f"{cmd}:{name}",
                             argv=["lattice", cmd, path], expect=dict(expect),
                             source=src))
        style = rng.choice(("low", "high", "mixed"))
        fp = latcorr.topo.linking_form_of_filling(gram)
        table = _chain_table(rng, fp, len(gram), style)
        tpath = w.table(table)
        out.append(Query(f"chain:{name}", f"chain:{name}",
                         argv=["topo", "chain", "--filling", path,
                               "--dtable", tpath],
                         expect=dict(expect, style=style),
                         source={"gram": gram, "table": table}))
    for argv, code in DATA_QUERIES:
        files = [str(DATA_DIR / a) if a.endswith(".json") else a
                 for a in argv]
        name = "data:" + " ".join(argv[1:])
        out.append(Query(name, name, argv=files, expect={"exit": code}))
    return out


ROUND_BUILDERS = {"groups": _group_round, "unimodular": _unimodular_round,
                  "pipeline": _pipeline_round}


def build(workload, seed, root, latcorr, after_round=None):
    """Write the workload's inputs under `root` and return its rounds, each
    a list of Query. The same (workload, seed) gives the same files.
    `after_round`, if given, is called after each round is written."""
    rng = random.Random(f"latcorr-bench:{workload}:{seed}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rounds = []
    for r in range(POOL_ROUNDS[workload]):
        queries = ROUND_BUILDERS[workload](rng, _Writer(root, r), latcorr)
        rng.shuffle(queries)
        for q in queries:
            q.qid = f"r{r:03d}:{q.qid}"
            if q.argv is not None:
                q.argv = q.argv + ["--format", "json", "--threads", "1"]
        rounds.append(queries)
        if after_round is not None:
            after_round()
    return rounds
