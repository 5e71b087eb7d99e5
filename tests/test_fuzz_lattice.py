"""Fuzzing of the lattice loader and of `topo chain` on generated Gram files.

Whatever the file holds, `lattice info`, `dset`, `dinv`, `embed-check`,
`topo linking-form` and `topo chain` end in a result (exit 0, 2 or 3, JSON
on stdout) or in exit 1 with empty stdout and one `error: <Code>: <message>`
line on stderr, never in a traceback.  The forms are T·D·Tᵀ for a unit
lower triangular T and a diagonal D of small determinant, so that many
reach the metabolizer search; the rest are negated, made indefinite or
singular through D, or carry a fault in the file: a non-list, a ragged or
asymmetric matrix, a non-integer entry, or no `gram` object at all.
`topo chain` takes a d-table keyed by the filling's own boundary group,
or a fixed table of another group.  The runs are derandomized and keep no
example database, so the test is deterministic.
"""

import itertools
import json
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from latcorr import exactmat, topo
from latcorr.lattice import make_lattice

from conftest import DATA_DIR, cpu_alarm, index_k_sublattices
from fuzzing import run_json

DIAG = (1, 1, 1, 2, 3, 4, 5, 9)
VALUES = st.one_of(st.sampled_from(["0", "2", "-1/2", "1/9", "-2/9", "1/4"]),
                   st.integers(-2, 2))
JUNK = st.one_of(st.none(), st.booleans(), st.floats(-2, 2),
                 st.sampled_from(["", "x", "1"]), st.integers(-2, 2),
                 st.lists(st.integers(-1, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["gram", "x"]),
                                 st.integers(), max_size=1))
FAULTS = (None, None, None, "negative", "indefinite", "singular", "ragged",
          "asymmetric", "entry", "row", "gram", "file", "text")


def _form(t, diag):
    n = len(diag)
    return [[sum(t[i][k] * diag[k] * t[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


@st.composite
def gram_files(draw):
    """(file text, the definite form it holds or None)."""
    n = draw(st.integers(1, 4))
    diag = []
    for _ in range(n):
        d = draw(st.sampled_from(DIAG))
        diag.append(d if prod(diag) * d <= 36 else 1)
    t = [[draw(st.integers(-2, 2)) if j < i else int(i == j)
          for j in range(n)] for i in range(n)]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "negative":
        diag = [-d for d in diag]
    elif fault == "indefinite":
        diag[-1] = -diag[-1]
    elif fault == "singular":
        diag[draw(st.integers(0, n - 1))] = 0
    gram = _form(t, diag)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "ragged":
        gram[i].pop()
    elif fault == "asymmetric" and n > 1:
        gram[i][(i + 1) % n] += 1
    elif fault == "entry":
        gram[i][j] = draw(JUNK)
    elif fault == "row":
        gram[i] = draw(JUNK)
    elif fault == "gram":
        gram = draw(JUNK)
    if fault == "file":
        return json.dumps(draw(JUNK)), None
    if fault == "text":
        return json.dumps({"gram": gram})[:-1], None
    definite = fault in (None, "negative")
    return json.dumps({"gram": gram}), gram if definite else None


def _table_of(gram, draw):
    """A complete d-table on the boundary of the filling with this form,
    constant or not."""
    filling = topo.linking_form_of_filling(gram)
    orders = list(filling.group.orders)
    same = draw(st.one_of(st.none(), VALUES))
    return {"orders": orders,
            "pairing": [[str(x) for x in row]
                        for row in filling.boundary_pairing],
            "d": [{"elem": list(e),
                   "value": draw(VALUES) if same is None else same}
                  for e in itertools.product(*(range(d) for d in orders))],
            "z2_homology_sphere": all(d % 2 for d in orders)}


@st.composite
def chain_inputs(draw):
    """(Gram file text, d-table file text) for `topo chain`."""
    text, gram = draw(gram_files())
    if gram is None or not draw(st.integers(0, 4)):
        return text, (DATA_DIR / "s39_t23.json").read_text()
    return text, json.dumps(_table_of(gram, draw))


@pytest.mark.parametrize("argv", [["lattice", "info"], ["lattice", "dset"],
                                  ["lattice", "dinv"],
                                  ["lattice", "embed-check"],
                                  ["topo", "linking-form"]], ids="-".join)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=gram_files())
def test_any_gram_file_ends_in_a_result_or_one_error_line(tmp_path_factory,
                                                          argv, case):
    path = tmp_path_factory.getbasetemp() / "fuzz_gram.json"
    path.write_text(case[0])
    run_json(argv + [str(path)])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=chain_inputs())
def test_any_chain_input_ends_in_a_verdict_or_one_error_line(
        tmp_path_factory, case):
    filling = tmp_path_factory.getbasetemp() / "fuzz_filling.json"
    table = tmp_path_factory.getbasetemp() / "fuzz_chain_table.json"
    filling.write_text(case[0])
    table.write_text(case[1])
    code, payload = run_json(["topo", "chain", "--filling", str(filling),
                              "--dtable", str(table)])
    if code != 1:
        assert payload["verdict"] in ("obstructed", "unobstructed")


def test_index_k_sublattices_have_a_bounded_smith_form(tmp_path):
    # seeded index-k sublattices A·B·Aᵀ of Iₙ and E8 at ranks 6–8, on 24
    # of which the Smith form without a modulus ran past 1 s: modulo det G
    # it ends at once, V is unimodular, each column cᵢ of V is a dual
    # vector times dᵢ (G·cᵢ ≡ 0 mod dᵢ), and `lattice info` and `dset`
    # end in a result; a sublattice of Iₙ embeds
    path = tmp_path / "sublattice.json"
    for gram, base in index_k_sublattices():
        lat = make_lattice(gram)
        with cpu_alarm(1):
            dec = exactmat.snf(gram, modulus=lat.det)
        v = [list(row) for row in dec.v]
        assert abs(exactmat.det(v)) == 1
        assert prod(dec.divisors) == lat.det
        gv = exactmat.matmul(gram, v)
        for i, d in enumerate(dec.divisors):
            assert all(row[i] % d == 0 for row in gv)
        path.write_text(json.dumps({"gram": gram}))
        with cpu_alarm(2):
            for command in ("info", "dset"):
                code, payload = run_json(["lattice", command, str(path)])
                assert code == 0
        if base == exactmat.identity(lat.rank):
            assert payload["contains_zero"]
