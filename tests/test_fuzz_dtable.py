"""Fuzzing of the d-table commands on generated table files.

Whatever the table holds, `topo rb-obstruction` and `topo
filling-obstruction` end in a verdict (exit 0, 2 or 3, JSON on stdout) or
in exit 1 with empty stdout and one `error: <Code>: <message>` line on
stderr, never in a traceback. The tables are mostly well formed, so that
many reach the metabolizer search; the rest carry junk where numbers,
lists or flags belong. The runs are derandomized and keep no example
database, so the test is deterministic.
"""

import itertools
import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fuzzing import run_json

CHAINS = ([], [2], [3], [4], [9], [2, 2], [2, 4], [3, 3], [5, 5],
          [2, 2, 2], [3, 9])
VALUES = st.one_of(st.sampled_from(["0", "2", "-1/2", "1/9", "-2/9"]),
                   st.integers(-2, 2))
JUNK = st.one_of(st.none(), st.booleans(), st.floats(-2, 2),
                 st.sampled_from(["", "x", "1/0", "1/2/3"]),
                 st.lists(st.integers(-1, 3), max_size=2))


@st.composite
def tables(draw):
    """A well-formed table on a random order list, then at most one fault:
    junk or nothing in place of a key, an entry, a value or an element, or
    a record dropped or repeated."""
    orders = draw(st.sampled_from(CHAINS) if draw(st.integers(0, 3))
                  else st.lists(st.integers(-1, 6), max_size=3))
    k = len(orders)
    # entries in (1/d_i)Z for i <= j fit the orders of a divisibility chain;
    # a unit on the diagonal and 0 off it make a linking form
    pairing = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            d = max(orders[i], 1)
            units = [a for a in range(1, d) if gcd(a, d) == 1] or [0]
            a = draw(st.one_of(st.sampled_from(units if i == j else [0]),
                               st.integers(0, d - 1)))
            pairing[i][j] = pairing[j][i] = f"{a}/{d}"
    records = [{"elem": list(e), "value": draw(VALUES)}
               for e in itertools.product(*(range(max(d, 1))
                                            for d in orders))]
    table = {"orders": orders, "pairing": pairing, "d": records,
             "z2_homology_sphere": all(d % 2 for d in orders)}
    fault = draw(st.sampled_from(
        [None, None, None, "key", "entry", "value", "elem", "drop",
         "repeat"]))
    if fault == "key":
        key = draw(st.sampled_from(sorted(table)))
        if draw(st.booleans()):
            del table[key]
        else:
            table[key] = draw(JUNK)
    elif fault == "entry" and k:
        pairing[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = \
            draw(JUNK)
    elif fault in ("value", "elem"):
        draw(st.sampled_from(records))[fault] = draw(JUNK)
    elif fault == "drop":
        records.remove(draw(st.sampled_from(records)))
    elif fault == "repeat":
        records.append(draw(st.sampled_from(records)))
    return table


@pytest.mark.parametrize("command", ["rb-obstruction", "filling-obstruction"])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(table=tables())
def test_any_dtable_ends_in_a_verdict_or_one_error_line(tmp_path_factory,
                                                        command, table):
    path = tmp_path_factory.getbasetemp() / "fuzz_table.json"
    path.write_text(json.dumps(table))
    code, payload = run_json(["topo", command, "--dtable", str(path)])
    if code != 1:
        assert payload["verdict"] in (
            "obstructed", "unobstructed", "inconclusive")
