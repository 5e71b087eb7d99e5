import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from latcorr import corrterm, discgroup, lattice as lattice_mod, topo
from latcorr.errors import (GroupMismatch, IncompleteTable, InputError,
                            InvariantViolation)

from conftest import DATA_DIR, d4_gram, random_posdef_gram


def _write_table(tmp_path, orders, pairing, values, z2):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({
        "orders": list(orders),
        "pairing": pairing,
        "d": [{"elem": list(e), "value": v} for e, v in values],
        "z2_homology_sphere": z2,
    }))
    return str(p)


def _nine_table(tmp_path, vals):
    values = [((i,), vals[i]) for i in range(9)]
    return _write_table(tmp_path, (9,), [["8/9"]], values, True)


def test_load_dtable_s39():
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    assert table.group.orders == (9,)
    assert table.z2_homology_sphere
    assert table.complete
    assert table.values[(0,)] == 2
    assert table.values[(3,)] == 0
    assert table.values[(4,)] == Fraction(-2, 9)


def test_load_dtable_validation(tmp_path):
    good = {"orders": [9], "pairing": [["8/9"]],
            "d": [{"elem": [i], "value": "0"} for i in range(9)],
            "z2_homology_sphere": True}
    for mutate, exc in (
            (lambda o: o.pop("orders"), InputError),
            (lambda o: o.__setitem__("z2_homology_sphere", False), InputError),
            (lambda o: o["d"].append({"elem": [0], "value": "1"}), InputError),
            (lambda o: o["d"].append({"elem": [9], "value": "1"}), InputError),
            (lambda o: o.__setitem__("pairing", [["9/8"]]), InputError),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        p = tmp_path / "t.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(exc):
            topo.load_dtable(str(p))


def test_dtable_group_is_built_once(tmp_path, monkeypatch):
    # load_dtable hands the orders and pairing as read to the one check in
    # group_from_table, keeps that group, and both table-only obstructions
    # search it instead of rebuilding it
    calls = []
    real = discgroup.group_from_table

    def counting(orders, pairing):
        calls.append(orders)
        return real(orders, pairing)

    monkeypatch.setattr(discgroup, "group_from_table", counting)
    table = topo.load_dtable(_nine_table(tmp_path, ["0"] * 9))
    assert table.group.form == ((8,),)
    topo.rb_correction_obstruction(table)
    topo.definite_filling_obstruction(table)
    assert calls == [[9]]  # the orders as read from the file


def test_linking_form_positive_filling():
    filling = topo.linking_form_of_filling([[9]])
    assert not filling.negated
    assert filling.group.orders == (9,)
    assert filling.boundary_pairing == ((Fraction(8, 9),),)


def test_linking_form_negative_filling():
    filling = topo.linking_form_of_filling([[-9]])
    assert filling.negated
    assert filling.group.orders == (9,)
    # pairing flips sign relative to the negated lattice's form
    assert filling.boundary_pairing == ((Fraction(1, 9),),)


def test_rb_obstruction_s39():
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    rep = topo.rb_correction_obstruction(table)
    assert rep.verdict == "obstructed"
    assert len(rep.evidence) == 1
    vals = [v for _, v in rep.evidence[0].d_values]
    assert vals == [2, 0, 0]


def test_rb_obstruction_unobstructed(tmp_path):
    # zero d on the metabolizer {0, 3, 6}, nonzero elsewhere
    vals = ["1", "1", "1", "0", "1", "1", "0", "1", "1"]
    vals[0] = "0"
    table = topo.load_dtable(_nine_table(tmp_path, vals))
    rep = topo.rb_correction_obstruction(table)
    assert rep.verdict == "unobstructed"


def test_rb_obstruction_even_is_inconclusive():
    table = topo.load_dtable(str(DATA_DIR / "l41.json"))
    rep = topo.rb_correction_obstruction(table)
    assert rep.verdict == "inconclusive"
    assert rep.caveat == topo.EVEN_ORDER_CAVEAT
    assert len(rep.evidence) == 1
    assert rep.evidence[0].metabolizer.elements == ((0,), (2,))


def test_filling_obstruction_z_example():
    table = topo.load_dtable(str(DATA_DIR / "z_example.json"))
    rep = topo.definite_filling_obstruction(table)
    assert rep.verdict == "obstructed"
    vals = [v for _, v in rep.evidence[0].d_values]
    assert vals == [2, 2, 2]


def test_filling_obstruction_does_not_fire_on_s39():
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    rep = topo.definite_filling_obstruction(table)
    assert rep.verdict == "unobstructed"


def test_filling_obstruction_even_firing_is_inconclusive(tmp_path):
    values = [((i,), "1") for i in range(4)]
    path = _write_table(tmp_path, (4,), [["3/4"]], values, False)
    rep = topo.definite_filling_obstruction(topo.load_dtable(path))
    assert rep.verdict == "inconclusive"
    assert rep.caveat == topo.EVEN_ORDER_CAVEAT


def test_incomplete_table_rejected(tmp_path):
    values = [((i,), "0") for i in range(8)]
    path = _write_table(tmp_path, (9,), [["8/9"]], values, True)
    table = topo.load_dtable(path)
    with pytest.raises(IncompleteTable):
        topo.rb_correction_obstruction(table)
    with pytest.raises(IncompleteTable):
        topo.chain_check([[9]], table)


def test_chain_check_consistent():
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    rep = topo.chain_check([[9]], table)
    assert rep.verdict == "unobstructed"
    assert "embeds" in rep.reason
    rec = rep.evidence[0]
    assert rec.chain_holds
    assert rec.d_over == 0
    assert rec.constrained == 0
    assert rec.table_min == 0


def test_chain_check_violation(tmp_path):
    # a fabricated table with d ≡ 5 violates 0 >= min d(Y,t) along the chain
    table = topo.load_dtable(_nine_table(tmp_path, ["5"] * 9))
    rep = topo.chain_check([[9]], table)
    assert rep.verdict == "obstructed"
    assert "inconsistent" in rep.reason
    rec = rep.evidence[0]
    assert not rec.chain_holds
    assert rec.failure is not None


def test_chain_check_raises_when_a_theorem_fails(monkeypatch):
    # d_U(M) ≥ constrained min holds because Char(U) ⊂ Char(L) ∩ U, so a
    # constrained minimum above d_U(M) is a library fault, not a verdict
    table = topo.load_dtable(str(DATA_DIR / "l41.json"))
    rep = topo.chain_check([[4]], table)
    assert [r.d_over >= r.constrained for r in rep.evidence] == [True]
    monkeypatch.setattr(corrterm, "constrained_min",
                        lambda lat, u, reduction=None: Fraction(1))
    with pytest.raises(InvariantViolation, match="< constrained min 1"):
        topo.chain_check([[4]], table)


def test_chain_check_group_mismatch(tmp_path):
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    with pytest.raises(GroupMismatch):
        topo.chain_check([[4]], table)
    # same orders, wrong pairing
    values = [((i,), "0") for i in range(9)]
    bad = topo.load_dtable(
        _write_table(tmp_path, (9,), [["1/9"]], values, True))
    with pytest.raises(GroupMismatch):
        topo.chain_check([[9]], bad)


def test_chain_check_negative_filling_orientation(tmp_path):
    # for -Y bounding the negated filling, d(-Y, t) = -d(Y, t); a table for
    # Y checked against -Q must be negated and conjugated internally, so the
    # consistent pair stays consistent
    table = topo.load_dtable(str(DATA_DIR / "s39_t23.json"))
    rep_pos = topo.chain_check([[9]], table)
    neg_values = []
    grp = discgroup.group_from_table((9,), [["1/9"]])
    for i in range(9):
        neg_values.append((((-i) % 9,), str(-table.values[(i,)])))
    neg_path = _write_table(tmp_path, (9,), [["1/9"]], neg_values, True)
    rep_neg = topo.chain_check([[-9]], topo.load_dtable(neg_path))
    assert rep_pos.verdict == rep_neg.verdict == "unobstructed"
    assert rep_neg.orientation_note is not None


def _table_on(filling, values):
    """A complete d-table on the boundary of a filling, held in memory."""
    pairing = [[str(x) for x in row] for row in filling.boundary_pairing]
    return topo.DInvariantTable(
        group=discgroup.group_from_table(filling.group.orders, pairing),
        values=values)


def test_chain_check_negates_only_the_metabolizer_values():
    # a negated filling reads −d(Y, −t) on each metabolizer element; the
    # evidence equals that of the positive filling checked against the
    # table negated and conjugated in full, at odd and even orders
    rng = random.Random(11)
    records, seen = 0, set()
    while records < 40:
        q = random_posdef_gram(rng, max_rank=5, max_disc=64)
        det = lattice_mod.make_lattice(q).det
        if isqrt(det) ** 2 != det:  # no metabolizer, so no evidence
            continue
        neg_q = [[-x for x in row] for row in q]
        filling = topo.linking_form_of_filling(neg_q)
        grp = filling.group
        values = {e: Fraction(rng.randint(-6, 6), 4) for e in grp.elements()}
        rep = topo.chain_check(neg_q, _table_on(filling, values))
        full = {discgroup.neg(grp, e): -v for e, v in values.items()}
        ref = topo.chain_check(
            q, _table_on(topo.linking_form_of_filling(q), full))
        assert rep.evidence == ref.evidence
        assert (rep.verdict, rep.reason) == (ref.verdict, ref.reason)
        assert rep.orientation_note and not ref.orientation_note
        records += len(rep.evidence)
        seen.add((grp.order % 2, rep.verdict))
    assert seen == {(parity, verdict) for parity in (0, 1)
                    for verdict in ("obstructed", "unobstructed")}


def test_chain_check_d4():
    # D4 bounds with boundary the quaternionic space; check the chain runs
    # over all three metabolizers with a table that satisfies it
    filling = topo.linking_form_of_filling(d4_gram())
    orders = filling.group.orders
    pairing = [[str(x) for x in row] for row in filling.boundary_pairing]
    # the even form has constrained minimum -1 on every metabolizer, so a
    # table with d = -1 everywhere sits exactly on the chain
    values = [(e, "-1") for e in filling.group.elements()]
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "t.json")
        with open(p, "w") as f:
            json.dump({"orders": list(orders), "pairing": pairing,
                       "d": [{"elem": list(e), "value": v}
                             for e, v in values],
                       "z2_homology_sphere": False}, f)
        table = topo.load_dtable(p)
        rep = topo.chain_check(d4_gram(), table)
    assert rep.verdict == "unobstructed"
    assert len(rep.evidence) == 3
    assert all(rec.chain_holds for rec in rep.evidence)
