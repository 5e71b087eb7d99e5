import itertools
import json

import pytest

from latcorr import cli, discgroup, topo

from conftest import DATA_DIR


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def test_lattice_info(capsys):
    code, payload = run_json(capsys, "lattice", "info",
                             str(DATA_DIR / "nine.json"))
    assert code == 0
    assert payload["rank"] == 1
    assert payload["disc"] == 9
    assert payload["orders"] == [9]
    assert payload["pairing"] == [["8/9"]]
    assert payload["definite"] == "positive"


def test_lattice_info_text(capsys):
    code, out, err = run_cli(capsys, "lattice", "info",
                             str(DATA_DIR / "nine.json"))
    assert code == 0
    assert "disc: 9" in out
    assert err == ""


def test_lattice_metabolizers(capsys):
    code, payload = run_json(capsys, "lattice", "metabolizers",
                             str(DATA_DIR / "nine.json"))
    assert code == 0
    mets = payload["metabolizers"]
    assert len(mets) == 1
    assert mets[0]["elements"] == [[0], [3], [6]]


def test_lattice_dset(capsys):
    code, payload = run_json(capsys, "lattice", "dset",
                             str(DATA_DIR / "nine.json"))
    assert code == 0
    assert payload["contains_zero"]
    assert payload["entries"][0]["d"] == "0"
    assert payload["entries"][0]["min_char_square"] == 1


def test_embed_check_exit_codes(capsys):
    code, payload = run_json(capsys, "lattice", "embed-check",
                             str(DATA_DIR / "nine.json"))
    assert code == 0
    assert payload["embeds"]
    code, payload = run_json(capsys, "lattice", "embed-check",
                             str(DATA_DIR / "neg_one_a8.json"))
    assert code == 2
    assert not payload["embeds"]
    assert payload["orientation"] == "negated"
    assert [e["d"] for e in payload["entries"]] == ["-2"]


def test_embed_check_with_oracle(capsys):
    # [[4]] embeds in Z as the sublattice 2Z
    code, payload = run_json(capsys, "lattice", "embed-check",
                             str(DATA_DIR / "four.json"), "--oracle")
    assert code == 0
    assert any("brute_embed agrees" in n for n in payload["notes"])
    assert any("metabolizers agree" in n for n in payload["notes"])


def test_dinv_requires_unimodular(capsys):
    code, out, err = run_cli(capsys, "lattice", "dinv",
                             str(DATA_DIR / "nine.json"))
    assert code == 1
    assert err.startswith("error: InputError:")


def test_topo_linking_form(capsys):
    code, payload = run_json(capsys, "topo", "linking-form",
                             str(DATA_DIR / "four.json"))
    assert code == 0
    assert payload["orders"] == [4]
    assert payload["pairing"] == [["3/4"]]


def test_topo_rb_obstruction(capsys):
    code, payload = run_json(capsys, "topo", "rb-obstruction",
                             "--dtable", str(DATA_DIR / "s39_t23.json"))
    assert code == 2
    assert payload["verdict"] == "obstructed"
    vals = [v["value"] for v in payload["evidence"][0]["d_values"]]
    assert vals == ["2", "0", "0"]


def test_topo_rb_even_inconclusive(capsys):
    code, payload = run_json(capsys, "topo", "rb-obstruction",
                             "--dtable", str(DATA_DIR / "l41.json"))
    assert code == 3
    assert payload["verdict"] == "inconclusive"
    assert "caveat" in payload


def test_topo_filling_obstruction(capsys):
    code, payload = run_json(capsys, "topo", "filling-obstruction",
                             "--dtable", str(DATA_DIR / "z_example.json"))
    assert code == 2
    assert payload["verdict"] == "obstructed"


def test_topo_chain(capsys):
    code, payload = run_json(capsys, "topo", "chain",
                             "--filling", str(DATA_DIR / "nine.json"),
                             "--dtable", str(DATA_DIR / "s39_t23.json"))
    assert code == 0
    assert payload["verdict"] == "unobstructed"
    rec = payload["evidence"][0]
    assert rec["d_overlattice"] == "0"
    assert rec["constrained_min"] == "0"
    assert rec["table_min"] == "0"
    assert rec["chain_holds"]


def test_topo_chain_threads_deterministic(capsys):
    args = ("topo", "chain",
            "--filling", str(DATA_DIR / "nine.json"),
            "--dtable", str(DATA_DIR / "s39_t23.json"))
    _, p1 = run_json(capsys, *args, "--threads", "1")
    _, p2 = run_json(capsys, *args, "--threads", "4")
    assert p1 == p2


def test_error_line_format(capsys):
    code, out, err = run_cli(capsys, "lattice", "info", "/no/such/file.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputError: ")
    assert err.count("\n") == 1


def test_bad_flag_values(capsys):
    code, _, err = run_cli(capsys, "lattice", "info",
                           str(DATA_DIR / "nine.json"), "--max-group", "0")
    assert code == 1
    assert "max-group" in err
    code, _, err = run_cli(capsys, "lattice", "info",
                           str(DATA_DIR / "nine.json"), "--threads", "-1")
    assert code == 1
    assert "threads" in err


def test_unknown_command(capsys):
    code, _, err = run_cli(capsys, "lattice", "frobnicate", "x.json")
    assert code == 1
    assert err.startswith("error: LatcorrError:")


def test_json_output_is_deterministic(capsys):
    args = ("lattice", "dset", str(DATA_DIR / "neg_one_a8.json"))
    _, p1 = run_json(capsys, *args)
    _, p2 = run_json(capsys, *args)
    assert p1 == p2


def _diag3333_files(tmp_path):
    """diag(3,3,3,3), whose group (Z/3)⁴ has 8 metabolizers, and a complete
    d-table on its boundary."""
    gram = [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    lat_file = tmp_path / "diag3333.json"
    lat_file.write_text(json.dumps({"gram": gram}))
    filling = topo.linking_form_of_filling(gram)
    elems = itertools.product(*(range(d) for d in filling.group.orders))
    table_file = tmp_path / "diag3333_table.json"
    table_file.write_text(json.dumps({
        "orders": list(filling.group.orders),
        "pairing": [[str(x) for x in row] for row in filling.boundary_pairing],
        "d": [{"elem": list(e), "value": "0"} for e in elems],
        "z2_homology_sphere": True}))
    return lat_file, table_file, 8


@pytest.mark.parametrize("command", ["dset", "embed-check", "chain"])
@pytest.mark.parametrize("shape", ["nine", "diag3333"])
def test_one_disc_group_per_query(capsys, monkeypatch, tmp_path, shape,
                                  command):
    if shape == "nine":
        lat_file, table_file, n_mets = (DATA_DIR / "nine.json",
                                        DATA_DIR / "s39_t23.json", 1)
    else:
        lat_file, table_file, n_mets = _diag3333_files(tmp_path)
    if command == "chain":
        argv = ["topo", "chain", "--filling", str(lat_file),
                "--dtable", str(table_file)]
    else:
        argv = ["lattice", command, str(lat_file)]
    calls = []
    real = discgroup.disc_group

    def counting(lat):
        calls.append(lat)
        return real(lat)

    monkeypatch.setattr(discgroup, "disc_group", counting)
    code, payload = run_json(capsys, *argv)
    assert code in (0, 2)
    assert len(payload.get("entries", payload.get("evidence"))) == n_mets
    assert len(calls) == 1


_GOOD_TABLE = {"orders": [9], "pairing": [["8/9"]],
               "d": [{"elem": [i], "value": "0"} for i in range(9)],
               "z2_homology_sphere": True}


@pytest.mark.parametrize("table", [
    5,
    {**_GOOD_TABLE, "orders": ["x"]},
    {**_GOOD_TABLE, "orders": [9.5]},
    {**_GOOD_TABLE, "pairing": "8/9"},
    {**_GOOD_TABLE, "d": 5},
    {**_GOOD_TABLE, "d": [{"value": "0"}]},
    {**_GOOD_TABLE, "d": [{"elem": [0]}]},
    {**_GOOD_TABLE, "d": [[0, "0"]]},
    {**_GOOD_TABLE, "d": [{"elem": 0, "value": "0"}]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": [0]}]},
], ids=["number", "order-not-int", "order-float", "pairing-not-list",
        "d-not-list", "record-no-elem", "record-no-value", "record-not-object",
        "elem-not-list", "value-not-rational"])
def test_malformed_dtable_is_an_input_error(capsys, tmp_path, table):
    p = tmp_path / "table.json"
    p.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                             "--dtable", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputError: ")
    assert err.count("\n") == 1
