import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from latcorr import (cli, corrterm, discgroup, exactmat, lattice as lattice_mod,
                     oracle, topo)
from latcorr.errors import LatcorrError, SearchTooLarge

from conftest import (DATA_DIR, basis_change, cpu_alarm, d12_plus_gram,
                      random_unimodular, seeded_7_12_table)


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


def test_dinv_requires_unimodular(capsys, tmp_path):
    code, out, err = run_cli(capsys, "lattice", "dinv",
                             str(DATA_DIR / "nine.json"))
    assert code == 1
    assert err.startswith("error: InputError:")
    # unit basis vectors are split off before unimodularity is read off the
    # first reduction; the rest still carries the determinant
    rng = random.Random(18)
    i2_a2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
    for gram in ([[1, 0, 0], [0, 1, 0], [0, 0, 3]],
                 basis_change(i2_a2, random_unimodular(rng, 4, ops=8))):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"gram": gram}))
        code, out, err = run_cli(capsys, "lattice", "dinv", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: InputError: correction term requires a "
                       "unimodular lattice\n")


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
    # the group cap is a constant, so --max-group is an unknown option
    code, out, err = run_cli(capsys, "lattice", "info",
                             str(DATA_DIR / "nine.json"), "--max-group", "0")
    assert (code, out) == (1, "")
    assert err == ("error: LatcorrError: unrecognized arguments: "
                   "--max-group 0\n")
    code, _, err = run_cli(capsys, "lattice", "info",
                           str(DATA_DIR / "nine.json"), "--threads", "-1")
    assert code == 1
    assert "threads" in err


def test_group_above_the_cap_is_an_error(capsys, tmp_path):
    path = tmp_path / "p10007.json"
    path.write_text(json.dumps({"gram": [[10007]]}))
    code, out, err = run_cli(capsys, "lattice", "metabolizers", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: GroupTooLarge: group order 10007 exceeds the "
                   "enumeration cap 10000\n")


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_ends_in_one_error_line(buffered, fmt):
    # the reader of the pipe is gone before anything is written, as with
    # `| head -3` on a long output: a buffered stdout fails on the final
    # flush, an unbuffered one on the first write; neither may leave a
    # traceback
    env = dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable] + ([] if buffered else ["-u"]) + [
        "-m", "latcorr.cli", "topo", "chain",
        "--filling", str(DATA_DIR / "nine.json"),
        "--dtable", str(DATA_DIR / "s39_t23.json"), "--format", fmt]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: BrokenPipeError: ")
    assert proc.stderr.count("\n") == 1


def test_unknown_command(capsys):
    code, _, err = run_cli(capsys, "lattice", "frobnicate", "x.json")
    assert code == 1
    assert err.startswith("error: LatcorrError:")


# command lines that a command parser and the full tree must treat alike:
# help at every level, bad choices, missing, extra and unknown arguments,
# `--x=y`, abbreviations and `--`
PARSER_CASES = [
    [], ["-h"], ["--help"], ["lattice"], ["lattice", "-h"], ["topo", "--help"],
    ["frobnicate"], ["lattice", "frobnicate", "x.json"], ["topo", "dinv", "x"],
    ["lattice", "chain", "x"], ["lattice", "dinv", "-h"],
    ["topo", "chain", "--help"], ["lattice", "info", "x.json", "-h"],
    ["lattice", "embed-check", "-h", "extra"], ["lattice", "dinv"],
    ["topo", "chain", "--dtable", "t.json"], ["topo", "rb-obstruction"],
    ["lattice", "dinv", "a.json", "b.json"],
    ["lattice", "info", "x.json", "--bogus"],
    ["topo", "chain", "--filling", "f.json", "--dtable", "t.json", "--x=y"],
    ["lattice", "info", "x.json", "--form=json"],
    ["lattice", "info", "--", "x.json"], ["lattice", "info", "x.json", "--", "-x"],
    ["lattice", "info", "x.json", "--format", "xml"],
    ["lattice", "info", "x.json", "--max-group", "x"],
    ["lattice", "info", "x.json", "--max-group=-3", "--threads", "2"],
    ["lattice", "info", "x.json", "--format"],
    ["lattice", "--format", "json", "info", "x.json"],
    ["--format", "json", "lattice", "info", "x.json"],
    ["lattice", "dset", "x.json", "--oracle", "--format", "json"],
    ["topo", "linking-form", "x.json", "--max-gr", "10"],
    ["topo", "filling-obstruction", "--dtable", "t.json", "--form", "text"],
]


def _parse_outcome(parse, argv):
    """The Namespace, the error message, or the exit code with the text
    written (help exits through SystemExit)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "args", parse(argv)
    except SystemExit as e:
        return "exit", e.code, out.getvalue()
    except LatcorrError as e:
        return "error", str(e)


def test_command_parser_matches_full_tree():
    differ = [argv for argv in PARSER_CASES
              if _parse_outcome(cli.parse_args, argv) !=
              _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)]
    assert differ == []


def test_cached_command_parsers_match_a_fresh_tree():
    """Each command line parsed twice on the cached path, with a usage error
    on the same parser in between, gives what a fresh full tree gives."""
    cli._command_parser.cache_clear()

    def fresh(argv):
        return cli.build_parser().parse_args(argv)

    differ = []
    for argv in PARSER_CASES:
        names_command = (len(argv) >= 2
                         and argv[1] in cli.COMMANDS.get(argv[0], ()))
        bad = (argv[:2] if names_command else ["lattice", "info"]) + [
            "x.json", "--format", "xml"]
        first = _parse_outcome(cli.parse_args, argv)
        assert _parse_outcome(cli.parse_args, bad)[0] == "error"
        second = _parse_outcome(cli.parse_args, argv)
        if not first == second == _parse_outcome(fresh, argv):
            differ.append(argv)
    assert differ == []


@pytest.mark.parametrize("argv", [
    ["lattice", "info", "nine.json"], ["lattice", "metabolizers", "nine.json"],
    ["lattice", "dset", "nine.json"], ["lattice", "embed-check", "nine.json"],
    ["lattice", "dinv", "e8.json"], ["topo", "linking-form", "four.json"],
    ["topo", "rb-obstruction", "--dtable", "s39_t23.json"],
    ["topo", "filling-obstruction", "--dtable", "z_example.json"],
    ["topo", "chain", "--filling", "nine.json", "--dtable", "s39_t23.json"],
], ids=lambda argv: "-".join(argv[:2]))
def test_one_parser_per_command(capsys, monkeypatch, argv):
    """A fresh process builds one parser for the command; a repeated call
    in the same process builds none."""
    cli._command_parser.cache_clear()
    built = []
    real = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    argv = [str(DATA_DIR / a) if a.endswith(".json") else a for a in argv]
    first = run_cli(capsys, *argv)
    assert first[0] in (0, 2)
    assert first[2] == ""
    assert built == [f"latcorr {argv[0]} {argv[1]}"]
    assert run_cli(capsys, *argv) == first
    assert len(built) == 1


def test_json_output_is_deterministic(capsys):
    args = ("lattice", "dset", str(DATA_DIR / "neg_one_a8.json"))
    _, p1 = run_json(capsys, *args)
    _, p2 = run_json(capsys, *args)
    assert p1 == p2


def _diag_files(tmp_path, ds, value="0"):
    """diag(ds) and a complete d-table on its boundary with every value
    `value`."""
    gram = [[d if i == j else 0 for j in range(len(ds))]
            for i, d in enumerate(ds)]
    name = "diag" + "".join(map(str, ds))
    lat_file = tmp_path / f"{name}.json"
    lat_file.write_text(json.dumps({"gram": gram}))
    filling = topo.linking_form_of_filling(gram)
    orders = filling.group.orders
    elems = itertools.product(*(range(d) for d in orders))
    table_file = tmp_path / f"{name}_table.json"
    table_file.write_text(json.dumps({
        "orders": list(orders),
        "pairing": [[str(x) for x in row] for row in filling.boundary_pairing],
        "d": [{"elem": list(e), "value": value} for e in elems],
        "z2_homology_sphere": all(d % 2 for d in orders)}))
    return lat_file, table_file


def _diag3333_files(tmp_path):
    """diag(3,3,3,3), whose group (Z/3)⁴ has 8 metabolizers, and a complete
    d-table on its boundary."""
    return (*_diag_files(tmp_path, (3, 3, 3, 3)), 8)


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


def test_chain_never_inverts_the_filling_gram(capsys, monkeypatch, tmp_path):
    # disc_group reads its generators off the Smith form, and the eight
    # constrained minima search the coset in U(M), so no matrix is
    # inverted: the kernel has no inverse, and the oracle's is not called
    assert not hasattr(exactmat, "inverse")
    lat_file, table_file, n_mets = _diag3333_files(tmp_path)

    def forbidden(a):
        raise AssertionError("oracle.inverse called")

    monkeypatch.setattr(oracle, "inverse", forbidden)
    code, payload = run_json(capsys, "topo", "chain", "--filling",
                             str(lat_file), "--dtable", str(table_file))
    assert code == 0
    assert len(payload["evidence"]) == n_mets


def _bundled_commands():
    """Every command on the bundled data/ files, without --oracle: the
    lattice commands and `topo linking-form` on each lattice, the table
    obstructions on each d-table, and `topo chain` on each pair."""
    is_lattice = {str(f): "gram" in json.loads(f.read_text())
                  for f in sorted(DATA_DIR.glob("*.json"))}
    lattices = [f for f, flag in is_lattice.items() if flag]
    tables = [f for f, flag in is_lattice.items() if not flag]
    return ([["lattice", c, f] for f in lattices for c in (
                "info", "metabolizers", "dset", "embed-check", "dinv")]
            + [["topo", "linking-form", f] for f in lattices]
            + [["topo", c, "--dtable", t] for t in tables
               for c in ("rb-obstruction", "filling-obstruction")]
            + [["topo", "chain", "--filling", f, "--dtable", t]
               for f in lattices for t in tables])


def test_bundled_commands_call_no_fraction_reference(capsys, monkeypatch):
    # the Fraction references live in oracle and serve --oracle alone:
    # neither the kernel nor the group module defines one, and with the
    # oracle's raising every bundled command prints what it printed before
    assert not any(hasattr(exactmat, name)
                   for name in ("inverse", "rational_cholesky"))
    assert not hasattr(discgroup, "lam")
    commands = [argv + ["--format", fmt] for argv in _bundled_commands()
                for fmt in ("text", "json")]
    before = [run_cli(capsys, *argv)[:2] for argv in commands]

    def forbidden(*args):
        raise AssertionError("a Fraction reference was called")

    for name in ("lam", "inverse", "rational_cholesky"):
        monkeypatch.setattr(oracle, name, forbidden)
    assert [run_cli(capsys, *argv)[:2] for argv in commands] == before
    assert len(commands) == 84
    assert {code for code, _ in before} == {0, 1, 2, 3}


def test_chain_walks_the_classes_of_each_u_in_its_own_reduced_basis(
        capsys, monkeypatch, tmp_path):
    # each constrained minimum walks the classes of U(M)/2U(M) on the U(M)
    # that d_set built: 3 intermediate lattices in all, each built by
    # overlattice._canonical (the package attribute `overlattice` is the
    # function, hence the module lookup).  The group (Z/2)⁴ of
    # diag(2,2,2,2) has even order, so the classes are walked; every U(M)
    # is Z⁴ and splits fully, so no class needs a coset search.  No HNF of
    # U ∩ 2L* is formed, and the constrained minimum reduces U(M) by the
    # same LLL calls as its characteristic minimum
    overlattice = importlib.import_module("latcorr.overlattice")
    lat_file, table_file = _diag_files(tmp_path, (2, 2, 2, 2), "-1")
    n_mets = 3
    builds, inside = [], []
    calls = {name: [] for name in ("min_char_square", "constrained_min")}
    real = {name: getattr(corrterm, name) for name in calls}
    real_canonical = overlattice._canonical
    real_lll, real_hnf, real_coset_min = (
        exactmat.lll_gram, exactmat.hnf, corrterm.coset_min)

    def canonical(lat, rows, denom):
        builds.append(rows)
        return real_canonical(lat, rows, denom)

    def counted(kind, fn):
        def wrapper(*args):
            if inside:
                inside[-1][kind] += 1
            return fn(*args)
        return wrapper

    def entered(name):
        def wrapper(*args):
            calls[name].append({"lll": 0, "hnf": 0, "search": 0})
            inside.append(calls[name][-1])
            try:
                return real[name](*args)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(overlattice, "_canonical", canonical)
    monkeypatch.setattr(exactmat, "lll_gram", counted("lll", real_lll))
    monkeypatch.setattr(exactmat, "hnf", counted("hnf", real_hnf))
    monkeypatch.setattr(corrterm, "coset_min",
                        counted("search", real_coset_min))
    for name in calls:
        monkeypatch.setattr(corrterm, name, entered(name))
    code, payload = run_json(capsys, "topo", "chain", "--filling",
                             str(lat_file), "--dtable", str(table_file))
    assert code == 0
    assert len(payload["evidence"]) == n_mets
    assert len(builds) == n_mets
    assert len(calls["constrained_min"]) == n_mets
    assert all(c["hnf"] == 0 and c["search"] == 0
               for c in calls["constrained_min"])
    assert ([c["lll"] for c in calls["constrained_min"]]
            == [c["lll"] for c in calls["min_char_square"]])


def test_chain_takes_d_of_u_as_the_constrained_min_for_odd_order(
        capsys, monkeypatch, tmp_path):
    # for odd |G| the characteristic covectors of L in U(M) are those of
    # U(M), so the chain reports d_U(M) without a constrained search, and
    # that value is what the search would have found
    lat_file, table_file, n_mets = _diag3333_files(tmp_path)
    grp = discgroup.disc_group(lattice_mod.load_lattice(str(lat_file)))
    direct = {e.metabolizer.elements: corrterm.constrained_min(
        grp.lattice, e.overlattice) for e in corrterm.d_set(grp).entries}
    assert len(direct) == n_mets

    def forbidden(*args):
        raise AssertionError("constrained_min called")

    monkeypatch.setattr(corrterm, "constrained_min", forbidden)
    code, payload = run_json(capsys, "topo", "chain", "--filling",
                             str(lat_file), "--dtable", str(table_file))
    assert code == 0
    got = {tuple(map(tuple, rec["metabolizer"])): rec["constrained_min"]
           for rec in payload["evidence"]}
    assert got == {m: str(v) for m, v in direct.items()}
    assert all(rec["constrained_min"] == rec["d_overlattice"]
               for rec in payload["evidence"])


def test_metabolizer_oracle_agrees_on_an_anisotropic_form(capsys, tmp_path):
    # the greedy isotropic pass answers for I₄ ⊕ diag(3, 3) without a
    # search, and the oracle's brute search agrees that there is no
    # metabolizer
    lat_file, _ = _diag_files(tmp_path, (1, 1, 1, 1, 3, 3))
    code, payload = run_json(capsys, "lattice", "metabolizers", str(lat_file),
                             "--oracle")
    assert code == 0
    assert payload["metabolizers"] == []
    assert "oracle: metabolizers agree" in payload["notes"]


@pytest.mark.parametrize("gram", [
    5, [1], [[1], 2], "ab", None, {"0": [1]}, [[1, 0], [0]],
], ids=["number", "flat-list", "mixed-rows", "string", "null", "object",
        "ragged"])
@pytest.mark.parametrize("command", [["lattice", "info"],
                                     ["topo", "linking-form"]],
                         ids=["lattice-info", "topo-linking-form"])
def test_malformed_lattice_file_is_an_input_error(capsys, tmp_path, gram,
                                                  command):
    p = tmp_path / "lattice.json"
    p.write_text(json.dumps({"gram": gram}))
    code, out, err = run_cli(capsys, *command, str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputError: ")
    assert err.count("\n") == 1


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
    {**_GOOD_TABLE, "z2_homology_sphere": "no"},
    {**_GOOD_TABLE, "z2_homology_sphere": 1},
    {**_GOOD_TABLE, "z2_homology_sphere": None},
    {**_GOOD_TABLE, "orders": [3, 3], "pairing": [["1/3", "0"], ["0", "0"]],
     "d": [{"elem": [i, j], "value": "0"} for i in range(3)
           for j in range(3)]},
    {**_GOOD_TABLE, "orders": [4], "pairing": [["0"]], "z2_homology_sphere":
     False, "d": [{"elem": [i], "value": "0"} for i in range(4)]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": 0.1}]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": True}]},
    {**_GOOD_TABLE, "pairing": [[0.5]]},
    {**_GOOD_TABLE, "pairing": [[False]]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": "1e5000"}]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": "0.5"}]},
    {**_GOOD_TABLE, "d": [{"elem": [0], "value": " 1/2"}]},
], ids=["number", "order-not-int", "order-float", "pairing-not-list",
        "d-not-list", "record-no-elem", "record-no-value", "record-not-object",
        "elem-not-list", "value-not-rational", "z2-string", "z2-int",
        "z2-null", "degenerate-3-3", "degenerate-4", "value-float",
        "value-bool", "pairing-float", "pairing-bool", "value-exponent",
        "value-decimal", "value-space"])
def test_malformed_dtable_is_an_input_error(capsys, tmp_path, table):
    p = tmp_path / "table.json"
    p.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                             "--dtable", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", [
    bytes(random.Random(0).randrange(256) for _ in range(300)),
    b'{"gram": [[' + b"1" * 5001 + b"]]}",
    b"[" * 100_000,
], ids=["random-bytes", "long-integer", "deep-nesting"])
@pytest.mark.parametrize("command", [
    ["lattice", "info"],
    ["topo", "linking-form"],
    ["topo", "chain", "--dtable", str(DATA_DIR / "s39_t23.json"),
     "--filling"],
    ["topo", "chain", "--filling", str(DATA_DIR / "nine.json"), "--dtable"],
    ["topo", "rb-obstruction", "--dtable"],
], ids=["lattice-info", "topo-linking-form", "chain-filling", "chain-dtable",
        "rb-obstruction"])
def test_unreadable_input_file_is_an_input_error(capsys, tmp_path, content,
                                                 command):
    # undecodable bytes, an integer past the interpreter's digit limit and
    # nesting past its recursion limit all fail inside json.load
    p = tmp_path / "input.json"
    p.write_bytes(content)
    code, out, err = run_cli(capsys, *command, str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputError: cannot read ")
    assert err.count("\n") == 1


def test_dinv_oracle_on_a_conjugate_of_e8_plus_i1(capsys, tmp_path):
    # the search runs up to the claimed minimum, so a rank-9 form whose
    # characteristic covector diag(G) mod 2 is long still checks at once
    from test_corrterm import _unimodular_cases
    gram = next(itertools.islice(_unimodular_cases(random.Random(0)), 7, None))
    assert len(gram) == 9
    p = tmp_path / "e8_i1.json"
    p.write_text(json.dumps({"gram": gram}))
    code, payload = run_json(capsys, "lattice", "dinv", str(p), "--oracle")
    assert code == 0
    assert payload["min_char_square"] == 1 and payload["d"] == "-2"
    assert payload["notes"] == ["oracle: brute_char_min agrees"]


def test_char_min_oracle_beyond_caps_is_skipped(capsys, monkeypatch):
    def too_large(obj, bound):
        raise SearchTooLarge("enumeration exceeded the node cap")

    monkeypatch.setattr(oracle, "brute_char_min", too_large)
    code, payload = run_json(capsys, "lattice", "dinv",
                             str(DATA_DIR / "e8.json"), "--oracle")
    assert code == 0
    assert payload["notes"] == ["oracle: brute_char_min skipped (beyond caps)"]
    code, payload = run_json(capsys, "lattice", "dset",
                             str(DATA_DIR / "four.json"), "--oracle")
    assert code == 0
    assert "oracle: brute_char_min skipped (beyond caps)" in payload["notes"]


@pytest.mark.parametrize("shift", [-2, 2], ids=["understated", "overstated"])
def test_char_min_oracle_rejects_a_wrong_minimum(capsys, monkeypatch,
                                                 tmp_path, shift):
    # the characteristic minimum of I₃ is 3; below it no characteristic
    # vector lies in the searched range, above it the oracle finds 3
    p = tmp_path / "i3.json"
    p.write_text(json.dumps({"gram": exactmat.identity(3)}))
    real = corrterm.min_char_square

    def wrong(obj):
        res = real(obj)
        return dataclasses.replace(res, minimum=res.minimum + shift)

    monkeypatch.setattr(corrterm, "min_char_square", wrong)
    code, out, err = run_cli(capsys, "lattice", "dinv", str(p), "--oracle")
    assert code == 1
    assert out == ""
    assert err.startswith("error: OracleDisagreement: brute_char_min ")
    assert err.count("\n") == 1


def test_chain_reports_the_filling_error_before_an_incomplete_table(
        capsys, tmp_path):
    filling = tmp_path / "indefinite.json"
    filling.write_text(json.dumps({"gram": [[1, 2], [2, 1]]}))
    table = tmp_path / "incomplete.json"
    table.write_text(json.dumps({**_GOOD_TABLE, "d": _GOOD_TABLE["d"][:8]}))
    code, out, err = run_cli(capsys, "topo", "chain", "--filling",
                             str(filling), "--dtable", str(table))
    assert (code, out) == (1, "")
    assert err.startswith("error: IndefiniteForm: ")
    code, out, err = run_cli(capsys, "topo", "chain", "--filling",
                             str(DATA_DIR / "nine.json"), "--dtable",
                             str(table))
    assert (code, out) == (1, "")
    assert err.startswith("error: IncompleteTable: ")


@pytest.mark.parametrize("text", [
    "[[1]]", "not json", '{"matrix": [[1]]}', '{"gram": [[1, 2], [2, 1]]}',
    '{"gram": [[2, 2], [2, 2]]}', '{"gram": [[-9]]}',
], ids=["list", "not-json", "no-gram-key", "indefinite", "singular",
        "negative"])
def test_linking_form_reads_the_file_as_lattice_info_does(capsys, tmp_path,
                                                          text):
    p = tmp_path / "filling.json"
    p.write_text(text)
    info = run_cli(capsys, "lattice", "info", str(p))
    linking = run_cli(capsys, "topo", "linking-form", str(p))
    if info[0] == 0:
        assert linking[0] == 0 and "orientation: negated" in linking[1]
    else:
        assert linking == info
        assert info[2].startswith("error: ") and info[2].count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["topo", "linking-form", str(DATA_DIR / "neg_one_a8.json")],
    ["topo", "chain", "--filling", str(DATA_DIR / "nine.json"),
     "--dtable", str(DATA_DIR / "s39_t23.json")],
], ids=["linking-form", "chain"])
def test_topo_filling_commands_build_one_lattice(capsys, monkeypatch, argv):
    calls = []
    real = lattice_mod.make_lattice

    def counting(gram):
        calls.append(gram)
        return real(gram)

    monkeypatch.setattr(lattice_mod, "make_lattice", counting)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert len(calls) == 1


# The d-table reader's error lines, recorded as literals from the reader
# that checked each record with `_expect` and parsed each value with
# `Fraction(str)`; the one-pass reader must print them byte for byte.
_L41_GROUP = {"orders": [4], "pairing": [["3/4"]],
              "z2_homology_sphere": False}
_DIGITS = "7" * 5000
_DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string "
                "conversion: value has 5000 digits; use "
                "sys.set_int_max_str_digits() to increase the limit")
_DTABLE_REJECTIONS = [
    ([5], "d-table record must be a JSON dict, got 5"),
    ([[0, "1"]], "d-table record must be a JSON dict, got [0, '1']"),
    ([{"value": "0"}], "d-table record lacks 'elem' or 'value'"),
    ([{"elem": [0]}], "d-table record lacks 'elem' or 'value'"),
    ([{"elem": 0, "value": "0"}], "d-table elem must be a JSON list, got 0"),
    ([{"elem": "0", "value": "0"}],
     "d-table elem must be a JSON list, got '0'"),
    ([{"elem": [True], "value": "0"}],
     "d-table element must be a JSON int, got True"),
    ([{"elem": [1.0], "value": "0"}],
     "d-table element must be a JSON int, got 1.0"),
    ([{"elem": [9, True], "value": "0"}],
     "d-table element must be a JSON int, got True"),
    ([{"elem": [0, 0], "value": "0"}], "d-table element (0, 0) out of range"),
    ([{"elem": [], "value": "0"}], "d-table element () out of range"),
    ([{"elem": [-1], "value": "0"}], "d-table element (-1,) out of range"),
    ([{"elem": [4], "value": "0"}], "d-table element (4,) out of range"),
    ([{"elem": [1], "value": "0"}, {"elem": [1], "value": "1"}],
     "duplicate d-table element (1,)"),
    ([{"elem": [0], "value": 0.5}],
     "bad rational value 0.5: not a string or int"),
    ([{"elem": [0], "value": True}],
     "bad rational value True: not a string or int"),
    ([{"elem": [0], "value": None}],
     "bad rational value None: not a string or int"),
    ([{"elem": [0], "value": "1/0"}],
     "bad rational value '1/0': Fraction(1, 0)"),
    ([{"elem": [0], "value": "-3/0"}],
     "bad rational value '-3/0': Fraction(-3, 0)"),
    ([{"elem": [0], "value": "1/2/3"}],
     "bad rational value '1/2/3': Invalid literal for Fraction: '1/2/3'"),
    ([{"elem": [0], "value": " 1"}],
     "bad rational value ' 1': Invalid literal for Fraction: ' 1'"),
    ([{"elem": [0], "value": "1e5"}],
     "bad rational value '1e5': Invalid literal for Fraction: '1e5'"),
    ([{"elem": [0], "value": "٣"}],
     "bad rational value '٣': Invalid literal for Fraction: '٣'"),
    ([{"elem": [0], "value": "1\n"}],
     "bad rational value '1\\n': Invalid literal for Fraction: '1\\n'"),
    ([{"elem": [0], "value": _DIGITS}],
     f"bad rational value '{_DIGITS}': {_DIGIT_LIMIT}"),
    ([{"elem": [0], "value": "-" + _DIGITS}],
     f"bad rational value '-{_DIGITS}': {_DIGIT_LIMIT}"),
    ([{"elem": [0], "value": "1/" + _DIGITS}],
     f"bad rational value '1/{_DIGITS}': {_DIGIT_LIMIT}"),
]


@pytest.mark.parametrize("records, message", _DTABLE_REJECTIONS,
                         ids=[f"rejection-{i}" for i in
                              range(len(_DTABLE_REJECTIONS))])
def test_dtable_rejections_keep_their_error_lines(capsys, tmp_path, records,
                                                  message):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({**_L41_GROUP, "d": records}, ensure_ascii=False),
                 encoding="utf-8")
    code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                             "--dtable", str(p))
    assert (code, out, err) == (1, "", f"error: InputError: {message}\n")


# Orders and pairing reach `discgroup.group_from_table` as read from the
# file, and it alone checks their shape.
_DTABLE_GROUP_SHAPES = [
    ({"a": 9}, [["8/9"]]),             # orders an object
    ([[3]], [["2/3"]]),                # a list among the orders
    ([9], [{"a": "8/9"}]),             # a pairing row an object
    ([9], [[["8/9"]]]),                # a pairing entry a list
    ([9], [[None]]),                   # a pairing entry null
    ([3, 3], [["1/3", "0"], ["0"]]),   # a ragged pairing
]


@pytest.mark.parametrize("orders, pairing", _DTABLE_GROUP_SHAPES,
                         ids=["orders-object", "order-list", "row-object",
                              "entry-list", "entry-null", "ragged"])
def test_dtable_group_shapes_end_in_one_input_error(capsys, tmp_path, orders,
                                                    pairing):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"orders": orders, "pairing": pairing,
                             "d": [{"elem": [0], "value": "0"}],
                             "z2_homology_sphere": True}))
    code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                             "--dtable", str(p))
    assert (code, out) == (1, "")
    assert err.startswith("error: InputError: ") and err.count("\n") == 1


def test_seeded_7_12_table_ends_in_one_error_line(capsys, tmp_path):
    # the pairing's Smith form is taken modulo the exponent 7; unbounded,
    # it ran past 8 s of CPU on this degenerate form of rank 11 over GF(7)
    p = tmp_path / "table.json"
    p.write_text(json.dumps(seeded_7_12_table()))
    with cpu_alarm(2):
        code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                                 "--dtable", str(p))
    assert (code, out, err) == (1, "", "error: InputError: d-table pairing "
                                "is degenerate: not a linking form\n")


def test_a_failed_chain_theorem_is_one_error_line(capsys, monkeypatch):
    # d_U(M) ≥ constrained min is a theorem: its failure is a library
    # fault, reported as an InvariantViolation, never as a verdict
    monkeypatch.setattr(corrterm, "constrained_min",
                        lambda lat, u: Fraction(1))
    code, out, err = run_cli(capsys, "topo", "chain", "--filling",
                             str(DATA_DIR / "four.json"),
                             "--dtable", str(DATA_DIR / "l41.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: InvariantViolation: ") and \
        err.count("\n") == 1


def test_a_failed_elkies_bound_is_one_error_line(capsys, monkeypatch,
                                                 tmp_path):
    # min χ² ≤ n is checked where d is computed, so dinv is checked too
    real = corrterm.coset_min
    monkeypatch.setattr(corrterm, "coset_min",
                        lambda a, x: (13,) + real(a, x)[1:])
    p = tmp_path / "d12.json"
    p.write_text(json.dumps({"gram": d12_plus_gram()}))
    assert run_cli(capsys, "lattice", "dinv", str(p)) == (
        1, "", "error: InvariantViolation: min char square 13 > rank 12\n")


def test_dtable_accepted_forms_keep_their_values(tmp_path):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({**_L41_GROUP, "d": [
        {"elem": [i], "value": v}
        for i, v in enumerate(["+1/2", "-0", "4/6", 3])]}))
    values = topo.load_dtable(str(p)).values
    assert values == {(0,): Fraction(1, 2), (1,): 0, (2,): Fraction(2, 3),
                      (3,): 3}
    assert all(type(v) is Fraction for v in values.values())


def test_dtable_keys_are_checked_without_enumerating_the_group(capsys,
                                                              tmp_path):
    # a key is checked against the orders, so a group of 10¹² elements
    # with one record is read at once and found incomplete
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"orders": [10 ** 12],
                             "pairing": [["1/1000000000000"]],
                             "d": [{"elem": [5], "value": "0"}],
                             "z2_homology_sphere": False}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "topo", "rb-obstruction",
                             "--dtable", str(p))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        1, "", "error: IncompleteTable: d-table does not key every element "
               "of the group\n")
