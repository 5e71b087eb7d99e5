"""Byte-exact CLI output on the bundled data files.

Each case runs one command from the README (plus the `--oracle` variants
of the lattice commands) in both output formats and compares exit code,
stdout and stderr with the recorded file under `tests/golden/`.
"""

import sys
from pathlib import Path

import pytest

from latcorr import cli

from conftest import DATA_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "lattice_info_nine": ["lattice", "info", "nine.json"],
    "lattice_metabolizers_nine": ["lattice", "metabolizers", "nine.json"],
    "lattice_dset_nine": ["lattice", "dset", "nine.json"],
    "lattice_embed_check_neg_one_a8": ["lattice", "embed-check",
                                       "neg_one_a8.json"],
    "lattice_dinv_nine": ["lattice", "dinv", "nine.json"],
    "lattice_dinv_e8": ["lattice", "dinv", "e8.json"],
    "topo_linking_form_four": ["topo", "linking-form", "four.json"],
    "topo_rb_obstruction_s39": ["topo", "rb-obstruction",
                                "--dtable", "s39_t23.json"],
    "topo_filling_obstruction_z": ["topo", "filling-obstruction",
                                   "--dtable", "z_example.json"],
    "topo_chain_nine_s39": ["topo", "chain", "--filling", "nine.json",
                            "--dtable", "s39_t23.json"],
    "lattice_metabolizers_nine_oracle": ["lattice", "metabolizers",
                                         "nine.json", "--oracle"],
    "lattice_dset_four_oracle": ["lattice", "dset", "four.json", "--oracle"],
    "lattice_embed_check_four_oracle": ["lattice", "embed-check", "four.json",
                                        "--oracle"],
    "lattice_embed_check_neg_one_a8_oracle": ["lattice", "embed-check",
                                              "neg_one_a8.json", "--oracle"],
    "lattice_dinv_e8_oracle": ["lattice", "dinv", "e8.json", "--oracle"],
}
FORMATS = ("json", "text")


def _argv(name, fmt):
    return [str(DATA_DIR / a) if a.endswith(".json") else a
            for a in CASES[name]] + ["--format", fmt]


def _record(code, out, err):
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def _golden_path(name, fmt):
    return GOLDEN_DIR / f"{name}.{fmt}.out"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name, fmt):
    code = cli.main(_argv(name, fmt))
    captured = capsys.readouterr()
    expected = _golden_path(name, fmt).read_text()
    assert _record(code, captured.out, captured.err) == expected


def write_golden():
    """Record the current outputs; run as `python tests/test_golden.py`
    with the package importable, only when an output is meant to change."""
    import contextlib
    import io
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for fmt in FORMATS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(_argv(name, fmt))
            _golden_path(name, fmt).write_text(
                _record(code, out.getvalue(), err.getvalue()))


if __name__ == "__main__":
    sys.exit(write_golden())
