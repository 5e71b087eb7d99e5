"""What the fuzz tests share: Hypothesis's caches in a temporary directory,
and the invariant every command line must keep.

Hypothesis caches what it reads from local source files under its home
directory while pytest collects; the directory goes away at exit, so
nothing lands in `.hypothesis/` in the checkout.
"""

import contextlib
import io
import json
import re
import tempfile

from hypothesis import configuration

from latcorr import cli

ERROR_LINE = re.compile(r"error: [A-Za-z]+: [^\n]*\n")

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)


def run_json(argv):
    """Run a command line in-process with `--format json`.  It must end in
    exit 0, 2 or 3 with JSON on stdout and nothing on stderr, or in exit 1
    with empty stdout and one `error: <Code>: <message>` line on stderr.
    Returns the exit code and the parsed JSON (None on exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == ""
        assert ERROR_LINE.fullmatch(err.getvalue())
        return code, None
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())
