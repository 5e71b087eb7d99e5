"""The benchmark's tracer still finds every function behind a CI cap.

`perfbench/tracing.py`'s `Tracer.install` skips a name it cannot find, so
after a rename its cap would read a vacuous 0.  The tracer is loaded from
its file as it stands and installed on the loaded latcorr.
"""

import importlib.util
import sys

from latcorr import corrterm, discgroup, exactmat, lattice as lattice_mod

from conftest import DATA_DIR

CAPPED = ((corrterm, "coset_min"), (exactmat, "snf"), (exactmat, "det"),
          (discgroup, "closure"), (discgroup, "metabolizers_of_group"))


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    path = DATA_DIR.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_capped_function(monkeypatch):
    real = {(mod, name): getattr(mod, name) for mod, name in CAPPED}
    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, name) is not fn
                   for (mod, name), fn in real.items())
        grp = discgroup.disc_group(lattice_mod.make_lattice([[9]]))
        mets = discgroup.metabolizers_of_group(grp)
        discgroup.closure(grp, {grp.identity}, (3,))
        _, _, nodes = corrterm.coset_min([[2]], [1])
        exactmat.det([[2]])
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in real.items())
    m = tracer.metrics()
    assert len(mets) == m["discgroup.metabolizers_found"] == 1
    assert m["exactmat.snf.calls"] == m["exactmat.det.calls"] == 1
    assert m["discgroup.closure.calls"] >= 1
    assert m["corrterm.coset_min.calls"] == 1
    assert m["corrterm.coset_min.nodes"] == nodes
