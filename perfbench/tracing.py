"""Spans and counters around the calls into latcorr's layers.

The tracer times each layer from outside: it replaces a layer's public
functions, under every name any latcorr module binds them to (`corrterm`,
`topo` and `cli` import `overlattice.overlattice` as `build_overlattice`,
and the package re-exports most of them), with wrappers that record a span.
Nothing inside `src/` changes. Spans stay in memory until the run ends.

`cli` is timed at its entry point `main`; `run` and `build_parser` are part
of it. The hot helpers `discgroup.closure` and `discgroup.lam` are counted,
not spanned, so that tracing does not swamp the searches that call them.
Helpers not listed (matrix products, element arithmetic) count towards
their caller's self time.
"""

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "lattice", "exactmat", "discgroup", "overlattice",
          "corrterm", "topo")

SPANNED = {
    "cli": ("main",),
    "lattice": ("load_lattice", "make_lattice", "discriminant",
                "is_characteristic", "characteristic_base"),
    "exactmat": ("det", "inverse", "hnf", "snf", "rational_cholesky",
                 "is_positive_definite", "solve_mod2"),
    "discgroup": ("disc_group", "group_from_table", "subgroups_of_order",
                  "metabolizers_of_group", "metabolizers", "annihilator"),
    "overlattice": ("overlattice", "dual_of", "index_check"),
    "corrterm": ("coset_min", "min_char_square", "d_lattice", "d_set",
                 "embeds_in_standard", "constrained_min"),
    "topo": ("load_dtable", "linking_form_of_filling",
             "donaldson_obstruction", "rb_correction_obstruction",
             "definite_filling_obstruction", "chain_check"),
}

COUNTED = {"discgroup": ("closure", "lam")}

# The per-layer metrics, name: (unit, better), in BENCHMARK.json's order.
# "<layer>.<function>.<stat>" with stat calls, self_ms or busy_ms is read
# off the spans and counts; the other names are computed in `metrics` and
# by the traced run.
PER_LAYER = {
    "discgroup.closure.calls": ("count", "lower"),
    "discgroup.lam.calls": ("count", "lower"),
    "discgroup.metabolizers_of_group.self_ms": ("ms", "lower"),
    "discgroup.subgroups_of_order.self_ms": ("ms", "lower"),
    "discgroup.found_per_closure": ("ratio", "higher"),
    "discgroup.metabolizers_found": ("count", "higher"),
    "corrterm.coset_min.calls": ("count", "lower"),
    "corrterm.coset_min.nodes": ("count", "lower"),
    "corrterm.coset_min.self_ms": ("ms", "lower"),
    "corrterm.nodes_per_min": ("nodes/call", "lower"),
    "corrterm.min_char_square.self_ms": ("ms", "lower"),
    "corrterm.constrained_min.self_ms": ("ms", "lower"),
    "topo.chain_check.self_ms": ("ms", "lower"),
    "discgroup.disc_group.calls": ("count", "lower"),
    "discgroup.disc_group.busy_ms": ("ms", "lower"),
    "overlattice.overlattice.calls": ("count", "lower"),
    "overlattice.overlattice.self_ms": ("ms", "lower"),
    "exactmat.snf.calls": ("count", "lower"),
    "exactmat.snf.busy_ms": ("ms", "lower"),
    "exactmat.hnf.busy_ms": ("ms", "lower"),
    "exactmat.inverse.calls": ("count", "lower"),
    "exactmat.inverse.busy_ms": ("ms", "lower"),
    "exactmat.rational_cholesky.calls": ("count", "lower"),
    "exactmat.rational_cholesky.busy_ms": ("ms", "lower"),
    "exactmat.det.calls": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "lattice.load_lattice.busy_ms": ("ms", "lower"),
    "topo.load_dtable.busy_ms": ("ms", "lower"),
    "topo.rb_correction_obstruction.self_ms": ("ms", "lower"),
    "topo.definite_filling_obstruction.self_ms": ("ms", "lower"),
    "trace.throughput_qps": ("1/s", "higher"),
    "trace.untraced_qps": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Deterministic work counters: they must repeat exactly for a seed.
COUNTERS = (
    "corrterm.coset_min.nodes", "corrterm.coset_min.calls",
    "discgroup.disc_group.calls", "discgroup.closure.calls",
    "discgroup.lam.calls", "discgroup.metabolizers_found",
    "discgroup.subgroups_found",
)


class Tracer:
    """Installs span and count wrappers into the loaded latcorr modules and
    restores the originals on `uninstall`."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = Counter()
        self.qid = None
        self._patched = []   # (module, attribute, original)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if name == "corrterm.coset_min":
                counts["corrterm.coset_min.nodes"] += result[2]
            elif name == "discgroup.metabolizers_of_group":
                counts["discgroup.metabolizers_found"] += len(result)
                counts["discgroup.subgroups_found"] += len(result)
            elif name == "discgroup.subgroups_of_order":
                counts["discgroup.subgroups_found"] += len(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package="latcorr"):
        """Wrap every listed function under every name bound to it in any
        loaded module of the package. A function the package no longer has
        is skipped; its metrics then read 0."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package
                                         or k.startswith(package + "."))]
        wrappers = {}
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            mod = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                make = self._count if layer in COUNTED and \
                    fname in COUNTED[layer] else self._span
                wrappers[id(fn)] = (fn, make(f"{layer}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    def metrics(self):
        """Per-layer figures over all spans recorded so far."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            self_s[name] += dur[i] - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:  # outermost span of this name: count it once
                busy_s[name] += dur[i]
        c = self.counts
        out = {}
        for key in PER_LAYER:
            if key.startswith("trace."):
                continue
            name, _, stat = key.rpartition(".")
            if stat == "calls" or key in COUNTERS:
                out[key] = c[key]
            elif stat == "self_ms":
                out[key] = 1000 * self_s[name]
            elif stat == "busy_ms":
                out[key] = 1000 * busy_s[name]
        out["discgroup.found_per_closure"] = (
            c["discgroup.subgroups_found"] / c["discgroup.closure.calls"]
            if c["discgroup.closure.calls"] else 0.0)
        out["corrterm.nodes_per_min"] = (
            c["corrterm.coset_min.nodes"] / c["corrterm.coset_min.calls"]
            if c["corrterm.coset_min.calls"] else 0.0)
        return out

    def counters(self):
        return {k: self.counts[k] for k in COUNTERS}

    def dump(self):
        """Spans as JSON-ready rows, times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, round(1e6 * (s - t0), 1), round(1e6 * (e - t0), 1),
                 parent, qid] for name, s, e, parent, qid in self.spans]
