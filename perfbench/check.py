"""Answer checker for the benchmark's queries. It runs after the timed loop.

Three sources of truth, as far as each query allows:

- answers known by construction: d of conjugated I_n and E8 sums, the
  verdicts of B·Bᵀ forms, <1>+A8 and anisotropic forms, metabolizer and
  subgroup counts (isometry invariants), chain verdicts of "low"/"high"
  d-tables, exit codes of the bundled examples;
- `latcorr.oracle` where the input is small enough for it to finish
  quickly (it is far inside its own caps: `brute_subgroups` on 2^6 takes
  a minute);
- a committed digest of each query's canonical output at the default seed,
  and of the bundled examples at every seed. Witnesses are left out of the
  digest, since another minimizer may pick another one; instead each
  witness is checked to be characteristic with the reported square.

Every answer is also checked for internal consistency: metabolizers must be
isotropic subgroups of the right order, verdicts must follow from the
evidence the output itself reports.
"""

import hashlib
import json
from fractions import Fraction
from math import isqrt

VERDICT_EXIT = {"unobstructed": 0, "obstructed": 2, "inconclusive": 3}

# Groups up to this order are cross-checked with oracle.brute_subgroups.
ORACLE_GROUP_ORDER = 36


def strip_witness(obj):
    if isinstance(obj, dict):
        return {k: strip_witness(v) for k, v in obj.items() if k != "witness"}
    if isinstance(obj, list):
        return [strip_witness(v) for v in obj]
    return obj


def canonical(outcome):
    """The digested part of an outcome: exit code and output, no witnesses."""
    if "result" in outcome:
        body = {"result": outcome["result"]}
    elif "error" in outcome:
        body = {"error": outcome["error"]}
    else:
        try:
            payload = json.loads(outcome["stdout"]) if outcome["stdout"] \
                else None
        except ValueError:
            payload = outcome["stdout"]
        body = {"exit": outcome["exit"], "out": strip_witness(payload),
                "stderr": outcome["stderr"]}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(outcome):
    return hashlib.sha256(canonical(outcome).encode()).hexdigest()[:20]


# ---- group arithmetic, independent of latcorr ------------------------------

def _add(orders, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, orders))


def _pair(pairing, x, y):
    total = Fraction(0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            total += a * b * pairing[i][j]
    return total % 1


def _group_order(orders):
    n = 1
    for d in orders:
        n *= d
    return n


def _closure(orders, gens):
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _add(orders, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_subgroup(orders, elements, generators, order, pairing=None):
    """Problems with a reported subgroup: it must be the sorted element set
    generated by its generators, of the given order, and isotropic when a
    pairing is given."""
    elems = [tuple(e) for e in elements]
    gens = [tuple(g) for g in generators]
    if elems != sorted(set(elems)):
        return ["elements not sorted and distinct"]
    if len(elems) != order:
        return [f"subgroup of order {len(elems)}, expected {order}"]
    if any(len(e) != len(orders) or any(not 0 <= a < d
                                        for a, d in zip(e, orders))
           for e in elems + gens):
        return ["element out of range"]
    if _closure(orders, gens) != set(elems):
        return ["elements are not the subgroup the generators generate"]
    if pairing is not None and any(_pair(pairing, x, y) != 0
                                   for x in gens for y in gens):
        return ["subgroup is not isotropic"]
    return []


def _lift(generators, x, n):
    out = [Fraction(0)] * n
    for a, gen in zip(x, generators):
        if a:
            out = [c + a * g for c, g in zip(out, gen)]
    return out


def _quad(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j]
               for i in range(len(x)) if x[i] for j in range(len(y)) if y[j])


def check_witness(gram, lifts, elements, generators, witness, minimum):
    """A witness χ of U(M) = L + lifts(M), in L-coordinates, must lie in
    U(M), be characteristic there, and have square `minimum`."""
    n = len(gram)
    chi = [Fraction(x) for x in witness]
    if len(chi) != n:
        return ["witness has the wrong length"]
    if _quad(gram, chi, chi) != minimum:
        return ["witness square differs from the reported minimum"]
    if not any(all((c - v).denominator == 1
                   for c, v in zip(chi, _lift(lifts, x, n)))
               for x in elements):
        return ["witness does not lie in the overlattice"]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis += [_lift(lifts, g, n) for g in generators]
    for y in basis:
        if ((_quad(gram, chi, y) - _quad(gram, y, y)) / 2).denominator != 1:
            return ["witness is not characteristic"]
    return []


class Checker:
    """Checks outcomes of one workload's queries. `latcorr` is the loaded
    package; oracle results and discriminant groups are cached, since
    inputs recur across rounds."""

    def __init__(self, latcorr, digests=None, require_digest=False):
        self.lc = latcorr
        self.digests = digests  # None: do not compare with digests
        self.require_digest = require_digest
        self._groups = {}
        self._oracle = {}

    # -- helpers --

    def lattice_group(self, gram):
        key = json.dumps(gram)
        if key not in self._groups:
            lat = self.lc.lattice.make_lattice(gram)
            self._groups[key] = (lat, self.lc.discgroup.disc_group(lat))
        return self._groups[key]

    def oracle_subgroups(self, orders, pairing, order, isotropic):
        """Element lists of all subgroups of the given order, by brute
        force; None when the group is too large to enumerate quickly."""
        if _group_order(orders) > ORACLE_GROUP_ORDER:
            return None
        key = tuple(orders)  # the subgroups do not depend on the pairing
        if key not in self._oracle:
            grp = self.lc.discgroup.group_from_table(orders, pairing)
            self._oracle[key] = self.lc.oracle.brute_subgroups(grp)
        return sorted(
            [list(e) for e in s.elements] for s in self._oracle[key]
            if s.order == order and (not isotropic or all(
                _pair(pairing, x, y) == 0
                for x in s.generators for y in s.generators)))

    def check_metabolizers(self, orders, pairing, mets, expect_count=None):
        """`mets` is a list of (elements, generators) as reported."""
        problems = []
        n = _group_order(orders)
        m = isqrt(n)
        if m * m != n and mets:
            return ["metabolizers reported for a non-square order"]
        for elems, gens in mets:
            problems += check_subgroup(orders, elems, gens, m, pairing)
        lists = [[list(e) for e in elems] for elems, _ in mets]
        if lists != sorted(lists) or len({json.dumps(x) for x in lists}) \
                != len(lists):
            problems.append("metabolizers not sorted and distinct")
        if expect_count is not None and len(mets) != expect_count:
            problems.append(f"{len(mets)} metabolizers, expected "
                            f"{expect_count}")
        oracle = self.oracle_subgroups(orders, pairing, m, True) \
            if m * m == n else None
        if oracle is not None and oracle != lists:
            problems.append("metabolizers disagree with the oracle")
        return problems

    # -- per command --

    def check(self, q, outcome):
        """A list of problems; empty when the answer is right."""
        if "error" in outcome:
            return [f"raised {outcome['error']}"]
        problems = []
        if self.digests is not None:
            key = q.template if q.template.startswith("data:") else q.qid
            want = self.digests.get(key)
            if want is None and (self.require_digest or key != q.qid):
                problems.append("no committed digest for this query")
            elif want is not None and digest(outcome) != want:
                problems.append("output differs from the committed digest")
        if q.call is not None:
            return problems + self._subgroups(q, outcome["result"])
        code = outcome["exit"]
        if "exit" in q.expect and code != q.expect["exit"]:
            return problems + [f"exit {code}, expected {q.expect['exit']}"]
        if code == 1 or not outcome["stdout"]:
            return problems + [f"exit {code}: {outcome['stderr'].strip()}"]
        try:
            out = json.loads(outcome["stdout"])
        except ValueError:
            return problems + ["output is not JSON"]
        handler = {
            "metabolizers": self._metabolizers, "dinv": self._dinv,
            "embed-check": self._dset, "dset": self._dset,
            "rb-obstruction": self._table_report,
            "filling-obstruction": self._table_report,
            "chain": self._chain,
        }.get(q.argv[1])
        try:
            if handler is not None:
                problems += handler(q, code, out)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            problems.append(f"malformed output: {e!r}")
        return problems

    def _gram(self, q):
        if "gram" in q.source:
            return q.source["gram"]
        path = q.argv[q.argv.index("--filling") + 1] \
            if "--filling" in q.argv else q.argv[2]
        with open(path) as f:
            return json.load(f)["gram"]

    def _table(self, q, flag):
        if "table" in q.source:
            return q.source["table"]
        with open(q.argv[q.argv.index(flag) + 1]) as f:
            return json.load(f)

    def _subgroups(self, q, result):
        table = q.source["table"]
        orders = table["orders"]
        m = q.call[2]
        problems = []
        for elems in result:
            problems += check_subgroup(orders, elems,
                                       _generate(orders, elems), m)
        if result != sorted(result):
            problems.append("subgroups not sorted")
        if len(result) != q.expect["count"]:
            problems.append(f"{len(result)} subgroups, expected "
                            f"{q.expect['count']}")
        pairing = [[Fraction(x) for x in r] for r in table["pairing"]]
        oracle = self.oracle_subgroups(orders, pairing, m, False)
        if oracle is not None and oracle != result:
            problems.append("subgroups disagree with the oracle")
        return problems

    def _metabolizers(self, q, code, out):
        _, grp = self.lattice_group(self._gram(q))
        mets = [(m["elements"], m["generators"]) for m in out["metabolizers"]]
        return self.check_metabolizers(grp.orders, grp.pairing, mets,
                                       q.expect.get("count"))

    def _dinv(self, q, code, out):
        gram = self._gram(q)
        n = len(gram)
        d = Fraction(out["d"])
        problems = []
        if d != q.expect["d"]:
            problems.append(f"d = {d}, expected {q.expect['d']}")
        if out["min_char_square"] != 4 * d + n:
            problems.append("min_char_square and d disagree")
        problems += check_witness(gram, [], [()], [], out["witness"],
                                  out["min_char_square"])
        return problems

    def _dset(self, q, code, out):
        lat, grp = self.lattice_group(self._gram(q))
        gram = lat.gram_rows()
        n = len(gram)
        entries = out["entries"]
        problems = self.check_metabolizers(
            grp.orders, grp.pairing,
            [(e["metabolizer"], _generate(grp.orders, e["metabolizer"]))
             for e in entries])
        ds = []
        for e in entries:
            d = Fraction(e["d"])
            ds.append(d)
            if e["min_char_square"] != 4 * d + n:
                problems.append("min_char_square and d disagree")
            problems += check_witness(
                gram, grp.generators, [tuple(x) for x in e["metabolizer"]],
                _generate(grp.orders, e["metabolizer"]), e["witness"],
                e["min_char_square"])
        has_zero = 0 in ds
        if q.argv[1] == "embed-check":
            if out["embeds"] != has_zero or code != (0 if has_zero else 2):
                problems.append("embedding verdict contradicts the d-set")
            if out["orientation"] != ("negated" if lat.negated
                                      else "as-given"):
                problems.append("wrong orientation")
        elif out["contains_zero"] != has_zero or code != 0:
            problems.append("contains_zero contradicts the d-set")
        kind = q.expect.get("kind")
        if kind == "embeds" and not has_zero:
            problems.append("a B·Bᵀ form must embed")
        if kind == "a8" and set(ds) != {Fraction(-2)}:
            problems.append("<1>+A8 must have D = {-2}")
        if kind == "nomet" and entries:
            problems.append("an anisotropic form has no metabolizer")
        return problems

    def _table_report(self, q, code, out):
        table = self._table(q, "--dtable")
        orders = table["orders"]
        pairing = [[Fraction(x) for x in r] for r in table["pairing"]]
        values = {tuple(r["elem"]): Fraction(r["value"]) for r in table["d"]}
        ev = out["evidence"]
        problems = self.check_metabolizers(
            orders, pairing,
            [(e["metabolizer"], _generate(orders, e["metabolizer"]))
             for e in ev], q.expect.get("count"))
        recs = []
        for e in ev:
            got = [(tuple(r["elem"]), Fraction(r["value"]))
                   for r in e["d_values"]]
            want = [(tuple(x), values[tuple(x)]) for x in e["metabolizer"]]
            if got != want:
                problems.append("d_values do not match the table")
            recs.append([v for _, v in want])
        z2 = all(d % 2 == 1 for d in orders)
        if q.argv[1] == "rb-obstruction":
            verdict = "unobstructed" if any(all(v == 0 for v in r)
                                            for r in recs) else "obstructed"
            if not z2:
                verdict = "inconclusive"
        else:
            fires = any(all(v > 0 for v in r) for r in recs)
            verdict = ("inconclusive" if fires and not z2 else
                       "obstructed" if fires else "unobstructed")
        if out["verdict"] != verdict or code != VERDICT_EXIT[verdict]:
            problems.append(f"verdict {out['verdict']} (exit {code}), "
                            f"expected {verdict}")
        if ("caveat" in out) == z2:
            problems.append("even-order caveat wrongly present or missing")
        return problems

    def _chain(self, q, code, out):
        gram = self._gram(q)
        lat, grp = self.lattice_group(gram)
        table = self._table(q, "--dtable")
        values = {tuple(r["elem"]): Fraction(r["value"]) for r in table["d"]}
        if lat.negated:
            values = {tuple((-a) % d for a, d in zip(e, grp.orders)): -v
                      for e, v in values.items()}
        ev = out["evidence"]
        problems = self.check_metabolizers(
            grp.orders, grp.pairing,
            [(e["metabolizer"], _generate(grp.orders, e["metabolizer"]))
             for e in ev])
        holds = []
        d_overs = []
        for e in ev:
            elems = [tuple(x) for x in e["metabolizer"]]
            tmin = min(values[x] for x in elems)
            d_over = Fraction(e["d_overlattice"])
            cmin = Fraction(e["constrained_min"])
            d_overs.append(d_over)
            if Fraction(e["table_min"]) != tmin:
                problems.append("table_min is not the least table value")
            ok = 0 >= d_over >= cmin >= tmin
            if e["chain_holds"] != ok or ("failure" in e) == ok:
                problems.append("chain_holds contradicts the reported values")
            holds.append(ok)
        verdict = "unobstructed" if all(holds) else "obstructed"
        if out["verdict"] != verdict or code != VERDICT_EXIT[verdict]:
            problems.append(f"verdict {out['verdict']}, expected {verdict}")
        kind, style = q.expect.get("kind"), q.expect.get("style")
        if style == "low" and verdict != "unobstructed":
            problems.append("a table below -n/4 must satisfy the chain")
        if style == "high" and ev and verdict != "obstructed":
            problems.append("a positive table must violate the chain")
        if kind == "embeds" and 0 not in d_overs:
            problems.append("a B·Bᵀ form must have d_U(M) = 0")
        if kind == "a8" and set(d_overs) != {Fraction(-2)}:
            problems.append("<1>+A8 must have d_U(M) = -2")
        if kind == "nomet" and ev:
            problems.append("an anisotropic form has no metabolizer")
        return problems


def _generate(orders, elements):
    """A small generating set picked greedily from a reported element set,
    for outputs that list a subgroup's elements without generators."""
    gens = []
    span = {tuple(0 for _ in orders)}
    for e in map(tuple, elements):
        if e not in span:
            gens.append(e)
            span = _closure(orders, gens)
    return gens
