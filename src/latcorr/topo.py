"""Obstructions for rational homology spheres bounding balls or definite
4-manifolds.

Heegaard Floer d-invariants are ingested as data files, never computed; a
table keys exact rational values by discriminant-group elements (the
Poincaré duals of first Chern classes).  When |H₁| is even that keying is
not a bijection: the ball obstruction is then inconclusive, the filling
obstruction is inconclusive when it fires and carries a caveat otherwise,
and `chain_check` does not yet take the parity into account.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import corrterm, discgroup, exactmat, lattice as lattice_mod
from .errors import (GroupMismatch, IncompleteTable, InputError,
                     InvariantViolation)

EVEN_ORDER_CAVEAT = (
    "some group order is even, so spin^c structures are not in bijection "
    "with group elements via PD(c1); results on this input are inconclusive")


@dataclass(frozen=True)
class FillingPresentation:
    group: object              # disc group of the normalized lattice

    @property
    def negated(self):  # the input form was negative definite
        return self.group.lattice.negated

    @property
    def boundary_pairing(self):
        """The linking pairing of the boundary as Fractions in [0, 1): the
        group's pairing, negated when the input was negative definite."""
        if self.negated:
            return tuple(tuple((-x) % 1 for x in row)
                         for row in self.group.pairing)
        return self.group.pairing


@dataclass(frozen=True)
class DInvariantTable:
    group: object              # the linking form, a table-derived DiscGroup
    values: dict               # element tuple -> Fraction d(Y, t)

    @property
    def complete(self):
        return len(self.values) == self.group.order

    @property
    def z2_homology_sphere(self):
        return all(d % 2 == 1 for d in self.group.orders)


@dataclass(frozen=True)
class MetabolizerRecord:
    metabolizer: object
    d_values: tuple = None        # (element, d(Y,t)) over the metabolizer
    d_over: Fraction = None       # d_{U(M)}
    constrained: Fraction = None  # constrained characteristic minimum
    table_min: Fraction = None
    chain_holds: bool = None
    failure: str = None


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str  # "obstructed" | "unobstructed" | "inconclusive"
    evidence: tuple
    reason: str = None
    caveat: str = None
    orientation_note: str = None


def _expect(value, kind, what):
    """A JSON value of exactly the given type (so a bool is no int)."""
    if type(value) is not kind:
        raise InputError(f"d-table {what} must be a JSON {kind.__name__}, "
                         f"got {value!r}")
    return value


def _check_nondegenerate(grp):
    """Reject a pairing that is not a linking form, without enumerating G:
    with N the exponent, x ↦ λ(x, ·) has ∏ N/gcd(N, s_i) values over the
    Smith divisors s_i of the integer form N·λ, and that must be |G|.
    Only gcd(N, s_i) is read, so the Smith form is taken modulo N."""
    n = grp.exponent
    dec = exactmat.snf(grp.form, modulus=n)
    if prod(n // gcd(n, s) for s in dec.divisors) != grp.order:
        raise InputError("d-table pairing is degenerate: not a linking form")


def load_dtable(path):
    """Load a d-invariant table from its JSON file format."""
    obj = _expect(lattice_mod.read_json(path, "d-table"), dict, "file")
    for key in ("orders", "pairing", "d", "z2_homology_sphere"):
        if key not in obj:
            raise InputError(f"d-table file is missing the '{key}' key")
    grp = discgroup.group_from_table(obj["orders"], obj["pairing"])
    _check_nondegenerate(grp)
    # each record is checked and parsed in one pass; a key is checked
    # against the orders, never against an enumeration of G
    ranges = tuple(map(range, grp.orders))
    values = {}
    for rec in _expect(obj["d"], list, "'d'"):
        if type(rec) is not dict:
            raise InputError(
                f"d-table record must be a JSON dict, got {rec!r}")
        if "elem" not in rec or "value" not in rec:
            raise InputError("d-table record lacks 'elem' or 'value'")
        elem = rec["elem"]
        if type(elem) is not list:
            raise InputError(f"d-table elem must be a JSON list, got {elem!r}")
        for a in elem:
            if type(a) is not int:  # a bool is no int
                raise InputError(
                    f"d-table element must be a JSON int, got {a!r}")
        elem = tuple(elem)
        if len(elem) != len(ranges) or \
                not all(map(range.__contains__, ranges, elem)):
            raise InputError(f"d-table element {elem} out of range")
        if elem in values:
            raise InputError(f"duplicate d-table element {elem}")
        values[elem] = discgroup.parse_rational(rec["value"])
    table = DInvariantTable(group=grp, values=values)
    z2 = _expect(obj["z2_homology_sphere"], bool, "z2_homology_sphere")
    if z2 != table.z2_homology_sphere:
        raise InputError(
            "z2_homology_sphere flag contradicts the group orders")
    return table


def linking_form_of_filling(q):
    """Boundary group and linking pairing of a definite filling with
    H₁(X) = 0, from its intersection form.

    The linking pairing is the discriminant form of Q_X itself; when the
    input is negative definite the lattice is normalized to positive
    definite and the pairing sign flipped back accordingly.  Its Fraction
    view `boundary_pairing` is built only when read.
    """
    lat = lattice_mod.make_lattice(q)
    return FillingPresentation(group=discgroup.disc_group(lat))


def _orientation_note(negated):
    if negated:
        return ("input form was negative definite; computations ran on its "
                "negation and the pairing sign was adjusted")
    return None


def _require_complete(table):
    if not table.complete:
        raise IncompleteTable(
            "d-table does not key every element of the group")


def _table_evidence(table):
    """One record per metabolizer of a complete table's group, holding the
    table's values on it."""
    _require_complete(table)
    return tuple(
        MetabolizerRecord(metabolizer=m,
                          d_values=tuple((e, table.values[e])
                                         for e in m.elements))
        for m in discgroup.metabolizers_of_group(table.group))


def rb_correction_obstruction(table):
    """Correction-term obstruction to bounding a rational homology ball:
    unobstructed iff some metabolizer carries d ≡ 0."""
    evidence = _table_evidence(table)
    if not evidence:
        verdict, reason = "obstructed", "no metabolizer exists"
    elif any(all(v == 0 for _, v in rec.d_values) for rec in evidence):
        verdict, reason = "unobstructed", None
    else:
        verdict, reason = "obstructed", \
            "every metabolizer carries a nonzero correction term"
    if not table.z2_homology_sphere:
        return ObstructionReport(verdict="inconclusive", evidence=evidence,
                                 reason=reason, caveat=EVEN_ORDER_CAVEAT)
    return ObstructionReport(verdict=verdict, evidence=evidence, reason=reason)


def definite_filling_obstruction(table):
    """Obstruction to bounding a positive definite filling with H₁ = 0:
    fires iff some metabolizer carries strictly positive d everywhere."""
    evidence = _table_evidence(table)
    fires = any(all(v > 0 for _, v in rec.d_values) for rec in evidence)
    caveat = None if table.z2_homology_sphere else EVEN_ORDER_CAVEAT
    if fires and caveat:
        # a keyed table may miss spin^c structures, so a firing test on
        # even-order input cannot be trusted
        return ObstructionReport(verdict="inconclusive", evidence=evidence,
                                 caveat=caveat)
    verdict = "obstructed" if fires else "unobstructed"
    return ObstructionReport(verdict=verdict, evidence=evidence, caveat=caveat)


def chain_check(q, table):
    """Judge constrained min ≥ min d(Y,t) per metabolizer; a violation
    means the d-table cannot belong to the boundary of the given filling.
    0 ≥ d_{U(M)} ≥ constrained min are theorems (Elkies; Char(U) ⊂
    Char(L) ∩ U) and raise `InvariantViolation` if they fail.  When some
    metabolizer has min d(Y,t) ≥ 0 and the chain holds, L embeds in Zⁿ.

    For odd |G| the middle inequality is an equality, and the constrained
    minimum is taken as d_{U(M)} without a search: [L* : U(M)] = |M| is
    odd, so Λ = U ∩ 2L* = 2U, and the characteristic covectors of L in U
    form one coset of 2U holding U's own characteristic coset.
    """
    filling = linking_form_of_filling(q)
    _require_complete(table)
    grp = filling.group
    n = grp.exponent  # the boundary's form is −P mod N for a negated filling
    form = tuple(tuple(-x % n for x in row) for row in grp.form) \
        if filling.negated else grp.form
    if table.group.orders != grp.orders or table.group.form != form:
        raise GroupMismatch(
            "d-table group or pairing does not match the filling boundary")
    records = []
    embeds = False
    for entry in corrterm.d_set(grp).entries:
        m, d_over = entry.metabolizer, entry.result.d
        if grp.order % 2:
            cmin = d_over  # the L-characteristic covectors in U(M) are U's
        else:
            cmin = corrterm.constrained_min(grp.lattice, entry.overlattice,
                                            entry.result.reduction)
            if d_over < cmin:  # Char(U) ⊂ Char(L) ∩ U
                raise InvariantViolation(
                    f"d_U(M) = {d_over} < constrained min {cmin}")
        if filling.negated:
            # orientation reversal: d(-Y, t) = -d(Y, t), elements conjugate,
            # read on the metabolizer only
            d_values = tuple((e, -table.values[discgroup.neg(grp, e)])
                             for e in m.elements)
        else:
            d_values = tuple((e, table.values[e]) for e in m.elements)
        tmin = min(v for _, v in d_values)
        failure = None
        if cmin < tmin:
            failure = f"constrained min >= min d(Y,t) fails: {cmin} < {tmin}"
        elif tmin >= 0:
            embeds = True  # forces d_U(M) = 0 along the chain
        records.append(MetabolizerRecord(
            metabolizer=m, d_over=d_over, constrained=cmin, table_min=tmin,
            d_values=d_values,
            chain_holds=failure is None, failure=failure))
    consistent = all(r.chain_holds for r in records)
    verdict = "unobstructed" if consistent else "obstructed"
    reason = None
    if not consistent:
        reason = ("chain inequality violated: the d-table is inconsistent "
                  "with the boundary of this filling")
    elif embeds:
        reason = ("some metabolizer has min d(Y,t) >= 0, so the filling "
                  "lattice embeds in the standard lattice")
    return ObstructionReport(
        verdict=verdict, evidence=tuple(records), reason=reason,
        orientation_note=_orientation_note(filling.negated))
