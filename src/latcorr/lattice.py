"""Definite integral lattices: construction, duals, characteristic covectors.

A lattice is stored through its Gram matrix in a fixed basis.  Negative
definite input is negated on construction and the flip recorded, so all
downstream computation runs on positive definite forms.

Vectors of the dual lattice are carried as rational coordinate vectors with
respect to the lattice basis (never in an ambient orthonormal basis).
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import exactmat
from .errors import (IndefiniteForm, InputError, NotInDualLattice,
                     SingularForm)


@dataclass(frozen=True)
class Lattice:
    """A positive definite integral lattice.

    gram is the (possibly negated) positive definite Gram matrix; negated
    records whether the input form was negative definite.
    """

    gram: tuple
    negated: bool = False

    @property
    def rank(self):
        return len(self.gram)

    def gram_rows(self):
        return [list(row) for row in self.gram]


def make_lattice(gram):
    """Build a Lattice from a symmetric nonsingular definite Gram matrix."""
    rows = (list, tuple)
    if not isinstance(gram, rows) or \
            not all(isinstance(row, rows) for row in gram):
        raise InputError("Gram matrix must be a list of rows")
    if not exactmat.is_square(gram):
        raise InputError("Gram matrix must be square and nonempty")
    if not all(type(x) is int for row in gram for x in row):  # bool is no int
        raise InputError("Gram matrix entries must be integers")
    if not exactmat.is_symmetric(gram):
        raise InputError("Gram matrix must be symmetric")
    # a definite form has the sign of its first diagonal entry; the signed
    # form is positive definite iff its leading minors are positive
    sign = -1 if gram[0][0] < 0 else 1
    signed = [[sign * x for x in row] for row in gram]
    if exactmat.is_positive_definite(signed):
        return Lattice(gram=tuple(tuple(row) for row in signed),
                       negated=sign < 0)
    if exactmat.det(gram) == 0:
        raise SingularForm("Gram matrix is singular")
    raise IndefiniteForm("form is neither positive nor negative definite")


def read_gram(path):
    """The unchecked Gram matrix of a JSON file {"gram": [[ints]]}."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read lattice file {path}: {e}")
    if not isinstance(obj, dict) or "gram" not in obj:
        raise InputError("lattice file must be a JSON object with a 'gram' key")
    return obj["gram"]


def load_lattice(path):
    """Load a lattice from a JSON file {"gram": [[ints]]}."""
    return make_lattice(read_gram(path))


def discriminant(lat):
    """|det(gram)|, the order of the discriminant group."""
    return abs(exactmat.det(lat.gram_rows()))


def dual_coords(lat, v):
    """Pairings of v with the lattice basis (gram·v); integral iff v ∈ L*."""
    return exactmat.mat_vec(lat.gram_rows(), [Fraction(x) for x in v])


def pairing(lat, v, w):
    """The rational value Q(v, w) for v, w in L⊗Q (lattice coordinates)."""
    gv = dual_coords(lat, v)
    return sum(x * Fraction(y) for x, y in zip(gv, w))


def is_characteristic(lat, chi):
    """True iff Q(chi, y) ≡ Q(y, y) mod 2 for all basis vectors y."""
    w = dual_coords(lat, chi)
    if any(x.denominator != 1 for x in w):
        raise NotInDualLattice("vector does not pair integrally with the lattice")
    return all((int(wi) - lat.gram[i][i]) % 2 == 0 for i, wi in enumerate(w))
