"""Definite integral lattices: construction and loading.

A lattice is stored through its Gram matrix in a fixed basis.  Negative
definite input is negated on construction and the flip recorded, so all
downstream computation runs on positive definite forms.  The one LDLᵀ that
decides definiteness also gives det G, its last leading minor, which the
lattice keeps: unimodularity and the Smith form's modulus are read off it,
and no later stage factors the Gram matrix again to find it.
"""

import json
from dataclasses import dataclass

from . import exactmat
from .errors import (IndefiniteForm, InputError, NotPositiveDefinite,
                     SingularForm)


@dataclass(frozen=True)
class Lattice:
    """A positive definite integral lattice.

    gram is the (possibly negated) positive definite Gram matrix; negated
    records whether the input form was negative definite; det is the
    determinant of gram, so positive, and |det| of the input form.
    """

    gram: tuple
    det: int
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
    # a definite form has the sign of its first diagonal entry; the signed
    # form is positive definite iff its leading minors are positive, and
    # the last of them is its determinant; ldl checks symmetry first
    sign = -1 if gram[0][0] < 0 else 1
    signed = [[sign * x for x in row] for row in gram]
    try:
        minors, _ = exactmat.ldl(signed)
    except ValueError:
        raise InputError("Gram matrix must be symmetric") from None
    except NotPositiveDefinite:
        if exactmat.det(gram) == 0:
            raise SingularForm("Gram matrix is singular") from None
        raise IndefiniteForm(
            "form is neither positive nor negative definite") from None
    return Lattice(gram=tuple(tuple(row) for row in signed), det=minors[-1],
                   negated=sign < 0)


def read_json(path, what):
    """The JSON value in a UTF-8 file; failing to read it is an InputError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as e:
        raise InputError(f"cannot read {what} file {path}: {e}")


def read_gram(path):
    """The unchecked Gram matrix of a JSON file {"gram": [[ints]]}."""
    obj = read_json(path, "lattice")
    if not isinstance(obj, dict) or "gram" not in obj:
        raise InputError("lattice file must be a JSON object with a 'gram' key")
    return obj["gram"]


def load_lattice(path):
    """Load a lattice from a JSON file {"gram": [[ints]]}."""
    return make_lattice(read_gram(path))

