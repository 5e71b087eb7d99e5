"""Embedding obstructions for definite integral lattices via correction
terms of unimodular overlattices, with applications to rational homology
spheres bounding rational homology balls or definite 4-manifolds."""

from .corrterm import (DSet, DSetEntry, MinimizationResult, constrained_min,
                       d_set, embeds_in_standard, min_char_square)
from .discgroup import (DiscGroup, Subgroup, disc_group, group_from_table,
                        metabolizers_of_group, subgroups_of_order)
from .lattice import Lattice, load_lattice, make_lattice
from .overlattice import OverLattice, is_integral, overlattice
from .topo import (DInvariantTable, FillingPresentation, ObstructionReport,
                   chain_check, definite_filling_obstruction, load_dtable,
                   linking_form_of_filling, rb_correction_obstruction)

__all__ = [
    "DInvariantTable", "DSet", "DSetEntry", "DiscGroup",
    "FillingPresentation", "Lattice", "MinimizationResult",
    "ObstructionReport", "OverLattice", "Subgroup", "chain_check",
    "constrained_min", "d_set", "definite_filling_obstruction", "disc_group",
    "embeds_in_standard", "group_from_table", "is_integral",
    "linking_form_of_filling", "load_dtable", "load_lattice", "make_lattice",
    "metabolizers_of_group", "min_char_square", "overlattice",
    "rb_correction_obstruction", "subgroups_of_order",
]

__version__ = "0.1.0"
