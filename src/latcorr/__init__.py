"""Embedding obstructions for definite integral lattices via correction
terms of unimodular overlattices, with applications to rational homology
spheres bounding rational homology balls or definite 4-manifolds."""

from .corrterm import (DSet, DSetEntry, MinimizationResult, constrained_min,
                       d_set, embeds_in_standard, min_char_square)
from .discgroup import (DiscGroup, Subgroup, annihilator, disc_group,
                        group_from_table, lam, metabolizers_of_group, project,
                        subgroups_of_order)
from .lattice import (CharCoset, Lattice, characteristic_base, discriminant,
                      is_characteristic, load_lattice, make_lattice)
from .overlattice import (OverLattice, dual_of, index_check, is_integral,
                          is_unimodular, overlattice)
from .topo import (DInvariantTable, FillingPresentation, ObstructionReport,
                   chain_check, definite_filling_obstruction, load_dtable,
                   linking_form_of_filling, donaldson_obstruction,
                   rb_correction_obstruction)

__all__ = [
    "CharCoset", "DInvariantTable", "DSet", "DSetEntry", "DiscGroup",
    "FillingPresentation", "Lattice", "MinimizationResult",
    "ObstructionReport", "OverLattice", "Subgroup", "annihilator",
    "chain_check", "characteristic_base", "constrained_min", "d_set",
    "definite_filling_obstruction", "disc_group", "discriminant",
    "donaldson_obstruction", "dual_of", "embeds_in_standard",
    "group_from_table", "index_check", "is_characteristic", "is_integral",
    "is_unimodular", "lam", "linking_form_of_filling", "load_dtable",
    "load_lattice", "make_lattice", "metabolizers_of_group",
    "min_char_square", "overlattice", "project", "rb_correction_obstruction",
    "subgroups_of_order",
]

__version__ = "0.1.0"
