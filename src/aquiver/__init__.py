"""Exact computations with pointwise-finite representations of the
oriented real line: barcodes, Hom/Ext, projectives, almost-split sequences."""

from .intervals import BarMultiset, Interval, NEG_INF, POS_INF, intersect
from .linalg import Matrix, PrimeField, QQ, RationalField
from .orientation import Orientation, Segment, down_set, leq, reverse, segment_index, up_set
from .tamerep import RepMorphism, TameRep, conjugate, dual, from_bars, scramble
from .decompose import InternalInvariantError, decompose, iso
from .homological import (ProjPresentation, ProjectiveLabel, classify_projective, ext_dim,
                          hom_dim, hom_space_dim, injective_composites_criterion,
                          is_projective_rep, kernel_of_projective_map, proj_presentation,
                          projectives_table, realize_projective)
from .ar import (ARAnswer, ARSequence, ar_ending_at, ar_starting_at,
                 standard_probes, verify_almost_split)

__all__ = [
    "BarMultiset", "Interval", "NEG_INF", "POS_INF", "intersect",
    "Matrix", "PrimeField", "QQ", "RationalField",
    "Orientation", "Segment", "down_set", "leq", "reverse", "segment_index", "up_set",
    "RepMorphism", "TameRep", "conjugate", "dual", "from_bars", "scramble",
    "InternalInvariantError", "decompose", "iso",
    "ProjPresentation", "ProjectiveLabel", "classify_projective", "ext_dim", "hom_dim",
    "hom_space_dim", "injective_composites_criterion", "is_projective_rep",
    "kernel_of_projective_map", "proj_presentation", "projectives_table",
    "realize_projective",
    "ARAnswer", "ARSequence", "ar_ending_at", "ar_starting_at",
    "standard_probes", "verify_almost_split",
]

__version__ = "0.1.0"
