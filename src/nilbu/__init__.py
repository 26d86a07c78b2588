"""Seifert manifolds with Nil geometry: homology, double covers, Z2-indices.

The pipeline: classify a Seifert invariant into one of the seven Nil
families, compute its first homology, enumerate the epimorphisms onto Z2 and
their equivalence classes, identify the double cover each one cuts out
(verified by an independent Reidemeister-Schreier/Smith-form oracle), and
attach the Borsuk-Ulam Z2-index (1, 2 or 3) to every pair.  quotients_of
inverts the covering map and reproduces the free-involution diagrams, and
verify_sweep cross-checks all of it against the independent routes.
"""

from .seifert import (FAMILIES, InvariantError, NilError, NilManifold, NotNil,
                      OrientationError, ParseError, SeifertInvariant, b_min,
                      cd_invariants, classify, euler_number, family_rows,
                      is_nil, normalize, orbifold_euler_char, parse_family,
                      parse_manifold, parse_seifert, reverse_orientation,
                      sweep)
from .presentation import (FinitePresentation, NotAHomomorphism, NotSurjective,
                           check_epimorphism, exponent_matrix, format_word,
                           free_reduce, fundamental_group,
                           reidemeister_schreier)
from .homology import (AbelianGroup, abelianization, h1, mod2_rank,
                       smith_normal_form)
from .epimorphisms import (ConeSlide, ConeSwap, EpiClass, EpiClassPartition,
                           FiberFlip, InvalidCharacter, KleinSwap,
                           MoveNotApplicable, TorusShear, Z2Char, apply_move,
                           available_moves, char_for, enumerate_epis,
                           equivalence_classes, validate_char)
from .paper import (expected_epi_count, expected_partition_shape,
                    expected_quotient_diagram, h1_closed_form,
                    h1_stated_relations, index_one_case, index_three_case)
from .coverings import (CoveringDescriptor, double_cover, quotients_of,
                        verify_cover)
from .bu_index import cup_cube_nonzero, index_is_one, index_report, z2_index
from .verify import verify_manifold, verify_sweep

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "ConeSlide", "ConeSwap", "CoveringDescriptor", "EpiClass",
    "EpiClassPartition", "FAMILIES", "FiberFlip", "FinitePresentation",
    "InvalidCharacter", "InvariantError", "KleinSwap", "MoveNotApplicable",
    "NilError", "NilManifold", "NotAHomomorphism", "NotNil", "NotSurjective",
    "OrientationError", "ParseError", "SeifertInvariant", "TorusShear",
    "Z2Char", "abelianization", "apply_move", "available_moves", "b_min",
    "cd_invariants", "char_for", "check_epimorphism", "classify",
    "cup_cube_nonzero", "double_cover", "enumerate_epis", "equivalence_classes",
    "euler_number", "expected_epi_count", "expected_partition_shape",
    "expected_quotient_diagram", "exponent_matrix", "family_rows",
    "format_word", "free_reduce", "fundamental_group", "h1", "h1_closed_form",
    "h1_stated_relations", "index_is_one", "index_one_case", "index_report",
    "index_three_case", "is_nil", "mod2_rank", "normalize",
    "orbifold_euler_char", "parse_family", "parse_manifold", "parse_seifert",
    "quotients_of", "reidemeister_schreier", "reverse_orientation",
    "smith_normal_form", "sweep", "validate_char", "verify_cover",
    "verify_manifold", "verify_sweep", "z2_index",
]
