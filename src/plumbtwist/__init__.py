"""
plumbtwist: exact twisted-complex calculus over a two-core plumbing category.

The package computes with formal complexes built from two graded objects
(the compact cores of a plumbing of cotangent bundles), applies the twist
functors along either core and whole braid words of them, normalizes
admissible complexes back to a shifted core with a checkable braid-word
certificate, models passing to covers by killing fundamental-class arrows,
and decides the Betti feasibility inequality for categorical twists on
non-spherical cores. All arithmetic is exact (prime field or rationals).
"""

from .category import Category, CategoryParams, ParameterError, category_for, make_params, validate_params
from .complexes import (
    HomComplex,
    Morphism,
    Summand,
    TwistedComplex,
    cone,
    direct_sum,
    empty_complex,
    equivalent,
    hf_ranks,
    hom_complex,
    minimize,
    shift,
    shift_normalized,
    single_core,
    total_rank,
    validate,
)
from .covers import (
    BettiVector,
    BoundaryRankReport,
    CoverSpec,
    FeasibilityReport,
    boundary_rank_check,
    decompose,
    fibre_rank,
    specialize,
    truncation_feasibility,
)
from .linalg import Field, invertible_combinations
from .normalizer import (
    Certificate,
    ComplexityReport,
    admissible,
    complexity,
    first_step_holds,
    normalize,
    reduction_step,
    relabel,
)
from .twists import (
    BraidLetter,
    apply_braid,
    check_braid_relation,
    core_orbit_witness,
    parse_word,
    twist,
    word_to_string,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
