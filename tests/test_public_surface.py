"""
The names `import plumbtwist` makes public. __all__ is every name __init__
binds, so an import added there becomes public without anyone deciding it;
this list makes each change to the surface a line in the diff.
"""

import plumbtwist

PUBLIC = [
    "BettiVector",
    "BoundaryRankReport",
    "BraidLetter",
    "Category",
    "CategoryParams",
    "Certificate",
    "ComplexityReport",
    "CoverSpec",
    "FeasibilityReport",
    "Field",
    "HomComplex",
    "Morphism",
    "ParameterError",
    "Summand",
    "TwistedComplex",
    "admissible",
    "apply_braid",
    "boundary_rank_check",
    "category",
    "category_for",
    "check_braid_relation",
    "complexes",
    "complexity",
    "cone",
    "core_orbit_witness",
    "covers",
    "decompose",
    "direct_sum",
    "empty_complex",
    "equivalent",
    "fibre_rank",
    "hf_ranks",
    "hom_complex",
    "invertible_combinations",
    "linalg",
    "make_params",
    "minimize",
    "normalize",
    "normalizer",
    "orbit_certificate",
    "parse_word",
    "reduction_step",
    "shift",
    "single_core",
    "specialize",
    "total_rank",
    "truncation_feasibility",
    "twist",
    "twists",
    "validate",
    "validate_params",
    "word_to_string",
]


def test_public_names_are_pinned():
    assert sorted(plumbtwist.__all__) == PUBLIC
