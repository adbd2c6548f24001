"""
The package's record types: immutable, hashed like tuples of their fields,
and with the reprs the golden digests and error messages were made with.
"""

import pytest

from plumbtwist.category import CategoryParams, category_for, make_params
from plumbtwist.complexes import Morphism, Summand, Violation, shift_normalized, single_core
from plumbtwist.covers import BettiVector, BoundaryRankReport, CoverSpec, truncation_feasibility
from plumbtwist.linalg import Field
from plumbtwist.normalizer import admissible, complexity, normalize, reduction_step
from plumbtwist.twists import BraidLetter, apply_braid

P = make_params(3)


def _certificate():
    return normalize(apply_braid("s0 S1", single_core(P, 0)))


RECORDS = {
    "Field": lambda: Field(5),
    "CategoryParams": lambda: P,
    "Summand": lambda: Summand(0, 1),
    "BasisMorphism": lambda: category_for(P).by_name["p"],
    "Violation": lambda: Violation("degree", (0, 1), "message"),
    "CoverSpec": lambda: CoverSpec(0, 2),
    "BettiVector": lambda: BettiVector((1, 0, 1)),
    "FeasibilityReport": lambda: truncation_feasibility((1, 0, 1)),
    "BoundaryRankReport": lambda: BoundaryRankReport({0: 1, 1: 1}, 2, True, (1, 1), True),
    "ComplexityReport": lambda: complexity(single_core(P, 0)),
    "AdmissibleReport": lambda: admissible(single_core(P, 0)),
    "ReductionStep": lambda: reduction_step(shift_normalized(apply_braid("s1", single_core(P, 0)))[0]),
    "TraceEntry": lambda: _certificate().trace[0],
    "Certificate": _certificate,
    "BraidLetter": lambda: BraidLetter(0, 1),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_attributes_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    attribute = record._fields[0] if hasattr(record, "_fields") else next(iter(vars(record)))
    before = getattr(record, attribute)
    with pytest.raises(AttributeError):
        setattr(record, attribute, 7)
    assert getattr(record, attribute) == before


def test_value_types_hash_like_their_field_tuples():
    for v, p in ((0, 0), (1, -3), (0, 12)):
        assert hash(Summand(v, p)) == hash((v, p))
        assert Summand(v, p) == Summand(v, p) and Summand(v, p) != (v, p)
    for p in (0, 2, 32003):
        assert hash(Field(p)) == hash((p,))
        assert Field(p) == Field(p) and Field(p) != p
    for params in (make_params(3), make_params(4, 0, (1, 0, 2, 0, 1))):
        assert hash(params) == hash((params.n, params.field, params.betti0))
        assert params == CategoryParams(params.n, Field(params.field.characteristic), params.betti0)
    assert make_params(3) != make_params(3, 2)


def test_category_is_cached_per_equal_params():
    assert make_params(3) is not make_params(3)
    assert category_for(make_params(3)) is category_for(make_params(3))


def test_reprs_are_kept():
    assert repr(Field(5)) == "Field(characteristic=5)"
    assert repr(Summand(1, -2)) == "Q1@-2"
    assert repr(category_for(P).by_name["q"]) == "q:1->0[2]"
    assert repr(P) == "CategoryParams(n=3, field=Field(characteristic=32003), betti0=None)"
    assert repr(CoverSpec(1)) == "CoverSpec(covered_vertex=1, index='infinite')"
    assert repr(BraidLetter(0, -1)) == "BraidLetter(vertex=0, power=-1)" and str(BraidLetter(0, -1)) == "S0"


def test_morphisms_never_share_a_default_comps():
    q0 = single_core(P, 0)
    f, g = Morphism(q0, q0, 0), Morphism(q0, q0, 0)
    f.comps[(0, 0)] = {"e0": 1}
    assert g.comps == {} and f.comps is not g.comps
