"""
The integer rule: where the package expects an integer (a characteristic, a
vertex, a twist power, a summand position, a word length), every entry point
refuses a bool, a float, a string and None with its own exception type.
linalg.is_int is the one place that tells a bool from an int.
"""

import ast
from pathlib import Path

import pytest

import plumbtwist
from plumbtwist.category import CategoryParams, ParameterError, make_params
from plumbtwist.complexes import ComplexError, Summand, TwistedComplex, hf_ranks, require_valid, single_core, validate
from plumbtwist.covers import CoverError, CoverSpec, fibre_rank
from plumbtwist.linalg import Field, FieldError
from plumbtwist import twists
from plumbtwist.twists import BraidLetter, core_orbit_witness, twist

from reference import braid_images

P = make_params(3)
Q0 = single_core(P, 0)
NOT_INTEGERS = (True, 1.0, 0.0, "7", None)


ENTRY_POINTS = {
    "Field": (Field, FieldError),
    "make_params": (lambda v: make_params(3, v), ParameterError),
    "BraidLetter vertex": (lambda v: BraidLetter(v, 1), ValueError),
    "BraidLetter power": (lambda v: BraidLetter(0, v), ValueError),
    "CoverSpec": (CoverSpec, CoverError),
    "fibre_rank vertex": (lambda v: fibre_rank(Q0, v), CoverError),
    "twist power": (lambda v: twist(Q0, 0, v), ValueError),
    "core_orbit_witness max_length": (lambda v: core_orbit_witness(3, max_length=v), ValueError),
    "validate vertex": (lambda v: require_valid(TwistedComplex(P, [Summand(v, 0)])), ComplexError),
    "validate position": (lambda v: require_valid(TwistedComplex(P, [Summand(0, v)])), ComplexError),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_refuses_what_is_not_an_integer(entry, value):
    build, error = ENTRY_POINTS[entry]
    with pytest.raises(error):
        build(value)


def test_a_float_characteristic_never_builds_a_field():
    # At the parent, make_params(3, 5.0) built F_5.0 and its first minimize died in pow().
    with pytest.raises(ParameterError, match="integer"):
        make_params(3, 5.0)
    with pytest.raises(FieldError, match="integer"):
        Field("7")  # a bare TypeError from comparing a str with an int at the parent


def test_float_and_bool_letters_are_refused():
    with pytest.raises(ValueError, match="bad braid letter"):
        BraidLetter(1.0, -1.0)  # printed as S1.0 at the parent, which parse_word refuses
    with pytest.raises(CoverError, match="covered_vertex"):
        CoverSpec(0.0)


def test_a_negative_max_length_is_refused_before_any_twist(monkeypatch):
    # A negative length is the caller's error, not an exhausted search: SearchExhausted
    # would report that the single-orbit picture fails.
    def refuse(*args, **kwargs):
        raise AssertionError("twisted before refusing max_length")

    monkeypatch.setattr(twists, "twist", refuse)
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        core_orbit_witness(3, max_length=-1)
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        braid_images(Q0, -1)  # at the call, not at the first next()


def test_validate_refuses_a_bool_vertex_and_a_float_position():
    assert [v.kind for v in validate(TwistedComplex(P, [Summand(True, 0)]))] == ["vertex"]
    # A position that is not an int is reported alone: degrees are differences of positions.
    arrow = TwistedComplex(P, [Summand(0, 1.5), Summand(1, 0)], {(0, 1): {"p": 1}})
    assert [(v.kind, v.slot) for v in validate(arrow)] == [("position", None)]


def test_hom_complex_refuses_a_bool_vertex():
    with pytest.raises(ComplexError, match="off the cores"):
        hf_ranks(TwistedComplex(P, [Summand(True, 0)]), Q0)


def test_category_params_refuses_a_field_that_is_not_a_field():
    with pytest.raises(ParameterError, match="must be a Field"):
        CategoryParams(3, 5)


def _bool_isinstance_calls(tree):
    """(enclosing function name, line) of every isinstance(..., bool) or isinstance(..., (..., bool, ...)) call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_is_int_tells_a_bool_from_an_int():
    package = Path(plumbtwist.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        for function, line in _bool_isinstance_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) != ("linalg.py", "is_int"):
                stray.append(f"{path.name}:{line} in {function}")
    assert stray == [], "a copy of the integer rule; call linalg.is_int instead"
    assert _bool_isinstance_calls(ast.parse("def f(x):\n    return isinstance(x, (int, bool))\n")) == [("f", 2)]
