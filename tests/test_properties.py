"""
Property tests on hostile documents and on random braid images.

Parsing must turn any JSON into a complex or into one of its two documented
errors. Cancelling a contractible summand must give back the minimal model,
and the lengths and ranks of the braid images of a core must be the same
over F_2, F_32003 and Q.
"""

import json

from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import Morphism, cone, direct_sum, hf_ranks, minimize, shift, single_core
from plumbtwist.serialize import DocumentError, ValidationRejection, parse_complex, serialize_complex
from plumbtwist.twists import LETTERS, apply_braid

CHARACTERISTICS = (2, 32003, 0)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)

# Valid documents: Q0 -p-> Q1 over F_2, and a three-term complex over Q with a betti0 vector.
VALID = (
    {"n": 3, "char": 2, "summands": [{"vertex": 0, "position": 0}, {"vertex": 1, "position": 0}],
     "differential": [{"from": 0, "to": 1, "basis": "p", "coeff": "1"}]},
    {"n": 4, "char": 0, "betti0": [1, 0, 2, 0, 1],
     "summands": [{"vertex": 0, "position": 2}, {"vertex": 1, "position": 2}, {"vertex": 1, "position": 0}],
     "differential": [{"from": 0, "to": 1, "basis": "p", "coeff": "-3/5"},
                      {"from": 1, "to": 2, "basis": "f1", "coeff": "2"}]},
)

# Paths to every field of a valid document.
FIELDS = (
    ("n",), ("char",), ("betti0",), ("summands",), ("differential",),
    ("summands", 0), ("summands", 1, "vertex"), ("summands", 0, "position"),
    ("differential", 0), ("differential", 0, "from"), ("differential", 0, "to"),
    ("differential", 0, "basis"), ("differential", 0, "coeff"),
)


def _parses_or_rejects(text: str) -> None:
    try:
        parse_complex(text)
    except (DocumentError, ValidationRejection):
        pass


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_parse_raises_only_documented_errors_on_arbitrary_json(value):
    _parses_or_rejects(json.dumps(value))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID), st.sampled_from(FIELDS), json_values)
def test_parse_raises_only_documented_errors_on_one_replaced_field(doc, path, value):
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    _parses_or_rejects(json.dumps(doc))


words = st.lists(st.sampled_from(LETTERS), max_size=5).map(tuple)


@st.composite
def braid_images(draw, params):
    """A braid word applied to a core, shifted."""
    core = single_core(params, draw(st.integers(0, 1)))
    return shift(apply_braid(draw(words), core), draw(st.integers(-3, 3)))


def _identity(c):
    return Morphism(c, c, 0, {(i, i): {f"e{s.vertex}": c.params.field.one} for i, s in enumerate(c.summands)})


def _core_ranks(c):
    return [hf_ranks(single_core(c.params, v), c) for v in (0, 1)]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from((3, 4)), st.sampled_from(CHARACTERISTICS))
def test_minimize_cancels_a_contractible_summand(data, n, characteristic):
    params = make_params(n, characteristic)
    x = data.draw(braid_images(params))
    y = data.draw(braid_images(params))
    m = minimize(direct_sum(x, cone(_identity(y))))
    assert len(m) == len(x)
    assert _core_ranks(m) == _core_ranks(x)
    assert serialize_complex(minimize(m)) == serialize_complex(m)


@settings(max_examples=60, deadline=None)
@given(words, st.integers(0, 1))
def test_braid_image_ranks_agree_over_every_field(word, vertex):
    seen = []
    for characteristic in CHARACTERISTICS:
        x = apply_braid(word, single_core(make_params(3, characteristic), vertex))
        seen.append((len(x), _core_ranks(x), hf_ranks(x, x)))
    assert seen[0] == seen[1] == seen[2]
