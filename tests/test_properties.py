"""
Property tests on hostile documents and on random braid images.

Parsing must turn any JSON into a complex or into one of its two documented
errors, and must give back every complex it serialized. Cancelling a
contractible summand must give back the minimal model, and the lengths and
ranks of the braid images of a core must be the same over F_2, F_32003 and
Q. A hom complex's differential must square to zero, checked by multiplying
its columns out here. One built for the degree-0 window must have the full
hom's kernel out of degree 0, its cocycle representatives must be closed,
as many as the cohomology ranks and independent modulo the coboundaries,
and the quasi-isomorphism oracle must be symmetric. Its diagonal stage
must find a witness for every gauged copy, every witness must be a closed
map whose cone minimizes to zero, and on every pair the stage declines the
oracle must agree with the search-only reference.
The alternating braid words must follow their Fibonacci closed forms from
any shifted core, with the complex re-gauged before every twist. Over Q a
whole value is an int; the same complex with its ints boxed as whole-valued
Fractions must give the same braid images, ranks and certificates.
"""

import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import (
    INCONCLUSIVE,
    NO,
    YES,
    Morphism,
    Summand,
    TwistedComplex,
    _diagonal_witness,
    cone,
    direct_sum,
    equivalent,
    hf_ranks,
    hom_complex,
    minimize,
    shift,
    single_core,
)
from plumbtwist.covers import CoverSpec, specialize
from plumbtwist.linalg import echelon_of
from plumbtwist.normalizer import normalize
from plumbtwist.serialize import DocumentError, ValidationRejection, complex_to_dict, parse_complex, serialize_complex
from plumbtwist.twists import BraidLetter, apply_braid, apply_letter

import reference
from conftest import random_word
from reference import LETTERS, gauge

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


@st.composite
def complexes(draw, params):
    """A braid image, a direct sum of two, or the specialization of one to a cover of either core."""
    x = draw(braid_images(params))
    kind = draw(st.sampled_from(("braid", "sum", "cover")))
    if kind == "sum":
        return direct_sum(x, draw(braid_images(params)))
    if kind == "cover":
        return specialize(x, CoverSpec(draw(st.integers(0, 1))))
    return x


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CHARACTERISTICS))
def test_serialize_round_trips(data, characteristic):
    x = data.draw(complexes(make_params(3, characteristic)))
    back = parse_complex(serialize_complex(x))
    assert back.params == x.params and back.summands == x.summands and back.delta == x.delta


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CHARACTERISTICS))
def test_windowed_kernel_matches_full_kernel(data, characteristic):
    params = make_params(3, characteristic)
    c = data.draw(complexes(params))
    d = c if data.draw(st.booleans()) else data.draw(complexes(params))
    assert hom_complex(c, d, degrees={0}).kernel(0) == hom_complex(c, d).kernel(0)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CHARACTERISTICS))
def test_hom_differential_squares_to_zero(data, characteristic):
    # Every column of D out of degree g, pushed through D out of degree g + 1, multiplied out here.
    c = data.draw(complexes(make_params(3, characteristic)))
    d = c if data.draw(st.booleans()) else data.draw(complexes(c.params))
    columns = hom_complex(c, d).columns
    for g, cols in columns.items():
        for col in cols:
            image = {}
            for r, x in col.items():
                for s, y in columns[g + 1][r].items():
                    image[s] = image.get(s, 0) + x * y
            assert all((v % characteristic if characteristic else v) == 0 for v in image.values())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CHARACTERISTICS))
def test_cocycle_representatives_are_a_cohomology_basis(data, characteristic):
    params = make_params(3, characteristic)
    field = params.field
    c = data.draw(complexes(params))
    d = c if data.draw(st.booleans()) else data.draw(complexes(params))
    hom = hom_complex(c, d)
    reps = hom.cocycle_representatives()
    assert {g: len(vecs) for g, vecs in reps.items()} == hom.cohomology_ranks()
    for g, vecs in reps.items():
        for vec in vecs:
            assert not hom.morphism(g, vec).differential().comps
        coboundaries = hom.columns.get(g - 1, [])
        assert len(echelon_of(field, coboundaries + vecs)) == len(echelon_of(field, coboundaries)) + len(vecs)


@settings(max_examples=40, deadline=None)
@given(st.data(), words, st.integers(0, 1), st.sampled_from(CHARACTERISTICS))
def test_equivalent_is_symmetric(data, word, vertex, characteristic):
    # b is a longer word for the same braid, shifted by 0 (equivalent) or 1 (not),
    # or an unrelated braid image; a yes must never meet a no in either order.
    params = make_params(3, characteristic)
    core = single_core(params, vertex)
    a = apply_braid(word, core)
    wrong = None
    if data.draw(st.booleans()):
        letter = data.draw(st.sampled_from(LETTERS))
        at = data.draw(st.integers(0, len(word)))
        moved = data.draw(st.integers(0, 1))
        b = shift(apply_braid(word[:at] + (letter, letter.inverse()) + word[at:], core), moved)
        wrong = YES if moved else NO
    else:
        b = data.draw(braid_images(params))
    for x, y in ((a, b), (direct_sum(a, a), direct_sum(b, b))):
        verdict = equivalent(x, y)
        assert equivalent(y, x) == verdict != wrong


# n, characteristic and betti0 of the diagonal stage's inputs: every field, and a non-spherical Q0.
WITNESS_PARAMS = ((3, 2, None), (3, 5, None), (3, 32003, None), (3, 0, None), (3, 32003, (1, 1, 1, 1)))


def _witness_checked(c, d):
    """The diagonal stage's witness on the minimal models of c and d, checked as an isomorphism."""
    f = _diagonal_witness(minimize(c), minimize(d))
    if f is not None:
        assert not f.differential().comps
        assert minimize(cone(f)).is_empty
    return f


@settings(max_examples=200, deadline=None)
@given(st.data(), words, st.integers(0, 1), st.sampled_from(WITNESS_PARAMS), st.randoms(use_true_random=False))
def test_diagonal_witnesses_are_isomorphisms_and_declines_match_the_search(data, word, vertex, spec, rng):
    # c is a braid image x, or x + y with y = x or another image. d is gauged: another image,
    # x from a longer word for the same braid, y + x, c with its summands permuted, a shift
    # of c, or a cover of c.
    params = make_params(*spec)
    core = single_core(params, vertex)
    x = apply_braid(word, core)
    y = x if data.draw(st.booleans()) else data.draw(braid_images(params))
    summed = data.draw(st.booleans())
    c = direct_sum(x, y) if summed else x
    assert _witness_checked(c, gauge(c, rng)) is not None
    kind = data.draw(st.sampled_from(("image", "word", "swap", "permute", "shift", "cover")))
    if kind == "image":
        d = data.draw(braid_images(params))
    elif kind == "word":
        letter = data.draw(st.sampled_from(LETTERS))
        at = data.draw(st.integers(0, len(word)))
        d = apply_braid(word[:at] + (letter, letter.inverse()) + word[at:], core)
        d = direct_sum(d, y) if summed else d
    elif kind == "swap":
        d = direct_sum(y, x)
    elif kind == "permute":
        order = data.draw(st.permutations(range(len(c))))
        where = {old: new for new, old in enumerate(order)}
        d = TwistedComplex(params, [c.summands[k] for k in order], {(where[i], where[j]): combo
                                                                    for (i, j), combo in c.delta.items()})
    elif kind == "shift":
        d = shift(c, data.draw(st.integers(-1, 1)))
    else:
        d = specialize(c, CoverSpec(data.draw(st.integers(0, 1))))
    d = gauge(d, rng)
    if _witness_checked(c, d) is not None:
        assert equivalent(c, d) == YES
    else:
        assert equivalent(c, d) == reference.equivalent(c, d)


def test_diagonal_stage_declines_what_no_rescaling_maps():
    # A cover pair (its slots differ), a reordered sum whose two Q0[-2] summands tie in
    # minimize's order, the two sides of the braid relation on two braid images (13 and 8
    # summands) whose tied summands minimize to different slots, an entry of two names
    # scaled by a different ratio per name, and one slot holding a different name per side.
    q0 = single_core(make_params(3), 0)
    q1 = single_core(make_params(3), 1)
    x = apply_braid("s0 S1 s0 S1", q0)
    spec = specialize(x, CoverSpec(0))
    y = shift(q0, -2)
    pairs = [(x, spec, INCONCLUSIVE), (direct_sum(x, y), direct_sum(y, x), YES)]
    for image in (apply_braid("s1 S0 s1 S0 s1", q0), apply_braid("S0 s1 S0 s1", q1)):
        pairs.append((apply_braid("s0 s1 s0", image), apply_braid("s1 s0 s1", image), YES))
    params = make_params(3, 32003, (1, 2, 2, 1))
    summands = [Summand(0, 0), Summand(0, 0)]
    combo = TwistedComplex(params, summands, {(0, 1): {"x1.1": 1, "x1.2": 1}})
    pairs.append((combo, TwistedComplex(params, summands, {(0, 1): {"x1.1": 1, "x1.2": 2}}), INCONCLUSIVE))
    one = TwistedComplex(params, summands, {(0, 1): {"x1.1": 1}})
    pairs.append((one, TwistedComplex(params, summands, {(0, 1): {"x1.2": 1}}), INCONCLUSIVE))
    for c, d, verdict in pairs:
        assert minimize(c).summand_multiset() == minimize(d).summand_multiset()
        assert _witness_checked(c, d) is None
        assert equivalent(c, d) == reference.equivalent(c, d) == verdict
    # The same two names scaled by one ratio are a rescaling of the second summand.
    assert _witness_checked(combo, TwistedComplex(params, summands, {(0, 1): {"x1.1": 3, "x1.2": 3}})) is not None


def _fibonacci(i):
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1), st.integers(-4, 4), st.integers(1, 5), st.booleans(),
       st.sampled_from(CHARACTERISTICS), st.randoms(use_true_random=False))
def test_alternating_words_follow_fibonacci_under_gauges(v, s, k, twist_first, characteristic, rng):
    # (s_v S_{1-v})^k Q_v[s] has F(2k+1) summands and hf totals F(2k) against Q_v and
    # F(2k-1) against Q_{1-v}; (S_{1-v} s_v)^k Q_v[s] has F(2k+2), F(2k) and F(2k+1).
    params = make_params(3, characteristic)
    cores = (single_core(params, v), single_core(params, 1 - v))
    pair = (BraidLetter(v, 1), BraidLetter(1 - v, -1))
    c = shift(cores[0], s)
    for letter in (pair if twist_first else pair[::-1]) * k:
        c = apply_letter(letter, gauge(c, rng))
    got = (len(c), sum(hf_ranks(cores[0], c).values()), sum(hf_ranks(cores[1], c).values()))
    f = _fibonacci
    assert got == ((f(2 * k + 1), f(2 * k), f(2 * k - 1)) if twist_first else (f(2 * k + 2), f(2 * k), f(2 * k + 1)))


def _boxed(c):
    """c with every int coefficient boxed as a whole-valued Fraction, past the constructor that would unbox it."""
    out = TwistedComplex(c.params, c.summands)
    out.delta = {slot: {name: Fraction(x) for name, x in combo.items()} for slot, combo in c.delta.items()}
    return out


def test_whole_fractions_and_ints_give_the_same_answers():
    # Arithmetic on Fractions can leave a whole value boxed; it must equal and hash like its int.
    params = make_params(3, 0)
    cores = (single_core(params, 0), single_core(params, 1))
    rng = random.Random(2020)
    boxed_some = 0
    for _ in range(40):
        c = apply_braid(random_word(rng, 5, 2), cores[rng.randrange(2)])
        if rng.random() < 0.3:
            c = gauge(c, rng)  # ints and non-whole Fractions mixed
        boxed = _boxed(c)
        values = [x for combo in boxed.delta.values() for x in combo.values()]
        boxed_some += any(type(x) is Fraction and x.denominator == 1 for x in values)
        word = random_word(rng, 3)
        assert complex_to_dict(apply_braid(word, boxed)) == complex_to_dict(apply_braid(word, c))
        for core in cores:
            assert hf_ranks(core, boxed) == hf_ranks(core, c) and hf_ranks(boxed, core) == hf_ranks(c, core)
        assert hf_ranks(boxed, boxed) == hf_ranks(c, c)
        assert normalize(boxed).to_dict() == normalize(c).to_dict()
    assert boxed_some >= 12  # 17 of the 40 complexes carry an int to box
