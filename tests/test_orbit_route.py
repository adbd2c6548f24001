"""
The one-pass orbit certificate and the self-homs hf_ranks takes through it.

normalize twists each letter of its word once: the reduction's own twists of
minimize(c) are the word applied to c. hf_ranks(c, c) with len(c) at least
ORBIT_SELF_HOM_LEN is the self-hom of the m copies of Q_v[s] that c's
certificate lands on. Routed ranks must equal the direct
hom_complex(c, c).cohomology_ranks() over F_2, F_5, F_32003 and Q for
n = 3..5, on gauged, shifted braid images and their m-fold sums. Covers,
sums of different orbit members, non-spherical complexes and invalid
complexes have no certificate and must take the direct route, with its
ranks or its exception.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from plumbtwist import twists
from plumbtwist.category import make_params
from plumbtwist.complexes import (
    ORBIT_SELF_HOM_LEN,
    ComplexError,
    Summand,
    TwistedComplex,
    direct_sum,
    hf_ranks,
    hom_complex,
    shift,
    single_core,
)
from plumbtwist.covers import CoverSpec, specialize
from plumbtwist.normalizer import normalize, orbit_certificate
from plumbtwist.twists import apply_braid

from reference import gauge
from slopes import slopes

FIELDS = (2, 5, 32003, 0)


def ladder(v, k):
    """The word (s_v S_{1-v})^k, whose image of Q_v has F(2k+1) summands."""
    return " ".join([f"s{v} S{1 - v}"] * k)


def copies(x, m):
    out = x
    for _ in range(m - 1):
        out = direct_sum(out, x)
    return out


def direct(c, d):
    return hom_complex(c, d).cohomology_ranks()


def builds_self_hom(homs, c):
    return any(a is c for a, _ in homs)


# -- one twist per letter ----------------------------------------------------------------


@pytest.mark.parametrize("k, m", ((3, 1), (4, 1), (3, 2)))
def test_normalize_twists_each_letter_once(monkeypatch, k, m):
    # The gauged, shifted ladder members of lengths 13 and 34, and twice the first.
    rng = random.Random(23 + k + m)
    params = make_params(3, 32003)
    x = shift(gauge(apply_braid(ladder(0, k), single_core(params, 0)), rng), rng.randint(-4, 4))
    c = copies(x, m)
    calls = []
    real = twists.twist

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twists, "twist", counted)
    cert = normalize(c)
    assert cert.multiplicity == m and len(cert.word) > 0
    assert len(calls) == len(cert.word)


# -- which route hf_ranks takes ----------------------------------------------------------------


def test_route_starts_at_its_length(homs):
    params = make_params(3)
    below = apply_braid(ladder(0, 3), single_core(params, 0))
    at = copies(shift(single_core(params, 1), 2), ORBIT_SELF_HOM_LEN)
    above = apply_braid(ladder(0, 4), single_core(params, 0))
    assert len(below) < ORBIT_SELF_HOM_LEN <= len(at) < len(above)
    for c in (below, at, above):
        homs.clear()
        ranks = hf_ranks(c, c)
        assert builds_self_hom(homs, c) == (c is below)
        assert ranks == direct(c, c)


def test_an_equal_copy_routes_and_a_different_partner_does_not(homs):
    params = make_params(3)
    c = apply_braid(ladder(1, 4), single_core(params, 1))
    twin = TwistedComplex(params, c.summands, c.delta)
    assert twin is not c
    ranks = hf_ranks(c, twin)
    assert not builds_self_hom(homs, c) and ranks == direct(c, c)
    other = shift(c, 1)
    homs.clear()
    ranks = hf_ranks(c, other)
    assert homs == [(c, other)] and ranks == direct(c, other)


@pytest.mark.parametrize("characteristic", FIELDS)
@pytest.mark.parametrize("vertex", (0, 1))
def test_many_copies_of_a_core_terminate(characteristic, vertex):
    # The routed hom of m >= ORBIT_SELF_HOM_LEN copies is built directly, so it cannot route again.
    params = make_params(4, characteristic)
    for m in (ORBIT_SELF_HOM_LEN, ORBIT_SELF_HOM_LEN + 3):
        c = copies(shift(single_core(params, vertex), -1), m)
        assert hf_ranks(c, c) == {0: m * m, 4: m * m}


# -- routed equals direct --------------------------------------------------------------------

# Ladder words of 13 and 34 summands from either core, with up to two letters
# before and after, and their m-fold sums, from ORBIT_SELF_HOM_LEN to CAP summands.
CAP = 70
LETTERS = ("s0", "S0", "s1", "S1")
ends = st.lists(st.sampled_from(LETTERS), max_size=2)
words = st.builds(lambda head, v, k, tail: " ".join(head + [ladder(v, k)] + tail),
                  ends, st.integers(0, 1), st.integers(3, 4), ends)


def _image(word, vertex, n, characteristic, rng):
    params = make_params(n, characteristic)
    return shift(gauge(apply_braid(word, single_core(params, vertex)), rng), rng.randint(-4, 4))


@settings(max_examples=40, deadline=None)
@given(words, st.integers(0, 1), st.integers(3, 5), st.sampled_from(FIELDS), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_routed_self_homs_equal_the_direct_ones(word, vertex, n, characteristic, m, rng):
    p, q = slopes(word, vertex)[-1]
    assume(ORBIT_SELF_HOM_LEN <= m * (abs(p) + abs(q)) <= CAP)
    c = copies(_image(word, vertex, n, characteristic, rng), m)
    cert = orbit_certificate(c)
    assert cert is not None and cert.multiplicity == m
    assert hf_ranks(c, c) == direct(c, c) == {0: m * m, n: m * m}


def _fallbacks(n, characteristic, rng):
    """Long complexes that no certificate covers: (what, complex)."""
    params = make_params(n, characteristic)
    x = _image(ladder(0, 4), 0, n, characteristic, rng)
    y = _image(ladder(1, 3), 1, n, characteristic, rng)
    yield "cover of Q0", specialize(x, CoverSpec(0))
    yield "cover of Q1", specialize(x, CoverSpec(1))
    yield "two orbit members", direct_sum(x, y)
    yield "a member and its shift", direct_sum(y, shift(y, 1))
    betti0 = (1, 1, 1, 1) if n == 3 else (1, 0, 2, 0, 1) if n == 4 else (1, 1, 0, 0, 1, 1)
    other = make_params(n, characteristic, betti0)
    yield "non-spherical", copies(single_core(other, 1), ORBIT_SELF_HOM_LEN)
    yield "non-spherical image", apply_braid(ladder(1, 3), copies(single_core(other, 1), 2))


@pytest.mark.parametrize("characteristic", FIELDS)
@pytest.mark.parametrize("n", (3, 4, 5))
def test_uncertified_self_homs_take_the_direct_route(homs, n, characteristic):
    rng = random.Random(n * 7 + characteristic)
    for what, c in _fallbacks(n, characteristic, rng):
        assert len(c) >= ORBIT_SELF_HOM_LEN, what
        assert orbit_certificate(c) is None, what
        homs.clear()
        ranks = hf_ranks(c, c)
        assert homs[-1] == (c, c) and ranks == direct(c, c), what


def _invalid(params):
    """Long complexes the direct hom refuses: (what, complex)."""
    x = apply_braid(ladder(0, 4), single_core(params, 0))
    # p runs from Q0 to Q1 at one position; between two positions its degree is wrong.
    a = next(k for k, s in enumerate(x.summands) if s.vertex == 0)
    b = next(k for k, s in enumerate(x.summands) if s.vertex == 1 and s.position != x.summands[a].position)
    yield "wrong degree", TwistedComplex(params, x.summands, {**x.delta, (a, b): {"p": 1}})
    moved = {(a + 1, b + 1): combo for (a, b), combo in x.delta.items()}
    yield "off the cores", TwistedComplex(params, (Summand(2, 0),) + x.summands, moved)


@pytest.mark.parametrize("characteristic", FIELDS)
def test_invalid_self_homs_raise_what_the_direct_route_raises(characteristic):
    params = make_params(3, characteristic)
    for what, c in _invalid(params):
        assert len(c) >= ORBIT_SELF_HOM_LEN and orbit_certificate(c) is None, what
        with pytest.raises(ComplexError) as want:
            direct(c, c)
        with pytest.raises(Exception) as got:
            hf_ranks(c, c)
        assert (got.type, str(got.value)) == (want.type, str(want.value)), what
