"""
minimize against the reference body kept in reference.py, which rescans all
of delta for each cancellation. The inputs are the unminimized cones that
twists build (braid words of 1-7 letters from either core, n = 3..5), the
cones of scaled identities of gauged braid images, and two small complexes
on Q0 alone where a zig-zag creates a unit slot, or cancels a slot to zero
and a later one writes it again. On each, minimize must give the reference's
summands in the same order and the same delta, entry order included, must
be idempotent, and must leave its input as it was.
"""

import random

import pytest

from plumbtwist import twists
from plumbtwist.category import make_params
from plumbtwist.complexes import Morphism, Summand, TwistedComplex, cone, minimize, require_valid, single_core
from plumbtwist.serialize import complex_to_dict
from plumbtwist.twists import apply_braid

import reference
from conftest import random_word
from reference import gauge

FIELDS = (2, 5, 32003, 0)


def assert_matches_reference(c: TwistedComplex) -> None:
    before = complex_to_dict(c)
    got, want = minimize(c), reference.minimize(c)
    assert got.summands == want.summands
    assert list(got.delta.items()) == list(want.delta.items())
    again = minimize(got)
    assert again.summands == got.summands and again.delta == got.delta
    assert complex_to_dict(c) == before


def twist_cones(characteristic: int, seed: int) -> list[TwistedComplex]:
    """
    Every complex that apply_braid hands to minimize, on seeded words from
    either core at n = 3..5: five random words, whose letters mostly cancel,
    and the alternating word s_v S_{1-v} s_v ... of 7 letters, whose cones
    grow to dozens of summands.
    """
    rng = random.Random(seed)
    seen = []
    real = twists.minimize

    def recorded(c):
        seen.append(c)
        return real(c)

    twists.minimize = recorded
    try:
        for n in (3, 4, 5):
            params = make_params(n, characteristic)
            for _ in range(5):
                apply_braid(random_word(rng, 7), single_core(params, rng.randrange(2)))
            v = rng.randrange(2)
            apply_braid(" ".join([f"s{v}", f"S{1 - v}"] * 4)[:-3], single_core(params, v))
    finally:
        twists.minimize = real
    return seen


@pytest.mark.parametrize("characteristic", FIELDS)
def test_minimize_matches_the_reference_on_twist_cones(characteristic):
    cones = twist_cones(characteristic, 2500 + characteristic)
    assert max(len(c) for c in cones) > 20
    for c in cones:
        assert_matches_reference(c)


@pytest.mark.parametrize("characteristic", FIELDS)
def test_minimize_matches_the_reference_on_cones_of_gauged_identities(characteristic):
    rng = random.Random(2600 + characteristic)
    field = make_params(3, characteristic).field
    for n in (3, 4, 5):
        params = make_params(n, characteristic)
        for _ in range(3):
            c = gauge(apply_braid(random_word(rng, 6), single_core(params, rng.randrange(2))), rng)
            scale = field.element(rng.randrange(1, characteristic) if characteristic else rng.randint(1, 9))
            units = {(i, i): {"e0" if s.vertex == 0 else "e1": scale} for i, s in enumerate(c.summands)}
            x = cone(Morphism(c, c, 0, units))
            assert_matches_reference(x)
            assert minimize(x).is_empty


def units_on_q0(entries, positions) -> TwistedComplex:
    """A complex of Q0 summands at these positions whose entries (i, j, coefficient) are units."""
    params = make_params(3, 32003)
    c = TwistedComplex(params, [Summand(0, t) for t in positions],
                       {(i, j): {"e0": x} for i, j, x in entries})
    require_valid(c)
    return c


def test_a_zig_zag_that_creates_a_unit_slot_is_cancelled_next():
    # Cancelling 0 -> 1 writes the unit -5 * 3 / 2 on 2 -> 3, which must then be picked too.
    c = units_on_q0([(0, 1, 2), (2, 1, 3), (0, 3, 5)], (0, 1, 0, 1))
    assert_matches_reference(c)
    assert minimize(c).is_empty


def test_a_slot_cancelled_to_zero_can_be_written_again():
    # Cancelling 0 -> 1 cancels 4 -> 5 to zero; cancelling 2 -> 3 then writes 4 -> 5 afresh,
    # a new unit slot, and cancelling that leaves nothing.
    c = units_on_q0([(0, 1, 1), (4, 1, 1), (0, 5, 1), (4, 5, 1), (2, 3, 1), (4, 3, 1), (2, 5, 1)], (0, 1, 0, 1, 0, 1))
    assert_matches_reference(c)
    assert minimize(c).is_empty
    # Alone, 2 -> 3 stays cancelled, and 2 and 3 survive unconnected.
    c = units_on_q0([(0, 1, 1), (2, 1, 1), (0, 3, 1), (2, 3, 1)], (0, 1, 0, 1))
    assert_matches_reference(c)
    out = minimize(c)
    assert out.summands == (Summand(0, 1), Summand(0, 0)) and not out.delta
