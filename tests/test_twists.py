import itertools
import random

import pytest

from plumbtwist import complexes, twists
from plumbtwist.category import ParameterError, make_params
from plumbtwist.complexes import (
    YES,
    Summand,
    direct_sum,
    equivalent,
    hf_ranks,
    shift,
    single_core,
    total_rank,
    validate,
)
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import (
    BraidLetter,
    SearchExhausted,
    apply_braid,
    check_braid_relation,
    core_orbit_witness,
    parse_word,
    twist,
    word_to_string,
)

from conftest import braid_corpus, random_word, refuse_oracle
from reference import LETTERS, braid_images


@pytest.fixture(scope="module", params=[3, 4])
def P(request):
    return make_params(request.param)


def test_word_parsing_round_trip():
    word = parse_word("s0 S1 s1 S0")
    assert word_to_string(word) == "s0 S1 s1 S0"
    assert word == (BraidLetter(0, 1), BraidLetter(1, -1), BraidLetter(1, 1), BraidLetter(0, -1))
    with pytest.raises(ValueError):
        parse_word("t0")
    with pytest.raises(ValueError):
        BraidLetter(True, 1)


def test_twist_shift_law(P):
    n = P.n
    for vertex in (0, 1):
        q = single_core(P, vertex)
        t = twist(q, vertex, 1)
        assert t.summands == (Summand(vertex, n - 1),) and not t.delta  # = Q[1-n]
        assert equivalent(t, shift(q, 1 - n)) == YES


def test_twist_refuses_bad_vertex_and_power(P):
    q0 = single_core(P, 0)
    for vertex, power in ((2, 1), (-1, 1), (0, 2), (True, 1), (False, -1), (1.0, 1), (0, True), (0, 1.0)):
        with pytest.raises(ValueError):
            twist(q0, vertex, power)


def test_twist_checks_the_letter_before_validating(P, monkeypatch):
    # An invalid complex with a bad letter: the letter is refused, and validate never runs.
    broken = complexes.TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"q": 1}})

    def refuse(c):
        raise AssertionError("validate ran before the letter was checked")

    monkeypatch.setattr(complexes, "validate", refuse)
    for vertex, power, word in ((0, 2, "power"), (2, 1, "vertex"), (True, 1, "vertex")):
        with pytest.raises(ValueError, match=f"twist {word} must be"):
            twist(broken, vertex, power)


def test_twist_of_other_core_is_two_term_complex(P):
    got = twist(single_core(P, 1), 0, 1)
    assert got.summands == (Summand(0, 0), Summand(1, 0))
    assert got.delta == {(0, 1): {"p": P.field.one}}
    assert validate(got) == []


def test_twist_ranks_follow_shift_bookkeeping(P):
    # Independent oracle: the twist of Q0 is Q0[1-n], so pairing with Q0
    # shifts the core's self-pairing degrees up by n-1.
    q0 = single_core(P, 0)
    base = hf_ranks(q0, q0)
    expected = {g + P.n - 1: r for g, r in base.items()}
    assert hf_ranks(q0, twist(q0, 0, 1)) == expected


def test_inverse_law_on_seeded_corpus(P):
    _, _, corpus = braid_corpus(P.n, 10, 4, seed=1009)
    for _, c in corpus:
        for vertex in (0, 1):
            for eps in (1, -1):
                back = twist(twist(c, vertex, eps), vertex, -eps)
                assert equivalent(back, c) == YES


def test_apply_braid_empty_and_cancellation(P):
    q0 = single_core(P, 0)
    assert apply_braid((), q0).summands == q0.summands
    assert equivalent(apply_braid("s0 S0", q0), q0) == YES


def test_word_followed_by_inverse_is_identity(P):
    rng = random.Random(77)
    q0 = single_core(P, 0)
    for _ in range(4):
        word = random_word(rng, 4)
        c = apply_braid(tuple(letter.inverse() for letter in reversed(word)), apply_braid(word, q0))
        assert equivalent(c, q0) == YES


def test_two_letter_word_matches_hand_expansion(P):
    # Applying the twist along Q1 and then along Q0 to Q0 lands on Q1[2-n]:
    # first the dotted-arrow cone, then the unit cancellation collapse.
    n = P.n
    got = apply_braid("s1 s0", single_core(P, 0))
    assert got.summands == (Summand(1, n - 2),) and not got.delta
    assert hf_ranks(single_core(P, 0), got) == {n - 1: 1}
    assert hf_ranks(single_core(P, 1), got) == {n - 2: 1, 2 * n - 2: 1}


def test_braid_relation_on_cores_and_sum(P):
    q0, q1 = single_core(P, 0), single_core(P, 1)
    assert check_braid_relation(q0) == YES
    assert check_braid_relation(q1) == YES
    assert check_braid_relation(direct_sum(q0, shift(q1, -2))) == YES


def test_rank_functoriality_under_twists(P):
    rng = random.Random(4242)
    q0 = single_core(P, 0)
    for _ in range(4):
        c = apply_braid(random_word(rng, 3), q0)
        d = apply_braid(random_word(rng, 3), q0)
        for vertex in (0, 1):
            assert hf_ranks(twist(c, vertex, 1), twist(d, vertex, 1)) == hf_ranks(c, d)


def test_single_twist_rank_growth_is_strict(P):
    # The unboundedness statement: iterating one twist on the other core
    # grows the pairing with the fixed core without bound (linearly here).
    q0, q1 = single_core(P, 0), single_core(P, 1)
    c, totals = q1, []
    for _ in range(8):
        c = twist(c, 0, 1)
        totals.append(total_rank(hf_ranks(q1, c)))
    assert totals == sorted(set(totals)), f"not strictly increasing: {totals}"
    c, totals = q0, []
    for _ in range(8):
        c = twist(c, 1, 1)
        totals.append(total_rank(hf_ranks(q0, c)))
    assert all(b > a for a, b in zip(totals, totals[1:])), totals


def test_deep_alternating_ladder_follows_fibonacci():
    # (s0 S1)^k Q0 has F(2k+1) summands, and hf against Q0 and Q1 has total
    # ranks F(2k) and F(2k-1); ac07 checks k <= 8, this continues the ladder.
    params = make_params(3, 32003)
    q0, q1 = single_core(params, 0), single_core(params, 1)
    c = apply_braid(" ".join(["s0 S1"] * 8), q0)
    got = {}
    for k in (9, 10):
        c = apply_braid("s0 S1", c)
        got[k] = (len(c), total_rank(hf_ranks(q0, c)), total_rank(hf_ranks(q1, c)))
    assert got == {9: (4181, 2584, 1597), 10: (10946, 6765, 4181)}


def test_central_word_acts_as_pure_shift(P):
    # (T1 T0)^3 is the boundary twist: it fixes each core up to shift, which
    # is why its rank sequence is periodic rather than growing.
    q0 = single_core(P, 0)
    got = apply_braid("s0 s1 s0 s1 s0 s1", q0)
    assert len(got) == 1 and got.summands[0].vertex == 0
    assert got.summands[0].position == 3 * (P.n - 1) - 1


def test_core_orbit_witness_small(P):
    word, shiftval = core_orbit_witness(P.n)
    assert len(word) <= 2
    target = shift(single_core(P, 1), shiftval)
    assert equivalent(apply_braid(word, single_core(P, 0)), target) == YES


def test_core_orbit_witness_rejects_bad_dimension():
    with pytest.raises(ParameterError):
        core_orbit_witness(2)


def test_core_orbit_witness_search_exhaustion_is_loud(monkeypatch):
    # A word that leaves Q0 where it was misses Q1: the check, not a bound, refuses it.
    monkeypatch.setattr(twists, "apply_braid", lambda word, c: c)
    with pytest.raises(SearchExhausted, match="s1 s0 does not carry Q0 to a shifted Q1 at n=3"):
        core_orbit_witness(3)


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_braid_images_equal_apply_braid_from_scratch(characteristic):
    params = make_params(3, characteristic)
    for c in (single_core(params, 0), apply_braid("s0 S1", single_core(params, 1))):
        got = [(word, serialize_complex(x)) for word, x in braid_images(c, 3)]
        want = [(word, serialize_complex(apply_braid(word, c)))
                for length in (1, 2, 3) for word in itertools.product(LETTERS, repeat=length)]
        assert got == want


@pytest.mark.parametrize("characteristic", (2, 5, 32003, 0))
def test_core_orbit_witness_is_the_first_word_of_the_reference_search(characteristic):
    for n in range(3, 7):
        q0 = single_core(make_params(n, characteristic), 0)
        first = next((word, -x.summands[0].position) for word, x in braid_images(q0, 4)
                     if len(x) == 1 and x.summands[0].vertex == 1 and not x.delta)
        assert first == core_orbit_witness(n, characteristic)


def test_core_orbit_witness_twists_twice_and_never_before_its_checks(monkeypatch):
    calls = []
    real = twists.twist

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twists, "twist", counted)
    for n in (3, 4):
        calls.clear()
        assert core_orbit_witness(n) == (parse_word("s1 s0"), 2 - n)
        assert len(calls) == 2
    calls.clear()
    for n in (2, 3.0, True, None):
        with pytest.raises(ParameterError):
            core_orbit_witness(n)
    assert calls == []


def test_core_orbit_witness_needs_no_oracle(monkeypatch):
    # The image of Q0 is one vertex-1 summand and no differential: Q1[s] itself.
    monkeypatch.setattr(complexes, "invertible_combinations", refuse_oracle)
    for n in range(3, 7):
        assert core_orbit_witness(n) == (parse_word("s1 s0"), 2 - n)
