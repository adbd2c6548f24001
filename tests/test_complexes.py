import json
import os
import random
import subprocess
import sys
from functools import reduce

import pytest

import plumbtwist
from plumbtwist.category import make_params
from plumbtwist.covers import CoverSpec, specialize
from plumbtwist.linalg import FieldError
from plumbtwist.complexes import (
    INCONCLUSIVE,
    NO,
    YES,
    ComplexError,
    Morphism,
    Summand,
    TwistedComplex,
    _search_kernel,
    cone,
    direct_sum,
    empty_complex,
    equivalent,
    hf_ranks,
    hom_complex,
    minimize,
    shift,
    single_core,
    validate,
)
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import apply_braid

from conftest import random_word
from reference import gauge


@pytest.fixture(scope="module", params=[3, 4])
def P(request):
    return make_params(request.param)


def two_term_twist_of_q1(P):
    """The complex Q0 -> Q1 with a p-arrow at a shared position."""
    return TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"p": 1}})


def test_int_coefficients_are_reduced_into_the_field():
    P = make_params(3, 32003)
    vanishing = TwistedComplex(P, [Summand(0, 0), Summand(0, 1)], {(0, 1): {"e0": 32003}})
    assert vanishing.delta == {}
    assert len(minimize(vanishing)) == 2
    arrow = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"p": 32003}})
    assert json.loads(serialize_complex(arrow))["differential"] == []
    assert TwistedComplex(P, arrow.summands, {(0, 1): {"p": -1}}).delta == {(0, 1): {"p": 32002}}


@pytest.mark.parametrize("coeff", [0.5, 1.0, True])
def test_float_and_bool_coefficients_are_refused(coeff):
    P = make_params(3, 32003)
    with pytest.raises(FieldError):
        TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"p": coeff}})


# -- validate -----------------------------------------------------------------------


def test_validate_single_summand(P):
    assert validate(single_core(P, 0)) == []


def test_validate_rejects_summand_off_the_two_cores(P):
    for stray in (single_core(P, 2), direct_sum(single_core(P, 0), single_core(P, -1, 3))):
        bad = validate(stray)
        assert [v.kind for v in bad] == ["vertex"]
        assert bad[0].slot is None
    # The Maurer-Cartan check, which would look up the missing core, is skipped.
    dangling = TwistedComplex(P, [Summand(0, 0), Summand(2, 0)], {(0, 1): {"p": 1}})
    assert [v.kind for v in validate(dangling)] == ["vertex", "degree"]


def test_single_core_refuses_a_bool_vertex_or_position(P):
    # Summand checks nothing; a bool would serialize as "vertex": true, which parse_complex refuses.
    for vertex, position, what in ((True, 0, "vertex"), (False, 0, "vertex"), (0.0, 0, "vertex"), (0, True, "position")):
        with pytest.raises(ComplexError, match=f"single_core {what} must be an integer"):
            single_core(P, vertex, position)


def test_validate_reports_mc_obstruction_slot(P):
    n = P.n
    c = TwistedComplex(
        P,
        [Summand(1, n - 2), Summand(0, 0), Summand(1, 0)],
        {(0, 1): {"q": 1}, (1, 2): {"p": 1}},
    )
    bad = validate(c)
    assert [v.kind for v in bad] == ["maurer-cartan"]
    assert bad[0].slot == (0, 2)  # the vertex-1 pair: positions n-2 -> 0
    assert "f1" in bad[0].message


def test_validate_allows_unit_entries_climbing_one_position(P):
    c = TwistedComplex(P, [Summand(0, 4), Summand(0, 5)], {(0, 1): {"e0": 1}})
    assert validate(c) == []


def test_validate_rejects_wrong_degree_and_self_loop(P):
    wrong = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"q": 1}})
    kinds = {v.kind for v in validate(wrong)}
    assert "degree" in kinds
    loop = TwistedComplex(P, [Summand(0, 0)], {(0, 0): {"e0": 1}})
    assert any(v.kind == "triangularity" for v in validate(loop))
    # p is not a map Q1 -> Q1: the loop is reported, not squared (p after p cannot compose).
    ill_typed = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(1, 1): {"p": 1}})
    found = [(v.kind, v.slot) for v in validate(ill_typed)]
    assert ("triangularity", (1, 1)) in found and ("degree", (1, 1)) in found
    assert "maurer-cartan" not in {kind for kind, _ in found}


def test_validate_rejects_cycles(P):
    n = P.n
    # e1 climbs one position, q drops n-2, p stays: at n=3 this closes a loop.
    if n != 3:
        pytest.skip("engineered cycle needs q to drop exactly one position")
    c = TwistedComplex(
        P,
        [Summand(1, 0), Summand(1, 1), Summand(0, 0)],
        {(0, 1): {"e1": 1}, (1, 2): {"q": 1}, (2, 0): {"p": 1}},
    )
    assert any(v.kind == "triangularity" for v in validate(c))


# -- shift and direct sum --------------------------------------------------------------


def test_shift_round_trip(P):
    c = two_term_twist_of_q1(P)
    assert shift(c, 0).summands == c.summands
    back = shift(shift(c, 3), -3)
    assert back.summands == c.summands and back.delta == c.delta


def test_shift_refuses_a_non_integer_or_bool_amount(P):
    # The library builds the shifted complex without re-checking it, so a float position would go unnoticed.
    c = two_term_twist_of_q1(P)
    for k in (1.5, 1.0, True, False, "1", None):
        with pytest.raises(ComplexError, match="shift amount must be an integer"):
            shift(c, k)


def test_shift_moves_hf_degrees(P):
    q0 = single_core(P, 0)
    base = hf_ranks(q0, q0)
    shifted = hf_ranks(shift(q0, 1), q0)
    assert shifted == {g + 1: r for g, r in base.items()}


def test_direct_sum_with_empty_and_additivity(P):
    q0, q1 = single_core(P, 0), single_core(P, 1)
    c = two_term_twist_of_q1(P)
    s = direct_sum(c, empty_complex(P))
    assert s.summands == c.summands and s.delta == c.delta
    lhs = hf_ranks(direct_sum(q0, q1), c)
    a, b = hf_ranks(q0, c), hf_ranks(q1, c)
    merged = dict(a)
    for g, r in b.items():
        merged[g] = merged.get(g, 0) + r
    assert lhs == merged


def test_double_core_endomorphism_rank(P):
    s = direct_sum(single_core(P, 0), single_core(P, 0))
    assert hf_ranks(s, s) == {0: 4, P.n: 4}


# -- hom complexes ----------------------------------------------------------------------


def test_hom_complex_of_cores(P):
    q0, q1 = single_core(P, 0), single_core(P, 1)
    h = hom_complex(q0, q0)
    assert h.dimensions() == {0: 1, P.n: 1}
    assert all(not v for m in h.differentials.values() for row in m.entries for v in row)
    assert hom_complex(q0, q1).dimensions() == {1: 1}


def test_hom_complex_differential_on_two_term_complex(P):
    # Mapping out of Q1 into (Q0 -p-> Q1): the unit goes nowhere, while the
    # dotted generator maps onto the top class via the p-entry.
    c = two_term_twist_of_q1(P)
    q1 = single_core(P, 1)
    h = hom_complex(q1, c)
    e_gen = h.index[(0, 1, "e1")]
    q_gen = h.index[(0, 0, "q")]
    f_gen = h.index[(0, 1, "f1")]
    dm = h.differentials[0]
    assert e_gen[0] == 0 and dm.entries == ((0,),) or not any(v for row in dm.entries for v in row)
    d_on_q = h.differentials[q_gen[0]]
    col = [d_on_q.entries[r][q_gen[1]] for r in range(d_on_q.rows)]
    assert col[f_gen[1]] == P.field.one  # q composes with p to the top class


def test_windowed_hom_refuses_what_needs_other_degrees(P):
    c = apply_braid("s0 S1", single_core(P, 0))
    full, window = hom_complex(c, c), hom_complex(c, c, degrees={0})
    assert set(window.components) == {0, 1} and set(window.columns) == {0}
    assert window.components[0] == full.components[0] and window.components[1] == full.components[1]
    assert window.kernel(0) == full.kernel(0)
    for refused in (window.cohomology_ranks, window.cocycle_representatives, lambda: window.kernel(1)):
        with pytest.raises(ValueError, match="window"):
            refused()


def test_hf_ranks_of_cores(P):
    q0, q1 = single_core(P, 0), single_core(P, 1)
    assert hf_ranks(q0, q1) == {1: 1}
    assert hf_ranks(q0, q0) == {0: 1, P.n: 1}
    assert hf_ranks(q1, q1) == {0: 1, P.n: 1}


def test_hom_layer_names_a_summand_off_the_two_cores():
    P = make_params(3)
    q0, q2 = single_core(P, 0), single_core(P, 2)
    for call, side in ((lambda: hf_ranks(q2, q2), "source"), (lambda: hf_ranks(q0, q2), "target")):
        with pytest.raises(ComplexError, match=f"{side} summand 0 is Q2@0"):
            call()


def test_hf_ranks_refuses_a_wrong_degree_entry():
    # p has degree 1 but Q0@0 -> Q1@1 needs degree 0.
    P = make_params(3)
    c = TwistedComplex(P, [Summand(0, 0), Summand(1, 1)], {(0, 1): {"p": 1}})
    assert [v.kind for v in validate(c)] == ["degree"]
    for a, b in ((c, c), (c, single_core(P, 0)), (single_core(P, 1), c)):
        with pytest.raises(ComplexError, match="not in degree"):
            hf_ranks(a, b)


def test_hf_ranks_on_a_mislabelled_entry_keeps_its_errors():
    # e0 sits on a Q0 -> Q1 slot: a wrong-degree image where the product with a
    # hom generator exists, and compose_names' ValueError where it does not.
    P = make_params(3)
    c = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"e0": 1}})
    assert [v.kind for v in validate(c)] == ["degree"]
    cases = (
        (c, c, ComplexError, "hom differential sends degree 0 to (0, 1, 'e0'), which is not in degree 1"),
        (c, single_core(P, 0), ValueError, "cannot compose q after e0: target 0 != source 1"),
        (single_core(P, 1), c, ComplexError, "hom differential sends degree 2 to (0, 1, 'q'), which is not in degree 3"),
        (c, single_core(P, 1), ValueError, "cannot compose e1 after e0: target 0 != source 1"),
    )
    for a, b, error, message in cases:
        with pytest.raises(error) as raised:
            hf_ranks(a, b)
        assert type(raised.value) is error and str(raised.value) == message


def test_hf_ranks_refuses_negative_ranks_from_a_maurer_cartan_failure():
    # delta^2 = q.p = f1 on Q1@1 -> Q1@0, so the hom differential does not square to zero.
    P = make_params(3)
    c = TwistedComplex(P, [Summand(1, 1), Summand(0, 0), Summand(1, 0)], {(0, 1): {"q": 1}, (1, 2): {"p": 1}})
    assert [v.kind for v in validate(c)] == ["maurer-cartan"]
    with pytest.raises(ValueError, match="negative rank"):
        hf_ranks(c, c)


# -- cones ------------------------------------------------------------------------------


def test_cone_of_zero_is_shifted_sum(P):
    c = two_term_twist_of_q1(P)
    d = single_core(P, 0)
    got = cone(Morphism(c, d, 0, {}))
    want = direct_sum(shift(c, 1), d)
    assert got.summands == want.summands and got.delta.keys() == want.delta.keys()
    assert validate(got) == []


def test_cone_of_identity_is_contractible(P):
    q0 = single_core(P, 0)
    c = cone(Morphism(q0, q0, 0, {(0, 0): {"e0": 1}}))
    assert validate(c) == []
    assert minimize(c).is_empty


def test_cone_of_p_arrow_is_twisted_q1(P):
    src = single_core(P, 0, 1)  # Q0[-1]
    dst = single_core(P, 1)
    f = Morphism(src, dst, 0, {(0, 0): {"p": 1}})
    got = cone(f)
    assert validate(got) == []
    want = two_term_twist_of_q1(P)
    assert got.summands == want.summands
    assert got.delta == want.delta


def test_a_zero_term_leaves_no_zero_in_the_differential(P):
    c = two_term_twist_of_q1(P)
    zero_term = Morphism(c, c, 0, {(0, 0): {"e0": 0}})
    assert zero_term.differential().comps == {}
    got, want = cone(zero_term), cone(Morphism(c, c, 0, {}))
    assert got.summands == want.summands and got.delta == want.delta


def test_cone_rejects_non_closed_and_wrong_degree(P):
    q0 = single_core(P, 0)
    with pytest.raises(ComplexError):
        cone(Morphism(q0, q0, 1, {}))
    c = two_term_twist_of_q1(P)
    # e0 into the source of the p-arrow does not commute with the differential
    bad = Morphism(single_core(P, 0, -1), c, 0, {(0, 0): {"e0": 1}})
    with pytest.raises(ComplexError):
        cone(bad)


# -- minimize ---------------------------------------------------------------------------


def test_minimize_idempotent_and_preserves_ranks(P):
    rng = random.Random(23)
    q0, q1 = single_core(P, 0), single_core(P, 1)
    for _ in range(6):
        word = random_word(rng, 4)
        c = apply_braid(word, q0)
        m = minimize(c)
        again = minimize(m)
        assert again.summands == m.summands and again.delta == m.delta
        assert hf_ranks(m, q0) == hf_ranks(c, q0)
        assert hf_ranks(m, q1) == hf_ranks(c, q1)
        assert validate(m) == []


def test_minimize_collapses_chain_level_twist(P):
    # The unminimized twist of a core along itself: evaluation summands for
    # the unit and top cocycles, coned onto the core. Elimination must leave
    # the single summand shifted by n-1.
    n = P.n
    chain = TwistedComplex(
        P,
        [Summand(0, -1), Summand(0, n - 1), Summand(0, 0)],
        {(0, 2): {"e0": 1}, (1, 2): {"f0": 1}},
    )
    assert validate(chain) == []
    m = minimize(chain)
    assert m.summands == (Summand(0, n - 1),) and not m.delta


def test_minimize_leaves_no_unit_entries(P):
    q0 = single_core(P, 0)
    c = cone(Morphism(q0, q0, 0, {(0, 0): {"e0": 1}}))
    packed = direct_sum(c, two_term_twist_of_q1(P))
    m = minimize(packed)
    assert all("e0" not in combo and "e1" not in combo for combo in m.delta.values())
    assert m.summand_multiset() == two_term_twist_of_q1(P).summand_multiset()


# -- equivalence oracle -------------------------------------------------------------------


def test_equivalent_reflexive_and_detects_shift(P):
    q0 = single_core(P, 0)
    assert equivalent(q0, q0) == YES
    assert equivalent(q0, shift(q0, 1)) == NO


def test_equivalent_braid_relation_words(P):
    q0 = single_core(P, 0)
    left = apply_braid("s0 s1 s0", q0)
    right = apply_braid("s1 s0 s1", q0)
    assert equivalent(left, right) == YES


@pytest.mark.parametrize("characteristic", [2, 32003, 0])
def test_equivalent_confirms_many_copies(characteristic):
    # The degree-0 kernel of hom(c^m, c^m) has m^2 or more vectors, each of rank
    # one on its own; only points with many nonzero coefficients are invertible.
    # equivalent decides c against itself by the identity, so the search runs on its own too.
    q0 = single_core(make_params(3, characteristic), 0)
    for base in (q0, apply_braid("s0 S1", q0)):
        for m in (6, 7, 8):
            c = reduce(direct_sum, [base] * m)
            assert [equivalent(c, c, seed) for seed in range(3)] == [YES] * 3
            cm = minimize(c)
            assert [_search_kernel(cm, cm, seed) for seed in range(3)] == [YES] * 3


def test_equivalent_confirms_five_copies_over_f2_for_every_seed():
    c = reduce(direct_sum, [single_core(make_params(3, 2), 0)] * 5)
    assert [seed for seed in range(40) if equivalent(c, c, seed) != YES] == []
    assert [seed for seed in range(40) if _search_kernel(c, c, seed) != YES] == []


def test_equivalent_distinguishes_connected_from_split():
    P = make_params(3)
    # Q0[0] <-f- Q0[2] versus the split sum with the same summands: the
    # multisets agree but no closed map has an invertible unit block, so the
    # sound verdict is inconclusive rather than yes.
    joined = TwistedComplex(P, [Summand(0, 2), Summand(0, 0)], {(0, 1): {"f0": 1}})
    split = TwistedComplex(P, [Summand(0, 2), Summand(0, 0)], {})
    assert validate(joined) == []
    assert equivalent(joined, split) == INCONCLUSIVE
    assert hf_ranks(joined, single_core(P, 0)) != hf_ranks(split, single_core(P, 0))


def test_equivalent_validates_both_inputs_first():
    # bad minimizes to the empty complex, so without validation it would be "equivalent" to it.
    P = make_params(3)
    bad = TwistedComplex(P, [Summand(0, 0), Summand(0, 0)], {(0, 1): {"e0": 1}, (1, 0): {"e0": 1}})
    assert {v.kind for v in validate(bad)} == {"degree", "triangularity"}
    assert minimize(bad).is_empty
    empty, q2 = empty_complex(P), single_core(P, 2)
    for a, b, which in ((bad, empty, "first"), (empty, bad, "second"), (q2, q2, "first")):
        with pytest.raises(ComplexError, match=f"equivalent's {which} input fails validation"):
            equivalent(a, b)
    with pytest.raises(ComplexError, match="summand 0 sits on vertex 2"):
        equivalent(q2, q2)


def test_equivalent_tries_no_candidate_on_cover_pairs(det_nonzero_calls):
    # The ladder member (s0 S1)^k Q0 against its specialization to a cover of
    # either core: the unit blocks of the degree-0 kernel cover too few rows
    # for any combination to be invertible, so no candidate is tested. The
    # braid-relation pairs minimize to the same model, so the diagonal stage
    # decides them before the search.
    q0 = single_core(make_params(3, 32003), 0)
    members = [apply_braid(" ".join(["s0 S1"] * k), q0) for k in (2, 3)]
    assert [len(x) for x in members] == [5, 13]
    for x in members:
        for w in (0, 1):
            assert equivalent(x, specialize(x, CoverSpec(w))) == INCONCLUSIVE
    assert det_nonzero_calls == []
    for x in members:
        assert equivalent(apply_braid("s0 s1 s0", x), apply_braid("s1 s0 s1", x)) == YES
    assert det_nonzero_calls == []


@pytest.mark.parametrize("characteristic", [2, 32003, 0])
def test_equivalent_decides_gauged_ladder_pairs_without_the_kernel(characteristic, homs, det_nonzero_calls):
    # At len 610 the degree-0 kernel costs O(len^2); a diagonal isomorphism is read off delta.
    c = apply_braid(" ".join(["s0 S1"] * 7), single_core(make_params(3, characteristic), 0))
    assert len(c) == 610
    d = gauge(c, random.Random(characteristic))
    assert (d.delta != c.delta) == (characteristic != 2)  # F_2 has one unit
    homs.clear()
    assert equivalent(c, c) == equivalent(c, d) == equivalent(d, c) == YES
    assert homs == [] and det_nonzero_calls == []


def test_cone_euler_characteristic_additivity(P):
    # chi(hf(e, cone(f))) = chi(hf(e, d)) - chi(hf(e, c)) for closed degree-0 f.
    q0, q1 = single_core(P, 0), single_core(P, 1)
    rng = random.Random(31)
    tests = 0
    for _ in range(14):
        c = apply_braid(random_word(rng, 3), q0)
        d = apply_braid(random_word(rng, 3), q0)
        h = hom_complex(c, d)
        for vec in h.kernel(0)[:2]:
            cn = cone(h.morphism(0, vec))
            for probe in (q0, q1):
                chi = lambda ranks: sum((-1) ** g * r for g, r in ranks.items())
                assert chi(hf_ranks(probe, cn)) == chi(hf_ranks(probe, d)) - chi(hf_ranks(probe, c))
            tests += 1
    assert tests >= 4


@pytest.mark.parametrize("other", [(4, 32003), (3, 2)], ids=["n", "characteristic"])
@pytest.mark.parametrize("operation", [hf_ranks, equivalent, direct_sum])
def test_mismatched_parameters_raise(operation, other):
    a = single_core(make_params(3, 32003), 0)
    for b in (single_core(make_params(*other), 0), single_core(make_params(*other), 1)):
        with pytest.raises(ComplexError, match="matching category parameters"):
            operation(a, b)


def test_mismatched_parameters_raise_under_optimize():
    # Under python -O an assert would vanish and hf_ranks would answer across two categories.
    code = (
        "from plumbtwist.category import make_params\n"
        "from plumbtwist.complexes import ComplexError, hf_ranks, single_core\n"
        "try:\n"
        "    print(hf_ranks(single_core(make_params(3), 0), single_core(make_params(4), 0)))\n"
        "except ComplexError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(plumbtwist.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout == "refused: hom complex needs matching category parameters\n", proc.stderr
