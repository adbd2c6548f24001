import random

import pytest
from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import (
    Morphism,
    Summand,
    TwistedComplex,
    cone,
    direct_sum,
    hf_ranks,
    minimize,
    shift,
    single_core,
    validate,
)
from plumbtwist import complexes, normalizer, twists
from plumbtwist.normalizer import (
    CertificateError,
    InadmissibleInput,
    NormalizeError,
    NormalizerDeadEnd,
    PreconditionViolated,
    admissible,
    complexity,
    normalize,
    reduction_step,
    slot_weight,
)
from plumbtwist.twists import BraidLetter, apply_braid

from conftest import braid_corpus, random_word, refuse_oracle
from reference import LETTERS, first_step_holds, gauge, relabel, shift_normalized
from test_normalizer_golden import CASES, inadmissible_corpus


@pytest.fixture(scope="module")
def P():
    return make_params(3)


def impossible_shape(P):
    """Sphere at the top, covered core below it, top-class arrow onward."""
    n = P.n
    return TwistedComplex(
        P,
        [Summand(0, n - 1), Summand(1, n - 1), Summand(1, 0)],
        {(0, 1): {"p": 1}, (1, 2): {"f1": 1}},
    )


# -- complexity ---------------------------------------------------------------------


def zigzag_length_oracle(c):
    """
    Walk the zig-zag between every pair of occupied slots, stepping down one
    weight at a time (vertical to the other row, then diagonally back one
    position); the complexity is the longest such walk.
    """
    u, v = c.profile()
    slots = [(0, i) for i in u] + [(1, j) for j in v]
    best = 0
    for a in slots:
        for b in slots:
            wa, wb = slot_weight(*a), slot_weight(*b)
            if wa < wb:
                continue
            steps = 0
            vertex, pos = a
            while (vertex, pos) != b and slot_weight(vertex, pos) > wb:
                if vertex == 0:
                    vertex = 1  # vertical step down the column
                else:
                    vertex, pos = 0, pos - 1  # diagonal step back
                steps += 1
            best = max(best, steps)
    return best


def test_complexity_single_summand(P):
    assert complexity(single_core(P, 0)).cx == 0


def test_complexity_two_slot_example(P):
    c = TwistedComplex(P, [Summand(0, 0), Summand(1, 1)], {})
    rep = complexity(c)
    assert rep.cx == 1  # weights 1 and 2
    assert rep.cx == zigzag_length_oracle(c)


def test_complexity_matches_zigzag_oracle_on_shapes(P):
    c, _ = shift_normalized(impossible_shape(P))
    assert complexity(c).cx == zigzag_length_oracle(c)
    rng = random.Random(55)
    q0 = single_core(P, 0)
    for _ in range(8):
        w, _ = shift_normalized(apply_braid(random_word(rng, 5), q0))
        assert complexity(w).cx == zigzag_length_oracle(w)


def _step_in_frame(c, k):
    """reduction_step(c) with its result shifted by k, or the class and message of what it raises."""
    try:
        step, result = reduction_step(c)
    except NormalizeError as exc:
        return type(exc), str(exc)
    result = shift(result, k)
    return step.letters, step.case, step.cx_before, step.cx_after, result.summands, result.delta


def test_step_is_frame_free():
    # complexity counts positions from the lowest occupied one, so a step
    # reads the same profile, and decides the same, on every shift of c.
    for n, characteristic in CASES:
        params = make_params(n, characteristic)
        rng = random.Random(f"frame/{n}/{characteristic}")
        images = [apply_braid(random_word(rng, 6), single_core(params, rng.randrange(2))) for _ in range(20)]
        corpus = [c for c in images if complexity(c).cx > 0] + list(inadmissible_corpus(n, characteristic))
        for c in corpus:
            for k in (-3, 2):
                moved = shift(c, k)
                assert complexity(moved) == complexity(c)
                assert _step_in_frame(moved, 0) == _step_in_frame(c, k)


# -- admissibility and the end-slot dichotomy ------------------------------------------


def test_admissible_core_and_shifted_sum(P):
    assert admissible(single_core(P, 0)).ok
    bad = admissible(direct_sum(single_core(P, 0), shift(single_core(P, 0), 1)))
    assert not bad.ok
    assert bad.negative_degrees == ((-1, 1),)


def test_admissible_on_braid_images(P):
    rng = random.Random(99)
    q0 = single_core(P, 0)
    for _ in range(6):
        assert admissible(apply_braid(random_word(rng, 5), q0)).ok


def test_first_step_on_corpus(P):
    _, _, corpus = braid_corpus(P.n, 20, 6, seed=321)
    for _, c in corpus:
        assert first_step_holds(c) is not False


def test_first_step_not_applicable_on_single_slot(P):
    assert first_step_holds(single_core(P, 0)) is None


# -- relabelling -------------------------------------------------------------------------


def test_relabel_swaps_arrows(P):
    c = impossible_shape(P)
    r = relabel(c)
    assert validate(r) == []
    # p became q, f1 became f0
    combos = sorted(tuple(sorted(combo)) for combo in r.delta.values())
    assert combos == [("f0",), ("q",)]


def test_relabel_is_involutive_up_to_shift(P):
    c, _ = shift_normalized(impossible_shape(P))
    rr, _ = shift_normalized(relabel(relabel(c)))
    assert rr.summand_multiset() == c.summand_multiset()
    assert {tuple(sorted(v)) for v in rr.delta.values()} == {tuple(sorted(v)) for v in c.delta.values()}


def test_relabel_does_not_increase_complexity_in_case_b(P):
    rng = random.Random(404)
    q0 = single_core(P, 0)
    seen = 0
    for _ in range(30):
        w, _ = shift_normalized(apply_braid(random_word(rng, 6), q0))
        u, v = w.profile()
        if v.get(0, 0) or complexity(w).cx == 0:
            continue  # only the vertex-0-at-bottom case relabels
        seen += 1
        swapped, _ = shift_normalized(relabel(w))
        assert complexity(swapped).cx <= complexity(w).cx
    assert seen >= 3


# -- reduction steps ----------------------------------------------------------------------


def test_reduction_step_dispatch_matches_profiles(P):
    n = P.n
    rng = random.Random(1234)
    q0 = single_core(P, 0)
    tags = set()
    for _ in range(40):
        w, _ = shift_normalized(minimize(apply_braid(random_word(rng, 7), q0)))
        rep = complexity(w)
        if rep.cx == 0:
            continue
        step, _ = reduction_step(w)
        tags.add(step.case)
        assert step.cx_after < step.cx_before
        u, v = dict(rep.u_profile), dict(rep.v_profile)
        if step.case == "A1":
            assert v.get(0, 0) > 0
            assert all(v.get(rep.top_index - i, 0) == 0 for i in range(n - 1))
            assert step.letters == (BraidLetter(0, -1),)
        elif step.case == "A2":
            assert v.get(0, 0) > 0
            assert all(u.get(j, 0) == 0 for j in range(n - 1))
        elif step.case == "B1":
            assert v.get(0, 0) == 0
            assert all(u.get(rep.top_index - i, 0) == 0 for i in range(n - 1))
        elif step.case == "B2":
            assert v.get(0, 0) == 0
            assert all(v.get(i, 0) == 0 for i in range(n - 1))
    assert {"A1", "A2", "B1", "B2"} & tags, f"only saw {tags}"


def test_reduction_step_requires_positive_complexity(P):
    with pytest.raises(PreconditionViolated):
        reduction_step(single_core(P, 0))


def test_base_case_two_term_complexes(P):
    # Both two-term shapes sit below the top-class threshold and reduce in
    # one letter through the base-case variant.
    down = apply_braid("s1", single_core(P, 0))
    step, _ = reduction_step(*(shift_normalized(down)[:1]))
    assert step.case.startswith("base-") or step.case in ("A1", "B1", "B2", "A2")
    assert step.cx_after < step.cx_before


# -- full normalization ---------------------------------------------------------------------


def test_normalize_trivial_inputs(P):
    cert = normalize(shift(single_core(P, 0), 5))
    assert (cert.word, cert.target_vertex, cert.shift, cert.multiplicity) == ((), 0, 5, 1)
    cert = normalize(direct_sum(single_core(P, 0), single_core(P, 0)))
    assert cert.multiplicity == 2 and cert.word == ()


def test_normalize_refuses_contractible_input_without_admissibility(P, monkeypatch):
    def refuse_admissible(c):
        raise AssertionError("admissible ran on an input that minimizes to zero")

    monkeypatch.setattr(normalizer, "admissible", refuse_admissible)
    image = apply_braid("s0 S1", single_core(P, 0))
    for c in (single_core(P, 0), single_core(P, 1), image):
        identity = {(i, i): {f"e{s.vertex}": 1} for i, s in enumerate(c.summands)}
        with pytest.raises(PreconditionViolated, match="quasi-isomorphic to zero, so it lies in no core's orbit"):
            normalize(cone(Morphism(c, c, 0, identity)))


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_normalize_ignores_its_positional_options(characteristic):
    # perfbench's normalize_checked passes (c, True, seed) by position; both are ignored.
    params = make_params(3, characteristic)
    rng = random.Random(720 + characteristic)
    for seed in range(4):
        c = apply_braid(random_word(rng, 6), single_core(params, rng.randrange(2)))
        expected = normalize(c)
        assert normalize(c, True, seed) == expected
        assert normalize(c, False, 7) == expected


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_case_b_over_a_non_spherical_core_is_refused(characteristic):
    # s1 s1 s1 Q0 reaches case B outside the base case; case B is case A with the cores swapped.
    params = make_params(3, characteristic, (1, 1, 1, 1))
    c = apply_braid("s1 s1 s1", single_core(params, 0))
    with pytest.raises(PreconditionViolated, match="relabelling swaps the two cores, so both must be spherical"):
        normalize(c)


def test_normalize_rejects_inadmissible(P):
    with pytest.raises(InadmissibleInput):
        normalize(direct_sum(single_core(P, 0), shift(single_core(P, 0), 1)))


def test_normalize_certifies_without_computing_admissibility(monkeypatch):
    # A verified certificate already proves admissibility, so accepted inputs never reach hf(c, c).
    def refuse(c):
        raise AssertionError("admissible() ran on an input normalize accepts")

    monkeypatch.setattr(normalizer, "admissible", refuse)
    for characteristic in (2, 32003, 0):
        params = make_params(3, characteristic)
        rng = random.Random(700 + characteristic)
        for _ in range(6):
            c = apply_braid(random_word(rng, 6), single_core(params, rng.randrange(2)))
            for x, multiplicity in ((c, 1), (direct_sum(c, c), 2)):
                cert = normalize(x)
                final = apply_braid(cert.word, x)
                assert cert.multiplicity == multiplicity == len(final) and not final.delta
                assert set(final.summands) == {Summand(cert.target_vertex, -cert.shift)}


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_normalize_rejects_every_inadmissible_input_by_its_negative_degrees(characteristic):
    # The reduction runs first on these inputs; its failure must still be reported as inadmissibility.
    for x in inadmissible_corpus(3, characteristic):
        expected = "endomorphisms in negative degrees " + ", ".join(
            str(g) for g, _ in admissible(x).negative_degrees)
        with pytest.raises(InadmissibleInput) as caught:
            normalize(x)
        assert str(caught.value) == expected


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_failed_normalize_tests_admissibility_on_the_minimal_model(characteristic, homs):
    # A cancelling pair added to an inadmissible x changes neither the message nor the
    # self-hom the failure path builds: that hom is of minimize(c), not of c.
    for k, x in zip(range(4), inadmissible_corpus(3, characteristic)):
        with pytest.raises(InadmissibleInput) as expected:
            normalize(x)
        core = single_core(x.params, k % 2)
        c = direct_sum(x, cone(Morphism(core, core, 0, {(0, 0): {f"e{k % 2}": 1}})))
        homs.clear()
        with pytest.raises(InadmissibleInput) as caught:
            normalize(c)
        assert str(caught.value) == str(expected.value)
        self_homs = [(a, b) for a, b in homs if a is b]
        assert len(minimize(c)) < len(c)
        assert [(len(a), len(b)) for a, b in self_homs] == [(len(minimize(c)),) * 2]


@pytest.mark.parametrize("k", (6, 7))
def test_normalize_deep_ladder(k):
    # (s0 S1)^k Q0 has 233 and 610 summands; its certificate must replay to one shifted core.
    params = make_params(3, 32003)
    c = apply_braid(" ".join(["s0 S1"] * k), single_core(params, 0))
    cert = normalize(c)
    final = apply_braid(cert.word, c)
    assert len(c) == {6: 233, 7: 610}[k]
    assert cert.multiplicity == len(final) == 1 and not final.delta
    assert final.summands == (Summand(cert.target_vertex, -cert.shift),)


@pytest.mark.parametrize("v", (0, 1))
def test_normalize_the_long_ladder_member(v):
    # (s_v S_{1-v})^8 Q_v has 1 597 summands; gauged and shifted, it must still certify,
    # and its certificate's word must carry it onto the one shifted core the certificate names.
    params = make_params(3, 32003)
    rng = random.Random(1597 + v)
    c = apply_braid(" ".join([f"s{v} S{1 - v}"] * 8), single_core(params, v))
    assert len(c) == 1597
    x = shift(gauge(c, rng), rng.randint(-4, 4))
    cert = normalize(x)
    final = apply_braid(cert.word, x)
    assert cert.multiplicity == len(final) == 1 and not final.delta
    assert final.summands == (Summand(cert.target_vertex, -cert.shift),)


def test_normalize_round_trip_small_corpus():
    for n in (3, 4, 5):
        _, _, corpus = braid_corpus(n, 12, 8, seed=600 + n)
        for word, c in corpus:
            cert = normalize(c)
            assert cert.multiplicity == 1
            assert all(t.cx_before > t.cx_after for t in cert.trace)


def test_normalize_serialization(P):
    cert = normalize(apply_braid("s0 s1", single_core(P, 0)))
    doc = cert.to_dict()
    assert set(doc) == {"word", "target_vertex", "shift", "multiplicity", "trace"}
    assert all(set(t) == {"letters", "case", "cx_before", "cx_after"} for t in doc["trace"])


def test_connected_input_yields_multiplicity_one(P):
    # degree-0 endomorphism rank 1 forces a single indecomposable target
    rng = random.Random(9000)
    q0 = single_core(P, 0)
    for _ in range(5):
        c = apply_braid(random_word(rng, 6), q0)
        assert hf_ranks(c, c)[0] == 1
        assert normalize(c).multiplicity == 1


# -- certificates checked on the nose ---------------------------------------------------------


def copies(x, m):
    out = x
    for _ in range(m - 1):
        out = direct_sum(out, x)
    return out


def assert_replays_on_the_nose(cert, c, multiplicity):
    final = apply_braid(cert.word, c)
    assert cert.multiplicity == multiplicity == len(final) and not final.delta
    assert set(final.summands) == {Summand(cert.target_vertex, -cert.shift)}


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
@pytest.mark.parametrize("m", (6, 7, 8))
def test_normalize_certifies_many_copies(characteristic, m):
    # The oracle's sampled candidates are all singular on six or more copies of a core,
    # so the certificate must rest on the replay alone.
    params = make_params(3, characteristic)
    for x in (apply_braid("s0 S1", single_core(params, 0)), shift(single_core(params, 1), 2)):
        c = copies(x, m)
        assert_replays_on_the_nose(normalize(c), c, m)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), max_size=8), st.integers(0, 1), st.integers(-4, 4), st.integers(1, 3),
       st.sampled_from((3, 4, 5)), st.sampled_from((2, 5, 32003, 0)), st.randoms(use_true_random=False))
def test_normalize_certifies_gauged_braid_images_and_their_copies(word, vertex, s, m, n, characteristic, rng):
    # Every such complex lies in a core's orbit, and a certificate is accepted only on the
    # nose: a step the reduction cannot find shows here as a refusal.
    image = shift(apply_braid(word, single_core(make_params(n, characteristic), vertex)), s)
    c = gauge(copies(image, m), rng)
    assert_replays_on_the_nose(normalize(c), c, m)


def test_normalize_never_asks_the_oracle(monkeypatch):
    monkeypatch.setattr(complexes, "invertible_combinations", refuse_oracle)
    for characteristic in (2, 32003, 0):
        params = make_params(3, characteristic)
        rng = random.Random(710 + characteristic)
        for _ in range(6):
            c = apply_braid(random_word(rng, 6), single_core(params, rng.randrange(2)))
            for m in (1, 2, 6):
                x = copies(c, m)
                assert_replays_on_the_nose(normalize(x), x, m)


@pytest.mark.parametrize("extra", ("shifted core", "nothing"))
def test_replay_off_one_shifted_core_is_refused(monkeypatch, P, extra):
    # The last reduction step's result is the word applied to the input, so the fault goes there.
    real = normalizer.reduction_step

    def missed(c):
        entry, result = real(c)
        if entry.cx_after:
            return entry, result
        if extra == "nothing":
            return entry, TwistedComplex(c.params, [])
        return entry, direct_sum(result, shift(single_core(c.params, 0), 1))

    monkeypatch.setattr(normalizer, "reduction_step", missed)
    with pytest.raises(CertificateError):
        normalize(apply_braid("s0 s1", single_core(P, 0)))


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_failed_base_case_twists_each_case_letter_once(monkeypatch, characteristic):
    # Q0[-1] + Q0 + Q1 is inadmissible and too short for a top-class arrow. The base case
    # tries its two case letters, one twist each, and raises when neither lowers cx.
    params = make_params(3, characteristic)
    c = TwistedComplex(params, [Summand(0, 1), Summand(0, 0), Summand(1, 0)])
    calls = []
    real = twists.twist

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twists, "twist", counted)
    with pytest.raises(NormalizerDeadEnd, match="^neither case letter lowers cx from 3 in the base case$"):
        reduction_step(c)
    assert len(calls) == 2
