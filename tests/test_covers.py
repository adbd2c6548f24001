import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import (
    Morphism,
    Summand,
    TwistedComplex,
    cone,
    direct_sum,
    equivalent,
    hf_ranks,
    minimize,
    shift,
    single_core,
    validate,
    NO,
)
from plumbtwist.covers import (
    INFINITE,
    BettiVector,
    CoverError,
    CoverSpec,
    boundary_rank_check,
    decompose,
    fibre_rank,
    specialize,
    truncation_feasibility,
)
from plumbtwist.twists import apply_braid

import reference
from conftest import random_word


def obstruction_complex(params, arrows: int = 1) -> TwistedComplex:
    """
    Sphere (vertex 0) feeding the covered core (vertex 1) at the top, then a
    chain of `arrows` top-class arrows descending through shifted copies.
    """
    n = params.n
    top = (n - 1) * arrows
    summands = [Summand(0, top), Summand(1, top)]
    delta = {(0, 1): {"p": 1}}
    pos = top
    for _ in range(arrows):
        pos -= n - 1
        idx = len(summands)
        summands.append(Summand(1, pos))
        delta[(idx - 1, idx)] = {"f1": 1}
    return TwistedComplex(params, summands, delta)


@pytest.fixture(scope="module")
def P2():
    return make_params(3, 2)


@pytest.fixture(scope="module")
def PQ():
    return make_params(3, 0)


# -- cover specs -------------------------------------------------------------------------


def test_cover_spec_validation():
    CoverSpec(0, 4)
    CoverSpec(1, INFINITE)
    with pytest.raises(CoverError):
        CoverSpec(2, 2)
    with pytest.raises(CoverError):
        CoverSpec(0, 0)
    with pytest.raises(CoverError):
        CoverSpec(0, True)  # a bool is not an index, though True == 1
    assert CoverSpec(0, 4).compatible_with(2)
    assert not CoverSpec(0, 4).compatible_with(3)
    assert not CoverSpec(0, 4).compatible_with(0)
    assert CoverSpec(0, INFINITE).compatible_with(0)


def test_specialize_kills_only_the_covered_top_class(P2):
    c = obstruction_complex(P2)
    out = specialize(c, CoverSpec(1, 2))
    assert out.summands == c.summands
    assert all("f1" not in combo for combo in out.delta.values())
    assert out.delta[(0, 1)] == {"p": 1}


def test_specialize_untouched_without_top_arrows(P2):
    c = apply_braid("s0", single_core(P2, 1))
    out = specialize(c, CoverSpec(0, 2))
    assert out.delta == c.delta


def test_specialize_rejects_characteristic_mismatch(PQ):
    with pytest.raises(CoverError):
        specialize(obstruction_complex(PQ), CoverSpec(1, 2))


def test_specialize_is_idempotent(P2):
    c = obstruction_complex(P2, arrows=3)
    once = specialize(c, CoverSpec(1, 2))
    twice = specialize(once, CoverSpec(1, 2))
    assert once.delta == twice.delta


# -- decomposition -------------------------------------------------------------------------


def test_decompose_split_sum(P2):
    pieces = decompose(direct_sum(single_core(P2, 0), single_core(P2, 1)))
    assert len(pieces) == 2
    assert sorted(p.summands[0].vertex for p in pieces) == [0, 1]
    # A complex that minimizes to nothing has no pieces.
    q0 = single_core(P2, 0)
    assert decompose(cone(Morphism(q0, q0, 0, {(0, 0): {"e0": 1}}))) == []


def test_decompose_obstruction_after_specialize(P2, PQ):
    for params, cover in ((P2, CoverSpec(1, 2)), (PQ, CoverSpec(1, INFINITE))):
        pieces = decompose(specialize(obstruction_complex(params), cover))
        assert len(pieces) == 2
        assert sorted(sum(fibre_rank(p, 0).values()) for p in pieces) == [0, 1]
        for p in pieces:
            assert validate(p) == []


def test_decompose_chain_counts(P2):
    for arrows in (1, 2, 3, 4):
        c = obstruction_complex(P2, arrows)
        assert len(c) == arrows + 2
        pieces = decompose(specialize(c, CoverSpec(1, 2)))
        assert len(pieces) == arrows + 1


def test_decompose_braid_image_is_connected(P2):
    c = apply_braid("s0 s1 s0", single_core(P2, 0))
    assert len(decompose(c)) == 1
    assert hf_ranks(c, c)[0] == 1  # degree-0 endomorphisms of rank 1: indecomposable


def test_decompose_pieces_sum_to_minimized_input(P2):
    c = direct_sum(apply_braid("s1", single_core(P2, 0)), shift(single_core(P2, 0), -7))
    pieces = decompose(c)
    rebuilt = pieces[0]
    for p in pieces[1:]:
        rebuilt = direct_sum(rebuilt, p)
    assert sorted(rebuilt.summand_multiset()) == sorted(minimize(c).summand_multiset())


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_decompose_splits_delta_as_restricting_each_piece_does(characteristic):
    # The ladder members of 34 and 233 summands on both covers: decompose splits delta
    # among the pieces in one pass, and must give what restricting to each piece gives.
    params = make_params(3, characteristic)
    for k in (4, 6):
        c = apply_braid(" ".join(["s0 S1"] * k), single_core(params, 0))
        for w in (0, 1):
            x = specialize(c, CoverSpec(w))
            got, want = decompose(x), reference.decompose(x)
            assert len(got) == len(want) > 1
            for piece, expected in zip(got, want):
                assert piece.summands == expected.summands
                assert list(piece.delta.items()) == list(expected.delta.items())


# -- fibre ranks ----------------------------------------------------------------------------


def test_fibre_rank_of_cores(P2):
    assert fibre_rank(single_core(P2, 0), 0) == {0: 1}
    assert fibre_rank(single_core(P2, 1), 0) == {}
    assert sum(fibre_rank(single_core(P2, 1), 1).values()) == 1


@pytest.mark.parametrize("vertex", (2, -1, True, 1.0), ids=repr)
def test_fibre_rank_refuses_what_is_no_vertex(vertex):
    # Without the vertex rule, 2 and -1 raise KeyError on a unit entry and read as {}
    # without one, and True and 1.0 compute vertex 1.
    q1 = single_core(make_params(3), 1)
    image = apply_braid("s1 s0", q1)
    contractible = cone(Morphism(q1, q1, 0, {(0, 0): {"e1": 1}}))
    assert (fibre_rank(image, 0), fibre_rank(image, 1)) == ({2: 1}, {2: 1})
    assert (fibre_rank(contractible, 0), fibre_rank(contractible, 1)) == ({}, {})
    for c in (image, contractible):
        with pytest.raises(CoverError, match="vertex must be 0 or 1"):
            fibre_rank(c, vertex)


def test_fibre_rank_discriminates_the_two_pieces(P2):
    pieces = decompose(specialize(obstruction_complex(P2), CoverSpec(1, 2)))
    with_sphere = [p for p in pieces if any(s.vertex == 0 for s in p.summands)]
    without = [p for p in pieces if all(s.vertex != 0 for s in p.summands)]
    assert len(with_sphere) == 1 and len(without) == 1
    assert sum(fibre_rank(with_sphere[0], 0).values()) == 1
    assert sum(fibre_rank(without[0], 0).values()) == 0
    # no shift of the sphere-free piece matches the sphere-bearing one
    for k in range(-3, 4):
        assert equivalent(shift(without[0], k), with_sphere[0]) == NO


def test_fibre_rank_additive_over_decompose(P2):
    c = direct_sum(obstruction_complex(P2), shift(single_core(P2, 0), 2))
    s = specialize(c, CoverSpec(1, 2))
    pieces = decompose(s)
    for vertex in (0, 1):
        assert sum(fibre_rank(minimize(s), vertex).values()) == sum(sum(fibre_rank(p, vertex).values()) for p in pieces)


def test_fibre_rank_quasi_isomorphism_invariant_on_corpus(P2):
    rng = random.Random(2718)
    q0 = single_core(P2, 0)
    for _ in range(5):
        word = random_word(rng, 4)
        c = apply_braid(word, q0)
        m = minimize(c)
        for vertex in (0, 1):
            assert sum(fibre_rank(c, vertex).values()) == sum(fibre_rank(m, vertex).values())


# -- feasibility -----------------------------------------------------------------------------


def test_feasibility_spec_examples():
    r = truncation_feasibility((1, 0, 2, 0, 1))
    assert not r.feasible and r.min_dimv is None
    r = truncation_feasibility((1, 0, 1, 0, 1))
    assert r.feasible and r.min_dimv == 2 and r.boundary_ranks == 0
    r = truncation_feasibility((1, 0, 0, 0, 0, 1))
    assert r.feasible and r.beta == 0 and "sphere" in r.annotation


def test_feasibility_rejects_bad_vectors():
    with pytest.raises(CoverError):
        truncation_feasibility((2, 0, 1))
    with pytest.raises(CoverError):
        BettiVector((1, -1, 1))
    with pytest.raises(CoverError):
        BettiVector((1, True, 1))
    with pytest.raises(CoverError, match="needs at least degrees 0 and n"):
        BettiVector((1,))


def test_feasibility_symbolic_sweep():
    # feasible iff beta <= 1; beta = 1 exactly saturates at dimV = 2
    for beta in range(11):
        betti = (1,) + (beta,) + (1,)
        r = truncation_feasibility(betti)
        assert r.feasible == (beta <= 1)
        if beta == 1:
            assert r.min_dimv == 2
        if r.feasible:
            assert r.min_dimv * (beta - 2) <= -2
            assert r.boundary_ranks == r.min_dimv - 1 - beta


# -- boundary rank bookkeeping -----------------------------------------------------------------


@pytest.fixture(scope="module")
def P4():
    return make_params(4)


def q_arrow_complex(params, zeros_chain: int = 0, doubled_end: bool = False):
    """One sphere summand feeding a chain of vertex-0 summands."""
    n = params.n
    top = (n - 2) + (n - 1) * zeros_chain
    pos = top - (n - 2)
    summands = [Summand(1, top), Summand(0, pos)]
    delta = {(0, 1): {"q": 1}}
    for _ in range(zeros_chain):
        idx = len(summands)
        pos -= n - 1
        summands.append(Summand(0, pos))
        delta[(idx - 1, idx)] = {"f0": 1}
    if doubled_end:
        idx = len(summands)
        summands.append(Summand(0, summands[-1].position))
        delta[(0, idx)] = {"q": 1}
    return TwistedComplex(params, summands, delta)


def test_boundary_rank_simple_pass(P4):
    report = boundary_rank_check(q_arrow_complex(P4))
    assert report.ok
    assert report.total_rank == 2
    assert report.end_multiplicities == (1, 1)


def test_boundary_rank_chain_total_two(P4):
    report = boundary_rank_check(q_arrow_complex(P4, zeros_chain=1))
    assert report.total_rank_is_two
    assert report.ok


def test_boundary_rank_detects_doubled_end(P4):
    report = boundary_rank_check(q_arrow_complex(P4, doubled_end=True))
    assert not report.ends_are_simple
    assert not report.ok


def test_boundary_rank_requires_single_sphere(P4):
    c = direct_sum(single_core(P4, 1), single_core(P4, 1))
    with pytest.raises(CoverError):
        boundary_rank_check(c)
    # One sphere is not enough: the input must be admissible, have a vertex-0 part, and that
    # part must square to zero on its own. Below, a -> s -> b composes to f0, which the unit
    # path a -> m -> b cancels in the whole complex but not in its vertex-0 part {a, m, b}.
    inadmissible = direct_sum(single_core(P4, 1), shift(single_core(P4, 0), -4))
    through_sphere = TwistedComplex(
        P4, [Summand(0, 0), Summand(1, 0), Summand(0, 1), Summand(0, -2)],
        {(0, 1): {"p": 1}, (1, 3): {"q": 1}, (0, 2): {"e0": 1}, (2, 3): {"f0": -1}})
    for c, message in ((inadmissible, "needs an admissible complex"),
                       (single_core(P4, 1), "no vertex-0 summands to check"),
                       (through_sphere, r"vertex-0 part is not itself a twisted complex: delta\^2 at Q0@0->Q0@-2")):
        with pytest.raises(CoverError, match=message):
            boundary_rank_check(c)
