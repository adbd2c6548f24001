"""
Braid images of a core against the closed form in slopes.py.

The closed form imports nothing from plumbtwist, so it checks the twist,
cocycle and minimize path independently of the engine: random words from
both cores, n = 3..5, over F_2, F_32003 and Q, must give the predicted
length and hf totals against both cores, and every pair of images, shifted
against each other, the total that pair_total predicts. The self-pairs
include some long enough for hf_ranks to take through the braid orbit.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import ORBIT_SELF_HOM_LEN, TwistedComplex, hf_ranks, shift, single_core, total_rank
from plumbtwist.twists import apply_braid

from slopes import IDENTITY, MATRICES, pair_total, predicted, slopes, times, word_matrix

# Words whose image or any prefix's image is predicted above this many summands are skipped.
CAP = 400


def test_matrices_satisfy_the_braid_relations():
    for v in (0, 1):
        assert times(MATRICES[f"s{v}"], MATRICES[f"S{v}"]) == IDENTITY
    assert word_matrix("s0 s1 s0") == word_matrix("s1 s0 s1")
    assert word_matrix("s1 s0 s1 s0 s1 s0") == ((-1, 0), (0, -1))


def test_closed_form_of_the_alternating_ladder():
    # (s0 S1)^k Q0 has F(2k+1) summands and hf(Q0, .) total F(2k).
    assert [predicted(" ".join(["s0 S1"] * k), 0)[:2] for k in range(1, 6)] == \
        [(2, 1), (5, 3), (13, 8), (34, 21), (89, 55)]


def _syllables(first, powers):
    """The word s_v^e for each power e in turn, alternating v from first; S_v^|e| for e < 0."""
    out = []
    for k, e in enumerate(powers):
        out += [f"{'s' if e > 0 else 'S'}{(first + k) % 2}"] * abs(e)
    return out


# Free words shrink about as often as they grow, so half the draws alternate
# the two vertices in runs of one sign, which grow like continued fractions.
words = st.one_of(
    st.lists(st.sampled_from(sorted(MATRICES)), max_size=12),
    st.builds(_syllables, st.integers(0, 1), st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=10)),
)


@settings(max_examples=250, deadline=None)
@given(words.map(" ".join), st.integers(0, 1), st.integers(3, 5), st.sampled_from((2, 32003, 0)))
def test_braid_images_of_a_core_follow_the_closed_form(word, vertex, n, characteristic):
    assume(max(abs(p) + abs(q) for p, q in slopes(word, vertex)) <= CAP)
    params = make_params(n, characteristic)
    x = apply_braid(word, single_core(params, vertex))
    totals = [total_rank(hf_ranks(single_core(params, v), x)) for v in (0, 1)]
    assert (len(x), *totals) == predicted(word, vertex)


# hf between two images costs their product of lengths; pairs above this are skipped.
PAIR_CAP = 1200


@settings(max_examples=150, deadline=None)
@given(words.map(" ".join), st.integers(0, 1), words.map(" ".join), st.integers(0, 1), st.integers(-3, 3),
       st.integers(3, 5), st.sampled_from((2, 32003, 0)))
def test_floer_totals_between_braid_images_follow_the_closed_form(w1, a, w2, b, k, n, characteristic):
    sizes = [predicted(w, v)[0] for w, v in ((w1, a), (w2, b))]
    assume(sizes[0] * sizes[1] <= PAIR_CAP)
    params = make_params(n, characteristic)
    c = apply_braid(w1, single_core(params, a))
    d = shift(apply_braid(w2, single_core(params, b)), k)
    assert total_rank(hf_ranks(c, d)) == pair_total(w1, a, w2, b)


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
@pytest.mark.parametrize("word, vertex", (("s0 S1 s0 S1 s0 S1 s0 S1", 0), ("S0 S0 s1 s1 S0 s1 s1", 1),
                                          ("s1 s1 S0 S0 S0 s1 s1", 0)))
def test_long_self_pairs_follow_the_closed_form(word, vertex, characteristic):
    # Long enough for hf_ranks to route c against itself and against an equal copy through the orbit.
    params = make_params(3, characteristic)
    c = apply_braid(word, single_core(params, vertex))
    assert len(c) >= ORBIT_SELF_HOM_LEN and pair_total(word, vertex, word, vertex) == 2
    twin = TwistedComplex(params, c.summands, c.delta)
    for d in (c, twin, shift(c, 2)):
        assert total_rank(hf_ranks(c, d)) == 2
