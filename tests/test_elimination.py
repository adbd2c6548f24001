"""
Differential tests of the sparse elimination core.

Row ranks from Echelon, Matrix.rref and det_nonzero, the Echelon (its
relations as kernels, reduce as a solver), graded_ranks and covers.fibre_rank are compared with a
naive dense Gauss-Jordan elimination written here, over F_2, F_5, F_32003
and Q, on random sparse and dense matrices including 0-row and 0-column
shapes, and on hom complexes and fibre pairings of braid-orbit complexes.
The sparse hom-complex columns are compared with the differential of each
generator computed by Morphism.differential.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import Morphism, Summand, TwistedComplex, hom_complex, single_core
from plumbtwist.covers import fibre_rank
from plumbtwist.linalg import Echelon, Field, Matrix, graded_ranks
from plumbtwist.twists import LETTERS, apply_braid

from conftest import apply_matrix, kernel_of, random_word, rank_of, solve_with

CHARACTERISTICS = (2, 5, 32003, 0)


# -- the reference: textbook dense Gauss-Jordan ------------------------------------------


def reference_rref(field, rows, ncols):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_kernel(field, rows, ncols):
    red, pivots = reference_rref(field, rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [field.zero] * ncols
        vec[j] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][j])
        basis.append(vec)
    return basis


def reference_solve(field, rows, ncols, b):
    red, pivots = reference_rref(field, [list(row) + [bv] for row, bv in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


# -- random matrices -------------------------------------------------------------------


@st.composite
def matrices(draw):
    field = Field(draw(st.sampled_from(CHARACTERISTICS)))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        if rng.random() >= density:
            return field.zero
        if field.characteristic:
            return rng.randrange(field.characteristic)
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))

    entries = [[entry() for _ in range(cols)] for _ in range(rows)]
    # Duplicate and combine rows now and then, so ranks fall short of full.
    if rows >= 2 and rng.random() < 0.5:
        entries[-1] = [field.add(a, b) for a, b in zip(entries[0], entries[1])]
    return field, Matrix(field, entries, cols=cols), rng


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_rref_and_kernel_match_reference(case):
    field, m, _ = case
    red, pivots = reference_rref(field, m.entries, m.cols)
    assert rank_of(field, m.entries) == len(pivots)
    if m.rows == m.cols:
        assert m.det_nonzero() == (len(pivots) == m.rows)
    assert kernel_of(field, m.entries, m.cols) == reference_kernel(field, m.entries, m.cols)
    if m.rows and m.cols:
        got, got_pivots = m.rref()
        assert got_pivots == pivots
        assert [list(row) for row in got.entries] == red


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_solve_matches_reference(case):
    field, m, rng = case
    x = [field.random_element(rng) for _ in range(m.cols)]
    for b in (apply_matrix(field, m.entries, x), [field.random_element(rng) for _ in range(m.rows)]):
        want = reference_solve(field, m.entries, m.cols, b)
        assert solve_with(field, m.entries, m.cols, b) == want
        if want is not None:
            assert apply_matrix(field, m.entries, want) == b


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_relations_are_the_column_kernel(case):
    field, m, _ = case
    ech = Echelon(field, track=True)
    independent = []
    for k in range(m.cols):
        if ech.insert({r: m.entries[r][k] for r in range(m.rows) if m.entries[r][k]}):
            independent.append(k)
    _, pivots = reference_rref(field, m.entries, m.cols)
    assert independent == pivots
    assert len(ech) == len(pivots)
    dense = []
    for vec in ech.relations:
        row = [field.zero] * m.cols
        for k, v in vec.items():
            row[k] = v
        dense.append(row)
    assert dense == reference_kernel(field, m.entries, m.cols)


def test_empty_shapes():
    for c in CHARACTERISTICS:
        f = Field(c)
        no_rows = Matrix(f, [], cols=3)
        assert (no_rows.rows, no_rows.cols) == (0, 3) and rank_of(f, no_rows.entries) == 0
        assert no_rows.rref() == (no_rows, [])
        assert kernel_of(f, [], 3) == [[f.one if i == j else f.zero for i in range(3)] for j in range(3)]
        assert solve_with(f, [], 3, []) == [f.zero] * 3
        no_cols = Matrix(f, [[], []], cols=0)
        assert (no_cols.rows, no_cols.cols) == (2, 0) and rank_of(f, no_cols.entries) == 0
        assert no_cols.rref() == (no_cols, []) and kernel_of(f, [[], []], 0) == []
        assert solve_with(f, [[], []], 0, [f.zero, f.zero]) == []
        assert solve_with(f, [[], []], 0, [f.one, f.zero]) is None
        assert graded_ranks(f, {0: 0, 1: 2}, {0: [], 1: [{}, {}]}) == {1: 2}


def test_graded_ranks_refuses_a_differential_that_does_not_square_to_zero():
    # 0 -> 1 -> 2, each map an isomorphism of lines: D.D != 0 and degree 1 would have rank -1.
    with pytest.raises(ValueError, match="negative rank -1 in degree 1"):
        graded_ranks(Field(5), {0: 1, 1: 1, 2: 1}, {0: [{0: 1}], 1: [{0: 1}]})


# -- graded ranks against the reference ---------------------------------------------------------


def reference_ranks(field, dims, matrices):
    """dims[g] - rank(d_g) - rank(d_{g-1}) per degree, zeros left out, each rank by reference_rref."""
    rank = {g: len(reference_rref(field, rows, dims[g])[1]) for g, rows in matrices.items()}
    out = {}
    for g, size in dims.items():
        r = size - rank.get(g, 0) - rank.get(g - 1, 0)
        if r:
            out[g] = r
    return out


@st.composite
def braid_images(draw, count):
    """A field and count braid-orbit complexes over it, at n = 3."""
    params = make_params(3, draw(st.sampled_from(CHARACTERISTICS)))
    images = []
    for _ in range(count):
        word = tuple(draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4)))
        images.append(apply_braid(word, single_core(params, draw(st.integers(0, 1)))))
    return params.field, images


@settings(max_examples=60, deadline=None)
@given(braid_images(2))
def test_graded_ranks_match_reference_on_hom_complexes(case):
    field, (c, d) = case
    h = hom_complex(c, d)
    dims = h.dimensions()
    want = reference_ranks(field, dims, {g: m.entries for g, m in h.differentials.items()})
    assert graded_ranks(field, dims, h.columns) == want
    assert h.cohomology_ranks() == want


@st.composite
def two_level_complexes(draw):
    """Summands at positions 0 and 1 with random unit entries upward, so delta squares to zero."""
    params = make_params(3, draw(st.sampled_from(CHARACTERISTICS)))
    summands = [Summand(draw(st.integers(0, 1)), draw(st.integers(0, 1))) for _ in range(draw(st.integers(2, 8)))]
    delta = {}
    for i, a in enumerate(summands):
        for j, b in enumerate(summands):
            if a.vertex == b.vertex and (a.position, b.position) == (0, 1) and draw(st.booleans()):
                delta[(i, j)] = {f"e{a.vertex}": params.field.element(draw(st.integers(1, 6)))}
    return params.field, TwistedComplex(params, summands, delta)


@settings(max_examples=100, deadline=None)
@given(st.one_of(braid_images(1).map(lambda case: (case[0], case[1][0])), two_level_complexes()))
def test_fibre_rank_matches_reference(case):
    field, c = case
    for vertex in (0, 1):
        unit = "e0" if vertex == 0 else "e1"
        by_position = {}
        for k, s in enumerate(c.summands):
            if s.vertex == vertex:
                by_position.setdefault(s.position, []).append(k)
        dims = {t: len(gens) for t, gens in by_position.items()}
        matrices = {
            t: [[c.delta.get((i, j), {}).get(unit, field.zero) for i in gens] for j in by_position.get(t + 1, ())]
            for t, gens in by_position.items()
        }
        assert fibre_rank(c, vertex) == reference_ranks(field, dims, matrices)


# -- sparse hom-complex columns against Morphism.differential ----------------------------------


def test_hom_columns_match_morphism_differential():
    rng = random.Random(17)
    for characteristic in (2, 32003, 0):
        params = make_params(3, characteristic)
        field = params.field
        q0 = single_core(params, 0)
        for _ in range(4):
            c = apply_braid(random_word(rng, 3), q0)
            d = apply_braid(random_word(rng, 3), q0)
            h = hom_complex(c, d)
            for g, gens in h.components.items():
                nxt = h.components.get(g + 1, ())
                for k, (i, j, name) in enumerate(gens):
                    image = Morphism(c, d, g, {(i, j): {name: field.one}}).differential().comps
                    want = {nxt.index((i2, j2, nm)): v for (i2, j2), combo in image.items()
                            for nm, v in combo.items()}
                    assert h.columns[g][k] == want
                    dense = h.differentials[g]
                    assert [dense.entries[r][k] for r in range(dense.rows)] == \
                        [want.get(r, field.zero) for r in range(len(nxt))]
