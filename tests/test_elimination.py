"""
Differential tests of the sparse elimination core.

Row ranks and column pivots from Echelon, Matrix.rref and det_nonzero,
kernel_basis (also as a solver: the kernel of [M | b]), graded_ranks and
covers.fibre_rank are compared with a naive dense Gauss-Jordan elimination
written here, over F_2, F_5, F_32003
and Q, on random sparse and dense matrices including 0-row and 0-column
shapes, and on hom complexes and fibre pairings of braid-orbit complexes.
The sparse hom-complex columns are compared with the differential of each
generator computed by Morphism.differential. term_rank is compared with an
exhaustive search over partial assignments, invertible_combinations with the
unpruned sampling loop, and the one-elimination cocycle route with the
two-elimination route it replaced, both kept here.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import Morphism, Summand, TwistedComplex, direct_sum, hom_complex, single_core
from plumbtwist.covers import CoverSpec, fibre_rank, specialize
from plumbtwist.linalg import (
    Echelon,
    Field,
    Matrix,
    candidate_coefficients,
    echelon_of,
    graded_ranks,
    invertible_combinations,
    kernel_and_image_tops,
    kernel_basis,
    term_rank,
)
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
def test_column_pivots_and_kernel_basis_match_reference(case):
    field, m, _ = case
    columns = [{r: m.entries[r][k] for r in range(m.rows) if m.entries[r][k]} for k in range(m.cols)]
    ech = Echelon(field)
    independent = [k for k, col in enumerate(columns) if ech.insert(col)]
    _, pivots = reference_rref(field, m.entries, m.cols)
    assert independent == pivots
    assert len(ech) == len(pivots)
    dense = []
    for vec in kernel_basis(field, columns):
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


# (n, Betti vector of Q0, window of degrees): spherical cores at n = 3 and 5,
# interior pairings x2.j . x2.j = f0 with multiplicity two at n = 4, and the
# degree-0 window the quasi-isomorphism oracle builds.
HOM_LAYOUTS = ((3, None, None), (4, (1, 0, 2, 0, 1), None), (5, None, None), (3, None, {0}))


def test_hom_columns_match_morphism_differential():
    rng = random.Random(17)
    for n, betti0, window in HOM_LAYOUTS:
        for characteristic in (2, 32003, 0):
            params = make_params(n, characteristic, betti0)
            field = params.field
            cores = [single_core(params, v) for v in (0, 1)]
            pairs = [(apply_braid(random_word(rng, 3), rng.choice(cores)),
                      apply_braid(random_word(rng, 3), rng.choice(cores))) for _ in range(4)]
            if betti0 is not None:
                interior = TwistedComplex(params, [Summand(0, 1), Summand(0, 0)], {(0, 1): {"x2.1": 1, "x2.2": 3}})
                pairs += [(interior, interior), (interior, pairs[0][1])]
            for c, d in pairs:
                h = hom_complex(c, d, degrees=window)
                assert set(h.columns) == set(h.components) if window is None else set(h.columns) <= window
                assert_columns_are_differentials(h)


def test_hom_columns_sum_the_two_terms_of_a_self_loop():
    # Unvalidated: a self-loop 5 x1 on Q0 (b^1 = 1 at n = 4) is a degree-1 entry, and
    # x1 . x1 = 0, so delta squares to zero. Both terms of D land on one generator:
    # 5 (x1 . e0 - e0 . x1) = 0 from e0, and 5 (x1 . x3 + x3 . x1) = 10 f0 from x3.
    for characteristic in (2, 32003, 0):
        params = make_params(4, characteristic, (1, 1, 0, 1, 1))
        loop = TwistedComplex(params, [Summand(0, 0)], {(0, 0): {"x1": 5}})
        h = hom_complex(loop, loop)
        assert_columns_are_differentials(h)
        (_, e0), (_, x3), (_, f0) = (h.index[(0, 0, name)] for name in ("e0", "x3", "f0"))
        ten = params.field.element(10)
        assert h.columns[0][e0] == {}
        assert h.columns[3][x3] == ({f0: ten} if ten else {})


def assert_columns_are_differentials(h):
    """Each hom column equals Morphism.differential of its generator, sparse and in the dense view."""
    field = h.params.field
    for g, cols in h.columns.items():
        nxt = h.components.get(g + 1, ())
        dense = h.differentials[g]
        for k, (i, j, name) in enumerate(h.components[g]):
            image = Morphism(h.source, h.target, g, {(i, j): {name: field.one}}).differential().comps
            want = {nxt.index((i2, j2, nm)): v for (i2, j2), combo in image.items() for nm, v in combo.items()}
            assert cols[k] == want
            assert [dense.entries[r][k] for r in range(dense.rows)] == [want.get(r, field.zero) for r in range(len(nxt))]


# -- term rank and the oracle's candidate search ------------------------------------------------


def brute_force_term_rank(size, support):
    """The most support positions no two in a row or column, over every partial assignment of rows to columns."""

    @functools.cache
    def best(row, used):
        if row == size:
            return 0
        taken = [1 + best(row + 1, used | 1 << s) for s in range(size) if (row, s) in support and not used >> s & 1]
        return max([best(row + 1, used)] + taken)

    return best(0, 0)


def test_term_rank_matches_exhaustive_search():
    rng = random.Random(1967)
    for _ in range(3000):
        size = rng.randint(0, 6)
        density = rng.choice((0.1, 0.25, 0.5))
        support = {(r, s) for r in range(size) for s in range(size) if rng.random() < density}
        assert term_rank(support) == brute_force_term_rank(size, support)


def test_term_rank_of_a_long_path_needs_no_recursion():
    # Row r sees columns r and r + 1, listed so that every row first takes the
    # column its successor needs: the last row's augmenting path flips all of them.
    size = 5000
    support = [(r, r + 1) for r in range(size - 1)] + [(r, r) for r in range(size)]
    assert term_rank(support) == size
    assert term_rank(support[: size - 1] + [(r, r) for r in range(1, size)]) == size - 1


def unpruned_invertible_combinations(field, size, blocks, seed=0):
    """The sampling loop without the term-rank exit, each candidate decided by reference_rref."""
    for coeffs in candidate_coefficients(field, len(blocks), seed):
        m = [[field.zero] * size for _ in range(size)]
        for c, block in zip(coeffs, blocks):
            for (r, s), x in block.items():
                m[r][s] = field.add(m[r][s], field.mul(c, x))
        if len(reference_rref(field, m, size)[1]) == size:
            yield coeffs


@pytest.mark.parametrize("characteristic", (2, 3, 32003, 0), ids=["F2", "F3", "F32003", "Q"])
def test_invertible_combinations_match_the_unpruned_loop(characteristic, det_nonzero_calls):
    # Over F_2 and F_3 the candidates end with the SMALL_FIELD_BOUND sweep.
    field = Field(characteristic)
    rng = random.Random(characteristic)
    pruned = tested = 0
    for _ in range(25):
        size = rng.randint(1, 4)
        blocks = []
        for _ in range(rng.randint(1, 3)):
            block = {}
            for r in range(size):
                for s in range(size):
                    x = field.random_element(rng) if rng.random() < 0.3 else field.zero
                    if x:
                        block[(r, s)] = x
            blocks.append(block)
        before = len(det_nonzero_calls)
        assert list(invertible_combinations(field, size, blocks, 5)) == list(
            unpruned_invertible_combinations(field, size, blocks, 5))
        if term_rank(set().union(*blocks)) < size:
            assert len(det_nonzero_calls) == before
            pruned += 1
        else:
            tested += 1
    assert pruned and tested


@pytest.mark.parametrize("characteristic", (2, 3, 32003, 0), ids=["F2", "F3", "F32003", "Q"])
def test_invertible_combinations_test_a_singular_family_of_full_term_rank(characteristic, det_nonzero_calls):
    # c * [[1, 1], [1, 1]] is singular for every c, though its support has term rank 2.
    field = Field(characteristic)
    ones = {(r, s): field.one for r in range(2) for s in range(2)}
    assert term_rank(ones) == 2
    assert list(invertible_combinations(field, 2, [ones], 9)) == []
    assert len(det_nonzero_calls) == len(list(candidate_coefficients(field, 1, 9)))


# -- cocycle representatives from one elimination per degree ----------------------------------


def first_seen_kernel_basis(field, columns):
    """The kernel as the two-elimination route computed it: transposed rows eliminated in first-seen order."""
    transposed = {}
    for k, col in enumerate(columns):
        for r, x in col.items():
            transposed.setdefault(r, {})[k] = x
    rows = echelon_of(field, transposed.values()).reduced().rows
    basis = {f: {f: field.one} for f in range(len(columns)) if f not in rows}
    for q in sorted(rows):
        for f, x in rows[q].items():
            if f != q:
                basis[f][q] = field.neg(x)
    return list(basis.values())


def reversed_column_tops(field, columns):
    """The largest indices of the image: the pivots of the columns' echelon on negated indices."""
    return {-k for k in echelon_of(field, ({-k: x for k, x in col.items()} for col in columns)).rows}


def two_elimination_cocycle_representatives(hom):
    """The route replaced: coboundary tops from the columns of D out of g - 1, the kernel of D out of g apart."""
    field = hom.params.field
    reps = {}
    for g in hom.components:
        tops = reversed_column_tops(field, hom.columns.get(g - 1, []))
        chosen = [vec for vec in first_seen_kernel_basis(field, hom.columns[g]) if max(vec) not in tops]
        if chosen:
            reps[g] = chosen
    return reps


def random_hom_operand(rng, params):
    """A braid image of a core, a sum of two, or the specialization of one to a cover of either core."""
    cores = [single_core(params, v) for v in (0, 1)]
    x = apply_braid(random_word(rng, 4), rng.choice(cores))
    kind = rng.choice(("braid", "sum", "cover"))
    if kind == "sum":
        return direct_sum(x, apply_braid(random_word(rng, 3), rng.choice(cores)))
    if kind == "cover":
        return specialize(x, CoverSpec(rng.randint(0, 1)))
    return x


def test_fused_cocycle_route_matches_two_eliminations():
    rng = random.Random(15)
    nonzero_tops = 0
    for n in (3, 4, 5):
        for characteristic in CHARACTERISTICS:
            params = make_params(n, characteristic)
            field = params.field
            for _ in range(8):
                c = random_hom_operand(rng, params)
                hom = hom_complex(c, c if rng.random() < 0.3 else random_hom_operand(rng, params))
                for g, cols in hom.columns.items():
                    kernel, tops = kernel_and_image_tops(field, cols)
                    assert tops == reversed_column_tops(field, cols)
                    assert kernel == first_seen_kernel_basis(field, cols)
                    nonzero_tops += bool(tops)
                assert hom.cocycle_representatives() == two_elimination_cocycle_representatives(hom)
    assert nonzero_tops
