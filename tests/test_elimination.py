"""
Differential tests of the sparse elimination core.

Matrix.rank, rref, kernel_basis and solve, and the Echelon underneath them,
are compared with a naive dense Gauss-Jordan elimination written here, over
F_2, F_5, F_32003 and Q, on random sparse and dense matrices including 0-row
and 0-column shapes. The sparse hom-complex columns are compared with the
differential of each generator computed by Morphism.differential.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from plumbtwist.category import make_params
from plumbtwist.complexes import Morphism, hom_complex, single_core
from plumbtwist.linalg import Echelon, Field, Matrix
from plumbtwist.twists import apply_braid

from conftest import random_word

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
    assert m.rank() == len(pivots)
    if m.rows == m.cols:
        assert m.det_nonzero() == (len(pivots) == m.rows)
    assert m.kernel_basis() == reference_kernel(field, m.entries, m.cols)
    if m.rows and m.cols:
        got, got_pivots = m.rref()
        assert got_pivots == pivots
        assert [list(row) for row in got.entries] == red


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_solve_matches_reference(case):
    field, m, rng = case
    x = [field.random_element(rng) for _ in range(m.cols)]
    for b in (m.apply(x), [field.random_element(rng) for _ in range(m.rows)]):
        want = reference_solve(field, m.entries, m.cols, b)
        assert m.solve(b) == want
        if want is not None:
            assert m.apply(want) == b


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
        assert no_rows.rank() == 0
        assert no_rows.kernel_basis() == [[f.one if i == j else f.zero for i in range(3)] for j in range(3)]
        assert no_rows.solve([]) == [f.zero] * 3
        no_cols = Matrix(f, [[], []], cols=0)
        assert no_cols.rank() == 0 and no_cols.kernel_basis() == []
        assert no_cols.solve([f.zero, f.zero]) == []
        assert no_cols.solve([f.one, f.zero]) is None


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
