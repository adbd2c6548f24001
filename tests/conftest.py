import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import single_core
from plumbtwist.linalg import Matrix, echelon_of, kernel_basis
from plumbtwist.twists import LETTERS, apply_braid


def random_word(rng: random.Random, max_len: int, min_len: int = 1):
    return tuple(rng.choice(LETTERS) for _ in range(rng.randrange(min_len, max_len + 1)))


def refuse_oracle(*args):
    """Stands in for complexes.invertible_combinations where the oracle must not run."""
    raise AssertionError("the quasi-isomorphism oracle ran")


def braid_corpus(n: int, count: int, max_len: int, seed: int):
    """Seeded braid-orbit complexes (word, complex) over the default field."""
    params = make_params(n)
    q0 = single_core(params, 0)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = random_word(rng, max_len)
        out.append((word, apply_braid(word, q0)))
    return params, q0, out


# -- dense linear algebra on top of linalg's elimination--------------------------------------


def dense(field, vec, size):
    """A sparse vector written out as a list of the given length."""
    out = [field.zero] * size
    for k, x in vec.items():
        out[k] = x
    return out


def rank_of(field, entries):
    """The row rank of a dense matrix: the size of the echelon of its rows."""
    return len(echelon_of(field, ({k: v for k, v in enumerate(row) if v} for row in entries)))


def columns_of(entries, ncols):
    """The columns of a dense matrix, as sparse vectors."""
    return [{r: row[k] for r, row in enumerate(entries) if row[k]} for k in range(ncols)]


def kernel_of(field, entries, ncols):
    """The canonical kernel basis of a dense matrix, from linalg.kernel_basis on its columns."""
    return [dense(field, vec, ncols) for vec in kernel_basis(field, columns_of(entries, ncols))]


def solve_with(field, entries, ncols, b):
    """
    Some x with Mx = b (zero off the pivot columns), or None when inconsistent:
    the kernel vector of [M | b] whose free column is b, negated. b has one
    exactly when it is not a pivot column, and it is then the last vector.
    """
    basis = kernel_basis(field, columns_of(entries, ncols) + [{r: v for r, v in enumerate(b) if v}])
    if not basis or ncols not in basis[-1]:
        return None
    return dense(field, {k: field.neg(v) for k, v in basis[-1].items() if k != ncols}, ncols)


def apply_matrix(field, entries, x):
    """A dense matrix times a column vector."""
    out = []
    for row in entries:
        acc = field.zero
        for a, b in zip(row, x):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


@pytest.fixture
def det_nonzero_calls(monkeypatch):
    """The sizes of the matrices passed to Matrix.det_nonzero, one per call: the oracle's candidates tested."""
    calls = []
    original = Matrix.det_nonzero

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(Matrix, "det_nonzero", counted)
    return calls


@pytest.fixture(scope="session")
def params3():
    return make_params(3)


@pytest.fixture(scope="session")
def params4():
    return make_params(4)
