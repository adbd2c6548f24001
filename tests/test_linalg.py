import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest

import plumbtwist
from plumbtwist import category, linalg
from plumbtwist.complexes import Summand, TwistedComplex
from plumbtwist.linalg import (
    SAMPLE_BUDGET,
    Field,
    FieldError,
    Matrix,
    axpy,
    candidate_coefficients,
    echelon_of,
    invertible_combinations,
)

from conftest import apply_matrix, columns_of, kernel_of, rank_of, solve_with


@pytest.fixture(params=[0, 5, 32003], ids=["Q", "F5", "F32003"])
def field(request):
    return Field(request.param)


def random_matrix(field, rng, rows, cols):
    return [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)]


def matrix(field, rows):
    """Dense rows of field elements."""
    return [[field.element(v) for v in row] for row in rows]


def test_characteristic_must_be_prime_or_zero():
    Field(0)
    Field(2)
    with pytest.raises(FieldError):
        Field(6)
    with pytest.raises(FieldError):
        Field(False)  # not the rationals, though False == 0


@pytest.mark.parametrize("characteristic", [0, 7, 32003])
def test_field_element_refuses_floats_and_bools(characteristic):
    f = Field(characteristic)
    for value in (2.9, 0.1, 2.0, True, False):
        with pytest.raises(FieldError):
            f.element(value)
    assert f.element(3) == f.element("3") == f.element(Fraction(3)) == 3
    assert f.element("1/2") == f.element(Fraction(1, 2))


def test_field_refuses_huge_characteristic_before_trial_division(monkeypatch):
    # Trial division of the prime 2^61 - 1 would take hours; the bound must refuse it first.
    assert category.MAX_CHARACTERISTIC is linalg.MAX_CHARACTERISTIC == 2**31 - 1
    Field(2**31 - 1)

    def no_trial_division(m):
        raise AssertionError(f"is_prime({m}) ran")

    monkeypatch.setattr(linalg, "is_prime", no_trial_division)
    with pytest.raises(FieldError, match="at most 2147483647"):
        Field(2**61 - 1)


def test_element_coercion_and_format():
    f5 = Field(5)
    assert f5.element("7") == 2
    assert f5.element(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    with pytest.raises(FieldError, match="1/5 has no image in F_5"):
        f5.element(Fraction(1, 5))
    assert f5.format(f5.element(-1)) == "4"
    fq = Field(0)
    assert fq.element("3/6") == Fraction(1, 2)
    assert fq.format(Fraction(-4, 8)) == "-1/2"
    assert fq.format(Fraction(6, 2)) == "3"


def test_rational_whole_numbers_are_ints():
    fq = Field(0)
    for value in (3, "6/2", Fraction(4, 2), "-5", Fraction(-7, 1)):
        x = fq.element(value)
        assert type(x) is int and x == Fraction(value), value
    for value in ("1/2", Fraction(-4, 6)):
        assert type(fq.element(value)) is Fraction
    inverses = [fq.inv(a) for a in (1, -1, Fraction(1, 3), Fraction(-1, 4), Fraction(1, 1))]
    assert inverses == [1, -1, 3, -4, 1] and all(type(x) is int for x in inverses)
    assert fq.inv(2) == Fraction(1, 2) and fq.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(fq.inv(Fraction(2, 1))) is Fraction
    rng = random.Random(3)
    assert all(type(fq.random_element(rng)) is int for _ in range(50))
    for f in (fq, Field(5)):
        assert (f.zero, f.one) == (0, 1) and type(f.zero) is type(f.one) is int


@pytest.mark.parametrize("characteristic", [0, 5])
def test_field_element_refuses_malformed_strings(characteristic):
    # A zero denominator raised a bare ZeroDivisionError, a decimal point int()'s bare ValueError.
    f = Field(characteristic)
    for text in ("1/0", "-3/0", "3.5", "1/2/3", "3/", "/2", "", "x"):
        with pytest.raises(FieldError, match="is not an integer or a 'num/den' fraction"):
            f.element(text)
    arrow = [Summand(0, 0), Summand(1, 0)]
    with pytest.raises(FieldError, match="'1/0' is not"):
        TwistedComplex(category.make_params(3, characteristic), arrow, {(0, 1): {"p": "1/0"}})


def _fraction_calls(tree):
    """(enclosing class name, line) of every call of Fraction, fractions.Fraction or a Fraction classmethod."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call) and "Fraction" in ast.unparse(node.func).split("."):
            found.append((cls, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_only_field_builds_fractions():
    # Whole numbers stay ints over Q: only Field decides when a value needs a Fraction.
    package = Path(plumbtwist.__file__).parent
    stray = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for cls, line in _fraction_calls(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, cls) != ("linalg.py", "Field")]
    assert stray == [], "a Fraction built outside linalg.Field; call Field.element instead"
    probe = "import fractions\nclass A:\n    x = Fraction(1)\ny = fractions.Fraction(2)\nz = Fraction.from_float(0.5)\n"
    assert _fraction_calls(ast.parse(probe)) == [("A", 3), (None, 4), (None, 5)]


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_identity_zero_proportional(field):
    assert rank_of(field, matrix(field, IDENTITY)) == 3
    assert rank_of(field, matrix(field, [[0, 0], [0, 0]])) == 0
    assert rank_of(field, matrix(field, [[1, 2], [2, 4]])) == 1


def test_kernel_sizes(field):
    assert kernel_of(field, matrix(field, IDENTITY), 3) == []
    assert len(kernel_of(field, matrix(field, [[0, 0, 0], [0, 0, 0]]), 3)) == 3
    basis = kernel_of(field, matrix(field, [[1, 1]]), 2)
    assert len(basis) == 1
    x, y = basis[0]
    assert field.add(x, y) == field.zero and x  # spans (1, -1)


def test_solve_examples(field):
    b = [field.element(v) for v in (3, 1, 4)]
    assert solve_with(field, matrix(field, IDENTITY), 3, b) == b
    assert solve_with(field, matrix(field, [[0, 0], [0, 0]]), 2, [field.one, field.zero]) is None
    f5 = Field(5)
    assert solve_with(f5, [[2]], 1, [3]) == [4]  # 2*4 = 8 = 3 mod 5


def test_rank_equals_transpose_rank_and_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(field, rng, rows, cols)
        assert rank_of(field, m) == len(echelon_of(field, columns_of(m, cols)))
        assert cols == rank_of(field, m) + len(kernel_of(field, m, cols))


def test_kernel_vectors_annihilate_and_solve_is_exact(field):
    rng = random.Random(13)
    for _ in range(20):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(field, rng, rows, cols)
        for vec in kernel_of(field, m, cols):
            assert all(v == field.zero for v in apply_matrix(field, m, vec))
        x = [field.random_element(rng) for _ in range(cols)]
        b = apply_matrix(field, m, x)
        sol = solve_with(field, m, cols, b)
        assert sol is not None
        assert apply_matrix(field, m, sol) == b


def test_invertible_combinations_unit_vectors_first(field):
    one = field.one
    identity = {(i, i): one for i in range(3)}
    assert next(invertible_combinations(field, 3, [identity])) == (one,)
    # The all-ones point gives I - I = 0; any later winner has c1 != c2.
    minus = {(i, i): field.neg(one) for i in range(3)}
    c1, c2 = next(invertible_combinations(field, 3, [identity, minus]))
    assert c1 != c2


def test_candidate_coefficients_stream(field):
    for count in (1, 2, 5, 12):
        stream = list(candidate_coefficients(field, count, 7))
        assert stream[0] == (field.one,) * count
        assert len(set(stream)) == len(stream)
        assert stream == list(candidate_coefficients(field, count, 7))
        if count >= 5:
            assert stream != list(candidate_coefficients(field, count, 8))
        if field.characteristic not in range(1, linalg.SMALL_FIELD_BOUND):
            assert len(stream) <= SAMPLE_BUDGET
    assert list(candidate_coefficients(field, 0, 7)) == [()]


def test_axpy_adds_no_key_whose_product_vanishes(field):
    p, one = field.characteristic, field.one
    heap = []
    assert axpy({"a": one}, {"a": one, "b": one}, field.zero, p, {"b": {}}, heap) == {"a": one}
    assert axpy({"a": one}, {"b": field.zero, "c": one}, one, p, {"b": {}}, heap) == {"a": one, "c": one}
    assert heap == []


def test_invertible_combinations_zero_family(field, monkeypatch):
    assert list(invertible_combinations(field, 2, [{}, {}])) == []
    # An empty kernel gives the oracle no blocks: nothing is yielded, and no candidate is tested.
    monkeypatch.setattr(Matrix, "det_nonzero", lambda self: pytest.fail("det_nonzero ran"))
    for size in (1, 2, 3):
        assert list(invertible_combinations(field, size, [])) == []


def test_invertible_combinations_two_diagonal_family_match_enumeration():
    # Oracle: enumerate all coefficient pairs over F5; diag(a, b) has determinant a * b.
    f5 = Field(5)
    witnesses = [(a, b) for a, b in product(range(5), repeat=2) if a * b % 5]
    found = list(invertible_combinations(f5, 2, [{(0, 0): 1}, {(1, 1): 1}]))
    assert found
    assert found == [t for t in candidate_coefficients(f5, 2, 0) if t in witnesses]


def test_invertible_combinations_need_exhaustion_on_small_field():
    # Over F2, diag(c1, c2, c1 + c3, ..., c1 + c12) is invertible only at
    # c = (1, 1, 0, ..., 0): neither the all-ones point, a unit vector nor a
    # seeded sample, but a point of the exhausted 2-parameter sub-family.
    f2 = Field(2)
    k = 12
    first = {(i, i): 1 for i in range(k) if i != 1}
    blocks = [first, {(1, 1): 1}] + [{(i, i): 1} for i in range(2, k)]
    target = (1, 1) + (0,) * (k - 2)
    assert target not in list(islice(candidate_coefficients(f2, k, 0), SAMPLE_BUDGET))
    assert list(invertible_combinations(f2, k, blocks)) == [target]



def test_det_nonzero_refuses_a_matrix_that_is_not_square():
    # Under python -O an assert would vanish, and a 2 x 3 matrix of rank 2 would read as invertible.
    with pytest.raises(ValueError, match="square matrix, got 2 x 3"):
        Matrix(Field(5), [[1, 0, 0], [0, 1, 0]]).det_nonzero()
    code = (
        "from plumbtwist.linalg import Field, Matrix\n"
        "try:\n"
        "    print(Matrix(Field(5), [[1, 0, 0], [0, 1, 0]]).det_nonzero())\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(plumbtwist.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "refused: det_nonzero needs a square matrix, got 2 x 3\n", proc.stderr
