"""
Exact scalar and matrix arithmetic over a prime field or the rationals.

Scalars are plain Python objects: ints in [0, p) for characteristic p; over
the rationals (characteristic 0) an int for a whole value and a
fractions.Fraction only for one that is not, so the unit coefficients that
fill most complexes cost int arithmetic on every field. A Field instance owns
the arithmetic and is the one place a Fraction is built. Arithmetic on two
Fractions can still give a whole-valued Fraction; it equals and hashes like
its int, so nothing normalizes it. There is no floating point anywhere in
this package.

Vectors are sparse {key: value} dicts with no zero values, and axpy is the
one in-place accumulate on them. All elimination runs on one routine,
Echelon: sparse rows in echelon form, each led by its smallest index with
value one. kernel_and_image_tops eliminates the transposed columns once,
rows inserted from the last index down: the reduced echelon form gives the
kernel, and the rows that were independent of the rows below them are the
largest indices of the image vectors (the cocycle route of hom complexes
reads both; HomComplex.kernel only the kernel). graded_ranks turns the sparse
columns of a graded differential into cohomology ranks (hom complexes, the
cotangent-fibre pairing), and invertible_combinations samples an affine
family of sparse square blocks for invertible members (the quasi-isomorphism
oracle). When the blocks' union support misses a row or a column, every
member is singular and nothing is sampled. Otherwise it tries the all-ones
point, then seeded random points, then, over fields of fewer than
SMALL_FIELD_BOUND elements, a sweep of a 2-parameter sub-family. The dense
Matrix is a thin view of already-canonical entries that keeps only the
members the traced benchmark reads; its rref and det_nonzero run on
Echelon too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, Sequence


def is_prime(m: int) -> bool:
    """Trial division by the odd numbers up to the square root of m."""
    return m == 2 or m > 2 and m % 2 == 1 and all(m % d for d in range(3, isqrt(m) + 1, 2))


DEFAULT_PRIME = 32003
# Primality is checked by trial division, which at this bound takes milliseconds
# and above it can take hours; larger characteristics are refused first.
MAX_CHARACTERISTIC = 2**31 - 1


def is_int(value) -> bool:
    """The package's one integer predicate: an int, and neither a bool nor a float."""
    return isinstance(value, int) and not isinstance(value, bool)


class FieldError(ValueError):
    pass


class Immutable:
    """
    Base of the value types read in inner loops (Field, CategoryParams,
    Summand, BasisMorphism): __init__ sets each attribute once with
    object.__setattr__, and nothing can assign or delete one afterwards.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


# The _make of a NamedTuple record that checks its fields in __new__: through
# __new__, so _make and _replace (which calls _make) check them too.
make_checked = classmethod(lambda cls, iterable: cls(*iterable))


class Field(Immutable):
    """
    A prime field F_p (characteristic p) or the rationals (characteristic 0),
    equal and hashed like the tuple (characteristic,). The constructor holds
    the characteristic rule, which validate_params applies too.
    """

    def __init__(self, characteristic: int = DEFAULT_PRIME):
        c = characteristic
        if not is_int(c):
            raise FieldError(f"characteristic must be an integer, 0 or prime (got {c!r})")
        if c > MAX_CHARACTERISTIC:
            raise FieldError(f"characteristic must be at most {MAX_CHARACTERISTIC} (got {c})")
        if c != 0 and not is_prime(c):
            raise FieldError(f"characteristic must be 0 or prime (got {c})")
        object.__setattr__(self, "characteristic", c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.characteristic == other.characteristic
        return NotImplemented

    def __hash__(self):
        return hash((self.characteristic,))

    def __repr__(self):
        return f"Field(characteristic={self.characteristic!r})"

    # -- element construction ------------------------------------------------

    # Every field's one and zero, plain ints.
    zero = 0
    one = 1

    def element(self, value) -> int | Fraction:
        """
        Coerce an int, Fraction or 'num/den' string into a field element: an
        int in [0, p) over F_p; over Q an int when the value is whole and a
        Fraction only when it is not. A string that is no such number raises
        FieldError.
        """
        if isinstance(value, str):
            try:
                num, slash, den = value.partition("/")
                value = Fraction(int(num), int(den)) if slash else int(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError(f"{value!r} is not an integer or a 'num/den' fraction: {exc}") from exc
        elif not (is_int(value) or isinstance(value, Fraction)):
            raise FieldError(f"field elements come from ints, Fractions or decimal strings, not {value!r}")
        p = self.characteristic
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = value.numerator
            elif not p:
                return value
            elif value.denominator % p == 0:
                raise FieldError(f"{value} has no image in F_{p}")
            else:
                return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p if p else int(value)

    def format(self, value) -> str:
        """Render an element as a decimal string, 'num/den' over the rationals."""
        if self.characteristic == 0:
            n, d = value.numerator, value.denominator
            return str(n) if d == 1 else f"{n}/{d}"
        return str(value % self.characteristic)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.characteristic if self.characteristic else a + b

    def sub(self, a, b):
        return (a - b) % self.characteristic if self.characteristic else a - b

    def mul(self, a, b):
        return (a * b) % self.characteristic if self.characteristic else a * b

    def neg(self, a):
        return (-a) % self.characteristic if self.characteristic else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverting zero field element")
        if self.characteristic == 0:
            n, d = a.numerator, a.denominator
            return d * n if n in (1, -1) else Fraction(d, n)  # d / n, an int when n is a unit
        return pow(int(a), -1, self.characteristic)

    def random_element(self, rng: random.Random):
        if self.characteristic:
            return rng.randrange(self.characteristic)
        return rng.randrange(-9, 10)


Vector = dict  # {key: field element}, zero values never stored; keys are indices, basis names or (row, col)


def axpy(v: Vector, row: Vector, a, p: int, pivots=None, heap=None) -> Vector:
    """v += a * row in place over F_p (p = 0: the rationals), storing no zeros; returns v.
    Keys that become nonzero and are keys of pivots are pushed on heap."""
    for k, x in row.items():
        y = v.get(k)
        if y is None:
            y = a * x % p if p else a * x
            if y:
                v[k] = y
                if heap is not None and k in pivots:
                    heappush(heap, k)
        else:
            y = (y + a * x) % p if p else y + a * x
            if y:
                v[k] = y
            else:
                del v[k]
    return v


class Echelon:
    """
    Sparse vectors in echelon form over a Field.

    Rows are {index: value} dicts keyed by their pivot, the smallest index
    present, where the value is one; len() is the rank of everything inserted.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, Vector] = {}

    def __len__(self):
        return len(self.rows)

    def insert(self, vec: Vector) -> bool:
        """Add vec; True when it was independent of the rows (and is now one)."""
        f, rows = self.field, self.rows
        p = f.characteristic
        v = dict(vec)
        heap = [k for k in v if k in rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            a = v.get(c)
            if a is None:
                continue
            # Rows are led by their pivot, so this only touches larger indices.
            axpy(v, rows[c], -a, p, rows, heap)
        if not v:
            return False
        pivot = min(v)
        a = v[pivot]
        if a != 1:
            inv = f.inv(a)
            v = {k: f.mul(x, inv) for k, x in v.items()}
        rows[pivot] = v
        return True

    def reduced(self) -> "Echelon":
        """Back-substitute in place so no row has a nonzero at another's pivot; returns self.
        From the last pivot up, so each row subtracted is already reduced."""
        rows, p = self.rows, self.field.characteristic
        for c in sorted(rows, reverse=True):
            row = rows[c]
            for c2 in [k for k in row if k != c and k in rows]:
                axpy(row, rows[c2], -row[c2], p)
        return self


def echelon_of(field: Field, vectors: Iterable[Vector]) -> Echelon:
    """An Echelon with every vector inserted, in order."""
    ech = Echelon(field)
    for vec in vectors:
        ech.insert(vec)
    return ech


def kernel_and_image_tops(field: Field, columns: Sequence[Vector]) -> tuple[list[Vector], set[int]]:
    """
    The canonical kernel basis of the matrix with these sparse columns, and
    the set of largest indices of the vectors in its image, from one
    elimination of its rows inserted from the last index down.

    The kernel: per free column f, increasing, {f: 1} and -row_q[f] at each
    pivot q of the reduced row echelon form, whose pivots are the greedy
    leftmost independent columns; that form does not depend on the order
    the rows went in. The tops: the rows that were independent of the rows
    below them. For every r, as many of them are >= r as the rank of the
    rows >= r, which is also how many of the image's largest indices are.
    """
    transposed: dict[int, Vector] = {}
    for k, col in enumerate(columns):
        for r, x in col.items():
            transposed.setdefault(r, {})[k] = x
    ech = Echelon(field)
    tops = {r for r in sorted(transposed, reverse=True) if ech.insert(transposed[r])}
    rows = ech.reduced().rows
    basis = {f: {f: field.one} for f in range(len(columns)) if f not in rows}
    for q in sorted(rows):
        for f, x in rows[q].items():
            if f != q:
                basis[f][q] = field.neg(x)
    return list(basis.values()), tops


def graded_ranks(field: Field, dims: dict[int, int], columns: dict[int, Sequence[Vector]]) -> dict[int, int]:
    """
    Cohomology ranks of a cochain complex with dims[g] generators in degree g,
    whose differential out of degree g has the sparse columns columns[g]
    (keyed by index in degree g + 1). Degrees of rank zero are left out.
    A negative rank can only come from a differential that does not square
    to zero, and raises ValueError. Empty columns add nothing to a rank, so
    they are not eliminated.
    """
    rank = {g: len(echelon_of(field, filter(None, cols))) for g, cols in columns.items()}
    ranks: dict[int, int] = {}
    for g, size in dims.items():
        r = size - rank.get(g, 0) - rank.get(g - 1, 0)
        if r < 0:
            raise ValueError(f"negative rank {r} in degree {g}: the differential does not square to zero")
        if r:
            ranks[g] = r
    return ranks


class Matrix:
    """
    A dense rows x cols view over a Field whose entries are already field
    elements; nothing is coerced. Elimination runs on Echelon, and this class
    keeps only what the traced benchmark (perfbench/spans.py) reads:
    __init__, rref and det_nonzero, which it wraps by name, and field, rows,
    cols and entries, which it reads off HomComplex.differentials and the
    oracle's candidate blocks. _row_vectors feeds rref and det_nonzero.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence], cols: int | None = None):
        self.field = field
        self.entries = tuple(map(tuple, entries))
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else (cols or 0)
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    def _row_vectors(self) -> list[Vector]:
        return [{k: v for k, v in enumerate(row) if v} for row in self.entries]

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the pivot column list."""
        f = self.field
        if self.rows == 0 or self.cols == 0:
            return self, []
        rows = echelon_of(f, self._row_vectors()).reduced().rows
        pivots = sorted(rows)
        out = [[rows[c].get(k, f.zero) for k in range(self.cols)] for c in pivots]
        out += [[f.zero] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(f, out), pivots

    def det_nonzero(self) -> bool:
        """Whether a square matrix is invertible; ValueError for a matrix that is not square."""
        if self.rows != self.cols:
            raise ValueError(f"det_nonzero needs a square matrix, got {self.rows} x {self.cols}")
        return len(echelon_of(self.field, self._row_vectors())) == self.rows


# -- affine families of square matrices -------------------------------------------

SAMPLE_BUDGET = 32  # seeded points tried before declaring none
SMALL_FIELD_BOUND = 33  # fields with fewer elements get the exhaustive fallback


def candidate_coefficients(field: Field, count: int, seed: int) -> Iterator[tuple]:
    """
    Deterministic stream of coefficient tuples for an affine matrix family,
    repeats dropped: the all-ones point, then SAMPLE_BUDGET - 1 points drawn
    from random.Random(seed); over fields with fewer than SMALL_FIELD_BOUND
    elements it finishes by exhausting the 2-parameter sub-family on the
    first two coefficients. By the Schwartz-Zippel lemma a random point of a
    family whose determinant is not identically zero is invertible with high
    probability over a large field.
    """
    rng = random.Random(seed)
    samples = (tuple(field.random_element(rng) for _ in range(count)) for _ in range(SAMPLE_BUDGET - 1))
    p = field.characteristic
    rest = (field.zero,) * (count - 2)
    sweep = ((a, b)[:count] + rest for a in range(p) for b in range(p)) if 0 < p < SMALL_FIELD_BOUND else ()
    seen = set()
    for t in chain([(field.one,) * count], samples, sweep):
        if t not in seen:
            seen.add(t)
            yield t


def invertible_combinations(field: Field, size: int, blocks: Sequence[Vector], seed: int = 0) -> Iterator[tuple]:
    """
    The coefficient tuples from candidate_coefficients, in order, whose
    combination sum(c_i * blocks[i]) of sparse size x size blocks
    {(row, col): value} is invertible. Every combination lies on the union
    of the blocks' supports, so when it misses a row or a column none is
    and nothing is tried; otherwise each candidate costs one det_nonzero.
    """
    support = set().union(*blocks)
    if len({r for r, _ in support}) < size or len({s for _, s in support}) < size:
        return
    p = field.characteristic
    for coeffs in candidate_coefficients(field, len(blocks), seed):
        acc: Vector = {}
        for c, block in zip(coeffs, blocks):
            if c:
                axpy(acc, block, c, p)
        rows = [[field.zero] * size for _ in range(size)]
        for (r, s), x in acc.items():
            rows[r][s] = x
        if Matrix(field, rows, cols=size).det_nonzero():
            yield coeffs
