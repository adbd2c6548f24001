"""
The graded linear category with two objects Q0, Q1 underlying every complex.

Objects are the two compact cores of a plumbing, indexed by vertex 0 and 1.
Gradings are fixed so that hom(Q0, Q1) is one-dimensional, concentrated in
degree 1 (generator p); duality then places the reverse generator q in degree
n-1 and the top classes f0, f1 in degree n. Vertex 1 is always a homology
n-sphere; vertex 0 may instead carry a general Poincare-duality Betti vector
(b^0, ..., b^n), which adds intermediate endomorphism classes x_d in degrees
0 < d < n.

The only nonzero products besides the strict units are the duality pairings:
q∘p = f0, p∘q = f1, and x_{n-d}.j ∘ x_d.j = f0 for dual intermediate classes.
Everything else either lands in a degree with no basis element or exceeds
degree n. All higher products vanish in this regime (n >= 3), so composition
is an honest associative product and the Maurer-Cartan equation for a
twisted complex is plain matrix squaring.
"""

from __future__ import annotations

# MAX_CHARACTERISTIC is re-exported.
from .linalg import DEFAULT_PRIME, MAX_CHARACTERISTIC, Field, FieldError, Immutable, axpy, is_int


class ParameterError(ValueError):
    """A rejected CategoryParams, with a human-readable reason."""


class BasisMorphism(Immutable):
    """One basis morphism Q_source -> Q_target of the given degree; compared by identity."""

    def __init__(self, name: str, source: int, target: int, degree: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", degree)

    def __repr__(self):
        return f"{self.name}:{self.source}->{self.target}[{self.degree}]"


def spherical_betti(n: int) -> tuple[int, ...]:
    return tuple(1 if i in (0, n) else 0 for i in range(n + 1))


def _intermediate_name(degree: int, index: int, count: int) -> str:
    return f"x{degree}" if count == 1 else f"x{degree}.{index + 1}"


class CategoryParams(Immutable):
    """
    Dimension n >= 3, coefficient field (checked when it was built) and Betti vector
    of Q0, with validate_params' messages. Equal and hashed like the tuple (n, field, betti0).
    """

    def __init__(self, n: int, field: Field | None = None, betti0: tuple[int, ...] | None = None):
        field = Field() if field is None else field
        if not isinstance(field, Field):
            raise ParameterError(f"field must be a Field, got {field!r}")
        betti0 = None if betti0 is None else tuple(betti0)
        if problems := _problems(n, None, betti0):
            raise ParameterError("; ".join(problems))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "betti0", betti0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.field, self.betti0) == (other.n, other.field, other.betti0)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.field, self.betti0))

    def __repr__(self):
        return f"CategoryParams(n={self.n!r}, field={self.field!r}, betti0={self.betti0!r})"

    def resolved_betti0(self) -> tuple[int, ...]:
        return self.betti0 if self.betti0 is not None else spherical_betti(self.n)

    @property
    def spherical(self) -> bool:
        return self.resolved_betti0() == spherical_betti(self.n)


# The cores' dimension n costs time and memory linearly (Betti vectors, degree
# ranges), and no computation needs it anywhere near this large.
MAX_N = 10_000
# Category builds one basis morphism per interior class of Q0: well under a
# second for this many, but seconds to minutes and gigabytes for the millions
# a 100-byte document can ask for.
MAX_BETTI = 10_000


def is_vertex(value) -> bool:
    """The vertex rule: the int 0 or 1, naming Q0 or Q1."""
    return is_int(value) and value in (0, 1)


def betti_problem(b: tuple) -> str | None:
    """Why b is no Betti vector of a closed core, or None: nonnegative ints with b^0 = b^n = 1."""
    if not all(is_int(v) and v >= 0 for v in b):
        return "betti entries must be nonnegative integers"
    if b[0] != 1 or b[-1] != 1:
        return f"betti vector needs b^0 = b^n = 1 (got b^0={b[0]}, b^n={b[-1]})"
    return None


def _problems(n: int, field_problem: str | None, betti0) -> list[str]:
    """Every reason n and betti0 are rejected, with the characteristic's field_problem between them."""
    problems = []
    if not is_int(n) or n < 3:
        problems.append(f"n must be an integer >= 3 (got {n}): below that, higher products are not guaranteed to vanish")
    elif n > MAX_N:
        problems.append(f"n must be at most {MAX_N} (got {n})")
    if field_problem:
        problems.append(field_problem)
    if betti0 is not None and is_int(n) and n >= 1:
        b = tuple(betti0)
        if len(b) != n + 1:
            problems.append(f"betti vector must have n+1 = {n + 1} entries (got {len(b)})")
        elif problem := betti_problem(b):
            problems.append(problem)
        elif any(b[d] != b[n - d] for d in range(n + 1)):
            problems.append("betti vector must be palindromic (duality pairs degree d with n-d)")
        elif sum(b[1:n]) > MAX_BETTI:
            problems.append(f"betti vector's interior entries must total at most {MAX_BETTI} (got {sum(b[1:n])})")
    return problems


def validate_params(n: int, characteristic: int, betti0=None) -> list[str]:
    """Every reason the given parameters are rejected; empty means ok."""
    try:
        Field(characteristic)
    except FieldError as exc:
        return _problems(n, str(exc), betti0)
    return _problems(n, None, betti0)


def make_params(n: int, characteristic: int = DEFAULT_PRIME, betti0=None) -> CategoryParams:
    try:
        field = Field(characteristic)
    except FieldError as exc:
        raise ParameterError("; ".join(_problems(n, str(exc), betti0))) from None
    return CategoryParams(n, field, betti0)


class BasisProducts(dict):
    """
    The memo of basis products: (g, f) -> the name of g∘f (f first), or None
    when it vanishes, filled from compose_names on first lookup. A
    non-composable pair raises ValueError on every lookup and is never stored.
    """

    __slots__ = ("compose_names",)

    def __init__(self, compose_names):
        super().__init__()
        self.compose_names = compose_names

    def __missing__(self, pair: tuple[str, str]) -> str | None:
        name = self[pair] = self.compose_names(*pair)
        return name


class Category:
    """Morphism bases, the composition table and its memo of basis products for fixed CategoryParams."""

    def __init__(self, params: CategoryParams):
        self.params = params
        n = params.n
        betti = params.resolved_betti0()

        hom00 = [BasisMorphism("e0", 0, 0, 0)]
        for d in range(1, n):
            for j in range(betti[d]):
                hom00.append(BasisMorphism(_intermediate_name(d, j, betti[d]), 0, 0, d))
        hom00.append(BasisMorphism("f0", 0, 0, n))
        self._spaces: dict[tuple[int, int], tuple[BasisMorphism, ...]] = {
            (0, 0): tuple(hom00),
            (1, 1): (BasisMorphism("e1", 1, 1, 0), BasisMorphism("f1", 1, 1, n)),
            (0, 1): (BasisMorphism("p", 0, 1, 1),),
            (1, 0): (BasisMorphism("q", 1, 0, n - 1),),
        }
        self.by_name = {m.name: m for sp in self._spaces.values() for m in sp}
        self._table = self._build_table(betti)
        self.products = BasisProducts(self.compose_names)

    # -- morphism spaces -------------------------------------------------------

    def morphism_space(self, i: int, j: int) -> tuple[BasisMorphism, ...]:
        """All basis morphisms Q_i -> Q_j, in increasing degree."""
        return self._spaces[(i, j)]

    # -- composition -------------------------------------------------------------

    def _build_table(self, betti) -> dict[tuple[str, str], str]:
        n = self.params.n
        table = {("q", "p"): "f0", ("p", "q"): "f1"}
        # Intermediate classes pair perfectly into the top class of Q0.
        for d in range(1, n):
            count = betti[d]
            dual_count = betti[n - d]
            for j in range(count):
                a = _intermediate_name(n - d, j, dual_count)
                b = _intermediate_name(d, j, count)
                table[(a, b)] = "f0"
        return table

    def compose_names(self, g: str, f: str) -> str | None:
        """
        The name of the composite g∘f of basis morphisms (f first), or None
        when it vanishes; every nonzero composite has coefficient 1. Raises
        ValueError on a non-composable pair and KeyError on an unknown name.
        """
        gm, fm = self.by_name[g], self.by_name[f]
        if fm.target != gm.source:
            raise ValueError(f"cannot compose {g} after {f}: target {fm.target} != source {gm.source}")
        if fm.degree == 0:
            return g
        if gm.degree == 0:
            return f
        if fm.degree + gm.degree > self.params.n:
            return None
        return self._table.get((g, f))

    def compose(self, g: dict[str, object], f: dict[str, object]) -> dict[str, object]:
        """Bilinear extension of the product memo on {name: coefficient} combos;
        every term is added with linalg.axpy, so the result stores no zeros."""
        p = self.params.field.characteristic
        products = self.products
        out: dict[str, object] = {}
        for gn, gc in g.items():
            for fn, fc in f.items():
                name = products[gn, fn]
                if name is not None:
                    axpy(out, {name: fc}, gc, p)
        return out


_category_cache: dict[CategoryParams, Category] = {}


def category_for(params: CategoryParams) -> Category:
    cat = _category_cache.get(params)
    if cat is None:
        cat = Category(params)
        _category_cache[params] = cat
    return cat
