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

from .linalg import MAX_CHARACTERISTIC, Field, Immutable, axpy, is_prime


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
    Validated parameters: dimension n >= 3, coefficient field, Betti vector
    of Q0. Equal and hashed like the tuple (n, field, betti0).
    """

    def __init__(self, n: int, field: Field | None = None, betti0: tuple[int, ...] | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", Field() if field is None else field)
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


def validate_params(n: int, characteristic: int, betti0=None) -> list[str]:
    """Every reason the given parameters are rejected; empty means ok."""
    problems = []
    if not isinstance(n, int) or n < 3:
        problems.append(f"n must be an integer >= 3 (got {n}): below that, higher products are not guaranteed to vanish")
    elif n > MAX_N:
        problems.append(f"n must be at most {MAX_N} (got {n})")
    if characteristic > MAX_CHARACTERISTIC:
        problems.append(f"characteristic must be at most {MAX_CHARACTERISTIC} (got {characteristic})")
    elif isinstance(characteristic, bool) or characteristic != 0 and not is_prime(characteristic):
        problems.append(f"characteristic must be 0 or prime (got {characteristic})")
    if betti0 is not None and isinstance(n, int) and n >= 1:
        b = tuple(betti0)
        if len(b) != n + 1:
            problems.append(f"betti vector must have n+1 = {n + 1} entries (got {len(b)})")
        else:
            if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in b):
                problems.append("betti entries must be nonnegative integers")
            elif b[0] != 1 or b[n] != 1:
                problems.append(f"betti vector needs b^0 = b^n = 1 (got b^0={b[0]}, b^n={b[n]})")
            elif any(b[d] != b[n - d] for d in range(n + 1)):
                problems.append("betti vector must be palindromic (duality pairs degree d with n-d)")
            elif sum(b[1:n]) > MAX_BETTI:
                problems.append(f"betti vector's interior entries must total at most {MAX_BETTI} (got {sum(b[1:n])})")
    return problems


def make_params(n: int, characteristic: int = 32003, betti0=None) -> CategoryParams:
    problems = validate_params(n, characteristic, betti0)
    if problems:
        raise ParameterError("; ".join(problems))
    return CategoryParams(n=n, field=Field(characteristic), betti0=tuple(betti0) if betti0 is not None else None)


class Category:
    """Morphism bases and the composition table for fixed CategoryParams."""

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

    # -- morphism spaces -------------------------------------------------------

    def morphism_space(self, i: int, j: int) -> tuple[BasisMorphism, ...]:
        """All basis morphisms Q_i -> Q_j, in increasing degree."""
        return self._spaces[(i, j)]

    def unit(self, vertex: int) -> BasisMorphism:
        return self.by_name["e0" if vertex == 0 else "e1"]

    # -- composition -------------------------------------------------------------

    def _build_table(self, betti) -> dict[tuple[str, str], tuple[str, int]]:
        n = self.params.n
        table: dict[tuple[str, str], tuple[str, int]] = {}
        table[("q", "p")] = ("f0", 1)
        table[("p", "q")] = ("f1", 1)
        # Intermediate classes pair perfectly into the top class of Q0.
        for d in range(1, n):
            count = betti[d]
            dual_count = betti[n - d]
            for j in range(count):
                a = _intermediate_name(n - d, j, dual_count)
                b = _intermediate_name(d, j, count)
                table[(a, b)] = ("f0", 1)
        return table

    def compose_names(self, g: str, f: str) -> tuple[str, int] | None:
        """
        The composite g∘f of basis morphisms (f first), as (name, coefficient),
        or None when it vanishes. Raises on non-composable pairs.
        """
        gm, fm = self.by_name[g], self.by_name[f]
        if fm.target != gm.source:
            raise ValueError(f"cannot compose {g} after {f}: target {fm.target} != source {gm.source}")
        if fm.degree == 0:
            return (g, 1)
        if gm.degree == 0:
            return (f, 1)
        if fm.degree + gm.degree > self.params.n:
            return None
        return self._table.get((g, f))

    def compose(self, g: dict[str, object], f: dict[str, object]) -> dict[str, object]:
        """Bilinear extension of compose_names on {name: coefficient} combos; every
        term is added with linalg.axpy, so the result stores no zeros."""
        p = self.params.field.characteristic
        out: dict[str, object] = {}
        for gn, gc in g.items():
            for fn, fc in f.items():
                hit = self.compose_names(gn, fn)
                if hit is not None:  # every composite has coefficient 1
                    axpy(out, {hit[0]: fc}, gc, p)
        return out


_category_cache: dict[CategoryParams, Category] = {}


def category_for(params: CategoryParams) -> Category:
    cat = _category_cache.get(params)
    if cat is None:
        cat = Category(params)
        _category_cache[params] = cat
    return cat
