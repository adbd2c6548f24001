"""
Twisted complexes over the two-core category, and their calculus.

A complex is an ordered list of summands (vertex, position) -- position t
stands for the core Q_vertex[-t], so the shift X -> X[1] lowers every
position by one -- together with a differential delta indexed by ordered
summand pairs. Each entry is a combination of basis morphisms whose internal
degree d is pinned by the slot: d - (pos(a) - pos(b)) = 1, so p-entries
connect equal positions, q-entries drop n-2, top-class entries drop n-1,
and unit entries climb exactly one position (those appear in cones, and
Gaussian elimination removes them again).

Being a twisted complex means the entry digraph is acyclic (the differential
is strictly triangular in some ordering of the summands) and the matrix
square of delta vanishes under composition; with all higher products zero
that square is the entire Maurer-Cartan equation.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .category import Category, CategoryParams, category_for
from .linalg import (Immutable, Matrix, Vector, axpy, graded_ranks, invertible_combinations, kernel_and_image_tops,
                     kernel_basis)

Combo = dict  # {basis name: field element}, zero coefficients never stored


class Summand(Immutable):
    """The core Q_vertex[-position]; equal and hashed like the tuple (vertex, position)."""

    def __init__(self, vertex: int, position: int):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertex, self.position) == (other.vertex, other.position)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex, self.position))

    def __repr__(self):
        return f"Q{self.vertex}@{self.position}"


class ComplexError(ValueError):
    pass


class Violation(NamedTuple):
    kind: str  # "vertex", "degree", "triangularity", "maurer-cartan", "reach"
    slot: tuple[int, int] | None
    message: str


class TwistedComplex:
    """Summands plus a strictly triangular degree-1 differential."""

    __slots__ = ("params", "summands", "delta")

    def __init__(self, params: CategoryParams, summands: Sequence[Summand], delta=None):
        self.params = params
        self.summands = tuple(summands)
        element = params.field.element
        p = params.field.characteristic
        clean = {}
        for (i, j), combo in (delta or {}).items():
            kept = {}
            for name, c in combo.items():
                # Coerce only non-canonical values; re-wrapping every Fraction would slow the Q path.
                canonical = type(c) is int and 0 <= c < p if p else type(c) is Fraction
                value = c if canonical else element(c)
                if value:
                    kept[name] = value
            if kept:
                clean[(i, j)] = kept
        self.delta = clean

    # -- basics ------------------------------------------------------------------

    @property
    def category(self) -> Category:
        return category_for(self.params)

    def __len__(self):
        return len(self.summands)

    @property
    def is_empty(self) -> bool:
        return not self.summands

    def __repr__(self):
        arrows = ", ".join(f"{i}->{j}:{'+'.join(sorted(c))}" for (i, j), c in sorted(self.delta.items()))
        return f"TwistedComplex({list(self.summands)}; {arrows})"

    def summand_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((s.vertex, s.position) for s in self.summands))

    def min_position(self) -> int:
        if self.is_empty:
            return 0
        return min(s.position for s in self.summands)

    def profile(self) -> tuple[dict[int, int], dict[int, int]]:
        """Multiplicity per position for vertex 0 (U) and vertex 1 (V)."""
        u: dict[int, int] = {}
        v: dict[int, int] = {}
        for s in self.summands:
            side = u if s.vertex == 0 else v
            side[s.position] = side.get(s.position, 0) + 1
        return u, v

    def entry_degree(self, i: int, j: int) -> int:
        return self.summands[i].position - self.summands[j].position + 1


def single_core(params: CategoryParams, vertex: int, position: int = 0) -> TwistedComplex:
    # Summand, built in hot loops, checks nothing: a bool would be written out as "vertex": true.
    for what, value in (("vertex", vertex), ("position", position)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ComplexError(f"single_core {what} must be an integer, got {value!r}")
    return TwistedComplex(params, [Summand(vertex, position)])


def empty_complex(params: CategoryParams) -> TwistedComplex:
    return TwistedComplex(params, [])


# -- validation ----------------------------------------------------------------------


def validate(c: TwistedComplex) -> list[Violation]:
    """All invariant violations; an empty list means the complex is well-formed."""
    cat = c.category
    n = c.params.n
    out = [Violation("vertex", None, f"summand {i} sits on vertex {s.vertex}; the cores are Q0 and Q1")
           for i, s in enumerate(c.summands) if s.vertex not in (0, 1)]
    for (i, j), combo in sorted(c.delta.items()):
        if not (0 <= i < len(c)) or not (0 <= j < len(c)):
            # Nothing else is meaningful with dangling indices.
            return [Violation("degree", (i, j), "entry indexes a missing summand")]
        if i == j:
            # Its basis names are still checked below, so an ill-typed loop is never squared.
            out.append(Violation("triangularity", (i, j), "self-loop entry"))
        a, b = c.summands[i], c.summands[j]
        want = c.entry_degree(i, j)
        for name in sorted(combo):
            m = cat.by_name.get(name)
            if m is None or m.source != a.vertex or m.target != b.vertex:
                out.append(Violation("degree", (i, j), f"{name} is not a morphism Q{a.vertex} -> Q{b.vertex}"))
            elif m.degree != want:
                out.append(Violation(
                    "degree", (i, j),
                    f"{name} has degree {m.degree}, slot {a}->{b} needs degree {want} for a total degree of 1"))

    cycle = _find_cycle(len(c), c.delta.keys())
    if cycle:
        out.append(Violation("triangularity", None, "entry digraph has a cycle: " + " -> ".join(map(str, cycle))))

    # Top-class entries must stay n-1 positions above the bottom of the complex.
    if not c.is_empty:
        floor = c.min_position() + n - 1
        for (i, j), combo in sorted(c.delta.items()):
            if any(name in ("f0", "f1") for name in combo) and c.summands[i].position < floor:
                out.append(Violation("reach", (i, j), f"top-class entry leaves position {c.summands[i].position}, "
                                                      f"below minimum+n-1 = {floor}"))

    # Composing needs well-typed entries on the two cores: an unknown or
    # mislabelled basis name or a stray vertex is reported above, not squared.
    if not any(v.kind in ("vertex", "degree") for v in out):
        out.extend(maurer_cartan_defects(c))
    return out


def _find_cycle(size: int, edges: Iterable[tuple[int, int]]) -> list[int] | None:
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
    color = [0] * size  # 0 unseen, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for start in range(size):
        if color[start]:
            continue
        stack = [(start, iter(adj.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def _grouped(delta, side: int) -> dict[int, list[tuple[int, Combo]]]:
    """The entries of delta grouped by source (side 0) or target (side 1) summand, as (other end, combo)."""
    out: dict[int, list[tuple[int, Combo]]] = {}
    for slot, combo in delta.items():
        out.setdefault(slot[side], []).append((slot[1 - side], combo))
    return out


def _compose_slots(cat: Category, p: int, first, second, scale=1, out=None) -> dict[tuple[int, int], Combo]:
    """
    out + scale * (second . first) on slot-keyed combo matrices, over F_p
    (p = 0: the rationals): slot (i, k) gains second[j, k] . first[i, j]
    for every j. out (default a new dict) is updated in place and returned,
    and a slot whose combo cancels is removed from it.
    """
    out = {} if out is None else out
    by_source = _grouped(second, 0)
    for (i, j), f in first.items():
        for k, g in by_source.get(j, ()):
            if not axpy(out.setdefault((i, k), {}), cat.compose(g, f), scale, p):
                del out[(i, k)]
    return out


def maurer_cartan_defects(c: TwistedComplex) -> list[Violation]:
    """The nonzero slots of delta . delta, the matrix square of delta under composition."""
    field = c.params.field
    square = _compose_slots(c.category, field.characteristic, c.delta, c.delta)
    out = []
    for (i, k), combo in sorted(square.items()):
        shown = " + ".join(f"{field.format(c_)}*{name}" for name, c_ in sorted(combo.items()))
        out.append(Violation("maurer-cartan", (i, k), f"delta^2 at {c.summands[i]}->{c.summands[k]} is {shown}"))
    return out


def require_valid(c: TwistedComplex, what: str = "complex") -> None:
    bad = validate(c)
    if bad:
        raise ComplexError(f"{what} fails validation: " + "; ".join(v.message for v in bad[:4]))


def require_same_params(c: TwistedComplex, d: TwistedComplex, what: str) -> None:
    if c.params != d.params:
        raise ComplexError(f"{what} needs matching category parameters")


# -- structural operations ----------------------------------------------------------


def shift(c: TwistedComplex, k: int) -> TwistedComplex:
    """The shift c[k]: every position decreases by k, entries unchanged."""
    return TwistedComplex(c.params, [Summand(s.vertex, s.position - k) for s in c.summands], c.delta)


def shift_normalized(c: TwistedComplex) -> tuple[TwistedComplex, int]:
    """Shift so the lowest occupied position is 0; returns (complex, applied shift)."""
    if c.is_empty:
        return c, 0
    k = c.min_position()
    return shift(c, k), k


def restrict(c: TwistedComplex, members: Sequence[int], delta=None) -> TwistedComplex:
    """The summands at members, in that order, with the entries of delta (default c.delta) among them re-indexed."""
    where = {old: new for new, old in enumerate(members)}
    entries = {
        (where[i], where[j]): combo
        for (i, j), combo in (c.delta if delta is None else delta).items()
        if i in where and j in where
    }
    return TwistedComplex(c.params, [c.summands[k] for k in members], entries)


def direct_sum(c: TwistedComplex, d: TwistedComplex) -> TwistedComplex:
    require_same_params(c, d, "direct_sum")
    off = len(c)
    delta = dict(c.delta)
    for (i, j), combo in d.delta.items():
        delta[(i + off, j + off)] = combo
    return TwistedComplex(c.params, list(c.summands) + list(d.summands), delta)


# -- morphisms and hom complexes ------------------------------------------------------

Gen = tuple[int, int, str]  # (source summand, target summand, basis name)


class Morphism:
    """A degree-homogeneous morphism of twisted complexes, as slot combos."""

    __slots__ = ("source", "target", "degree", "comps")

    def __init__(self, source: TwistedComplex, target: TwistedComplex, degree: int,
                 comps: dict[tuple[int, int], Combo] | None = None):
        self.source = source
        self.target = target
        self.degree = degree
        self.comps = {} if comps is None else comps

    def differential(self) -> "Morphism":
        """D(f) = delta_target . f - (-1)^deg f . delta_source, two products of _compose_slots."""
        p = self.source.params.field.characteristic
        cat = self.source.category
        sign = -1 if self.degree % 2 == 0 else 1  # subtract when degree is even
        out = _compose_slots(cat, p, self.comps, self.target.delta)
        _compose_slots(cat, p, self.source.delta, self.comps, sign, out)
        return Morphism(self.source, self.target, self.degree + 1, out)


class HomComplex:
    """
    The chain complex of graded morphisms between two twisted complexes.

    Generators in total degree g are triples (i, j, basis name) with
    deg(basis) - pos(i) + pos(j) = g; the differential is
    D(f) = delta_d . f - (-1)^g f . delta_c.
    It is held sparse: columns[g][k] is the image of generator k of degree g
    as {index in degree g+1: coefficient}, written term by term, each basis
    product looked up in the category's memo (Category.products); an entry
    of delta of the wrong degree raises ComplexError. Ranks come from
    eliminating those columns with linalg.Echelon. Kernels come from
    eliminating their transpose (linalg.kernel_basis), and the one
    elimination per degree behind cocycle_representatives gives both the
    kernel of D out of degree g and the coboundary tops in degree g + 1
    (linalg.kernel_and_image_tops). All are sparse
    vectors over the generators of one degree; morphism turns such a vector
    into a Morphism, the one place that reads the generator layout.
    differentials is a dense Matrix view that nothing in the library reads:
    the traced benchmark counts nonzeros and cells on it.

    An optional window of degrees builds only what D out of those degrees
    needs: the generators of the window's degrees and of their successors,
    and columns only for the window's degrees. Each degree keeps the full
    hom's generator order, so kernel(g) for g in the window is the full
    hom's, vector for vector. The quasi-isomorphism oracle reads only
    kernel(0), so it builds the window {0}. Cohomology needs D into a degree
    as well as out of it, so cohomology_ranks and cocycle_representatives
    refuse a windowed hom, and kernel refuses a degree outside the window.
    """

    def __init__(self, c: TwistedComplex, d: TwistedComplex, degrees: Iterable[int] | None = None):
        require_same_params(c, d, "hom complex")
        self.source = c
        self.target = d
        self.params = c.params
        self.window = None if degrees is None else frozenset(degrees)
        p = c.params.field.characteristic
        cat = c.category
        for side, x in (("source", c), ("target", d)):
            for i, s in enumerate(x.summands):
                if s.vertex not in (0, 1):
                    raise ComplexError(f"hom complex: {side} summand {i} is {s!r}, off the cores Q0 and Q1")

        keep = None if self.window is None else self.window | {g + 1 for g in self.window}
        components: dict[int, list[Gen]] = {}
        for i, a in enumerate(c.summands):
            for j, b in enumerate(d.summands):
                for m in cat.morphism_space(a.vertex, b.vertex):
                    g = m.degree - a.position + b.position
                    if keep is None or g in keep:
                        components.setdefault(g, []).append((i, j, m.name))
        self.components = {g: tuple(gens) for g, gens in sorted(components.items())}
        self.index = {gen: (g, k) for g, gens in self.components.items() for k, gen in enumerate(gens)}

        # D(f) = delta_d . f - (-1)^g f . delta_c: the target entries leaving f's
        # target summand, and the source entries entering f's source summand,
        # negated once here for the even degrees.
        out_of = _grouped(d.delta, 0)
        into = _grouped(c.delta, 1)
        into_negated = {i: [(i2, axpy({}, combo, -1, p)) for i2, combo in entries] for i, entries in into.items()}
        index = self.index
        products = cat.products
        self.columns: dict[int, list[Vector]] = {}
        for g, gens in self.components.items():
            if self.window is not None and g not in self.window:
                continue
            into_g = into_negated if g % 2 == 0 else into
            cols = []
            for i, j, name in gens:
                col: Vector = {}
                for j2, combo in out_of.get(j, ()):
                    for name2, x in combo.items():
                        prod = products[name2, name]
                        if prod is not None:
                            _add_term(col, index, g, (i, j2, prod), x, p)
                for i2, combo in into_g.get(i, ()):
                    for name2, x in combo.items():
                        prod = products[name, name2]
                        if prod is not None:
                            _add_term(col, index, g, (i2, j, prod), x, p)
                cols.append(col)
            self.columns[g] = cols

    @functools.cached_property
    def differentials(self) -> dict[int, Matrix]:
        """The dense matrix of D out of each degree (rows: degree g+1, columns: degree g)."""
        field = self.params.field
        out = {}
        for g, cols in self.columns.items():
            rows = len(self.components.get(g + 1, ()))
            mat = [[field.zero] * len(cols) for _ in range(rows)]
            for k, col in enumerate(cols):
                for r, v in col.items():
                    mat[r][k] = v
            out[g] = Matrix(field, mat, cols=len(cols))
        return out

    def _require_whole(self, what: str) -> None:
        if self.window is not None:
            raise ValueError(f"{what} needs every degree; this hom complex has the window {sorted(self.window)}")

    def dimensions(self) -> dict[int, int]:
        return {g: len(gens) for g, gens in self.components.items()}

    def cohomology_ranks(self) -> dict[int, int]:
        self._require_whole("cohomology_ranks")
        return graded_ranks(self.params.field, self.dimensions(), self.columns)

    def kernel(self, g: int) -> list[Vector]:
        """The canonical kernel basis of D out of degree g, as sparse vectors."""
        if self.window is not None and g not in self.window:
            raise ValueError(f"degree {g} is outside this hom complex's window {sorted(self.window)}")
        return kernel_basis(self.params.field, self.columns.get(g, []))

    def cocycle_representatives(self) -> dict[int, list[Vector]]:
        """
        A deterministic cocycle basis of cohomology per degree, in increasing
        degree: the kernel basis vectors, in order, that are independent
        modulo the coboundaries and those already chosen, as sparse vectors
        over the generators of their degree. As D . D = 0, the coboundaries
        lie in the kernel, where a vector's largest index is always a free
        column; a kernel vector is kept unless its free column is the largest
        index of some coboundary. One elimination of the rows of D out of
        degree g gives both the kernel in degree g and those largest indices
        in degree g + 1.
        """
        self._require_whole("cocycle_representatives")
        field = self.params.field
        reps: dict[int, list[Vector]] = {}
        tops: dict[int, set[int]] = {}  # tops[g]: the largest indices of the coboundaries in degree g
        for g in self.components:
            kernel, tops[g + 1] = kernel_and_image_tops(field, self.columns[g])
            chosen = [vec for vec in kernel if max(vec) not in tops.get(g, ())]
            if chosen:
                reps[g] = chosen
        return reps

    def morphism(self, g: int, vec: Vector) -> Morphism:
        """The degree-g morphism source -> target with coordinates vec over the degree-g generators."""
        gens = self.components[g]
        comps: dict[tuple[int, int], Combo] = {}
        for k, value in vec.items():
            i, j, name = gens[k]
            comps.setdefault((i, j), {})[name] = value
        return Morphism(self.source, self.target, g, comps)


def _add_term(col: Vector, index, g: int, gen: Gen, x, p: int) -> None:
    """col += x at hom generator gen, one term of D out of degree g; gen must lie in degree g + 1."""
    slot = index.get(gen)
    if slot is None or slot[0] != g + 1:
        # Only an entry of delta of the wrong degree sends D out of degree g + 1.
        raise ComplexError(f"hom differential sends degree {g} to {gen}, which is not in degree {g + 1}")
    k = slot[1]
    if k in col:  # only self-loops, which validate refuses, land two terms on one generator
        axpy(col, {k: x}, 1, p)
    else:
        col[k] = x


def hom_complex(c: TwistedComplex, d: TwistedComplex, degrees: Iterable[int] | None = None) -> HomComplex:
    return HomComplex(c, d, degrees=degrees)


def hf_ranks(c: TwistedComplex, d: TwistedComplex) -> dict[int, int]:
    """
    Degreewise cohomology ranks of the hom complex from c to d. Neither
    complex is validated and D . D = 0 is not checked: the ranks are right
    only when delta squares to zero on both, as validate ensures. An entry
    of the wrong degree raises ComplexError, and a differential whose ranks
    come out negative raises ValueError; other failures go unnoticed.
    """
    return hom_complex(c, d).cohomology_ranks()


def total_rank(ranks: dict[int, int]) -> int:
    return sum(ranks.values())


# -- cone ------------------------------------------------------------------------------


def cone(f: Morphism) -> TwistedComplex:
    """
    The mapping cone of a closed degree-0 morphism: source summands dropped
    one position (differential negated, the sign the shifted block absorbs),
    then target summands, with f in the lower-left block.
    """
    if f.degree != 0:
        raise ComplexError(f"cone needs a degree-0 morphism, got degree {f.degree}")
    require_same_params(f.source, f.target, "cone")
    dfail = f.differential().comps
    if dfail:
        raise ComplexError(f"cone needs a closed morphism; D(f) is nonzero at slots {sorted(dfail)}")
    c, d = f.source, f.target
    p = c.params.field.characteristic
    summands = [Summand(s.vertex, s.position - 1) for s in c.summands] + list(d.summands)
    off = len(c)
    delta: dict[tuple[int, int], Combo] = {}
    for (i, j), combo in c.delta.items():
        delta[(i, j)] = axpy({}, combo, -1, p)
    for (i, j), combo in f.comps.items():
        delta[(i, off + j)] = dict(combo)
    for (i, j), combo in d.delta.items():
        delta[(off + i, off + j)] = dict(combo)
    return TwistedComplex(c.params, summands, delta)


# -- Gaussian-elimination minimal model -----------------------------------------------


def minimize(c: TwistedComplex) -> TwistedComplex:
    """
    Cancel unit-labeled entries until none remain; the quasi-isomorphism type
    is preserved and the result carries no identity arrows. Idempotent. Each
    cancellation takes the smallest slot (a, b) holding a unit lam and adds
    the zig-zag x -> b <- a -> y, -1/lam times (a -> y) . (x -> b), to every
    slot (x, y) with one _compose_slots product.
    """
    field = c.params.field
    cat = c.category
    alive = set(range(len(c)))
    delta: dict[tuple[int, int], Combo] = {k: dict(v) for k, v in c.delta.items()}

    while True:
        pick = min((slot for slot, combo in delta.items() if "e0" in combo or "e1" in combo), default=None)
        if pick is None:
            break
        a, b = pick
        unit = delta[pick]
        scale = field.neg(field.inv(unit["e0"] if "e0" in unit else unit["e1"]))
        # x -> b is re-keyed to end at a, so the product runs through the inverted arrow.
        into_b = {(x, a): combo for (x, y), combo in delta.items() if y == b and x != a}
        out_of_a = {(a, y): combo for (x, y), combo in delta.items() if x == a and y != b}
        _compose_slots(cat, field.characteristic, into_b, out_of_a, scale, delta)
        alive.discard(a)
        alive.discard(b)
        for key in [k for k in delta if a in k or b in k]:
            del delta[key]

    order = sorted(alive, key=lambda i: (-c.summands[i].position, c.summands[i].vertex, i))
    return restrict(c, order, delta)


# -- quasi-isomorphism oracle -----------------------------------------------------------

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


def equivalent(c: TwistedComplex, d: TwistedComplex, seed: int = 0) -> str:
    """
    Sound three-valued quasi-isomorphism test: minimize both, compare summand
    multisets, then search the space of closed degree-0 maps for one whose
    cone minimizes to the empty complex. Never returns a wrong yes/no.
    """
    require_same_params(c, d, "equivalent")
    cm = minimize(c)
    dm = minimize(d)
    if cm.summand_multiset() != dm.summand_multiset():
        return NO
    if cm.is_empty:
        return YES

    hom = hom_complex(cm, dm, degrees={0})
    kernel = hom.kernel(0)
    if not kernel:
        return INCONCLUSIVE

    field = c.params.field
    eblocks = []  # the unit part of each kernel vector, as a sparse {(row, col): value} block
    for vec in kernel:
        comps = hom.morphism(0, vec).comps.items()
        eblocks.append({(j, i): x for (i, j), combo in comps for name, x in combo.items() if name in ("e0", "e1")})
    for coeffs in invertible_combinations(field, len(cm), eblocks, seed):
        acc: Vector = {}
        for cf, vec in zip(coeffs, kernel):
            if cf:
                axpy(acc, vec, cf, field.characteristic)
        if minimize(cone(hom.morphism(0, acc))).is_empty:
            return YES
    return INCONCLUSIVE
