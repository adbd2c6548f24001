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
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .category import Category, CategoryParams, category_for, is_vertex
from .linalg import (Immutable, Matrix, Vector, axpy, graded_ranks, invertible_combinations, is_int,
                     kernel_and_image_tops)

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
    kind: str  # "vertex", "position", "degree", "triangularity", "maurer-cartan", "reach"
    slot: tuple[int, int] | None
    message: str


class TwistedComplex:
    """
    Summands plus a strictly triangular degree-1 differential.

    delta is always clean: every combo is nonzero, holds only nonzero
    canonical field values (an int in [0, p); over Q an int, or a Fraction
    for a value that is not whole, though Fraction arithmetic in a library
    construction may leave a whole value boxed, equal to its int), and is
    a dict owned by this complex alone. The constructor establishes that for
    outside input (the parser, user code) by coercing every value into the
    field. The library's own constructions (shift, restrictions, direct_sum,
    cone, minimize, the inverse twist, specialize) build a clean delta
    themselves and hand it over through _assemble, which checks nothing.
    """

    __slots__ = ("params", "summands", "delta")

    def __init__(self, params: CategoryParams, summands: Sequence[Summand], delta=None):
        self.params = params
        self.summands = tuple(summands)
        self.delta = _cleaned(params.field, delta or {})

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


def _cleaned(field, delta) -> dict[tuple[int, int], Combo]:
    """delta in new dicts, every value coerced into the field, zero values and empty combos dropped."""
    element = field.element
    p = field.characteristic
    clean = {}
    for slot, combo in delta.items():
        kept = {}
        for name, c in combo.items():
            # Coerce only non-canonical values: an int in [0, p); over Q an int, or a Fraction that is not whole.
            if p:
                canonical = type(c) is int and 0 <= c < p
            else:
                canonical = type(c) is int or type(c) is Fraction and c.denominator != 1
            value = c if canonical else element(c)
            if value:
                kept[name] = value
        if kept:
            clean[slot] = kept
    return clean


def _assemble(params: CategoryParams, summands: Sequence[Summand], delta) -> TwistedComplex:
    """A complex over a delta that is already clean (see TwistedComplex); it takes delta and its combos over."""
    c = TwistedComplex.__new__(TwistedComplex)
    c.params = params
    c.summands = tuple(summands)
    c.delta = delta
    return c


def single_core(params: CategoryParams, vertex: int, position: int = 0) -> TwistedComplex:
    # Summand, built in hot loops, checks nothing: a bool would be written out as "vertex": true.
    for what, value in (("vertex", vertex), ("position", position)):
        if not is_int(value):
            raise ComplexError(f"single_core {what} must be an integer, got {value!r}")
    return TwistedComplex(params, [Summand(vertex, position)])


def empty_complex(params: CategoryParams) -> TwistedComplex:
    return TwistedComplex(params, [])


# -- validation ----------------------------------------------------------------------


def validate(c: TwistedComplex) -> list[Violation]:
    """
    All invariant violations; an empty list means the complex is well-formed.

    One unsorted scan over delta words every violation it finds: a
    self-loop, or a basis name that is unknown, mislabelled or of the wrong
    degree for its slot, recorded under (slot, name) and sorted once after
    the scan, with a self-loop's under (slot,), which sorts first. A
    position that is not an int, or a dangling slot, makes every other
    check meaningless: the first such summand, or the smallest such slot,
    is reported alone.
    """
    by_name = c.category.by_name
    summands = c.summands
    size = len(summands)
    out = []
    for i, s in enumerate(summands):
        if not is_vertex(s.vertex):
            out.append(Violation("vertex", None, f"summand {i} sits on vertex {s.vertex!r}; the cores are Q0 and Q1"))
        if not is_int(s.position):
            return [Violation("position", None, f"summand {i} sits at position {s.position!r}, not an integer")]
    # Top-class entries must stay n-1 positions above the bottom of the complex.
    floor = c.min_position() + c.params.n - 1
    dangling, found, reach = [], {}, []
    for slot, combo in c.delta.items():
        i, j = slot
        if not (0 <= i < size and 0 <= j < size):
            dangling.append(slot)
            continue
        a, b = summands[i], summands[j]
        source, target, want = a.vertex, b.vertex, a.position - b.position + 1
        if i == j:
            # Its basis names are still checked, so an ill-typed loop is never squared.
            found[(slot,)] = Violation("triangularity", slot, "self-loop entry")
        for name in combo:
            m = by_name.get(name)
            if m is None or m.source != source or m.target != target:
                found[slot, name] = Violation("degree", slot, f"{name} is not a morphism Q{source} -> Q{target}")
            elif m.degree != want:
                found[slot, name] = Violation(
                    "degree", slot,
                    f"{name} has degree {m.degree}, slot {a}->{b} needs degree {want} for a total degree of 1")
        if a.position < floor and ("f0" in combo or "f1" in combo):
            reach.append(slot)
    if dangling:
        return [Violation("degree", min(dangling), "entry indexes a missing summand")]
    out.extend(found[key] for key in sorted(found))

    cycle = _find_cycle(size, c.delta.keys())
    if cycle:
        out.append(Violation("triangularity", None, "entry digraph has a cycle: " + " -> ".join(map(str, cycle))))

    for i, j in sorted(reach):
        out.append(Violation("reach", (i, j), f"top-class entry leaves position {summands[i].position}, "
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
    color = [0] * size  # 0 unseen, 1 on the path, 2 done
    for start in range(size):
        if color[start]:
            continue
        color[start] = 1
        path, branches = [start], [iter(adj.get(start, ()))]
        while path:
            for nxt in branches[-1]:
                if color[nxt] == 1:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    branches.append(iter(adj.get(nxt, ())))
                    break
            else:
                color[path.pop()] = 2
                branches.pop()
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
            prod = cat.compose(g, f)
            if prod and not axpy(out.setdefault((i, k), {}), prod, scale, p):
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
    """The shift c[k]: every position decreases by k, entries unchanged (copied)."""
    if not is_int(k):
        raise ComplexError(f"shift amount must be an integer, got {k!r}")
    delta = {slot: combo.copy() for slot, combo in c.delta.items()}
    return _assemble(c.params, [Summand(s.vertex, s.position - k) for s in c.summands], delta)


def restrictions(c: TwistedComplex, groups: Sequence[Sequence[int]]) -> list[TwistedComplex]:
    """
    For each of the disjoint groups of summand indices, the summands at
    those indices, in that order, with the entries of delta among them
    re-indexed and copied; delta is split among the groups in one pass.
    """
    where: dict[int, tuple[int, int]] = {}  # summand -> (its group, its index there)
    for piece, members in enumerate(groups):
        for new, old in enumerate(members):
            where[old] = (piece, new)
    deltas: list[dict[tuple[int, int], Combo]] = [{} for _ in groups]
    for (i, j), combo in c.delta.items():
        wi, wj = where.get(i), where.get(j)
        if wi is not None and wj is not None and wi[0] == wj[0]:
            deltas[wi[0]][wi[1], wj[1]] = combo.copy()
    return [_assemble(c.params, [c.summands[k] for k in members], delta) for members, delta in zip(groups, deltas)]


def direct_sum(c: TwistedComplex, d: TwistedComplex) -> TwistedComplex:
    require_same_params(c, d, "direct_sum")
    off = len(c)
    delta = {slot: combo.copy() for slot, combo in c.delta.items()}
    for (i, j), combo in d.delta.items():
        delta[(i + off, j + off)] = combo.copy()
    return _assemble(c.params, c.summands + d.summands, delta)


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
    eliminating their transpose (linalg.kernel_and_image_tops); that one
    elimination per degree also gives the coboundary tops in degree g + 1
    that cocycle_representatives reads. All are sparse
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
                if not is_vertex(s.vertex):
                    raise ComplexError(f"hom complex: {side} summand {i} is {s!r}, off the cores Q0 and Q1")

        keep = None if self.window is None else self.window | {g + 1 for g in self.window}
        spaces = {(u, v): [(m.degree, m.name) for m in cat.morphism_space(u, v)] for u in (0, 1) for v in (0, 1)}
        targets = [(j, b.vertex, b.position) for j, b in enumerate(d.summands)]
        components: dict[int, list[Gen]] = {}
        for i, a in enumerate(c.summands):
            av, ap = a.vertex, a.position
            for j, bv, bp in targets:
                for degree, name in spaces[av, bv]:
                    g = degree - ap + bp
                    if keep is None or g in keep:
                        components.setdefault(g, []).append((i, j, name))
        self.components = {g: tuple(gens) for g, gens in sorted(components.items())}
        self.index = {gen: (g, k) for g, gens in self.components.items() for k, gen in enumerate(gens)}

        # D(f) = delta_d . f - (-1)^g f . delta_c: the target entries leaving f's
        # target summand, and the source entries entering f's source summand,
        # each term negated as it is written in the even degrees.
        out_of = _grouped(d.delta, 0)
        into = _grouped(c.delta, 1)
        index = self.index
        products = cat.products
        self.columns: dict[int, list[Vector]] = {}
        for g, gens in self.components.items():
            if self.window is not None and g not in self.window:
                continue
            negate = g % 2 == 0
            cols = []
            for i, j, name in gens:
                col: Vector = {}
                for j2, combo in out_of.get(j, ()):
                    for name2, x in combo.items():
                        prod = products[name2, name]
                        if prod is not None:
                            _add_term(col, index, g, (i, j2, prod), x, p)
                for i2, combo in into.get(i, ()):
                    for name2, x in combo.items():
                        prod = products[name, name2]
                        if prod is not None:
                            if negate:
                                x = -x % p if p else -x
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
        return kernel_and_image_tops(self.params.field, self.columns.get(g, []))[0]

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


# The shortest self-hom hf_ranks takes through the braid orbit; below about 13
# summands the direct hom is the cheaper of the two.
ORBIT_SELF_HOM_LEN = 20


def hf_ranks(c: TwistedComplex, d: TwistedComplex) -> dict[int, int]:
    """
    Degreewise cohomology ranks of the hom complex from c to d.

    A self-hom (d is c, or equal to it) of at least ORBIT_SELF_HOM_LEN
    summands goes through the braid orbit: if normalizer.orbit_certificate
    finds T_w c = Q_v[s]^m, the ranks are those of the thin hom from m copies
    of Q_v[s] to themselves, since T_w is an autoequivalence. Every other
    pair, and every c without a certificate, takes the direct route,
    hom_complex(c, d).cohomology_ranks(), which tests call for reference.
    There neither complex is validated and D . D = 0 is not checked: the
    ranks are right only when delta squares to zero on both, as validate
    ensures. An entry of the wrong degree raises ComplexError, and a
    differential whose ranks come out negative raises ValueError; other
    failures go unnoticed.
    """
    if len(c) >= ORBIT_SELF_HOM_LEN and (d is c or (c.params, c.summands, c.delta) == (d.params, d.summands, d.delta)):
        # normalizer imports twists, which imports this module.
        from .normalizer import orbit_certificate
        cert = orbit_certificate(c)
        if cert is not None:
            copies = TwistedComplex(c.params, [Summand(cert.target_vertex, -cert.shift)] * cert.multiplicity)
            return hom_complex(copies, copies).cohomology_ranks()
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
    delta = {slot: axpy({}, combo, -1, p) for slot, combo in c.delta.items()}
    # A public Morphism may carry zeros or values outside the field's canonical range.
    for (i, j), combo in _cleaned(c.params.field, f.comps).items():
        delta[(i, off + j)] = combo
    for (i, j), combo in d.delta.items():
        delta[(off + i, off + j)] = combo.copy()
    return _assemble(c.params, summands, delta)


# -- Gaussian-elimination minimal model -----------------------------------------------


def minimize(c: TwistedComplex) -> TwistedComplex:
    """
    Cancel unit-labeled entries until none remain; the quasi-isomorphism type
    is preserved and the result carries no identity arrows. Idempotent. Each
    cancellation takes the smallest slot (a, b) holding a unit lam and adds
    the zig-zag x -> b <- a -> y, -1/lam times (a -> y) . (x -> b), to every
    slot (x, y), then drops a and b. Gaussian elimination is local: outs[x]
    and ins[y] map each summand to its neighbours, sharing one combo per
    slot, so a cancellation touches only ins[b] x outs[a] and the slots of a
    and b. A min-heap holds every live unit slot (a slot is pushed again
    whenever a zig-zag leaves a unit on it), and a popped slot that has died
    or holds no unit is skipped, so each pick is the smallest unit slot
    left. The working delta keeps slots in the order they appeared, which
    the result keeps too.
    """
    summands = c.summands
    units = [slot for slot, combo in c.delta.items() if "e0" in combo or "e1" in combo]
    owned = bool(units)
    delta = c.delta
    alive = [True] * len(summands)
    if owned:
        field = c.params.field
        p = field.characteristic
        compose = c.category.compose
        delta = {slot: dict(combo) for slot, combo in delta.items()}
        outs: list[dict[int, Combo]] = [{} for _ in summands]
        ins: list[dict[int, Combo]] = [{} for _ in summands]
        for (x, y), combo in delta.items():
            outs[x][y] = ins[y][x] = combo
        heapify(units)
        while units:
            a, b = heappop(units)
            unit = outs[a].get(b, {})
            lam = unit.get("e0") or unit.get("e1")
            if lam is None:
                continue
            scale = field.neg(field.inv(lam))
            out_a = outs[a]
            for x, f in ins[b].items():
                if x == a:
                    continue
                out_x = outs[x]
                for y, g in out_a.items():
                    if y == b:
                        continue
                    prod = compose(g, f)
                    if not prod:
                        continue
                    combo = out_x.get(y)
                    if combo is None:
                        combo = delta[x, y] = out_x[y] = ins[y][x] = axpy({}, prod, scale, p)
                    elif not axpy(combo, prod, scale, p):
                        del delta[x, y], out_x[y], ins[y][x]
                        continue
                    if "e0" in combo or "e1" in combo:
                        heappush(units, (x, y))
            for v in (a, b):
                alive[v] = False
                for y in outs[v]:
                    del delta[v, y], ins[y][v]
                outs[v] = {}
                for x in ins[v]:
                    del delta[x, v], outs[x][v]
                ins[v] = {}

    keys = [(-s.position, s.vertex) for s in summands]
    order = sorted([i for i, live in enumerate(alive) if live], key=keys.__getitem__)
    where = {old: new for new, old in enumerate(order)}
    # Every slot left in delta joins two survivors. A cancelling run takes its working
    # combos over; otherwise delta is the input's, and re-indexing is its one copy.
    if owned:
        delta = {(where[i], where[j]): combo for (i, j), combo in delta.items()}
    else:
        delta = {(where[i], where[j]): combo.copy() for (i, j), combo in delta.items()}
    return _assemble(c.params, [summands[k] for k in order], delta)


# -- quasi-isomorphism oracle -----------------------------------------------------------

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


def equivalent(c: TwistedComplex, d: TwistedComplex, seed: int = 0) -> str:
    """
    Sound three-valued quasi-isomorphism test. Validate and minimize both and
    compare summand multisets (a difference is no). Then look for a diagonal
    isomorphism of the minimal models (_diagonal_witness), which decides
    pairs that differ by a rescaling of each summand in O(len). Last, search
    the closed degree-0 maps for one whose cone minimizes to the empty
    complex (_search_kernel). Never returns a wrong yes/no.
    """
    require_same_params(c, d, "equivalent")
    require_valid(c, "equivalent's first input")
    require_valid(d, "equivalent's second input")
    cm = minimize(c)
    dm = minimize(d)
    if cm.summand_multiset() != dm.summand_multiset():
        return NO
    if _diagonal_witness(cm, dm) is not None:  # the empty map, when both are empty
        return YES
    return _search_kernel(cm, dm, seed)


def _diagonal_witness(c: TwistedComplex, d: TwistedComplex) -> Morphism | None:
    """
    A closed map f: c -> d that is lam_i times the unit on each summand i, or
    None. Only c and d with the same summands and the same slots are tried.
    On slot (i, j), D f is lam_i d_ij - lam_j c_ij, so lam is set to 1 on the
    first summand of each piece of the delta graph and carried along one
    basis name of each entry; f is returned only if D f is then zero. Such
    an f is an isomorphism: its inverse, 1/lam_i on each summand, is closed
    by the same equations.
    """
    if c.summands != d.summands or c.delta.keys() != d.delta.keys():
        return None
    field = c.params.field
    steps: list[list[tuple]] = [[] for _ in c.summands]  # (j, a, b) with lam_j = lam_i a / b
    for (i, j), combo in c.delta.items():
        name, x = next(iter(combo.items()))
        y = d.delta[i, j].get(name)
        if y is None:
            return None
        steps[i].append((j, y, x))
        steps[j].append((i, x, y))
    lam: list = [None] * len(c)
    for root in range(len(c)):
        if lam[root] is None:
            lam[root] = field.one
            todo = [root]
            while todo:
                i = todo.pop()
                for j, a, b in steps[i]:
                    if lam[j] is None:
                        lam[j] = field.mul(lam[i], field.mul(a, field.inv(b)))
                        todo.append(j)
    f = Morphism(c, d, 0, {(i, i): {f"e{s.vertex}": x} for i, (s, x) in enumerate(zip(c.summands, lam))})
    return None if f.differential().comps else f


def _search_kernel(cm: TwistedComplex, dm: TwistedComplex, seed: int) -> str:
    """
    yes or inconclusive for minimal, nonempty cm and dm with equal summand
    multisets: sample the closed degree-0 maps cm -> dm whose unit part
    could be invertible (none when the kernel is empty), and answer yes at
    the first whose cone minimizes to empty.
    """
    hom = hom_complex(cm, dm, degrees={0})
    kernel = hom.kernel(0)
    field = cm.params.field
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
