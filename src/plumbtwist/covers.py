"""
Cover specialization, indecomposable splitting, fibre-rank discrimination,
and the Betti feasibility inequality.

Passing to a cover of one core is modeled purely by its algebraic shadow:
every differential entry labeled by that core's top class is pulled back
from the fundamental class, hence dies -- outright for an infinite cover,
and because the characteristic divides the index for a finite one. Orbit
comparison of the resulting pieces is replaced by the fibre-rank
discriminator: pair a complex against a cotangent fibre of one core, where
only unit-labeled entries act (the top class acts trivially on the fibre,
and the cross-core generators pair only with their own core).

The feasibility checker settles, over the positive integers, whether
dimV * (beta - 2) <= -2 has a solution with dimV >= 2, where beta is the sum
of the interior Betti numbers of the non-spherical core; beta >= 2 is
impossible, so only sphere-like (beta = 0) and one-interior-class (beta = 1)
cohomologies admit a categorical twist.
"""

from __future__ import annotations

from typing import NamedTuple

from .category import betti_problem, is_vertex
from .complexes import (
    TwistedComplex,
    _assemble,
    hf_ranks,
    minimize,
    require_valid,
    restrictions,
    single_core,
    total_rank,
    validate,
)
from .linalg import graded_ranks, is_int, make_checked
from .normalizer import admissible


class CoverError(ValueError):
    pass


INFINITE = "infinite"


class _CoverSpec(NamedTuple):
    covered_vertex: int
    index: int | str = INFINITE


class CoverSpec(_CoverSpec):
    """A connected cover of one core: finite of the given index, or infinite."""

    __slots__ = ()
    _make = make_checked

    def __new__(cls, covered_vertex: int, index: int | str = INFINITE):
        if not is_vertex(covered_vertex):
            raise CoverError(f"covered_vertex must be 0 or 1, got {covered_vertex!r}")
        if index != INFINITE and (not is_int(index) or index < 1):
            raise CoverError(f"index must be a positive integer or '{INFINITE}', got {index!r}")
        return super().__new__(cls, covered_vertex, index)

    def compatible_with(self, characteristic: int) -> bool:
        if self.index == INFINITE:
            return True
        return characteristic != 0 and self.index % characteristic == 0

    def check(self, characteristic: int) -> None:
        if not self.compatible_with(characteristic):
            raise CoverError(
                f"a finite cover of index {self.index} needs the characteristic to divide it; got {characteristic}")


def specialize(c: TwistedComplex, cover: CoverSpec) -> TwistedComplex:
    """Delete every top-class entry of the covered vertex; summands unchanged."""
    require_valid(c, "specialize input")
    cover.check(c.params.field.characteristic)
    dead = "f0" if cover.covered_vertex == 0 else "f1"
    delta = {}
    for slot, combo in c.delta.items():
        kept = {name: coeff for name, coeff in combo.items() if name != dead}
        if kept:
            delta[slot] = kept
    out = _assemble(c.params, c.summands, delta)
    require_valid(out, "specialized complex")
    return out


def decompose(c: TwistedComplex) -> list[TwistedComplex]:
    """
    Minimize, then split into connected components of the summand graph whose
    edges are nonzero entries; the direct sum of the pieces is the minimized
    input. Over a field this is the splitting into indecomposables whenever
    the pieces are connected with unit degree-0 endomorphisms.
    """
    require_valid(c, "decompose input")
    m = minimize(c)
    if m.is_empty:
        return []
    parent = list(range(len(m)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in m.delta:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for k in range(len(m)):
        groups.setdefault(find(k), []).append(k)
    pieces = restrictions(m, [sorted(members) for members in groups.values()])
    pieces.sort(key=lambda piece: min((s.position, s.vertex) for s in piece.summands))
    return pieces


def fibre_rank(c: TwistedComplex, vertex: int) -> dict[int, int]:
    """
    Cohomology ranks of the pairing with a cotangent fibre of Q_vertex: one
    generator per vertex summand at its position, only unit entries act.
    """
    if not is_vertex(vertex):
        raise CoverError(f"vertex must be 0 or 1, got {vertex!r}")
    require_valid(c, "fibre_rank input")
    field = c.params.field
    unit = "e0" if vertex == 0 else "e1"
    dims: dict[int, int] = {}
    where: dict[int, int] = {}  # summand -> its index among the vertex summands at its position
    for k, s in enumerate(c.summands):
        if s.vertex == vertex:
            where[k] = dims.get(s.position, 0)
            dims[s.position] = where[k] + 1
    columns = {t: [{} for _ in range(size)] for t, size in dims.items()}
    for (i, j), combo in c.delta.items():
        coeff = combo.get(unit)
        if coeff:  # valid: a unit entry joins two vertex summands one position apart
            columns[c.summands[i].position][where[i]][where[j]] = coeff
    return graded_ranks(field, dims, columns)


# -- Betti feasibility ------------------------------------------------------------------


class _BettiVector(NamedTuple):
    numbers: tuple[int, ...]


class BettiVector(_BettiVector):
    __slots__ = ()
    _make = make_checked

    def __new__(cls, numbers: tuple[int, ...]):
        if len(numbers) < 2:
            raise CoverError("a Betti vector needs at least degrees 0 and n")
        if problem := betti_problem(numbers):
            raise CoverError(problem)
        return super().__new__(cls, numbers)

    @property
    def n(self) -> int:
        return len(self.numbers) - 1

    @property
    def beta(self) -> int:
        return sum(self.numbers[1:-1])


class FeasibilityReport(NamedTuple):
    betti: tuple[int, ...]
    beta: int
    feasible: bool
    min_dimv: int | None
    boundary_ranks: int | None  # rank of each outer kernel/cokernel slot: dimV - 1 - beta
    annotation: str

    def to_dict(self) -> dict:
        return self._asdict() | {"betti": list(self.betti)}


def truncation_feasibility(betti: BettiVector | tuple[int, ...]) -> FeasibilityReport:
    """
    Decide whether dimV * (beta - 2) <= -2 admits an integer solution
    dimV >= 2; report the smallest solution and the forced outer slot ranks.
    The left side is 2 * (beta - 2) at dimV = 2 and grows with dimV once
    beta >= 2, so a solution exists iff beta <= 1, and then dimV = 2 is one.
    """
    if not isinstance(betti, BettiVector):
        betti = BettiVector(tuple(betti))
    beta = betti.beta
    feasible = beta <= 1
    min_dimv = 2 if feasible else None
    if beta == 0:
        note = "sphere-like interior cohomology: the twist is the known spherical one"
    elif feasible:
        note = "one interior class: the inequality is saturated at dimV = 2"
    else:
        note = "interior rank >= 2 makes the acyclicity inequality unsatisfiable"
    return FeasibilityReport(
        betti=betti.numbers,
        beta=beta,
        feasible=feasible,
        min_dimv=min_dimv,
        boundary_ranks=(min_dimv - 1 - beta) if feasible else None,
        annotation=note,
    )


# -- rank bookkeeping on one-sphere complexes --------------------------------------------


class BoundaryRankReport(NamedTuple):
    hf_against_core: dict[int, int]
    total_rank: int
    total_rank_is_two: bool
    end_multiplicities: tuple[int, int]
    ends_are_simple: bool

    @property
    def ok(self) -> bool:
        return self.total_rank_is_two and self.ends_are_simple


def boundary_rank_check(c: TwistedComplex) -> BoundaryRankReport:
    """
    For a complex with exactly one sphere (vertex 1) summand: the vertex-0
    part must pair with the core Q0 in total rank 2 and be simple (unit
    multiplicity) at both of its outer positions.
    """
    require_valid(c, "boundary_rank_check input")
    spheres = [k for k, s in enumerate(c.summands) if s.vertex == 1]
    if len(spheres) != 1:
        raise CoverError(f"boundary_rank_check needs exactly one sphere summand, found {len(spheres)}")
    if not admissible(c).ok:
        raise CoverError("boundary_rank_check needs an admissible complex")
    zeros = [k for k, s in enumerate(c.summands) if s.vertex == 0]
    if not zeros:
        raise CoverError("no vertex-0 summands to check")
    part = restrictions(c, [zeros])[0]
    bad = validate(part)
    if bad:
        raise CoverError("the vertex-0 part is not itself a twisted complex: " + bad[0].message)
    ranks = hf_ranks(part, single_core(c.params, 0))
    total = total_rank(ranks)
    positions = [s.position for s in part.summands]
    lo, hi = min(positions), max(positions)
    ends = (positions.count(lo), positions.count(hi))
    return BoundaryRankReport(
        hf_against_core=ranks,
        total_rank=total,
        total_rank_is_two=total == 2,
        end_multiplicities=ends,
        ends_are_simple=ends == (1, 1),
    )
