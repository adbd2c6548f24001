"""
Braid-orbit normalization: drive an admissible complex down to copies of a
single shifted core, emitting a verifiable braid-word certificate.

The measure being decreased is the zig-zag complexity cx: weight a vertex-0
slot at position i as 2i+1 and a vertex-1 slot as 2i, then cx is the spread
between the heaviest and lightest occupied slot (the length of the longest
zig-zag the complex can support). Each reduction step inspects whether
vertex-1 lives at the bottom of the complex (case A) or not (case B). Case B
is case A with the two cores' roles swapped, so one path serves both: it
takes two twist letters from the bottom vertex, then looks at the outer n-2
slots to choose the one that provably lowers cx for admissible complexes.
The base case, where the complex is too short for any top-class arrow, tries
the same letters and accepts whichever works, with a bounded word search as
a last resort.

Certificates are never trusted from the trace: the word is re-applied to the
original input, and a Certificate is returned only if the replay is copies
of one shifted core with zero differential, on the nose. Twists are
autoequivalences, so that replay is the proof; no oracle is asked.

normalize does not test admissibility up front. Twists are autoequivalences,
so a verified certificate c = T_w^-1(Q_v[s]^m) carries the admissible
endomorphism algebra of Q_v^m (degrees 0 and n) over to c: accepting a
certificate already proves c admissible, and hf(c, c), quadratic in the
length of c, is computed only when the reduction or the verification fails.
It then tells an inadmissible input (InadmissibleInput) from a genuine
failure on an admissible one (the original error). A step returns only
when it lowers cx, so the attempt takes at most cx steps on any input.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    Summand,
    TwistedComplex,
    hf_ranks,
    minimize,
    require_valid,
    shift_normalized,
)
from .linalg import echelon_of
from .twists import BraidLetter, BraidWord, apply_braid, apply_letter, braid_images, word_to_string


class NormalizeError(RuntimeError):
    pass


class PreconditionViolated(NormalizeError):
    pass


class InadmissibleInput(NormalizeError):
    pass


class ComplexityNotReduced(NormalizeError):
    """A chosen letter failed to lower cx: an inadmissible input slipped
    through, or the case analysis is wrong. Fatal either way."""


class NormalizerDeadEnd(NormalizeError):
    """The case dichotomy failed on a concrete complex. Reportable finding."""


class CertificateError(NormalizeError):
    pass


# -- complexity ------------------------------------------------------------------------


def slot_weight(vertex: int, position: int) -> int:
    return 2 * position + 1 if vertex == 0 else 2 * position


class ComplexityReport(NamedTuple):
    top_index: int  # N, the highest occupied position
    u_profile: tuple[tuple[int, int], ...]  # (position, multiplicity) for vertex 0
    v_profile: tuple[tuple[int, int], ...]  # same for vertex 1
    cx: int


def complexity(c: TwistedComplex) -> ComplexityReport:
    """Zig-zag complexity; the complex must be nonempty with lowest position 0."""
    if c.is_empty:
        raise PreconditionViolated("complexity of an empty complex is undefined")
    if c.min_position() != 0:
        raise PreconditionViolated("complexity expects the lowest occupied position to be 0")
    u, v = c.profile()
    weights = [slot_weight(0, i) for i in u] + [slot_weight(1, j) for j in v]
    return ComplexityReport(
        top_index=max(list(u) + list(v)),
        u_profile=tuple(sorted(u.items())),
        v_profile=tuple(sorted(v.items())),
        cx=max(weights) - min(weights),
    )


# -- admissibility ---------------------------------------------------------------------


class AdmissibleReport(NamedTuple):
    ok: bool
    negative_degrees: tuple[tuple[int, int], ...]  # (degree, rank) below zero


def admissible(c: TwistedComplex) -> AdmissibleReport:
    """Whether the endomorphism cohomology is supported in degrees >= 0."""
    ranks = hf_ranks(c, c)
    bad = tuple(sorted((g, r) for g, r in ranks.items() if g < 0))
    return AdmissibleReport(ok=not bad, negative_degrees=bad)


def first_step_holds(c: TwistedComplex) -> bool | None:
    """
    The end-slot dichotomy on a shift-normalized complex: vertex 1 occupies
    the bottom iff vertex 0 occupies the top. Only meaningful when the
    complex spans more than one position (returns None otherwise: a complex
    concentrated in one position has nothing to balance).
    """
    work, _ = shift_normalized(c)
    if work.is_empty:
        return None
    u, v = work.profile()
    top = max(list(u) + list(v))
    if top == 0:
        return None
    return (v.get(0, 0) > 0) == (u.get(top, 0) > 0)


# -- relabelling -----------------------------------------------------------------------

_RELABEL = {"e0": "e1", "e1": "e0", "p": "q", "q": "p", "f0": "f1", "f1": "f0"}


def relabel(c: TwistedComplex) -> TwistedComplex:
    """
    The row swap (Q0, Q1) -> (Q1[n-2], Q0): vertex-1 summands move to vertex 0
    with positions dropped by n-2, vertex-0 summands become vertex 1 in place,
    and every arrow label swaps accordingly. Involutive up to shift.
    """
    if not c.params.spherical:
        raise PreconditionViolated("relabelling swaps the two cores, so both must be spherical")
    drop = c.params.n - 2
    summands = [
        Summand(0, s.position - drop) if s.vertex == 1 else Summand(1, s.position)
        for s in c.summands
    ]
    delta = {slot: {_RELABEL[name]: coeff for name, coeff in combo.items()} for slot, combo in c.delta.items()}
    return TwistedComplex(c.params, summands, delta)


# -- structural checks from the case analysis --------------------------------------------


def _vertical_rank(c: TwistedComplex, position: int) -> tuple[int, int, int]:
    """
    The rank of the p-coefficient map from vertex-0 to vertex-1 summands at
    one position, with the numbers of those source and target summands.
    """
    field = c.params.field
    us = [k for k, s in enumerate(c.summands) if s.vertex == 0 and s.position == position]
    vs = [k for k, s in enumerate(c.summands) if s.vertex == 1 and s.position == position]
    columns = []
    for i in us:
        coeffs = (c.delta.get((i, j), {}).get("p") for j in vs)
        columns.append({r: x for r, x in enumerate(coeffs) if x})
    return len(echelon_of(field, columns)), len(us), len(vs)


def case_a_structure_defects(c: TwistedComplex) -> list[str]:
    """
    On a shift-normalized complex with vertex 1 at the bottom, the outer
    vertical maps must be injective at the bottom and surjective at the top,
    and the dotted arrows out of the outer slots must vanish. Failures here
    contradict admissibility.
    """
    n = c.params.n
    u, v = c.profile()
    top = max(list(u) + list(v))
    out: list[str] = []
    for i in range(n - 1):
        if u.get(i, 0):
            rank, sources, _ = _vertical_rank(c, i)
            if rank < sources:
                out.append(f"vertical map at position {i} is not injective")
        hi = top - i
        if v.get(hi, 0):
            rank, _, targets = _vertical_rank(c, hi)
            if rank < targets:
                out.append(f"vertical map at position {hi} is not surjective")
    for (a, b), combo in sorted(c.delta.items()):
        if "q" not in combo:
            continue
        src = c.summands[a].position
        tgt = c.summands[b].position
        if tgt < n - 1 or src > top - (n - 1):
            out.append(f"dotted arrow {c.summands[a]}->{c.summands[b]} should vanish in the outer slots")
    return out


# -- one reduction step -------------------------------------------------------------------


class ReductionStep(NamedTuple):
    letters: BraidWord
    case: str
    cx_before: int
    cx_after: int
    result: TwistedComplex


def reduction_step(c: TwistedComplex, structural_checks: bool = True, bfs_length: int = 3) -> ReductionStep:
    """
    One complexity-lowering twist on a minimized, shift-normalized, admissible
    complex with cx > 0. Raises NormalizerDeadEnd when the case dichotomy
    fails and ComplexityNotReduced when the selected letter does not work.
    """
    rep = complexity(c)
    if rep.cx == 0:
        raise PreconditionViolated("reduction_step needs cx > 0")
    n = c.params.n
    u = dict(rep.u_profile)
    v = dict(rep.v_profile)
    top = rep.top_index
    case_a = v.get(0, 0) > 0

    if top >= 1 and case_a != (u.get(top, 0) > 0):
        raise NormalizerDeadEnd(
            f"end-slot dichotomy fails: V0 {'non' if case_a else ''}empty "
            f"but U_top {'non' if u.get(top, 0) else ''}empty (top={top})")

    # Case B is case A with the two cores' roles swapped. The inverse twist in
    # the other vertex needs the bottom vertex's top band clear; the positive
    # twist in the bottom vertex needs the other vertex's bottom band clear.
    bottom = 1 if case_a else 0
    low, high = (v, u) if case_a else (u, v)  # profiles of the bottom vertex and of the other one
    choices = tuple(zip((BraidLetter(1 - bottom, -1), BraidLetter(bottom, 1)),
                        ("A1", "A2") if case_a else ("B1", "B2")))

    if top >= n - 1:
        if structural_checks:
            defects = case_a_structure_defects(c if case_a else shift_normalized(relabel(c))[0])
            if defects:
                context = "" if case_a else " after relabelling"
                raise NormalizerDeadEnd(f"structure defects{context}: " + "; ".join(defects))
        if all(low.get(top - i, 0) == 0 for i in range(n - 1)):
            letter, tag = choices[0]
        elif any(high.get(j, 0) for j in range(n - 1)):
            raise NormalizerDeadEnd(
                "case dichotomy fails: vertex 1 meets the top slots and vertex 0 the bottom ones" if case_a
                else "case dichotomy fails after relabelling: both outer bands are occupied")
        else:
            letter, tag = choices[1]
        result, _ = shift_normalized(apply_letter(letter, c))
        after = complexity(result).cx
        if after >= rep.cx:
            raise ComplexityNotReduced(
                f"case {tag} letter {letter} raised cx {rep.cx} -> {after}; input was presumably inadmissible")
        return ReductionStep((letter,), tag, rep.cx, after, result)

    # Base case: the complex is too short for any top-class arrow. Try the two
    # case letters, then fall back to a bounded word search.
    def candidates():
        for letter, tag in choices:
            yield (letter,), f"base-{tag}", apply_letter(letter, c)
        for word, result in braid_images(c, bfs_length):
            yield word, "fallback", result

    for word, tag, result in candidates():
        result, _ = shift_normalized(result)
        if not result.is_empty:
            after = complexity(result).cx
            if after < rep.cx:
                return ReductionStep(word, tag, rep.cx, after, result)
    raise NormalizerDeadEnd(
        f"no word of length <= {bfs_length} lowers cx from {rep.cx} in the base case")


# -- full normalization --------------------------------------------------------------------


class TraceEntry(NamedTuple):
    letters: BraidWord
    case: str
    cx_before: int
    cx_after: int


class Certificate(NamedTuple):
    word: BraidWord
    target_vertex: int
    shift: int
    multiplicity: int
    trace: tuple[TraceEntry, ...]

    def to_dict(self) -> dict:
        return {
            "word": word_to_string(self.word),
            "target_vertex": self.target_vertex,
            "shift": self.shift,
            "multiplicity": self.multiplicity,
            "trace": [
                {
                    "letters": word_to_string(t.letters),
                    "case": t.case,
                    "cx_before": t.cx_before,
                    "cx_after": t.cx_after,
                }
                for t in self.trace
            ],
        }


def normalize(c: TwistedComplex, structural_checks: bool = True, seed: int = 0) -> Certificate:
    """
    Reduce an admissible complex to multiplicity many copies of one shifted
    core; the returned certificate's word has been replayed on the input and
    landed on those copies on the nose. An input that minimizes to the empty
    complex lies in no core's orbit and raises PreconditionViolated at once.
    Admissibility is computed only when the reduction fails: it then decides
    between InadmissibleInput and the reduction's own error. seed is
    ignored; it is kept for callers that still pass it.
    """
    require_valid(c, "normalize input")
    if c.is_empty:
        raise PreconditionViolated("the empty complex lies in no core's orbit")
    work, _ = shift_normalized(minimize(c))
    if work.is_empty:
        raise PreconditionViolated("the input is quasi-isomorphic to zero, so it lies in no core's orbit")
    try:
        return _certify(c, work, structural_checks)
    except NormalizeError as exc:
        adm = admissible(c)
        if not adm.ok:
            raise InadmissibleInput(
                "endomorphisms in negative degrees " + ", ".join(str(g) for g, _ in adm.negative_degrees)) from exc
        raise


def _certify(c: TwistedComplex, work: TwistedComplex, structural_checks: bool) -> Certificate:
    """
    The reduction of work, the nonempty minimized and shift-normalized c,
    each step of which lowers cx and keeps it nonempty, then the certificate
    replayed on c.
    """
    trace: list[TraceEntry] = []
    cx = complexity(work).cx
    while cx > 0:
        step = reduction_step(work, structural_checks=structural_checks)
        trace.append(TraceEntry(step.letters, step.case, step.cx_before, step.cx_after))
        work, cx = step.result, step.cx_after

    word = tuple(letter for entry in trace for letter in entry.letters)
    final = apply_braid(word, c)
    # One (vertex, position) class and no differential is Q_v[s]^m itself, so
    # the identity is the quasi-isomorphism: the replay is the whole check.
    classes = {(s.vertex, s.position) for s in final.summands}
    if len(classes) != 1 or final.delta:
        raise CertificateError(f"word {word_to_string(word)} did not land on copies of one shifted core: {final}")
    vertex, position = classes.pop()
    return Certificate(
        word=word,
        target_vertex=vertex,
        shift=-position,
        multiplicity=len(final),
        trace=tuple(trace),
    )
