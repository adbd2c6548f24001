"""
Braid-orbit normalization: drive an admissible complex down to copies of a
single shifted core, emitting a verifiable braid-word certificate.

The measure being decreased is the zig-zag complexity cx: weight a vertex-0
slot at position i as 2i+1 and a vertex-1 slot as 2i, then cx is the spread
between the heaviest and lightest occupied slot (the length of the longest
zig-zag the complex can support). A shift moves every weight by the same
amount, so cx, and the profile read from the lowest occupied position, are
the same in every frame: a step reads them from its input as it stands.
Each reduction step inspects whether vertex-1 lives at the bottom of the
complex (case A) or not (case B). Case B is case A with the two cores'
roles swapped, so one path serves both: it takes two twist letters from
the bottom vertex, then looks at the outer n-2 slots to choose the one that
provably lowers cx for admissible complexes. The base case, where the
complex is too short for any top-class arrow, tries the same two letters
in order and takes the first that lowers cx. A step makes no structural
pre-check of its input against the case analysis: a step that does not
lower cx raises, and normalize then classifies the failure by
admissibility, so no verdict would read one.

Certificates are never trusted from the trace. The reduction starts from
minimize(c), the first call apply_braid(word, c) makes, and each step twists
the previous step's result in its own frame, so the reduction's own twists
are the application of the word to the input. A Certificate is returned only
if that last result is copies of one shifted core with zero differential, on
the nose. Twists are autoequivalences, so that result is the proof; no
oracle is asked. orbit_certificate is the same run with every failure read
as None.

normalize does not test admissibility up front. Twists are autoequivalences,
so a verified certificate c = T_w^-1(Q_v[s]^m) carries the admissible
endomorphism algebra of Q_v^m (degrees 0 and n) over to c: accepting a
certificate already proves c admissible, and the self-hom of minimize(c),
quadratic in its length, is computed only when the reduction or the
verification fails. Minimizing is a homotopy equivalence, so its ranks are
those of hf(c, c); they tell an inadmissible input (InadmissibleInput) from
a genuine failure on an admissible one (the original error). A step returns
only when it lowers cx, so the attempt takes at most cx steps on any input.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    ComplexError,
    TwistedComplex,
    hom_complex,
    minimize,
    require_valid,
)
from .twists import BraidLetter, BraidWord, apply_letter, word_to_string


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
    """
    Zig-zag complexity of a nonempty complex. Positions in the report count
    from the lowest occupied one, so a shift of c leaves the report as it is.
    """
    if c.is_empty:
        raise PreconditionViolated("complexity of an empty complex is undefined")
    low = c.min_position()
    u, v = c.profile()
    return ComplexityReport(
        top_index=max(list(u) + list(v)) - low,
        u_profile=tuple(sorted((i - low, m) for i, m in u.items())),
        v_profile=tuple(sorted((i - low, m) for i, m in v.items())),
        cx=_spread(c),
    )


def _spread(c: TwistedComplex) -> int:
    """The cx of a nonempty complex in any frame: a shift moves every slot weight by the same amount."""
    weights = [slot_weight(s.vertex, s.position) for s in c.summands]
    return max(weights) - min(weights)


# -- admissibility ---------------------------------------------------------------------


class AdmissibleReport(NamedTuple):
    ok: bool
    negative_degrees: tuple[tuple[int, int], ...]  # (degree, rank) below zero


def admissible(c: TwistedComplex) -> AdmissibleReport:
    """
    Whether the endomorphism cohomology is supported in degrees >= 0. It reads
    the direct hom: it runs when the reduction has failed, and hf_ranks would
    try the same reduction again.
    """
    ranks = hom_complex(c, c).cohomology_ranks()
    bad = tuple(sorted((g, r) for g, r in ranks.items() if g < 0))
    return AdmissibleReport(ok=not bad, negative_degrees=bad)


# -- one reduction step -------------------------------------------------------------------

class TraceEntry(NamedTuple):
    letters: BraidWord
    case: str
    cx_before: int
    cx_after: int


def reduction_step(c: TwistedComplex) -> tuple[TraceEntry, TwistedComplex]:
    """
    One complexity-lowering twist on a minimized, nonempty, admissible complex
    with cx > 0, as its trace entry and its result. Every decision reads
    complexity(c), whose positions count from the lowest occupied one, so a
    shift of c gets the same decision and no copy of c is made. The chosen
    letters are applied to c itself, so the result is in c's frame: it is
    apply_braid(entry.letters, c). Raises
    NormalizerDeadEnd when the case dichotomy fails or neither base-case
    letter lowers cx, ComplexityNotReduced when the selected letter does not
    work, and PreconditionViolated for case B outside the base case over a
    non-spherical Q0: case B is case A with the cores' roles swapped, which
    needs both cores spherical.
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
        if not case_a and not c.params.spherical:
            raise PreconditionViolated("relabelling swaps the two cores, so both must be spherical")
        if all(low.get(top - i, 0) == 0 for i in range(n - 1)):
            letter, tag = choices[0]
        elif any(high.get(j, 0) for j in range(n - 1)):
            raise NormalizerDeadEnd(
                "case dichotomy fails: vertex 1 meets the top slots and vertex 0 the bottom ones" if case_a
                else "case dichotomy fails after relabelling: both outer bands are occupied")
        else:
            letter, tag = choices[1]
        result = apply_letter(letter, c)
        after = _spread(result)
        if after >= rep.cx:
            raise ComplexityNotReduced(
                f"case {tag} letter {letter} raised cx {rep.cx} -> {after}; input was presumably inadmissible")
        return TraceEntry((letter,), tag, rep.cx, after), result

    # Base case: the complex is too short for any top-class arrow. Take the
    # first case letter that lowers cx.
    for letter, tag in choices:
        result = apply_letter(letter, c)
        if not result.is_empty:
            after = _spread(result)
            if after < rep.cx:
                return TraceEntry((letter,), f"base-{tag}", rep.cx, after), result
    raise NormalizerDeadEnd(f"neither case letter lowers cx from {rep.cx} in the base case")


# -- full normalization --------------------------------------------------------------------


class Certificate(NamedTuple):
    word: BraidWord
    target_vertex: int
    shift: int
    multiplicity: int
    trace: tuple[TraceEntry, ...]

    def to_dict(self) -> dict:
        trace = [t._asdict() | {"letters": word_to_string(t.letters)} for t in self.trace]
        return self._asdict() | {"word": word_to_string(self.word), "trace": trace}


def normalize(c: TwistedComplex, structural_checks: bool = True, seed: int = 0) -> Certificate:
    """
    Reduce an admissible complex to multiplicity many copies of one shifted
    core; the reduction's last twist is the certificate's word applied to
    the input, and it landed on those copies on the nose. An input that
    minimizes to the empty complex lies in no core's orbit and raises
    PreconditionViolated at once. Admissibility is computed only when the
    reduction fails, on minimize(c), which the reduction already started
    from: it then decides between InadmissibleInput and the reduction's own
    error. structural_checks and seed are ignored; they are kept for callers
    that still pass them by position.
    """
    start = _start(c)
    try:
        return _certify(start)
    except NormalizeError as exc:
        adm = admissible(start)
        if not adm.ok:
            raise InadmissibleInput(
                "endomorphisms in negative degrees " + ", ".join(str(g) for g, _ in adm.negative_degrees)) from exc
        raise


def orbit_certificate(c: TwistedComplex) -> Certificate | None:
    """
    normalize's certificate for c, or None wherever normalize raises: an
    invalid c, one that minimizes to zero, and one the reduction does not
    certify. It never computes admissibility, so a None costs only the
    attempted reduction. Over a non-spherical Q0 it is None at once: a twist
    along Q0 is then no autoequivalence, so a certificate would carry no hom
    over to c.
    """
    if not c.params.spherical:
        return None
    try:
        return _certify(_start(c))
    except (NormalizeError, ComplexError):
        return None


def _start(c: TwistedComplex) -> TwistedComplex:
    """minimize(c), the first call apply_braid makes, for a valid c that is not zero."""
    require_valid(c, "normalize input")
    if c.is_empty:
        raise PreconditionViolated("the empty complex lies in no core's orbit")
    start = minimize(c)
    if start.is_empty:
        raise PreconditionViolated("the input is quasi-isomorphic to zero, so it lies in no core's orbit")
    return start


def _certify(start: TwistedComplex) -> Certificate:
    """
    The reduction of start = minimize(c), each step of which lowers cx and
    keeps it nonempty, checked on its last result. Each step twists the
    previous result in its own frame, so the last result is
    apply_braid(word, c), made by the calls apply_braid makes: minimize(c),
    then one twist per letter.
    """
    trace: list[TraceEntry] = []
    current, cx = start, _spread(start)
    while cx > 0:
        entry, current = reduction_step(current)
        trace.append(entry)
        cx = entry.cx_after

    word = tuple(letter for entry in trace for letter in entry.letters)
    # One (vertex, position) class and no differential is Q_v[s]^m itself, so
    # the identity is the quasi-isomorphism: this result is the whole check.
    classes = {(s.vertex, s.position) for s in current.summands}
    if len(classes) != 1 or current.delta:
        raise CertificateError(f"word {word_to_string(word)} did not land on copies of one shifted core: {current}")
    vertex, position = classes.pop()
    return Certificate(
        word=word,
        target_vertex=vertex,
        shift=-position,
        multiplicity=len(current),
        trace=tuple(trace),
    )
