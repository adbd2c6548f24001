"""
Twist functors along the two cores, braid words, relation checking, and
the braid word that carries one core to the other.

One construction serves both directions. The positive twist along Q_i is the
cone of the evaluation morphism HF(Q_i, c) ⊗ Q_i -> c; the inverse twist is
the cone of co-evaluation c -> HF(c, Q_i)^dual ⊗ Q_i, shifted down by one.
Both take one copy of Q_i per deterministic cocycle representative and are
minimized. With our cone convention (source block at position-1) the extra
shift is exactly what makes twist followed by inverse twist land on the
identity on the nose rather than up to shift; the pair is verified against
each other in the tests.

Braid words are free words in the four letters {s0, S0, s1, S1}
(lowercase = positive twist); no reduction is ever assumed, cancellation is
an emergent property the tests observe. The library searches no braid
words: the orbit witness s1 s0 is applied once and checked on the nose,
and the tests keep the exhaustive search as its reference.
"""

from __future__ import annotations

from typing import NamedTuple

from .category import is_vertex, make_params
from .complexes import (
    Morphism,
    Summand,
    TwistedComplex,
    _assemble,
    cone,
    equivalent,
    hom_complex,
    minimize,
    require_valid,
    single_core,
)
from .linalg import DEFAULT_PRIME, is_int, make_checked


class _BraidLetter(NamedTuple):
    vertex: int  # 0 or 1
    power: int  # +1 or -1


def is_power(value) -> bool:
    """The power rule: the int +1 (a twist) or -1 (its inverse)."""
    return is_int(value) and value in (1, -1)


class BraidLetter(_BraidLetter):
    __slots__ = ()
    _make = make_checked

    def __new__(cls, vertex: int, power: int):
        if not (is_vertex(vertex) and is_power(power)):
            raise ValueError(f"bad braid letter ({vertex}, {power})")
        return super().__new__(cls, vertex, power)

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.vertex, -self.power)

    def __str__(self):
        return ("s" if self.power == 1 else "S") + str(self.vertex)


BraidWord = tuple[BraidLetter, ...]


def parse_word(text: str) -> BraidWord:
    """Parse 's0 S1 s1' style words; tokens are s/S followed by the vertex."""
    letters = []
    for token in text.split():
        if len(token) != 2 or token[0] not in "sS" or token[1] not in "01":
            raise ValueError(f"bad braid letter {token!r}; expected one of s0 S0 s1 S1")
        letters.append(BraidLetter(int(token[1]), 1 if token[0] == "s" else -1))
    return tuple(letters)


def word_to_string(word: BraidWord) -> str:
    return " ".join(str(letter) for letter in word)


# -- the twist functors -----------------------------------------------------------------


def twist(c: TwistedComplex, vertex: int, power: int = 1) -> TwistedComplex:
    """Apply the twist along Q_vertex (power=+1) or its inverse (power=-1)."""
    # The letter first: validating a long complex costs far more than these two checks.
    if not is_power(power):
        raise ValueError(f"twist power must be +1 or -1, got {power!r}")
    if not is_vertex(vertex):
        raise ValueError(f"twist vertex must be 0 or 1, got {vertex!r}")
    require_valid(c, "twist input")
    forward = power == 1
    core = single_core(c.params, vertex)
    hom = hom_complex(core, c) if forward else hom_complex(c, core)
    summands: list[Summand] = []
    comps: dict[tuple[int, int], dict] = {}
    for g, reps in hom.cocycle_representatives().items():
        for vec in reps:
            k = len(summands)
            summands.append(Summand(vertex, power * g))
            for (i, j), combo in hom.morphism(g, vec).comps.items():
                comps[(k, j) if forward else (i, k)] = combo
    copies = TwistedComplex(c.params, summands)
    if forward:
        return minimize(cone(Morphism(copies, c, 0, comps)))
    # A uniform shift changes neither the order minimize keeps nor the slots it cancels, so shift
    # after it: [-1] raises every position by one, over the minimized cone's own delta.
    m = minimize(cone(Morphism(c, copies, 0, comps)))
    return _assemble(c.params, [Summand(s.vertex, s.position + 1) for s in m.summands], m.delta)


def apply_letter(letter: BraidLetter, c: TwistedComplex) -> TwistedComplex:
    return twist(c, letter.vertex, letter.power)


def apply_braid(word, c: TwistedComplex) -> TwistedComplex:
    """Left-to-right fold of twist over the word; output is minimized. Trusts c: it is
    minimized before the first twist validates it, so an invalid c can pass unseen."""
    if isinstance(word, str):
        word = parse_word(word)
    out = minimize(c)
    for letter in word:
        out = apply_letter(letter, out)
    return out


def check_braid_relation(c: TwistedComplex, seed: int = 0) -> str:
    """
    equivalent(T0 T1 T0 (c), T1 T0 T1 (c)) as a yes/no/inconclusive verdict.
    On a core, and on most of its braid images, the two sides minimize to
    the same model up to a rescaling of each summand, so the oracle's
    diagonal stage answers yes without building a hom complex; on the rest
    its candidate search decides.
    """
    require_valid(c, "braid relation input")
    left = apply_braid(parse_word("s0 s1 s0"), c)
    right = apply_braid(parse_word("s1 s0 s1"), c)
    return equivalent(left, right, seed=seed)


# -- the core orbit ---------------------------------------------------------------------


class SearchExhausted(RuntimeError):
    """No orbit witness within the allowed length, or s1 s0 failed to carry Q0 to a
    shifted Q1; at desk scale either falsifies the expectation that the two cores
    lie in one braid orbit, so shout."""


def core_orbit_witness(n: int, characteristic: int = DEFAULT_PRIME, max_length: int = 4) -> tuple[BraidWord, int]:
    """
    The braid word s1 s0 and the shift s with apply_braid(s1 s0, Q0) = Q1[s] on the nose
    (s = 2 - n), checked by applying the word once. On Khovanov-Seidel slopes s1 s0 takes
    (0, 1) to (1, 0) and no single letter does, so no shorter word exists and a
    max_length below 2 raises SearchExhausted. A max_length that is not a non-negative
    int raises ValueError before any twist.
    """
    q0 = single_core(make_params(n, characteristic), 0)
    if not (is_int(max_length) and max_length >= 0):
        raise ValueError(f"max_length must be a non-negative integer, got {max_length!r}")
    if max_length < 2:
        raise SearchExhausted(
            f"no braid word of length <= {max_length} carries Q0 to a shifted Q1 at n={n}; "
            "this contradicts the expected single-orbit picture and needs investigation")
    word = parse_word("s1 s0")
    result = apply_braid(word, q0)
    if len(result) == 1 and result.summands[0].vertex == 1 and not result.delta:
        return word, -result.summands[0].position
    raise SearchExhausted(
        f"s1 s0 does not carry Q0 to a shifted Q1 at n={n}; "
        "this contradicts the expected single-orbit picture and needs investigation")
