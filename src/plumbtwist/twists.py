"""
Twist functors along the two cores, braid words, and relation checking.

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
an emergent property the tests observe.
"""

from __future__ import annotations

from typing import NamedTuple

from .category import make_params
from .complexes import (
    Morphism,
    Summand,
    TwistedComplex,
    cone,
    equivalent,
    hom_complex,
    minimize,
    require_valid,
    shift,
    single_core,
)


class _BraidLetter(NamedTuple):
    vertex: int  # 0 or 1
    power: int  # +1 or -1


class BraidLetter(_BraidLetter):
    __slots__ = ()

    def __new__(cls, vertex: int, power: int):
        if isinstance(vertex, bool) or isinstance(power, bool) or vertex not in (0, 1) or power not in (1, -1):
            raise ValueError(f"bad braid letter ({vertex}, {power})")
        return super().__new__(cls, vertex, power)

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.vertex, -self.power)

    def __str__(self):
        return ("s" if self.power == 1 else "S") + str(self.vertex)


BraidWord = tuple[BraidLetter, ...]

LETTERS = (BraidLetter(0, 1), BraidLetter(0, -1), BraidLetter(1, 1), BraidLetter(1, -1))


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


def invert_word(word: BraidWord) -> BraidWord:
    return tuple(letter.inverse() for letter in reversed(word))


# -- the twist functors -----------------------------------------------------------------


def twist(c: TwistedComplex, vertex: int, power: int = 1) -> TwistedComplex:
    """Apply the twist along Q_vertex (power=+1) or its inverse (power=-1)."""
    require_valid(c, "twist input")
    if power not in (1, -1):
        raise ValueError(f"twist power must be +1 or -1, got {power}")
    if vertex not in (0, 1):
        raise ValueError(f"twist vertex must be 0 or 1, got {vertex}")
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
    return minimize(shift(cone(Morphism(c, copies, 0, comps)), -1))


def apply_letter(letter: BraidLetter, c: TwistedComplex) -> TwistedComplex:
    return twist(c, letter.vertex, letter.power)


def apply_braid(word, c: TwistedComplex) -> TwistedComplex:
    """Left-to-right fold of twist over the word; output is minimized."""
    if isinstance(word, str):
        word = parse_word(word)
    out = minimize(c)
    for letter in word:
        out = apply_letter(letter, out)
    return out


def check_braid_relation(c: TwistedComplex, seed: int = 0) -> str:
    """equivalent(T0 T1 T0 (c), T1 T0 T1 (c)) as a yes/no/inconclusive verdict."""
    require_valid(c, "braid relation input")
    left = apply_braid(parse_word("s0 s1 s0"), c)
    right = apply_braid(parse_word("s1 s0 s1"), c)
    return equivalent(left, right, seed=seed)


# -- orbit search -----------------------------------------------------------------------


class SearchExhausted(RuntimeError):
    """The bounded orbit search ran dry; at desk scale this falsifies the
    expectation that the two cores lie in one braid orbit, so shout."""


def braid_images(c: TwistedComplex, max_length: int):
    """
    (word, apply_braid(word, c)) for every word of length 1..max_length,
    shortest first and in itertools.product(LETTERS, repeat=length) order
    within one length. Each image is its prefix's image twisted once, and
    only the images along the current prefix are held.
    """
    def extend(word, image, length):
        if len(word) == length:
            yield word, image
            return
        for letter in LETTERS:
            yield from extend(word + (letter,), apply_letter(letter, image), length)

    start = minimize(c)
    for length in range(1, max_length + 1):
        yield from extend((), start, length)


def core_orbit_witness(n: int, characteristic: int = 32003, max_length: int = 4) -> tuple[BraidWord, int]:
    """
    A braid word w and shift s with apply_braid(w, Q0) = Q1[s] on the nose,
    the first of braid_images(Q0, max_length) to land there (shortest first).
    """
    q0 = single_core(make_params(n, characteristic), 0)
    for word, result in braid_images(q0, max_length):
        if len(result) == 1 and result.summands[0].vertex == 1 and not result.delta:
            return word, -result.summands[0].position
    raise SearchExhausted(
        f"no braid word of length <= {max_length} carries Q0 to a shifted Q1 at n={n}; "
        "this contradicts the expected single-orbit picture and needs investigation")
