"""
Every complex carries a clean delta: nonzero combos of nonzero canonical
field values, in dicts no other complex shares. The constructor cleans
outside input; the library's constructions build a clean delta and hand it
over without a second pass, so each of them is checked here, over F_2,
F_32003 and Q. A canonical value is an int in [0, p) over F_p; over Q it is
an int when it is whole and a Fraction only when it is not, so the unit
coefficients of braid images stay ints. cone still coerces a hand-built
Morphism, and must give what the coercing constructor gives.

HomComplex lays out its generators from per-vertex-pair (degree, name)
lists; components, index and columns must equal the plain enumeration kept
here, with each column computed as Morphism.differential of its generator.
"""

import random
from fractions import Fraction

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import (
    Morphism,
    Summand,
    TwistedComplex,
    cone,
    direct_sum,
    hom_complex,
    minimize,
    restrictions,
    shift,
    single_core,
)
from plumbtwist.covers import CoverSpec, specialize
from plumbtwist.linalg import axpy
from plumbtwist.serialize import complex_to_dict
from plumbtwist.twists import apply_braid, twist

import reference
from conftest import random_word

FIELDS = (2, 32003, 0)


def assert_clean(c: TwistedComplex) -> None:
    p = c.params.field.characteristic
    for slot, combo in c.delta.items():
        assert combo, slot
        for name, x in combo.items():
            assert x, (slot, name)
            if p:
                assert type(x) is int and 0 <= x < p, (slot, name, x)
            else:
                assert type(x) is int or type(x) is Fraction and x.denominator != 1, (slot, name, x)


def assert_owned(out: TwistedComplex, *inputs: TwistedComplex) -> None:
    """out shares no combo with an input: mutating all of out's combos leaves every input's document unchanged."""
    before = [complex_to_dict(c) for c in inputs]
    for combo in out.delta.values():
        combo.clear()
        combo["zz"] = out.params.field.one
    assert [complex_to_dict(c) for c in inputs] == before


def corpus(characteristic: int, seed: int) -> list[TwistedComplex]:
    """Braid images of both cores at n = 3 and 4, and a direct sum of two of them."""
    rng = random.Random(seed)
    out = []
    for n in (3, 4):
        params = make_params(n, characteristic)
        for v in (0, 1):
            out.append(apply_braid(random_word(rng, 5), single_core(params, v)))
        out.append(direct_sum(out[-1], out[-2]))
    return out


def identity(c: TwistedComplex, scale) -> Morphism:
    """scale times the identity of c, as raw (uncoerced) slot combos."""
    return Morphism(c, c, 0, {(i, i): {"e0" if s.vertex == 0 else "e1": scale} for i, s in enumerate(c.summands)})


@pytest.mark.parametrize("characteristic", FIELDS)
def test_library_constructions_build_clean_unshared_deltas(characteristic):
    rng = random.Random(16)
    for c in corpus(characteristic, 1600 + characteristic):
        members = sorted(rng.sample(range(len(c)), max(1, len(c) // 2)))
        rest = [k for k in range(len(c)) if k not in members]
        pieces = restrictions(c, [members, rest])
        assert [(x.summands, x.delta) for x in pieces] == [
            (x.summands, x.delta) for x in (reference.restrict(c, members), reference.restrict(c, rest))]
        x = c.params.field.element(5)
        built = [
            (shift(c, rng.randint(-3, 3)), (c,)),
            (restrictions(c, [members])[0], (c,)),
            *[(piece, (c,)) for piece in pieces],
            (direct_sum(c, c), (c,)),
            (cone(identity(c, x)), (c,)),
            (minimize(cone(identity(c, x))), ()),
            (minimize(c), (c,)),
            (reference.relabel(c), (c,)),
        ]
        # The inverse twist takes its minimized cone's delta over, so both directions are checked.
        built += [(twist(c, vertex, power), (c,)) for vertex in (0, 1) for power in (1, -1)]
        for w in (0, 1):
            cover = CoverSpec(w)
            if cover.compatible_with(characteristic):
                built.append((specialize(c, cover), (c,)))
        for out, inputs in built:
            assert_clean(out)
            assert_owned(out, *inputs)


def test_the_rational_ladder_keeps_every_coefficient_an_int():
    # (s0 S1)^6 Q0 over Q: every twist, cone and minimize on its way multiplies
    # and divides by units only, so a Fraction anywhere is a whole number boxed.
    c = apply_braid(" ".join(["s0 S1"] * 6), single_core(make_params(3, 0), 0))
    assert len(c) == 233
    assert {type(x) for combo in c.delta.values() for x in combo.values()} == {int}
    # The constructor unboxes a whole-valued Fraction from outside input.
    boxed = TwistedComplex(c.params, c.summands, {slot: {name: Fraction(x) for name, x in combo.items()}
                                                  for slot, combo in c.delta.items()})
    assert boxed.delta == c.delta
    assert {type(x) for combo in boxed.delta.values() for x in combo.values()} == {int}


def reference_cone(f: Morphism) -> TwistedComplex:
    """The cone through the coercing constructor, for a morphism known to be closed."""
    c, d = f.source, f.target
    p = c.params.field.characteristic
    summands = [Summand(s.vertex, s.position - 1) for s in c.summands] + list(d.summands)
    off = len(c)
    delta = {}
    for (i, j), combo in c.delta.items():
        delta[(i, j)] = axpy({}, combo, -1, p)
    for (i, j), combo in f.comps.items():
        delta[(i, off + j)] = dict(combo)
    for (i, j), combo in d.delta.items():
        delta[(off + i, off + j)] = dict(combo)
    return TwistedComplex(c.params, summands, delta)


@pytest.mark.parametrize("characteristic", FIELDS)
def test_cone_coerces_a_hand_built_morphism(characteristic):
    # Over F_p: p + 3, -1 and 0; over Q: plain ints and a zero. A top class at 0 composes with nothing.
    scales = (3, -1) if characteristic == 0 else (characteristic + 3, -1, 3 * characteristic + 1)
    for c in corpus(characteristic, 77 + characteristic):
        for scale in scales:
            f = identity(c, scale)
            for (i, _), combo in f.comps.items():
                combo["f0" if c.summands[i].vertex == 0 else "f1"] = 0
            got, want = cone(f), reference_cone(f)
            assert got.summands == want.summands
            assert list(got.delta.items()) == list(want.delta.items())
            assert_clean(got)


# -- hom generators --------------------------------------------------------------------


def reference_layout(c: TwistedComplex, d: TwistedComplex, window=None):
    """Generators (i, j, basis name) per degree, walked summand by summand, then each column as D of its generator."""
    cat = c.category
    keep = None if window is None else set(window) | {g + 1 for g in window}
    components = {}
    for i, a in enumerate(c.summands):
        for j, b in enumerate(d.summands):
            for m in cat.morphism_space(a.vertex, b.vertex):
                g = m.degree - a.position + b.position
                if keep is None or g in keep:
                    components.setdefault(g, []).append((i, j, m.name))
    components = {g: tuple(gens) for g, gens in sorted(components.items())}
    index = {gen: (g, k) for g, gens in components.items() for k, gen in enumerate(gens)}
    columns = {}
    for g, gens in components.items():
        if window is not None and g not in window:
            continue
        cols = []
        for i, j, name in gens:
            image = Morphism(c, d, g, {(i, j): {name: c.params.field.one}}).differential()
            cols.append({index[(i2, j2, name2)][1]: x
                         for (i2, j2), combo in image.comps.items() for name2, x in combo.items()})
        columns[g] = cols
    return components, index, columns


@pytest.mark.parametrize("characteristic", FIELDS)
def test_hom_layout_equals_the_plain_enumeration(characteristic):
    rng = random.Random(2 * characteristic + 1)
    pool = corpus(characteristic, 300 + characteristic)
    pool += [single_core(c.params, v, rng.randint(-2, 2)) for c in pool[:4] for v in (0, 1)]
    for _ in range(24):
        c = rng.choice(pool)
        d = shift(rng.choice([x for x in pool if x.params == c.params]), rng.randint(-2, 2))
        for window in (None, {0}):
            hom = hom_complex(c, d, degrees=window)
            components, index, columns = reference_layout(c, d, window)
            assert hom.components == components
            assert hom.index == index
            assert hom.columns == columns
