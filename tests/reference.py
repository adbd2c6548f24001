"""
Reference bodies the tests compare the library against, in two kinds.

Library operations that were rewritten for speed, kept as they were.
minimize rescans all of delta for each cancellation: it picks the smallest
unit slot with min() over delta and collects the zig-zag's two sides by
filtering delta, so it is quadratic in the number of entries, but it is the
plain statement of the algorithm. decompose restricts the minimized complex
to each piece separately, one pass over delta per piece. equivalent is
the quasi-isomorphism oracle before it looked for a diagonal isomorphism:
after the multiset check it always builds the degree-0 kernel and samples
it, so it is the reference for every pair the diagonal stage declines.

The braid-word search that twists.core_orbit_witness replaced with one
checked word: braid_images walks every word over LETTERS, shortest first,
and the tests pin that its first word carrying Q0 to a shifted Q1 is the
library's witness.

Oracles for the normalizer, which no library code calls. shift_normalized
is the frame with lowest occupied position 0, in which the step corpus of
the normalizer goldens is pinned. first_step_holds states the end-slot
dichotomy that reduction_step raises on, and relabel is the row swap of
the two cores that makes case B of a step case A.

gauge, the one input transform the tests share: an isomorphic copy of a
complex with each summand rescaled by a unit.
"""

from fractions import Fraction

from plumbtwist.complexes import (INCONCLUSIVE, NO, YES, Summand, TwistedComplex, _assemble, _compose_slots, cone,
                                  hom_complex, require_same_params, require_valid, shift)
from plumbtwist.complexes import minimize as library_minimize
from plumbtwist.linalg import axpy, invertible_combinations, is_int
from plumbtwist.normalizer import PreconditionViolated
from plumbtwist.twists import BraidLetter, apply_letter

Combo = dict


def minimize(c: TwistedComplex) -> TwistedComplex:
    """Gaussian elimination of unit entries, each cancellation picking the smallest unit slot."""
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
    # Every slot left in delta joins two survivors, so it takes the working combos over.
    where = {old: new for new, old in enumerate(order)}
    delta = {(where[i], where[j]): combo for (i, j), combo in delta.items()}
    return _assemble(c.params, [c.summands[k] for k in order], delta)


def restrict(c: TwistedComplex, members) -> TwistedComplex:
    """The summands at members, in that order, with the entries of delta among them re-indexed and copied."""
    where = {old: new for new, old in enumerate(members)}
    entries = {(where[i], where[j]): combo.copy() for (i, j), combo in c.delta.items() if i in where and j in where}
    return _assemble(c.params, [c.summands[k] for k in members], entries)


def decompose(c: TwistedComplex) -> list[TwistedComplex]:
    """The connected components of the minimized complex, each restricted on its own."""
    require_valid(c, "decompose input")
    m = library_minimize(c)
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
    pieces = [restrict(m, sorted(members)) for members in groups.values()]
    pieces.sort(key=lambda piece: min((s.position, s.vertex) for s in piece.summands))
    return pieces


def equivalent(c: TwistedComplex, d: TwistedComplex, seed: int = 0) -> str:
    """Validate and minimize both, compare summand multisets, then sample the degree-0 kernel."""
    require_same_params(c, d, "equivalent")
    require_valid(c, "equivalent's first input")
    require_valid(d, "equivalent's second input")
    cm = library_minimize(c)
    dm = library_minimize(d)
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
        acc = {}
        for cf, vec in zip(coeffs, kernel):
            if cf:
                axpy(acc, vec, cf, field.characteristic)
        if library_minimize(cone(hom.morphism(0, acc))).is_empty:
            return YES
    return INCONCLUSIVE


# -- the orbit search ----------------------------------------------------------------------

LETTERS = (BraidLetter(0, 1), BraidLetter(0, -1), BraidLetter(1, 1), BraidLetter(1, -1))


def braid_images(c: TwistedComplex, max_length: int):
    """
    (word, apply_braid(word, c)) for every word of length 1..max_length,
    shortest first and in itertools.product(LETTERS, repeat=length) order
    within one length. Each image is its prefix's image twisted once, and
    only the images along the current prefix are held. Trusts c, as apply_braid does.
    A max_length that is not a non-negative int raises ValueError at the call, before any twist.
    """
    if not (is_int(max_length) and max_length >= 0):
        raise ValueError(f"max_length must be a non-negative integer, got {max_length!r}")

    def extend(word, image, length):
        if len(word) == length:
            yield word, image
            return
        for letter in LETTERS:
            yield from extend(word + (letter,), apply_letter(letter, image), length)

    start = library_minimize(c)
    return (pair for length in range(1, max_length + 1) for pair in extend((), start, length))


# -- input transforms ---------------------------------------------------------------------


def gauge(c: TwistedComplex, rng) -> TwistedComplex:
    """
    An isomorphic copy of c: summand i rescaled by a unit u_i, so entry (i, j)
    becomes u_j x / u_i. Over Q each u_i is a signed fraction of two digits.
    """
    field = c.params.field
    p = field.characteristic
    units = [rng.randrange(1, p) if p else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             for _ in c.summands]
    delta = {(i, j): {name: field.mul(field.mul(units[j], x), field.inv(units[i])) for name, x in combo.items()}
             for (i, j), combo in c.delta.items()}
    return TwistedComplex(c.params, c.summands, delta)


# -- normalizer oracles ---------------------------------------------------------------------


def shift_normalized(c: TwistedComplex) -> tuple[TwistedComplex, int]:
    """
    The reference frame for complexity's relative positions: c shifted so
    its lowest occupied position is 0, and the shift applied.
    """
    if c.is_empty:
        return c, 0
    k = c.min_position()
    return shift(c, k), k


def first_step_holds(c: TwistedComplex) -> bool | None:
    """
    The reference for the end-slot dichotomy reduction_step raises on:
    vertex 1 occupies the bottom iff vertex 0 occupies the top. Only
    meaningful when the complex spans more than one position (returns None
    otherwise: a complex concentrated in one position has nothing to
    balance).
    """
    work, _ = shift_normalized(c)
    if work.is_empty:
        return None
    u, v = work.profile()
    top = max(list(u) + list(v))
    if top == 0:
        return None
    return (v.get(0, 0) > 0) == (u.get(top, 0) > 0)


_RELABEL = {"e0": "e1", "e1": "e0", "p": "q", "q": "p", "f0": "f1", "f1": "f0"}


def relabel(c: TwistedComplex) -> TwistedComplex:
    """
    The A/B-symmetry oracle: the row swap (Q0, Q1) -> (Q1[n-2], Q0), under
    which case B of reduction_step is case A. Vertex-1 summands move to
    vertex 0 with positions dropped by n-2, vertex-0 summands become vertex
    1 in place, and every arrow label swaps accordingly. Involutive up to
    shift.
    """
    if not c.params.spherical:
        raise PreconditionViolated("relabelling swaps the two cores, so both must be spherical")
    drop = c.params.n - 2
    summands = [
        Summand(0, s.position - drop) if s.vertex == 1 else Summand(1, s.position)
        for s in c.summands
    ]
    delta = {slot: {_RELABEL[name]: coeff for name, coeff in combo.items()} for slot, combo in c.delta.items()}
    return _assemble(c.params, summands, delta)
