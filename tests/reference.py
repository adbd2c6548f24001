"""
Reference bodies for library operations that were rewritten for speed,
kept as they were so the tests can compare the fast versions against them.

minimize rescans all of delta for each cancellation: it picks the smallest
unit slot with min() over delta and collects the zig-zag's two sides by
filtering delta, so it is quadratic in the number of entries, but it is the
plain statement of the algorithm. decompose restricts the minimized complex
to each piece separately, one pass over delta per piece.
"""

from plumbtwist.complexes import TwistedComplex, _assemble, _compose_slots, require_valid
from plumbtwist.complexes import minimize as library_minimize

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
