"""
validate makes one unsorted scan over delta and words only the slots it
flags. The sorted, slot-by-slot walk it replaced is kept here as the
reference, and the two must return the same Violation list, element for
element, on seeded valid and corrupted complexes over F_2, F_32003 and Q.
"""

import graphlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from plumbtwist.category import category_for, make_params
from plumbtwist.complexes import (
    Summand,
    TwistedComplex,
    Violation,
    _find_cycle,
    direct_sum,
    maurer_cartan_defects,
    shift,
    single_core,
    validate,
)
from plumbtwist.twists import apply_braid

from conftest import random_word

FIELDS = (2, 32003, 0)


def reference_validate(c: TwistedComplex) -> list[Violation]:
    """The sorted walk over delta: every slot checked in order, then the cycle, reach and Maurer-Cartan checks."""
    cat = c.category
    n = c.params.n
    out = [Violation("vertex", None, f"summand {i} sits on vertex {s.vertex}; the cores are Q0 and Q1")
           for i, s in enumerate(c.summands) if s.vertex not in (0, 1)]
    for (i, j), combo in sorted(c.delta.items()):
        if not (0 <= i < len(c)) or not (0 <= j < len(c)):
            return [Violation("degree", (i, j), "entry indexes a missing summand")]
        if i == j:
            out.append(Violation("triangularity", (i, j), "self-loop entry"))
        a, b = c.summands[i], c.summands[j]
        want = a.position - b.position + 1
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

    if not c.is_empty:
        floor = c.min_position() + n - 1
        for (i, j), combo in sorted(c.delta.items()):
            if any(name in ("f0", "f1") for name in combo) and c.summands[i].position < floor:
                out.append(Violation("reach", (i, j), f"top-class entry leaves position {c.summands[i].position}, "
                                                      f"below minimum+n-1 = {floor}"))

    if not any(v.kind in ("vertex", "degree") for v in out):
        out.extend(maurer_cartan_defects(c))
    return out


def valid_corpus(rng: random.Random, characteristic: int) -> list[TwistedComplex]:
    """Braid images of both cores, a shifted one and a direct sum, at n = 3 and 4."""
    out = []
    for n in (3, 4):
        params = make_params(n, characteristic)
        for v in (0, 1):
            out.append(apply_braid(random_word(rng, 5), single_core(params, v)))
        out.append(shift(out[-1], rng.randint(-3, 3)))
        out.append(direct_sum(out[-2], out[-3]))
    return [c for c in out if c.delta]


def _random_value(rng, field):
    """A nonzero field element: 1..6 or its negative, redrawn while it vanishes (over F_2, the even ones)."""
    while True:
        x = field.element(rng.randrange(1, 7) * rng.choice((1, -1)))
        if x:
            return x


def _rebuilt(c, summands=None, delta=None) -> TwistedComplex:
    return TwistedComplex(c.params, c.summands if summands is None else summands, c.delta if delta is None else delta)


def _well_typed_slots(c):
    """Slots (i, j), i != j and not yet in delta, with the basis names that fit them by vertices and degree."""
    cat = c.category
    out = []
    for i, a in enumerate(c.summands):
        for j, b in enumerate(c.summands):
            if i != j and (i, j) not in c.delta:
                names = [m.name for m in cat.morphism_space(a.vertex, b.vertex) if m.degree == a.position - b.position + 1]
                if names:
                    out.append(((i, j), names))
    return out


def corruptions(c: TwistedComplex, rng: random.Random) -> dict[str, TwistedComplex]:
    """One corrupted copy of c per kind of defect, keyed by the kind."""
    field = c.params.field
    size = len(c)
    names = sorted(category_for(c.params).by_name)
    slots = sorted(c.delta)
    out = {}

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    for _ in range(3):
        i, j = rng.randrange(size), rng.randrange(size)
        delta[rng.choice(((i, size + rng.randrange(3)), (size + rng.randrange(3), j), (-1 - rng.randrange(2), j)))] = {
            rng.choice(names): _random_value(rng, field)}
    out["dangling"] = _rebuilt(c, delta=delta)

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    for k in rng.sample(range(size), min(size, 2)):
        delta[(k, k)] = {rng.choice(names): _random_value(rng, field)}
    out["self-loop"] = _rebuilt(c, delta=delta)

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    delta[rng.choice(slots)]["zz"] = _random_value(rng, field)
    slot = rng.choice(slots)
    a, b = c.summands[slot[0]], c.summands[slot[1]]
    wrong = [m.name for m in category_for(c.params).by_name.values() if (m.source, m.target) != (a.vertex, b.vertex)]
    delta[slot][rng.choice(wrong)] = _random_value(rng, field)
    out["names"] = _rebuilt(c, delta=delta)

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    for i, j in rng.sample(slots, len(slots)):
        a, b = c.summands[i], c.summands[j]
        typed = [m.name for m in category_for(c.params).morphism_space(a.vertex, b.vertex)
                 if m.degree != a.position - b.position + 1]
        if typed:
            delta[(i, j)][rng.choice(typed)] = _random_value(rng, field)
    out["degree"] = _rebuilt(c, delta=delta)

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    i, j = rng.choice(slots)
    delta[(j, i)] = {rng.choice(names): _random_value(rng, field)}
    out["cycle"] = _rebuilt(c, delta=delta)

    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    low = min(range(size), key=lambda k: c.summands[k].position)
    top = "f0" if c.summands[low].vertex == 0 else "f1"
    delta[(low, rng.choice([k for k in range(size) if k != low]))] = {top: _random_value(rng, field)}
    out["reach"] = _rebuilt(c, delta=delta)

    # A well-typed entry added where it fits, and a q-then-p chain whose square is a top class of Q1.
    delta = {slot: dict(combo) for slot, combo in c.delta.items()}
    typed = _well_typed_slots(c)
    if typed:
        slot, fits = rng.choice(typed)
        delta[slot] = {rng.choice(fits): _random_value(rng, field)}
    t = rng.randint(0, 2) + c.min_position()
    summands = list(c.summands) + [Summand(1, t + c.params.n - 2), Summand(0, t), Summand(1, t)]
    delta[(size, size + 1)] = {"q": _random_value(rng, field)}
    delta[(size + 1, size + 2)] = {"p": _random_value(rng, field)}
    out["maurer-cartan"] = _rebuilt(c, summands=summands, delta=delta)

    summands = list(c.summands)
    for k in rng.sample(range(size), min(size, 2)):
        summands[k] = Summand(rng.choice((2, -1)), summands[k].position)
    out["off-core"] = _rebuilt(c, summands=summands)
    return out


def random_complex(rng: random.Random, characteristic: int) -> TwistedComplex:
    """Summands and entries drawn at random, most of them ill-formed somewhere."""
    # (1, 1, 1, 1) gives Q0 a degree-1 class x1, so a self-loop can be well-typed.
    params = rng.choice((make_params(3, characteristic), make_params(4, characteristic),
                         make_params(3, characteristic, (1, 1, 1, 1))))
    names = sorted(category_for(params).by_name) + ["zz"]
    size = rng.randint(1, 7)
    summands = [Summand(rng.choice((0, 0, 1, 1, 2)), rng.randint(-3, 3)) for _ in range(size)]
    delta = {}
    for _ in range(rng.randint(0, 9)):
        slot = (rng.randrange(-1, size + 1), rng.randrange(-1, size + 1))
        delta[slot] = {rng.choice(names): _random_value(rng, params.field) for _ in range(rng.randint(1, 3))}
    return TwistedComplex(params, summands, delta)


@pytest.mark.parametrize("characteristic", FIELDS)
def test_validate_equals_the_sorted_walk_on_valid_and_corrupted_complexes(characteristic):
    rng = random.Random(1600 + characteristic)
    seen: dict[str, set[str]] = {}
    for c in valid_corpus(rng, characteristic):
        assert validate(c) == reference_validate(c) == []
        for defect, bad in corruptions(c, rng).items():
            found = validate(bad)
            assert found == reference_validate(bad), (defect, bad)
            seen.setdefault(defect, set()).update(v.kind for v in found)
    # Every corruption is caught, as the defect it was made to be.
    assert seen["dangling"] == {"degree"}
    assert seen["self-loop"] >= {"triangularity", "degree"}
    assert "degree" in seen["names"]
    assert "degree" in seen["degree"]
    assert "triangularity" in seen["cycle"]
    assert "reach" in seen["reach"]
    assert "maurer-cartan" in seen["maurer-cartan"]
    assert "vertex" in seen["off-core"]


@pytest.mark.parametrize("characteristic", FIELDS)
def test_validate_equals_the_sorted_walk_on_random_complexes(characteristic):
    rng = random.Random(7 + characteristic)
    kinds = set()
    for _ in range(400):
        c = random_complex(rng, characteristic)
        found = validate(c)
        assert found == reference_validate(c), c
        kinds.update(v.kind for v in found)
    # Random entries are nearly always ill-typed, so the Maurer-Cartan check is reached from the corruptions above.
    assert kinds >= {"vertex", "degree", "triangularity", "reach"}


def test_validate_reports_the_smallest_dangling_slot_alone():
    P = make_params(3)
    c = TwistedComplex(P, [Summand(2, 0), Summand(0, 0)],
                       {(0, 0): {"zz": 1}, (5, 0): {"p": 1}, (1, 4): {"p": 1}, (1, -1): {"e0": 1}})
    assert validate(c) == reference_validate(c) == [Violation("degree", (1, -1), "entry indexes a missing summand")]


def test_validate_reports_a_well_typed_self_loop():
    P = make_params(3, 32003, (1, 1, 1, 1))
    c = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 0): {"x1": 1}, (0, 1): {"p": 1}})
    found = validate(c)
    assert found == reference_validate(c)
    assert [(v.kind, v.slot) for v in found][:2] == [("triangularity", (0, 0)), ("triangularity", None)]


@st.composite
def digraphs(draw):
    """A node count of 1 to 9 and distinct edges (i, j) between those nodes, self-loops included."""
    size = draw(st.integers(1, 9))
    node = st.integers(0, size - 1)
    return size, draw(st.lists(st.tuples(node, node), unique=True, max_size=3 * size))


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_find_cycle_is_the_cycle_graphlib_reports(graph):
    # graphlib searches its nodes in insertion order and each node's successors in edge order,
    # as _find_cycle does, so the two report the same cycle, not just some cycle.
    size, edges = graph
    sorter = graphlib.TopologicalSorter()
    for k in range(size):
        sorter.add(k)
    for i, j in edges:
        sorter.add(j, i)
    try:
        sorter.prepare()
        expected = None
    except graphlib.CycleError as exc:
        expected = exc.args[1]
    assert _find_cycle(size, edges) == expected
