"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (rank growth of an alternating word) is checked on the
alternating-sign word T0 T1^-1, whose iterates are pseudo-Anosov: from Q0,
k copies give a minimal model of F(2k+1) summands and hf(Q0, .) of total
rank F(2k), the arc intersection numbers, so the ranks grow strictly.
The alternating positive word T1 T0 cannot grow: its cube is the boundary
twist, the central element of the braid group, which acts on every core as
a pure shift (Q0 goes to Q0[4-3n]; this suite checks that identity
directly). So its rank sequence is exactly 3-periodic, 1, 1, 2, ..., and the
test asserts that too. The companion test right below checks the growth of
iterates of a single twist, which is linear.
"""

import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import (
    Summand,
    TwistedComplex,
    YES,
    equivalent,
    hf_ranks,
    shift,
    single_core,
    total_rank,
    validate,
)
from plumbtwist.covers import CoverSpec, INFINITE, decompose, fibre_rank, specialize, truncation_feasibility
from plumbtwist.normalizer import normalize
from plumbtwist.twists import apply_braid, check_braid_relation, twist

from conftest import random_word
from reference import first_step_holds


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def orbit_corpus():
    """100 seeded braid-orbit complexes, words of length <= 6, n in {3,4,5}."""
    corpus = []
    for n, count in ((3, 34), (4, 33), (5, 33)):
        params = make_params(n)
        q0 = single_core(params, 0)
        rng = random.Random(7000 + n)
        for _ in range(count):
            word = random_word(rng, 6)
            corpus.append((params, word, apply_braid(word, q0)))
    return corpus


def test_ac01_twist_shift_law():
    for n in (3, 4, 5, 6):
        params = make_params(n)
        for vertex in (0, 1):
            q = single_core(params, vertex)
            assert equivalent(twist(q, vertex, 1), shift(q, 1 - n)) == YES, (n, vertex)
    report("ac01 twist-shift law", True, "n in 3..6, both cores, exact")


def test_ac02_grading_axioms():
    for n in (3, 4, 5, 6):
        params = make_params(n)
        q0, q1 = single_core(params, 0), single_core(params, 1)
        assert hf_ranks(q0, q1) == {1: 1}, n
        assert hf_ranks(q0, q0) == {0: 1, n: 1}, n
        assert hf_ranks(q1, q1) == {0: 1, n: 1}, n
    report("ac02 grading axioms", True)


def test_ac03_braid_relation(orbit_corpus):
    verdicts = []
    for n in (3, 4, 5):
        params = make_params(n)
        verdicts.append(check_braid_relation(single_core(params, 0)))
        verdicts.append(check_braid_relation(single_core(params, 1)))
    for _, _, c in orbit_corpus:
        verdicts.append(check_braid_relation(c))
    failures = [v for v in verdicts if v != YES]
    report("ac03 braid relation", not failures,
           f"{len(verdicts)} checks, {len(failures)} non-yes")


def test_ac04_inverse_law(orbit_corpus):
    bad = 0
    checks = 0
    for _, _, c in orbit_corpus:
        for vertex in (0, 1):
            for eps in (1, -1):
                back = twist(twist(c, vertex, eps), vertex, -eps)
                checks += 1
                if equivalent(back, c) != YES:
                    bad += 1
    report("ac04 inverse law", bad == 0, f"{checks} double twists, {bad} failures")


def test_ac05_normalizer_round_trip():
    runs = 0
    for n in (3, 4, 5):
        params = make_params(n)
        q0 = single_core(params, 0)
        rng = random.Random(5200 + n)
        for _ in range(200):
            word = random_word(rng, 8)
            c = apply_braid(word, q0)
            cert = normalize(c)  # raises if the certificate fails re-verification
            assert all(t.cx_before > t.cx_after for t in cert.trace), word
            assert cert.multiplicity == 1, word
            runs += 1
    report("ac05 normalizer round-trip", True, f"{runs} certificates verified")


def test_ac06_end_slot_dichotomy(orbit_corpus):
    violations = [
        word for _, word, c in orbit_corpus if first_step_holds(c) is False
    ]
    report("ac06 end-slot dichotomy", not violations,
           f"{len(orbit_corpus)} complexes, {len(violations)} violations")


def _fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def test_ac07_alternating_word_rank_growth():
    want_lengths = [_fib(2 * k + 1) for k in range(1, 9)]
    want_growth = [_fib(2 * k) for k in range(1, 9)]
    want_periodic = [1, 1, 2] * 2 + [1, 1]
    lengths, growth, periodic, central = {}, {}, {}, {}
    for n in (3, 4):
        params = make_params(n)
        q0 = single_core(params, 0)
        lengths[n], growth[n], periodic[n] = [], [], []
        c = q0
        for _ in range(8):
            c = apply_braid("s0 S1", c)  # one copy of the alternating-sign word
            lengths[n].append(len(c))
            growth[n].append(total_rank(hf_ranks(q0, c)))
        c = q0
        for _ in range(8):
            c = apply_braid("s1 s0", c)  # one copy of the alternating positive word
            periodic[n].append(total_rank(hf_ranks(q0, c)))
        # The cube of the positive word is the boundary twist: a pure shift.
        cubed = apply_braid("s1 s0 s1 s0 s1 s0", q0)
        central[n] = equivalent(cubed, shift(q0, 4 - 3 * n))
    ok = all(
        lengths[n] == want_lengths and growth[n] == want_growth
        and periodic[n] == want_periodic and central[n] == YES
        for n in (3, 4)
    )
    report("ac07 alternating-word rank growth", ok,
           f"(s0 S1)^k totals {growth}, expected F(2k) {want_growth}; lengths {lengths}, "
           f"expected F(2k+1); (s1 s0)^k totals {periodic}, expected 3-periodic "
           f"{want_periodic}; (s1 s0)^3 Q0 ~ Q0[4-3n]: {central}")


def test_ac07_companion_single_twist_growth_is_strict():
    for n in (3, 4):
        params = make_params(n)
        q1 = single_core(params, 1)
        totals = []
        c = q1
        for _ in range(8):
            c = twist(c, 0, 1)
            totals.append(total_rank(hf_ranks(q1, c)))
        assert all(b > a for a, b in zip(totals, totals[1:])), (n, totals)
        assert totals[0] >= 1
    report("ac07-companion single-twist rank growth", True, "1..8 strictly increasing")


def _obstruction_complex(params, arrows=1):
    n = params.n
    top = (n - 1) * arrows
    summands = [Summand(0, top), Summand(1, top)]
    delta = {(0, 1): {"p": 1}}
    pos = top
    for _ in range(arrows):
        pos -= n - 1
        idx = len(summands)
        summands.append(Summand(1, pos))
        delta[(idx - 1, idx)] = {"f1": 1}
    return TwistedComplex(params, summands, delta)


def test_ac08_cover_splitting():
    regimes = [
        (make_params(3, 2), CoverSpec(1, 2)),
        (make_params(3, 0), CoverSpec(1, INFINITE)),
    ]
    for params, cover in regimes:
        pieces = decompose(specialize(_obstruction_complex(params), cover))
        assert len(pieces) == 2, params.field
        assert sorted(sum(fibre_rank(p, 0).values()) for p in pieces) == [0, 1], params.field
        for arrows in (1, 2, 3):
            chain = _obstruction_complex(params, arrows)
            assert len(chain) == arrows + 2
            got = decompose(specialize(chain, cover))
            assert len(got) == arrows + 1, (params.field, arrows)
    report("ac08 cover splitting", True, "finite (F2, index 2) and infinite (Q) regimes")


def test_ac09_feasibility_table():
    checked = 0
    for b1 in range(7):
        for b2 in range(7 - b1):
            for b3 in range(7 - b1 - b2):
                betti = (1, b1, b2, b3, 1)
                beta = b1 + b2 + b3
                rep = truncation_feasibility(betti)
                assert rep.beta == beta
                assert rep.feasible == (beta <= 1), betti
                if beta == 1:
                    assert rep.min_dimv == 2, betti
                checked += 1
    report("ac09 feasibility table", True, f"{checked} Betti vectors at n=4, beta <= 6")


def _regular_representation(cat):
    """Left multiplication matrices of the category algebra over its field."""
    field = cat.params.field
    names = sorted(cat.by_name)
    index = {name: k for k, name in enumerate(names)}
    mats = {}
    for x in names:
        rows = [[field.zero] * len(names) for _ in range(len(names))]
        for y in names:
            if cat.by_name[x].source != cat.by_name[y].target:
                continue
            hit = cat.compose_names(x, y)
            if hit is not None:
                rows[index[hit]][index[y]] = field.one
        mats[x] = rows
    return names, index, mats


def _delta_square_is_zero_by_matrix(c: TwistedComplex) -> bool:
    """Independent oracle: block matrix of left-multiplication operators."""
    cat = c.category
    field = c.params.field
    names, index, mats = _regular_representation(cat)
    dim = len(names)
    size = len(c) * dim
    rows = [[field.zero] * size for _ in range(size)]
    for (i, j), combo in c.delta.items():
        for name, coeff in combo.items():
            block = mats[name]
            for r in range(dim):
                for s in range(dim):
                    if block[r][s]:
                        rows[j * dim + r][i * dim + s] = field.add(
                            rows[j * dim + r][i * dim + s], field.mul(coeff, block[r][s]))
    # Square the block matrix by hand, independently of linalg and Category.compose.
    for row in rows:
        acc = [field.zero] * size
        for a, brow in zip(row, rows):
            if a:
                for k, b in enumerate(brow):
                    if b:
                        acc[k] = field.add(acc[k], field.mul(a, b))
        if any(acc):
            return False
    return True


def test_ac10_mc_rejection():
    params = make_params(3)
    summands = [Summand(0, 2), Summand(1, 2), Summand(0, 1), Summand(1, 1), Summand(0, 0), Summand(1, 0)]
    slots = [
        ((0, 1), "p"), ((2, 3), "p"), ((4, 5), "p"),
        ((1, 2), "q"), ((3, 4), "q"),
        ((0, 4), "f0"), ((1, 5), "f1"),
    ]
    rng = random.Random(10101)
    accepted = rejected = 0
    for _ in range(1000):
        delta = {}
        for slot, name in slots:
            coeff = rng.choice((0, 0, 1, 2))
            if coeff:
                delta.setdefault(slot, {})[name] = coeff
        c = TwistedComplex(params, summands, delta)
        ok_validate = validate(c) == []
        ok_square = _delta_square_is_zero_by_matrix(c)
        assert ok_validate == ok_square, delta
        if ok_validate:
            accepted += 1
        else:
            rejected += 1
    assert accepted and rejected, "the random family must exercise both outcomes"

    n = params.n
    obstructed = TwistedComplex(
        params,
        [Summand(1, n - 2), Summand(0, 0), Summand(1, 0)],
        {(0, 1): {"q": 1}, (1, 2): {"p": 1}},
    )
    bad = validate(obstructed)
    assert [v.kind for v in bad] == ["maurer-cartan"]
    assert bad[0].slot == (0, 2)  # the (vertex-1 at n-2) -> (vertex-1 at 0) slot
    report("ac10 Maurer-Cartan rejection", True,
           f"1000 assignments, {accepted} accepted / {rejected} rejected, obstruction slot named")


def test_ac11_endomorphism_preservation(orbit_corpus):
    from plumbtwist.normalizer import admissible

    bad = []
    for params, word, c in orbit_corpus:
        ranks = hf_ranks(c, c)
        if ranks != {0: 1, params.n: 1} or not admissible(c).ok:
            bad.append((params.n, word, ranks))
    report("ac11 endomorphism preservation", not bad,
           f"{len(orbit_corpus)} complexes, {len(bad)} deviations")
