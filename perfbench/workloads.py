"""
The library workloads: seeded inputs and one pass of timed calls each.

All library workloads run at n = 3 over a fixed field. The seed picks what
does not change the amount of work: the starting shift, the order of the two
cores, a random change of basis (gauge) of each input complex, and the
oracle's search seed. It does not pick n or the core v for self-hom: a pass
costs up to 3.4 times more at n = 3 than at n = 5, and 7 % more from Q_0
than from Q_1, which would make runs with different seeds incomparable.
"""

from __future__ import annotations

import random
from time import perf_counter

from oracle import (
    check_certificate,
    check_hf_total,
    check_length,
    check_self_hom,
    check_verdict,
    step_word,
)

N = 3
PRIME = 32003
PROBE_SIZE = 100


def probe_seconds() -> float:
    """
    Time of a fixed piece of pure-Python work of the engine's kind (rows of
    residues mod p, dict updates) that never touches plumbtwist: how fast the
    host runs at this moment. About 1 ms on a quiet 2-vCPU Xeon VM.
    """
    t0 = perf_counter()
    acc = {}
    for i in range(PROBE_SIZE):
        row = [(i * j + 7) % PRIME for j in range(PROBE_SIZE)]
        acc[i % 13] = (acc.get(i % 13, 0) + sum(row)) % PRIME
    return perf_counter() - t0


class Pass:
    """What one pass did: every timed call, host probes, the oracle's verdicts and the failed checks."""

    def __init__(self):
        self.calls: list[tuple[str, float]] = []
        self.probes: list[float] = []  # one probe_seconds() before each call
        self.verdicts: list[str] = []
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # (case, reason, fatal)
        self.wall = 0.0

    def call(self, kind: str, fn, *args):
        self.attempted += 1
        self.probes.append(probe_seconds())
        t0 = perf_counter()
        result = fn(*args)
        self.calls.append((kind, perf_counter() - t0))
        return result

    def check(self, case: str, problem: str | None, fatal: bool = True) -> None:
        if problem:
            self.failures.append((case, problem, fatal))


def gauge(pt, c, rng: random.Random):
    """An isomorphic copy of c: summand i rescaled by a random unit lambda_i (signs over Q)."""
    field = c.params.field
    if field.characteristic == 0:
        lam = [field.element(rng.choice((1, -1))) for _ in c.summands]
    else:
        lam = [field.element(rng.randrange(1, field.characteristic)) for _ in c.summands]
    delta = {
        (i, j): {name: field.mul(field.mul(lam[j], coeff), field.inv(lam[i])) for name, coeff in combo.items()}
        for (i, j), combo in c.delta.items()
    }
    return pt.TwistedComplex(c.params, c.summands, delta)


def ladder_member(pt, params, v: int, k: int, form: str = "sS"):
    return pt.apply_braid(step_word(v, k, form), pt.single_core(params, v))


# -- pa-ladder ----------------------------------------------------------------------


def setup_pa_ladder(pt, seed: int) -> dict:
    rng = random.Random(seed)
    params = pt.make_params(N, PRIME)
    pt.category_for(params)
    return {"params": params, "order": rng.sample((0, 1), 2), "shift": rng.randint(-4, 4)}


def pass_pa_ladder(pt, st: dict, p: Pass) -> None:
    """k = 1..8 steps of s_v S_{1-v} from each core: thin homs, twists, cone, minimize."""
    ladder(pt, st, p, steps=8)


def ladder(pt, st: dict, p: Pass, steps: int) -> dict:
    params = st["params"]
    members = {}
    for v in st["order"]:
        cores = (pt.single_core(params, v), pt.single_core(params, 1 - v))
        x = pt.shift(cores[0], st["shift"])
        for k in range(1, steps + 1):
            x = p.call("braid", pt.apply_braid, step_word(v), x)
            p.check(f"braid v={v} k={k}", check_length(k, len(x)))
            for same, core in zip((True, False), cores):
                ranks = p.call("hf", pt.hf_ranks, core, x)
                p.check(f"hf v={v} k={k} same={same}", check_hf_total(k, same, pt.total_rank(ranks)))
            members[(v, len(x))] = x
    return members


# -- self-hom -------------------------------------------------------------------------

# Each call is timed at its median over a run's passes, so a pass must be
# short enough to repeat many times in a run. Left out for that reason: length
# 89 (a pass took 15-21 s) and the 2-fold sum at length 34 (2.3 s, half of a
# pass, which then repeated only four or five times).
SELF_HOM_LENGTHS = (13, 34)
SUM_LENGTHS = (13,)
COVER_LENGTHS = (5, 13, 34)
HF_SELF_LENGTHS = (5, 13, 34)


def setup_self_hom(pt, seed: int) -> dict:
    rng = random.Random(seed)
    params = pt.make_params(N, PRIME)
    shift = rng.randint(-4, 4)
    members = {}
    x = pt.single_core(params, 0)
    for k in range(1, 4 + 1):
        x = pt.apply_braid(step_word(0), x)
        members[len(x)] = pt.shift(gauge(pt, x, rng), shift)
    covers = {
        (length, w): pt.specialize(members[length], pt.CoverSpec(w))
        for length in COVER_LENGTHS for w in (0, 1)
    }
    return {"members": members, "covers": covers, "oracle_seed": rng.randrange(1 << 16)}


def pass_self_hom(pt, st: dict, p: Pass) -> None:
    """Dense self-homs: admissibility, the normalizer and the oracle's candidate search."""
    members, seed = st["members"], st["oracle_seed"]
    for length in HF_SELF_LENGTHS:
        ranks = p.call("hf", pt.hf_ranks, members[length], members[length])
        p.check(f"hf(x, x) len={length}", check_self_hom(N, ranks))
    for length in SELF_HOM_LENGTHS:
        normalize_checked(pt, p, f"normalize len={length}", members[length], 1, seed)
    x13 = members[13]
    normalize_checked(pt, p, "normalize 2 x len=13", pt.direct_sum(x13, x13), 2, seed)
    for length in SELF_HOM_LENGTHS:
        x = members[length]
        left = p.call("braid", pt.apply_braid, "s0 s1 s0", x)
        right = p.call("braid", pt.apply_braid, "s1 s0 s1", x)
        equiv_checked(pt, p, f"braid relation len={length}", left, right, "yes", seed)
        if length in SUM_LENGTHS:
            equiv_checked(pt, p, f"braid relation 2 x len={length}",
                          pt.direct_sum(left, left), pt.direct_sum(right, right), "yes", seed)
        equiv_checked(pt, p, f"shift len={length}", x, pt.shift(x, 1), "no", seed)
    for (length, w), spec in st["covers"].items():
        equiv_checked(pt, p, f"cover Q{w} len={length}", members[length], spec, "not-yes", seed)


def normalize_checked(pt, p: Pass, case: str, c, multiplicity: int, seed: int) -> None:
    """normalize, then check the certificate the way a user would: re-apply its word."""
    cert = p.call("normalize", pt.normalize, c, True, seed)
    replayed = p.call("braid", pt.apply_braid, cert.word, c)
    p.check(case, check_certificate(cert, multiplicity, replayed))


def equiv_checked(pt, p: Pass, case: str, a, b, expected: str, seed: int) -> None:
    verdict = p.call("equiv", pt.equivalent, a, b, seed)
    p.verdicts.append(verdict)
    p.check(case, check_verdict(expected, verdict))


# -- rational-ladder -----------------------------------------------------------------------


def setup_rational_ladder(pt, seed: int) -> dict:
    rng = random.Random(seed)
    params = pt.make_params(N, 0)
    pt.category_for(params)
    return {"params": params, "order": rng.sample((0, 1), 2), "shift": rng.randint(-4, 4),
            "oracle_seed": rng.randrange(1 << 16)}


def pass_rational_ladder(pt, st: dict, p: Pass) -> None:
    """
    The Fraction elimination path: the ladder over Q for k = 1..7, then one
    normalize. It normalizes the length-13 member: at length 34 that one call
    took 3.6 s, more than the rest of the pass, too long to repeat steadily.
    """
    members = ladder(pt, st, p, steps=7)
    normalize_checked(pt, p, "normalize len=13 over Q", members[(0, 13)], 1, st["oracle_seed"])
