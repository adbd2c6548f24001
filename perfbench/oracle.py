"""
Known answers the benchmark checks results against, independent of the engine.

The pseudo-Anosov ladder: from the core Q_v, the word s_v S_{1-v} applied k
times gives a minimal model of F(2k+1) summands with hf(Q_v, .) of total rank
F(2k) and hf(Q_{1-v}, .) of total rank F(2k-1); the word S_{1-v} s_v gives
F(2k+2) summands and totals F(2k), F(2k+1). Floer ranks count arc
intersections (Khovanov-Seidel, arXiv:math/0006056) and those grow by the
dilatation phi^2 (Dimitrov-Haiden-Katzarkov-Kontsevich, arXiv:1307.8418).
Every ladder member is the image of a core under an autoequivalence, so its
endomorphisms are those of a sphere: hf(x, x) = {0: 1, n: 1}.

Each check returns None when the answer is right, or a one-line reason.
"""

from __future__ import annotations


def fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def step_word(v: int, k: int = 1, form: str = "sS") -> str:
    """The ladder word from Q_v: (s_v S_{1-v})^k, or (S_{1-v} s_v)^k for form 'Ss'."""
    pair = f"s{v} S{1 - v}" if form == "sS" else f"S{1 - v} s{v}"
    return " ".join([pair] * k)


def ladder_expectation(k: int, form: str = "sS") -> tuple[int, int, int]:
    """(summands, total of hf(Q_v, x), total of hf(Q_{1-v}, x)) after k steps from Q_v."""
    if form == "sS":
        return fib(2 * k + 1), fib(2 * k), fib(2 * k - 1)
    return fib(2 * k + 2), fib(2 * k), fib(2 * k + 1)


def check_length(k: int, length: int, form: str = "sS") -> str | None:
    want = ladder_expectation(k, form)[0]
    return None if length == want else f"k={k} ({form}): {length} summands, expected F = {want}"


def check_hf_total(k: int, same_core: bool, total: int, form: str = "sS") -> str | None:
    want = ladder_expectation(k, form)[1 if same_core else 2]
    core = "Q_v" if same_core else "Q_{1-v}"
    return None if total == want else f"k={k} ({form}): hf({core}, x) total {total}, expected {want}"


def check_self_hom(n: int, ranks: dict) -> str | None:
    want = {0: 1, n: 1}
    return None if dict(ranks) == want else f"hf(x, x) = {dict(ranks)}, expected {want}"


def check_verdict(expected: str, verdict: str) -> str | None:
    """
    expected is 'yes' or 'no' for pairs with a known answer, and 'not-yes' for
    provably inequivalent pairs the oracle may leave undecided (cover pairs).
    """
    if expected == "not-yes":
        ok = verdict in ("no", "inconclusive")
    else:
        ok = verdict == expected
    return None if ok else f"verdict {verdict!r}, expected {expected}"


def check_certificate(cert, multiplicity: int, replayed) -> str | None:
    """
    A normalizer certificate is right when it claims the known multiplicity and
    its word, re-applied to the input, gives exactly that many copies of the
    claimed shifted core and nothing else.
    """
    if cert.multiplicity != multiplicity:
        return f"certificate multiplicity {cert.multiplicity}, expected {multiplicity}"
    classes = [(s.vertex, s.position) for s in replayed.summands]
    if classes != [(cert.target_vertex, -cert.shift)] * multiplicity or replayed.delta:
        return f"certificate word does not carry the input to Q{cert.target_vertex}[{cert.shift}]^{multiplicity}"
    return None
