"""
Golden normalizer outputs, pinned as sha256 digests.

Two corpora per (n, characteristic), for n = 3, 4, 5 over F_2, F_32003 and Q:

- certificates: normalize(c).to_dict() for seeded braid images of both cores;
- steps: the outcome of reduction_step on seeded complexes that are
  minimized, shift-normalized, of positive complexity and not admissible:
  direct sums of shifted braid images, and sums of bare cores spread over
  fewer than n - 1 positions. The outcome is the step's letters, case tag
  and complexities, or the exception class and message. Each complex is
  stepped twice: with the defaults, and without structural checks and with
  a one-letter search.

Tags and messages are CLI output (normalize reports them), so a refactor of
the case analysis must leave these digests unchanged. Between them the two
corpora reach the tags A1, A2, B1, B2, base-A1, base-A2, base-B1 (only in
certificates), base-B2 and fallback, and the message of every
NormalizerDeadEnd and ComplexityNotReduced that reduction_step raises.
"""

import hashlib
import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import direct_sum, minimize, shift, shift_normalized, single_core
from plumbtwist.normalizer import NormalizeError, admissible, complexity, normalize, reduction_step
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import apply_braid, word_to_string

from conftest import random_word

CASES = [(n, characteristic) for n in (3, 4, 5) for characteristic in (2, 32003, 0)]

GOLDEN_CERTIFICATES = {
    (3, 2): "bfa60680228953dea030e9139cfefc86d58012c6de5c99d14aabcd70421fc732",
    (3, 32003): "c490f92b697ad68108ccc645fe90577b8e361e24bdc7ae5134ad330fdb1c330c",
    (3, 0): "6c94d0fac7558cc46a0fd99796f27a23a976075efd618b95571147268ca444d6",
    (4, 2): "9efcdb960385e2541f95713b328610731740e81961b7f0c445bb5c14ba27f380",
    (4, 32003): "d04c6a968a9954f74de52153f4d05546fdc9a64b8e46b4e60935afdae141e37d",
    (4, 0): "dd3973e0cf8a6af67ca8b3a7f9b78ccba83d29f20d392d0b5fe4128875be5f10",
    (5, 2): "8ce9bfa25a65a2cb56462acc8b3e2df512c2016ce376fc6462995bb0c1bfc270",
    (5, 32003): "bd0904b08b51842f57a0b20d0f39862087e967e0867362f80dfa32536ce1cf08",
    (5, 0): "8b00b3c20f3652ecc3ed76212d6f04bb4e28339d3eed6ada3781f3866b0f8cc4",
}

GOLDEN_STEPS = {
    (3, 2): "69c3479ec35778b5a53a123be394452a052b078c23abf9ee8639abd2027b2bdd",
    (3, 32003): "8d85aecb19ea4aa83c79dd8cf4f7823d421cf9a0e32480aabf54f93aa549ed30",
    (3, 0): "03ff9917e27745cc7a1af430c7a074a2a16fa8f9c4c3bed1fc4bd2b48597425e",
    (4, 2): "c74efc09405afb8e91b7b5110fed1727433763539ed7e56d5c7e4a4b78ecd6be",
    (4, 32003): "8da14dc5402aa0d94042f83fd6be3ecf07da246528a008ed2e7c7145f23799b3",
    (4, 0): "b43fad1b528c4ce214c2365abddd454d879d3917ce528f68a86583b97614cea7",
    (5, 2): "c58f39945dd9d93533216b98fd7446a792ad8d638ef1646c5cfad8484f8c67c7",
    (5, 32003): "c57f8e0d7ae420975c7e478446d62c96930146b2198eff0be46cd948ab8be7e6",
    (5, 0): "d6b32f07c418f2015ac2a572098036bd86da845f4c99516115a48a467f9c28d9",
}


def _rng(n: int, characteristic: int, salt: int) -> random.Random:
    return random.Random(f"{salt}/{n}/{characteristic}")


def certificate_lines(n: int, characteristic: int, count: int = 20):
    params = make_params(n, characteristic)
    cores = (single_core(params, 0), single_core(params, 1))
    rng = _rng(n, characteristic, 1)
    for _ in range(count):
        word = random_word(rng, 6)
        start = rng.choice(cores)
        cert = normalize(apply_braid(word, start)).to_dict()
        yield f"{word_to_string(word)} from Q{start.summands[0].vertex}: {cert}"


def inadmissible_corpus(n: int, characteristic: int, count: int = 60):
    """
    Seeded complexes reduction_step accepts as input but normalize would
    reject: sums of shifted braid images, then sums of bare cores spread over
    fewer than n - 1 positions, which reach the base case.
    """
    params = make_params(n, characteristic)
    cores = (single_core(params, 0), single_core(params, 1))
    rng = _rng(n, characteristic, 2)
    found = 0
    while found < count:
        short = found >= count // 2
        x = rng.choice(cores) if short else apply_braid(random_word(rng, 4, 0), rng.choice(cores))
        for _ in range(rng.randrange(1, 3)):
            if short:
                x = direct_sum(x, shift(rng.choice(cores), -rng.randrange(n - 1)))
            else:
                y = apply_braid(random_word(rng, 4, 0), rng.choice(cores))
                x = direct_sum(x, shift(y, rng.randrange(-n - 1, n + 2)))
        x, _ = shift_normalized(minimize(x))
        if x.is_empty or complexity(x).cx == 0 or admissible(x).ok:
            continue
        found += 1
        yield x


def step_outcome(x, **kwargs) -> str:
    try:
        step = reduction_step(x, **kwargs)
    except NormalizeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{word_to_string(step.letters)} {step.case} {step.cx_before}->{step.cx_after}"


def step_lines(n: int, characteristic: int):
    for x in inadmissible_corpus(n, characteristic):
        yield serialize_complex(x)
        yield "  " + step_outcome(x)
        yield "  " + step_outcome(x, structural_checks=False, bfs_length=1)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n,characteristic", CASES)
def test_golden_certificates(n, characteristic):
    assert digest(certificate_lines(n, characteristic)) == GOLDEN_CERTIFICATES[(n, characteristic)]


@pytest.mark.parametrize("n,characteristic", CASES)
def test_golden_reduction_steps(n, characteristic):
    assert digest(step_lines(n, characteristic)) == GOLDEN_STEPS[(n, characteristic)]
