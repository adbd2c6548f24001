"""
Golden normalizer outputs, pinned as sha256 digests.

Three corpora, for n = 3, 4, 5 over F_2, F_32003 and Q:

- certificates: normalize(c).to_dict() for seeded braid images of both cores;
- steps: the outcome of one reduction_step on seeded complexes that are
  minimized, shift-normalized, of positive complexity and not admissible:
  direct sums of shifted braid images, and sums of bare cores spread over
  fewer than n - 1 positions. The outcome is the step's letters, case tag
  and complexities, or the exception class and message;
- non-spherical: normalize's certificate, or the class of the exception it
  raises, on seeded braid images of both cores over a non-spherical Q0 (one
  Betti vector per row of NON_SPHERICAL), every other one summed with a
  shifted second image. A message may change; a verdict may not. It
  reaches certificates, InadmissibleInput, NormalizerDeadEnd and the
  refusal of case B over a non-spherical Q0.

Certificates are CLI output (normalize reports them). Every input in the
step corpus is inadmissible, so normalize raises InadmissibleInput for each
one and none of the step messages reach the CLI: that corpus pins
reduction_step itself. A refactor of the case analysis must leave every
digest unchanged. Between them the first two corpora reach the tags A1, A2, B1,
B2, base-A1, base-A2, base-B1 (only in certificates) and base-B2, every
NormalizerDeadEnd message of the main case and of the base case, and one
ComplexityNotReduced.

Run as a script, it prints the lines one digest hashes, so a re-pin can be
diffed line by line:

    PYTHONPATH=src python tests/test_normalizer_golden.py steps 3 2
    PYTHONPATH=src python tests/test_normalizer_golden.py non-spherical 4 0 1,0,2,0,1
"""

import hashlib
import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import direct_sum, minimize, shift, single_core
from plumbtwist.normalizer import NormalizeError, admissible, complexity, normalize, reduction_step
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import apply_braid, word_to_string

from conftest import random_word
from reference import shift_normalized

CASES = [(n, characteristic) for n in (3, 4, 5) for characteristic in (2, 32003, 0)]

NON_SPHERICAL = [(3, (1, 1, 1, 1)), (4, (1, 0, 2, 0, 1)), (4, (1, 1, 0, 1, 1)), (5, (1, 0, 1, 1, 0, 1))]

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
    (3, 2): "adb25f1f293e723261ee566eb408edf827f89dbec814fc97b8d85e603e81ef12",
    (3, 32003): "82b9bcab48477ae4c5c47197c0ce338f4b8e8cb8da92c61459b063f1caa6634b",
    (3, 0): "e2abd25efba7b25c0a1d8bd3aaa7501ab23ec22e500cf295b591b233d5953179",
    (4, 2): "d0d995babebeeeba4b91c1d50deb00251c554c037a86e5b50dfee8b8ffa23d6c",
    (4, 32003): "767cb4387e6b1228346d0db35bbc6ebcb6f3402f588dfd788b1a7f9a01717bc0",
    (4, 0): "3c81693d8093f858ee929376605ea2d46ba0153dc0a30acca100975a087a7c89",
    (5, 2): "a031a81e257fb85985e9d2fc53b5a4ed4ca95f7aeae0b87f8d94b3eb84d3f4bd",
    (5, 32003): "7782e7b91d16ba7779f1e70534ecb1929fdc564246818abf0109e36ee18cebd7",
    (5, 0): "37564992b2f344505d5db0e5266b5b624e5c06907f473ce890a596f849ac0439",
}

GOLDEN_NON_SPHERICAL = {
    (3, (1, 1, 1, 1), 2): "cc4f9fcb004d7338ef80cfa3c51be891f73bfccaa9e6507d15680e7d67afde6b",
    (3, (1, 1, 1, 1), 32003): "7c4f0c7b4d066f0aca420a8380e358110c1645417170152771644d326804bb43",
    (3, (1, 1, 1, 1), 0): "5c70f49479b0d9c16f9cb0e1a0b9d07c7f4543a79508340bba4b43214e9db70a",
    (4, (1, 0, 2, 0, 1), 2): "0521f37bedc36bed3dde0cf1681e844d41e07ed06cc5e5b79a6eb27d7cc3d1ec",
    (4, (1, 0, 2, 0, 1), 32003): "933b7ce27136256a4b5a875ca19de8550f136cd60129fae2a561e1c2bd434b3f",
    (4, (1, 0, 2, 0, 1), 0): "3962599035dafec6c7c6a262379fbd1a85f41ded5d946e480a59b6d6c197333e",
    (4, (1, 1, 0, 1, 1), 2): "61c98100763313249067b7713040ad9d76bc033e4607ebbf37a9608e272441db",
    (4, (1, 1, 0, 1, 1), 32003): "3da19644103e48a7d33ed2e2341d42d142ab989c19701c1f02335cc35dfc2944",
    (4, (1, 1, 0, 1, 1), 0): "aa0bc4b91dce43de448afd4698a94cc27db6150ac030d1826acabc02b16b4850",
    (5, (1, 0, 1, 1, 0, 1), 2): "52a8cc3d06b67e9bb9098bf9a1760678e87ceb95c952446e93c87b0a928d1924",
    (5, (1, 0, 1, 1, 0, 1), 32003): "6d86e14b0b5e1a3adc82d3b6a14e09ab95d1a03b0f81704ac7a4ff90a1fcc102",
    (5, (1, 0, 1, 1, 0, 1), 0): "63c74511c99022b0769b70b3fd971e9e308a32bab4fe3dbe6d334fd3e7bc74a1",
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


def step_outcome(x) -> str:
    try:
        step, _ = reduction_step(x)
    except NormalizeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{word_to_string(step.letters)} {step.case} {step.cx_before}->{step.cx_after}"


def step_lines(n: int, characteristic: int):
    for x in inadmissible_corpus(n, characteristic):
        yield serialize_complex(x)
        yield "  " + step_outcome(x)


def non_spherical_lines(n: int, betti0: tuple[int, ...], characteristic: int, count: int = 40):
    params = make_params(n, characteristic, betti0)
    cores = (single_core(params, 0), single_core(params, 1))
    rng = random.Random(f"3/{n}/{betti0}/{characteristic}")
    for k in range(count):
        x = apply_braid(random_word(rng, 4), rng.choice(cores))
        if k % 2:
            y = apply_braid(random_word(rng, 4), rng.choice(cores))
            x = direct_sum(x, shift(y, rng.randrange(-n, n + 1)))
        yield serialize_complex(x)
        try:
            yield f"  {normalize(x).to_dict()}"
        except NormalizeError as exc:
            yield f"  {type(exc).__name__}"


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


@pytest.mark.parametrize("n,betti0", NON_SPHERICAL)
@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_golden_non_spherical_verdicts(n, betti0, characteristic):
    assert digest(non_spherical_lines(n, betti0, characteristic)) == GOLDEN_NON_SPHERICAL[(n, betti0, characteristic)]


if __name__ == "__main__":
    import sys

    corpus, n, characteristic, *betti0 = sys.argv[1:]
    n, characteristic = int(n), int(characteristic)
    if corpus == "certificates":
        lines = certificate_lines(n, characteristic)
    elif corpus == "steps":
        lines = step_lines(n, characteristic)
    elif corpus == "non-spherical":
        lines = non_spherical_lines(n, tuple(int(b) for b in betti0[0].split(",")), characteristic)
    else:
        sys.exit(f"unknown corpus {corpus!r}; expected certificates, steps or non-spherical")
    for line in lines:
        print(line)
