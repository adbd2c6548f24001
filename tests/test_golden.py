"""
Golden outputs, pinned as sha256 digests.

The digests were recorded before the dense hom-complex pipeline was replaced
by the sparse elimination core, and any change to elimination must leave them
unchanged: the serialized braid-orbit complexes (the twist builds its cone
from cocycle representatives, so these depend on them) and the cocycle
representatives of hom(core, x) themselves, over F_2, F_32003 and Q.
"""

import hashlib
import random

import pytest

from plumbtwist.category import make_params
from plumbtwist.complexes import hom_complex, single_core
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import apply_braid, word_to_string

from conftest import dense, random_word

GOLDEN = {
    2: "69896894db84fd9bc2d138fa3ca23915e430d2874a1aa5ac91932653cd0ff230",
    32003: "b572ccd316996fe1b3e2474d98007e8c4ffc531c0f93772d40e9701a905d9a2e",
    0: "c836e2b9937e1912be9288c38ebceaae69e5d1ee76ea121adfde18e762efa79f",
}


def golden_words():
    """The s0 S1 ladder to k = 5, then a seeded set of random words."""
    words = [" ".join(["s0 S1"] * k) for k in range(1, 6)]
    rng = random.Random(2011)
    words += [word_to_string(random_word(rng, 6)) for _ in range(12)]
    return words


def golden_lines(characteristic: int):
    params = make_params(3, characteristic)
    field = params.field
    cores = (single_core(params, 0), single_core(params, 1))
    for word in golden_words():
        for start in cores:
            x = apply_braid(word, start)
            yield f"{word} from Q{start.summands[0].vertex}: {serialize_complex(x)}"
            for core in cores:
                hom = hom_complex(core, x)
                reps = hom.cocycle_representatives()
                shown = {g: [[field.format(v) for v in dense(field, vec, len(hom.components[g]))] for vec in vecs]
                         for g, vecs in sorted(reps.items())}
                yield f"  reps hom(Q{core.summands[0].vertex}, x): {shown}"


def golden_digest(characteristic: int) -> str:
    h = hashlib.sha256()
    for line in golden_lines(characteristic):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("characteristic", [2, 32003, 0], ids=["F2", "F32003", "Q"])
def test_golden_complexes_and_cocycle_representatives(characteristic):
    assert golden_digest(characteristic) == GOLDEN[characteristic]
