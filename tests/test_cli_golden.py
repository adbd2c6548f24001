"""
Golden CLI outputs, pinned as sha256 digests.

Every one of the 12 subcommands runs on fixed documents over F_2, F_32003 and
Q, through cli.main in this process. Each case's digest is the sha256 of the
canonical JSON of [exit code, outputs]: the report's "outputs" field, or the
CSV text for rank-table. The "inputs" provenance digest is left out on
purpose, since it depends on the paths of the documents. The digests were
recorded before linalg's dense rank paths were replaced by sparse ones, and
any refactor must leave them unchanged.
"""

import hashlib
import json

import pytest

from plumbtwist.category import make_params
from plumbtwist.cli import main
from plumbtwist.complexes import Summand, TwistedComplex, single_core
from plumbtwist.serialize import serialize_complex
from plumbtwist.twists import apply_braid

GOLDEN = {
    2: {
        "validate": "fd3bae8ad0f9d2509c55f28f09252a96404859bd913add0f419b55a0a95dfbb1",
        "validate-rejected": "5ab0a89643a547bd0625a7e69ab178ecd191455b10e36fa71c74c67bb6b49654",
        "hf": "34c52b57d639d4d5c187fe7f8600a2870dc3f0ca49ef847db7b58c2d09986b8d",
        "hf-self": "22d828f2cdb066f8a1a6ff18c2d1856a7eaaaafe6d84281087097bed429d7713",
        "hf-scaled": "77c3dd1dbf48c86b53a4731259ef59a52a4b8ded69173b1c05b7b11a25c8c45a",
        "twist": "a0be7152607f4e3a2b9c1cdf3766dfde78eada633651cfcde0ff7fbfa14b6664",
        "braid": "82bc5315aab1a9b5d3621e5037268299315ebee3045f19466c232c4406c4cd50",
        "normalize": "e717765918620f4219084850bf4ba25ffdc492f9dc86f2865c94dc8a163c24b9",
        "normalize-inadmissible": "e0307a6b17c659707d29a1029abf3bee12af437bf07c6184da16955efb4b6f16",
        "equiv-yes": "2dd1898fee8cf93dfaf33f79bea565e3d01ec5b0f6c5b30ff48f98e045391513",
        "equiv-no": "8b77e3c0d52508fd014fc6c886776786dc11fbaf1a53e75dba7408b2543416e3",
        "specialize": "8a24c2e3507f508b919abeeacf9e60a81df5877ed547cfc2b95b3f4586ea9132",
        "decompose": "86a4f970ee3cf7229776ac393134508818592e225c6589dae3202cdf508c6531",
        "decompose-obstruction": "74835c0ed6b57d7f93b6b87f2f54d00c2fbfcd3b9a5611c0241f899ade43191d",
        "fibre-rank-0": "1e488e28583b4496ff913ef8c7552a5fca19d166509639936d450f6a22e65e7f",
        "fibre-rank-1": "c9f0488ec8d9d2a73b275fa3477d88040c698e6965224d0411481b525ee4de62",
        "fibre-rank-scaled": "57bf9a03952006e17d0f8f5a34c0449d68cea1b343b615bca8ccea5d8bd4a8fa",
        "feasibility": "bca4a6762abe7758dc5f45fb5ef8bd13c4361751648aa492698f14fc2afacdf0",
        "feasibility-beta-1": "af0aba88e9933be3b234e5dcac678d1b05d21ce683e2b71df96b6091d34884f0",
        "rank-table": "1314c5aa436029ce4c97eb9979545daca867c3261191204f1122baffd1592774",
        "orbit-witness": "6e38d03a8787a2f32aa850299c012dd116c694676d81d750c38f3e817b91608a",
    },
    32003: {
        "validate": "fd3bae8ad0f9d2509c55f28f09252a96404859bd913add0f419b55a0a95dfbb1",
        "validate-rejected": "5ab0a89643a547bd0625a7e69ab178ecd191455b10e36fa71c74c67bb6b49654",
        "hf": "34c52b57d639d4d5c187fe7f8600a2870dc3f0ca49ef847db7b58c2d09986b8d",
        "hf-self": "22d828f2cdb066f8a1a6ff18c2d1856a7eaaaafe6d84281087097bed429d7713",
        "hf-scaled": "baf52a3bb4f16cac46603674f3fa697492cce9f442cbefed7ebbfdafd813fcd1",
        "twist": "938b9f0004981262e687147dc8c2fe4be37def04a82aaf734f665fd3358ca3c0",
        "braid": "4907343fa6955bd942ac8fa15dce6fd8a96a08ebe4442a0a6f70c7c882d20fd5",
        "normalize": "e717765918620f4219084850bf4ba25ffdc492f9dc86f2865c94dc8a163c24b9",
        "normalize-inadmissible": "e0307a6b17c659707d29a1029abf3bee12af437bf07c6184da16955efb4b6f16",
        "equiv-yes": "2dd1898fee8cf93dfaf33f79bea565e3d01ec5b0f6c5b30ff48f98e045391513",
        "equiv-no": "8b77e3c0d52508fd014fc6c886776786dc11fbaf1a53e75dba7408b2543416e3",
        "specialize": "6136fb496ecf72ca86181ff5259f891ff9295ac92f8ea376fb0383edf9df78ee",
        "decompose": "a0f34fcada3c06169adc6ced910efd1fc4b0179d66d99f2e2c932cd8357b693b",
        "decompose-obstruction": "22f767b5be309ab9550f8363a2e82433f17d9f6fa60a42f3f042b64cc5282d8b",
        "fibre-rank-0": "1e488e28583b4496ff913ef8c7552a5fca19d166509639936d450f6a22e65e7f",
        "fibre-rank-1": "c9f0488ec8d9d2a73b275fa3477d88040c698e6965224d0411481b525ee4de62",
        "fibre-rank-scaled": "baf52a3bb4f16cac46603674f3fa697492cce9f442cbefed7ebbfdafd813fcd1",
        "feasibility": "bca4a6762abe7758dc5f45fb5ef8bd13c4361751648aa492698f14fc2afacdf0",
        "feasibility-beta-1": "af0aba88e9933be3b234e5dcac678d1b05d21ce683e2b71df96b6091d34884f0",
        "rank-table": "1314c5aa436029ce4c97eb9979545daca867c3261191204f1122baffd1592774",
        "orbit-witness": "6e38d03a8787a2f32aa850299c012dd116c694676d81d750c38f3e817b91608a",
    },
    0: {
        "validate": "fd3bae8ad0f9d2509c55f28f09252a96404859bd913add0f419b55a0a95dfbb1",
        "validate-rejected": "5ab0a89643a547bd0625a7e69ab178ecd191455b10e36fa71c74c67bb6b49654",
        "hf": "34c52b57d639d4d5c187fe7f8600a2870dc3f0ca49ef847db7b58c2d09986b8d",
        "hf-self": "22d828f2cdb066f8a1a6ff18c2d1856a7eaaaafe6d84281087097bed429d7713",
        "hf-scaled": "baf52a3bb4f16cac46603674f3fa697492cce9f442cbefed7ebbfdafd813fcd1",
        "twist": "45aefd1710a1731adac70ed9f8a3d73c1f04bd2bf959b8a091536ba6fb664e79",
        "braid": "bd111f5b4b96788c3d540438a1389eeba1a3ebcc9cf76a8d81b699fc6a7cc435",
        "normalize": "e717765918620f4219084850bf4ba25ffdc492f9dc86f2865c94dc8a163c24b9",
        "normalize-inadmissible": "e0307a6b17c659707d29a1029abf3bee12af437bf07c6184da16955efb4b6f16",
        "equiv-yes": "2dd1898fee8cf93dfaf33f79bea565e3d01ec5b0f6c5b30ff48f98e045391513",
        "equiv-no": "8b77e3c0d52508fd014fc6c886776786dc11fbaf1a53e75dba7408b2543416e3",
        "specialize": "9cb35722a87fe477f22d39b3821b26ec81f6ee4faa11ae90fbd84753be999a98",
        "decompose": "9e71f801912fe46dc145f9cc3eff5c15acd36c840298ab7bfc8cbb259f4be20e",
        "decompose-obstruction": "628c9580e210021b6275f1e4df904cebe7a7912a852686a4ed971fd1e85e62ad",
        "fibre-rank-0": "1e488e28583b4496ff913ef8c7552a5fca19d166509639936d450f6a22e65e7f",
        "fibre-rank-1": "c9f0488ec8d9d2a73b275fa3477d88040c698e6965224d0411481b525ee4de62",
        "fibre-rank-scaled": "baf52a3bb4f16cac46603674f3fa697492cce9f442cbefed7ebbfdafd813fcd1",
        "feasibility": "bca4a6762abe7758dc5f45fb5ef8bd13c4361751648aa492698f14fc2afacdf0",
        "feasibility-beta-1": "af0aba88e9933be3b234e5dcac678d1b05d21ce683e2b71df96b6091d34884f0",
        "rank-table": "1314c5aa436029ce4c97eb9979545daca867c3261191204f1122baffd1592774",
        "orbit-witness": "6e38d03a8787a2f32aa850299c012dd116c694676d81d750c38f3e817b91608a",
    },
}


def documents(characteristic: int) -> dict[str, str]:
    params = make_params(3, characteristic)
    q0, q1 = single_core(params, 0), single_core(params, 1)
    obstruction = TwistedComplex(params, [Summand(0, 2), Summand(1, 2), Summand(1, 0)],
                                 {(0, 1): {"p": 1}, (1, 2): {"f1": 1}})
    inadmissible = TwistedComplex(params, [Summand(0, 0), Summand(0, 1)])
    scaled = TwistedComplex(params, [Summand(0, 0), Summand(0, 1)], {(0, 1): {"e0": "2"}})  # zero over F_2
    docs = {
        "q0": serialize_complex(q0),
        "q1": serialize_complex(q1),
        "x": serialize_complex(apply_braid("s0 S1 s0 S1", q0)),
        "x-again": serialize_complex(apply_braid("s1 S1 s0 S1 s0 S1", q0)),
        "obstruction": serialize_complex(obstruction),
        "inadmissible": serialize_complex(inadmissible),
        "scaled": serialize_complex(scaled),
    }
    bad = json.loads(docs["obstruction"])
    bad["differential"].append({"from": 0, "to": 2, "basis": "q", "coeff": "1"})
    docs["bad"] = json.dumps(bad)
    return docs


def cases(characteristic: int, path) -> dict[str, list[str]]:
    cover_index = "2" if characteristic == 2 else "infinite"
    return {
        "validate": ["validate", "--in", path("x")],
        "validate-rejected": ["validate", "--in", path("bad")],
        "hf": ["hf", "--a", path("q1"), "--b", path("x")],
        "hf-self": ["hf", "--a", path("x"), "--b", path("x")],
        "hf-scaled": ["hf", "--a", path("q0"), "--b", path("scaled")],
        "twist": ["twist", "--in", path("x"), "--letter", "s1"],
        "braid": ["braid", "--in", path("x"), "--word", "S0 s1 s1"],
        "normalize": ["normalize", "--in", path("x")],
        "normalize-inadmissible": ["normalize", "--in", path("inadmissible")],
        "equiv-yes": ["equiv", "--a", path("x"), "--b", path("x-again")],
        "equiv-no": ["equiv", "--a", path("x"), "--b", path("q0")],
        "specialize": ["specialize", "--in", path("obstruction"), "--cover-vertex", "1",
                       "--cover-index", cover_index],
        "decompose": ["decompose", "--in", path("x")],
        "decompose-obstruction": ["decompose", "--in", path("obstruction")],
        "fibre-rank-0": ["fibre-rank", "--in", path("x"), "--vertex", "0"],
        "fibre-rank-1": ["fibre-rank", "--in", path("x"), "--vertex", "1"],
        "fibre-rank-scaled": ["fibre-rank", "--in", path("scaled"), "--vertex", "0"],
        "feasibility": ["--n", "3", "feasibility", "--betti", "1,1,1,1"],
        "feasibility-beta-1": ["--n", "4", "feasibility", "--betti", "1,0,1,0,1"],
        "rank-table": ["--char", str(characteristic), "rank-table", "--k", "4"],
        "orbit-witness": ["--char", str(characteristic), "orbit-witness"],
    }


def case_digests(characteristic: int, tmp_path, capsys) -> dict[str, str]:
    for name, text in documents(characteristic).items():
        (tmp_path / f"{name}.json").write_text(text)
    out = {}
    for name, argv in cases(characteristic, lambda doc: str(tmp_path / f"{doc}.json")).items():
        code = main(argv)
        text = capsys.readouterr().out
        outputs = text if argv[-3] == "rank-table" else json.loads(text)["outputs"]
        blob = json.dumps([code, outputs], sort_keys=True, separators=(",", ":"))
        out[name] = hashlib.sha256(blob.encode()).hexdigest()
    return out


@pytest.mark.parametrize("characteristic", [2, 32003, 0], ids=["F2", "F32003", "Q"])
def test_golden_cli_outputs(characteristic, tmp_path, capsys):
    assert case_digests(characteristic, tmp_path, capsys) == GOLDEN[characteristic]
