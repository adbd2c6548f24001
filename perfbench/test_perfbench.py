"""
Self-tests of the benchmark: python3 -m pytest perfbench -q

They check that the known answers hold on the engine at small sizes, that
the checker catches wrong answers, and that the runs print what
BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import plumbtwist as pt  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("form", ("sS", "Ss"))
def test_ladder_closed_forms_hold(n, form):
    params = pt.make_params(n)
    for v in (0, 1):
        cores = (pt.single_core(params, v), pt.single_core(params, 1 - v))
        x = cores[0]
        for k in range(1, 5):
            x = pt.apply_braid(oracle.step_word(v, 1, form), x)
            assert oracle.check_length(k, len(x), form) is None
            for same, core in zip((True, False), cores):
                assert oracle.check_hf_total(k, same, pt.total_rank(pt.hf_ranks(core, x)), form) is None
            if len(x) <= 13:
                assert oracle.check_self_hom(n, pt.hf_ranks(x, x)) is None


def test_cover_pairs_are_provably_inequivalent():
    params = pt.make_params(3)
    for k in (2, 3):  # 5 and 13 summands; at 2 there is no top-class entry for a cover to kill
        x = pt.apply_braid(oracle.step_word(0, k), pt.single_core(params, 0))
        for w in (0, 1):
            spec = pt.specialize(x, pt.CoverSpec(w))
            assert pt.hf_ranks(spec, spec) != pt.hf_ranks(x, x)


def test_checker_catches_wrong_fibonacci_rank(monkeypatch):
    st = {"params": pt.make_params(3), "order": [0, 1], "shift": 2}
    p = workloads.Pass()
    workloads.ladder(pt, st, p, steps=4)
    assert p.failures == []

    real = oracle.fib
    monkeypatch.setattr(oracle, "fib", lambda i: real(i) + (i == 6))  # F(6) = 8 is hf(Q_v, x) at k = 3
    p = workloads.Pass()
    workloads.ladder(pt, st, p, steps=4)
    assert sorted(case for case, _, fatal in p.failures if fatal) == ["hf v=0 k=3 same=True", "hf v=1 k=3 same=True"]


def test_checker_catches_forged_yes_on_cover_pair(monkeypatch):
    assert oracle.check_verdict("not-yes", "yes") is not None
    assert oracle.check_verdict("not-yes", "inconclusive") is None
    monkeypatch.setattr(workloads, "SELF_HOM_LENGTHS", (13,))
    monkeypatch.setattr(workloads, "SUM_LENGTHS", (13,))
    monkeypatch.setattr(workloads, "HF_SELF_LENGTHS", (5,))
    monkeypatch.setattr(workloads, "COVER_LENGTHS", (5, 13))
    st = workloads.setup_self_hom(pt, 7)
    p = workloads.Pass()
    workloads.pass_self_hom(pt, st, p)
    assert p.failures == []

    monkeypatch.setattr(pt, "equivalent", lambda a, b, seed=0: "yes")
    p = workloads.Pass()
    workloads.pass_self_hom(pt, st, p)
    forged = sorted(case for case, _, fatal in p.failures if fatal)
    assert forged == ["cover Q0 len=13", "cover Q0 len=5", "cover Q1 len=13", "cover Q1 len=5", "shift len=13"]


def test_checker_catches_wrong_certificate():
    params = pt.make_params(3)
    x = pt.apply_braid(oracle.step_word(0, 2), pt.single_core(params, 0))
    cert = pt.normalize(x)
    assert oracle.check_certificate(cert, 1, pt.apply_braid(cert.word, x)) is None
    assert oracle.check_certificate(cert, 2, pt.apply_braid(cert.word, x)) is not None
    assert oracle.check_certificate(cert, 1, pt.apply_braid(cert.word[:-1], x)) is not None


@pytest.fixture(scope="module")
def traced():
    proc = run_bench("--workload", "cli-roundtrip", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return last_json(proc.stdout), json.loads((ROOT / ".perfbench_out" / "trace-cli-roundtrip-seed5.json").read_text())


def test_traced_run_emits_every_per_layer_metric(traced):
    result, _ = traced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_untraced_run_emits_every_end_to_end_metric():
    proc = run_bench("--workload", "cli-roundtrip", "--seed", "6", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name in ("hostile-float-coeff", "hostile-bool-coeff", "hostile-bool-vertex", "hostile-zero-denominator"):
        assert name in proc.stdout


def test_self_times_add_up_within_traced_wall(traced):
    result, spans = traced
    rows = spans["spans"]
    names = spans["names"]
    children = [0.0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0:
            children[parent] += end - start
    for k, (name, start, end, parent) in enumerate(rows):
        assert end - start - children[k] >= -1e-6, names[name]
    roots = [k for k, row in enumerate(rows) if names[row[0]] == "pass"]
    assert roots
    for k, nxt in zip(roots, roots[1:] + [len(rows)]):
        wall = rows[k][2] - rows[k][1]
        layer_self = sum(rows[i][2] - rows[i][1] - children[i] for i in range(k + 1, nxt))
        assert layer_self <= wall + 1e-9
    metrics = result["metrics"]
    layer_self = sum(v["value"] for name, v in metrics.items()
                     if v["unit"] == "s" and not name.startswith(("trace.", "cli.import")))
    assert layer_self <= metrics["trace.wall_s"]["value"]


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench("--workload", "pa-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
