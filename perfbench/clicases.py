"""
The cli-roundtrip workload: seeded documents and one call of each of the 12
subcommands on them, plus inputs that must be rejected.

Documents mix n = 3 and 4, characteristics 2, 32003 and 0, and a betti0
vector, with at most 34 summands, so start-up, import and serialize dominate.
Every case states the exit code it must give and, where there is one, checks
the output against a known answer. The hostile cases are defects still open
(JSON floats and booleans accepted, a zero denominator escaping as a
traceback): their wrong exit codes are counted and listed, not fatal.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from oracle import check_certificate, check_hf_total, check_length, check_verdict, step_word
from workloads import PRIME, Pass, gauge, ladder_member

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TIMEOUT_S = 60


@dataclass
class Case:
    name: str
    argv: list[str]
    code: int  # the exit code the case must give
    kind: str  # operation it times: braid, hf, normalize, equiv or other
    check: Callable[[object], str | None] | None = None  # on the outputs of a run with the right code
    hostile: bool = False


def _replay(pt, c, multiplicity: int):
    """Check a CLI certificate by re-applying its word to the input in this process."""
    def check(out):
        cert = SimpleNamespace(**out["certificate"])
        return check_certificate(cert, multiplicity, pt.apply_braid(cert.word, c))
    return check


def _hf_betti(betti):
    want = {str(d): b for d, b in enumerate(betti) if b}
    return lambda out: None if out["ranks"] == want else f"ranks {out['ranks']}, expected {want}"


def _specialized(length: int, dead: str):
    def check(out):
        doc = out["complex"]
        if len(doc["summands"]) != length:
            return f"{len(doc['summands'])} summands, expected {length}"
        if any(e["basis"] == dead for e in doc["differential"]):
            return f"{dead} entries survive the cover"
        return None
    return check


def _pieces(lengths):
    want = sorted(lengths)
    return lambda out: None if sorted(len(p["summands"]) for p in out["pieces"]) == want else \
        f"piece sizes {[len(p['summands']) for p in out['pieces']]}, expected {want}"


def _key(key, want):
    return lambda out: None if out.get(key) == want else f"{key} {out.get(key)!r}, expected {want!r}"


def _feasibility(feasible: bool, min_dimv):
    def check(out):
        rep = out["feasibility"]
        got = (rep["feasible"], rep["min_dimv"])
        return None if got == (feasible, min_dimv) else f"(feasible, min_dimv) {got}, expected {(feasible, min_dimv)}"
    return check


def _rank_table(k: int):
    # The cube of s1 s0 is the central boundary twist, so the totals are 3-periodic.
    want = "k,total_rank\n" + "".join(f"{i},{(1, 1, 2)[(i - 1) % 3]}\n" for i in range(1, k + 1))
    return lambda text: None if text == want else f"table {text!r}, expected {want!r}"


def _hostile_doc(**override):
    """A valid two-summand complex Q0 -p-> Q1, with one value replaced."""
    summand = {"vertex": override.get("vertex", 0), "position": 0}
    entry = {"from": 0, "to": 1, "basis": "p", "coeff": override.get("coeff", "1")}
    return {"n": 3, "char": PRIME, "summands": [summand, {"vertex": 1, "position": 0}], "differential": [entry]}


def setup_cli_roundtrip(pt, seed: int) -> dict:
    import plumbtwist.cli  # noqa: F401  (the traced run calls cli.main in this process)

    rng = random.Random(seed)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shift = rng.randint(-3, 3)

    def doc(name, c):
        path = work / f"{name}.json"
        path.write_text(pt.serialize.serialize_complex(pt.shift(gauge(pt, c, rng), shift)), encoding="utf-8")
        return str(path)

    def raw(name, obj):
        path = work / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    fp3, fp4 = pt.make_params(3, PRIME), pt.make_params(4, PRIME)
    q4, f2 = pt.make_params(4, 0), pt.make_params(3, 2)
    betti = (1, 1, 1, 1)
    b3 = pt.make_params(3, PRIME, betti)
    v, w = rng.randrange(2), rng.randrange(2)
    oracle_seed = str(rng.randrange(1 << 16))

    x34 = ladder_member(pt, fp3, v, 4)
    x13 = ladder_member(pt, fp4, w, 3)
    x5 = ladder_member(pt, fp4, w, 2)
    x5_3 = ladder_member(pt, fp3, v, 2)
    paths = {
        "x34": doc("x34", x34),
        "x13": doc("x13", x13),
        "x13_shifted": doc("x13_shifted", pt.shift(x13, 1)),
        "x13_q": doc("x13_q", ladder_member(pt, q4, 1 - w, 3)),
        "core_v": doc("core_v", pt.single_core(fp3, v)),
        "core_q": doc("core_q", pt.single_core(q4, w)),
        "core_f2": doc("core_f2", pt.single_core(f2, v)),
        "core_betti": doc("core_betti", pt.single_core(b3, 0)),
        "sum_5_13": doc("sum_5_13", pt.direct_sum(x5, x13)),
        "left": doc("left", pt.apply_braid("s0 s1 s0", x5_3)),
        "right": doc("right", pt.apply_braid("s1 s0 s1", x5_3)),
        "sum_5_5": doc("sum_5_5", pt.direct_sum(x5, x5)),
    }
    # Certificates are replayed on the documents as the CLI reads them.
    read = {k: pt.serialize.parse_complex(Path(paths[k]).read_text(encoding="utf-8")) for k in ("x34", "sum_5_5")}
    fibre_want = sum(1 for s in x34.summands if s.vertex == v)
    mc_bad = raw("mc_bad", {
        "n": 3, "char": PRIME,
        "summands": [{"vertex": 0, "position": 1}, {"vertex": 1, "position": 1}, {"vertex": 0, "position": 0}],
        "differential": [{"from": 0, "to": 1, "basis": "p", "coeff": "1"},
                         {"from": 1, "to": 2, "basis": "q", "coeff": "1"}],
    })
    schema_bad = raw("schema_bad", {"n": 3, "char": PRIME, "summands": [{"vertex": 2, "position": 0}]})
    seed_flag = ["--seed", oracle_seed]

    def ladder_length(k, form="sS"):
        return lambda out: check_length(k, len(out["complex"]["summands"]), form)

    cases = [
        Case("validate-ladder", ["validate", "--in", paths["x34"]], 0, "other", _key("ok", True)),
        Case("validate-mc-violation", ["validate", "--in", mc_bad], 1, "other",
             lambda out: None if [x["kind"] for x in out["violations"]] == ["maurer-cartan"]
             else f"violations {out['violations']}, expected one maurer-cartan"),
        Case("validate-schema-error", ["validate", "--in", schema_bad], 2, "other", _key("error", "schema-error")),
        Case("hf-ladder", ["hf", "--a", paths["core_v"], "--b", paths["x34"]], 0, "hf",
             lambda out: check_hf_total(4, True, out["total"])),
        Case("hf-rational", ["hf", "--a", paths["core_q"], "--b", paths["x13_q"]], 0, "hf",
             lambda out: check_hf_total(3, False, out["total"])),
        Case("hf-betti0", ["hf", "--a", paths["core_betti"], "--b", paths["core_betti"]], 0, "hf", _hf_betti(betti)),
        Case("hf-mc-violation", ["hf", "--a", mc_bad, "--b", mc_bad], 1, "hf", _key("error", "validation-error")),
        Case("twist-ladder", ["twist", "--in", paths["x13"], "--letter", f"s{w}"], 0, "braid",
             ladder_length(3, "Ss")),
        Case("braid-f2", ["braid", "--in", paths["core_f2"], "--word", step_word(v, 3)], 0, "braid",
             ladder_length(3)),
        Case("braid-usage-error", ["braid", "--in", paths["core_f2"], "--word", "s2 s0"], 2, "braid",
             _key("error", "usage-error")),
        Case("normalize-ladder", seed_flag + ["normalize", "--in", paths["x34"]], 0, "normalize",
             _replay(pt, read["x34"], 1)),
        Case("normalize-sum", seed_flag + ["normalize", "--in", paths["sum_5_5"]], 0, "normalize",
             _replay(pt, read["sum_5_5"], 2)),
        Case("equiv-braid-relation", seed_flag + ["equiv", "--a", paths["left"], "--b", paths["right"]], 0,
             "equiv", lambda out: check_verdict("yes", out["verdict"])),
        Case("equiv-shift", seed_flag + ["equiv", "--a", paths["x13"], "--b", paths["x13_shifted"]], 0,
             "equiv", lambda out: check_verdict("no", out["verdict"])),
        Case("specialize-ladder", ["specialize", "--in", paths["x34"], "--cover-vertex", str(1 - v)], 0, "other",
             _specialized(34, f"f{1 - v}")),
        Case("specialize-mismatch", ["specialize", "--in", paths["x34"], "--cover-vertex", "0",
                                     "--cover-index", "3"], 1, "other", _key("error", "cover-mismatch")),
        Case("decompose-sum", ["decompose", "--in", paths["sum_5_13"]], 0, "other", _pieces((5, 13))),
        Case("fibre-rank", ["fibre-rank", "--in", paths["x34"], "--vertex", str(v)], 0, "other",
             _key("total", fibre_want)),
        Case("feasibility-infeasible", ["--n", "4", "feasibility", "--betti", "1,0,2,0,1"], 0, "other",
             _feasibility(False, None)),
        Case("feasibility-feasible", ["--n", "4", "feasibility", "--betti", "1,0,1,0,1"], 0, "other",
             _feasibility(True, 2)),
        Case("rank-table", ["--n", "3", "rank-table", "--k", "6"], 0, "other", _rank_table(6)),
        Case("orbit-witness", ["--n", "3", "orbit-witness"], 0, "other",
             lambda out: None if (out["word"], out["shift"]) == ("s1 s0", -1)
             else f"witness {out}, expected s1 s0 with shift -1"),
    ]
    for name, override in (("hostile-float-coeff", {"coeff": 0.5}), ("hostile-bool-coeff", {"coeff": True}),
                           ("hostile-bool-vertex", {"vertex": True}),
                           ("hostile-zero-denominator", {"coeff": "1/0"})):
        path = raw(name, _hostile_doc(**override))
        cases.append(Case(name, ["validate", "--in", path], 2, "other", _key("error", "schema-error"), hostile=True))
    return {"cases": cases, "work": work, "env": child_env(), "in_process": False, "cli": sys.modules["plumbtwist.cli"]}


def child_env() -> dict:
    """The environment for a fresh interpreter that imports plumbtwist from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def teardown_cli_roundtrip(st: dict) -> None:
    shutil.rmtree(st["work"], ignore_errors=True)


def _spawn(st: dict, argv: list[str]) -> tuple[int | None, str]:
    try:
        proc = subprocess.run([sys.executable, "-m", "plumbtwist.cli", *argv], cwd=st["work"], env=st["env"],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def _in_process(st: dict, argv: list[str]) -> tuple[int | None, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = st["cli"].main(argv)
        except Exception:  # the interpreter exits 1 on an uncaught exception
            code = 1
    return code, out.getvalue()


def pass_cli_roundtrip(pt, st: dict, p: Pass) -> None:
    """Each case once, one CLI call at a time: a subprocess, or cli.main in this process when traced."""
    invoke = _in_process if st["in_process"] else _spawn
    for case in st["cases"]:
        code, stdout = p.call(case.kind, invoke, st, case.argv)
        if code is None:
            problem = f"timed out after {TIMEOUT_S} s"
        elif code != case.code:
            problem = f"exit {code}, expected {case.code}"
        else:
            problem = None
            if case.check is not None:
                try:
                    payload = stdout if case.name == "rank-table" else json.loads(stdout)["outputs"]
                    if case.kind == "equiv":
                        p.verdicts.append(payload["verdict"])
                    problem = case.check(payload)
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
        p.check(case.name, problem, fatal=not case.hostile)
