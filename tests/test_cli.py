import json
import os
import re
import subprocess
import sys

import pytest

import plumbtwist
from plumbtwist import category, cli, twists
from plumbtwist.category import MAX_BETTI, MAX_CHARACTERISTIC, MAX_N, make_params
from plumbtwist.cli import main
from plumbtwist.complexes import Morphism, Summand, TwistedComplex, _search_kernel, cone, direct_sum, single_core, validate
from plumbtwist.serialize import (
    DocumentError,
    ValidationRejection,
    complex_to_dict,
    parse_complex,
    serialize_complex,
)
from plumbtwist.twists import apply_braid

MINIMAL = '{"n": 4, "char": 0, "summands": [{"vertex": 0, "position": 0}], "differential": []}'

OBSTRUCTED = json.dumps({
    "n": 3, "char": 0,
    "summands": [
        {"vertex": 1, "position": 1},
        {"vertex": 0, "position": 0},
        {"vertex": 1, "position": 0},
    ],
    "differential": [
        {"from": 0, "to": 1, "basis": "q", "coeff": "1"},
        {"from": 1, "to": 2, "basis": "p", "coeff": "1"},
    ],
})


# Child processes import the package the tests import, installed or not.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbtwist.__file__)))


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "plumbtwist.cli", *args],
        capture_output=True, text=True, input=stdin, env=CHILD_ENV,
    )
    return proc


# -- document format ------------------------------------------------------------------


def test_parse_minimal_document():
    c = parse_complex(MINIMAL)
    assert c.summands == (Summand(0, 0),)
    assert c.params.n == 4 and c.params.field.characteristic == 0


def test_parse_rejects_mc_violation_with_slot():
    with pytest.raises(ValidationRejection) as err:
        parse_complex(OBSTRUCTED)
    assert err.value.violations[0].slot == (0, 2)


def test_parse_rejects_schema_errors():
    with pytest.raises(DocumentError):
        parse_complex("{not json")
    with pytest.raises(DocumentError):
        parse_complex('{"n": 3, "summands": []}')  # missing char
    with pytest.raises(DocumentError):
        parse_complex('{"n": 3, "char": 0, "summands": [{"vertex": 5, "position": 0}]}')
    with pytest.raises(DocumentError):
        parse_complex(
            '{"n": 3, "char": 0, "summands": [{"vertex": 0, "position": 0}],'
            ' "differential": [{"from": 0, "to": 3, "basis": "p", "coeff": "1"}]}')


def test_serialize_round_trip_is_canonical():
    messy = json.dumps({
        "char": 5, "n": 3,
        "summands": [{"vertex": 0, "position": 1}, {"vertex": 1, "position": 1}],
        "differential": [{"from": 0, "to": 1, "basis": "p", "coeff": "11"}],
    })
    once = serialize_complex(parse_complex(messy))
    again = serialize_complex(parse_complex(once))
    assert once == again
    assert json.loads(once)["differential"] == [{"from": 0, "to": 1, "basis": "p", "coeff": "1"}]


def test_rational_coefficients_round_trip():
    P = make_params(3, 0)
    c = TwistedComplex(P, [Summand(0, 0), Summand(1, 0)], {(0, 1): {"p": "3/7"}})
    doc = complex_to_dict(c)
    assert doc["differential"][0]["coeff"] == "3/7"
    assert parse_complex(json.dumps(doc)).delta == c.delta


@pytest.mark.parametrize("characteristic, summed", [(32003, "2"), (0, "2"), (2, None)])
def test_duplicate_records_add(characteristic, summed):
    # Two records for one slot and basis add up; over F_2 they cancel and the slot disappears.
    entry = {"from": 0, "to": 1, "basis": "p", "coeff": "1"}
    doc = json.dumps({"n": 3, "char": characteristic, "summands": [{"vertex": 0, "position": 0},
                      {"vertex": 1, "position": 0}], "differential": [entry, entry]})
    c = parse_complex(doc)
    assert validate(c) == []
    want = [] if summed is None else [dict(entry, coeff=summed)]
    assert json.loads(serialize_complex(c))["differential"] == want


def _hostile(**override):
    """A valid complex Q0 -p-> Q1 with one value replaced."""
    summand = {"vertex": override.get("vertex", 0), "position": 0}
    entry = {"from": 0, "to": 1, "basis": "p", "coeff": override.get("coeff", "1")}
    return json.dumps({"n": 3, "char": 32003, "summands": [summand, {"vertex": 1, "position": 0}],
                       "differential": [entry]})


HOSTILE = {
    "float-coeff": _hostile(coeff=0.5),
    "bool-coeff": _hostile(coeff=True),
    "bool-vertex": _hostile(vertex=True),
    "zero-denominator": _hostile(coeff="1/0"),
    "underscore-coeff": _hostile(coeff="1_000"),
    "padded-coeff": _hostile(coeff=" +7 "),
    "non-ascii-digit-coeff": _hostile(coeff="\u0663"),
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "over-long-integer": '{"n": 3, "char": ' + "7" * 5000 + ', "summands": [], "differential": []}',
}


def test_hostile_baseline_parses():
    assert parse_complex(_hostile()).delta == {(0, 1): {"p": 1}}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_parse_rejects_hostile_values(name):
    with pytest.raises(DocumentError):
        parse_complex(HOSTILE[name])


@pytest.mark.parametrize("key, value", [("n", True), ("n", 3.0), ("char", False), ("char", 2.0)])
def test_parse_rejects_non_integer_parameters(key, value):
    doc = json.loads(MINIMAL)
    doc[key] = value
    with pytest.raises(DocumentError):
        parse_complex(json.dumps(doc))


def test_parse_rejects_bool_betti_and_indices():
    doc = json.loads(MINIMAL)
    doc["betti0"] = [True, 0, 0, 0, 1]
    with pytest.raises(DocumentError):
        parse_complex(json.dumps(doc))
    doc = json.loads(_hostile())
    doc["summands"][0]["position"] = 0.0
    with pytest.raises(DocumentError):
        parse_complex(json.dumps(doc))
    doc = json.loads(_hostile())
    doc["differential"][0]["from"] = False
    with pytest.raises(DocumentError):
        parse_complex(json.dumps(doc))


ILL_TYPED = {
    # an unknown basis name on a chain of two entries
    "unknown-name": json.dumps({
        "n": 3, "char": 32003,
        "summands": [{"vertex": 0, "position": 0}, {"vertex": 1, "position": 0}, {"vertex": 1, "position": 1}],
        "differential": [
            {"from": 0, "to": 1, "basis": "zzz", "coeff": "1"},
            {"from": 1, "to": 2, "basis": "e1", "coeff": "1"},
        ],
    }),
    # known names on the wrong slots, which do not compose
    "mislabelled": json.dumps({
        "n": 3, "char": 32003,
        "summands": [{"vertex": 0, "position": 0}, {"vertex": 1, "position": 0}, {"vertex": 1, "position": 0}],
        "differential": [
            {"from": 0, "to": 1, "basis": "e0", "coeff": "1"},
            {"from": 1, "to": 2, "basis": "q", "coeff": "1"},
        ],
    }),
}


@pytest.mark.parametrize("name", sorted(ILL_TYPED))
def test_parse_reports_ill_typed_names_as_degree_violations(name):
    with pytest.raises(ValidationRejection) as err:
        parse_complex(ILL_TYPED[name])
    assert err.value.violations
    assert {v.kind for v in err.value.violations} == {"degree"}


# -- CLI commands ----------------------------------------------------------------------


def test_cli_validate_ok(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(MINIMAL)
    proc = run_cli("validate", "--in", str(f))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["outputs"] == {"ok": True, "violations": []}


def test_cli_validate_rejects_obstruction(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(OBSTRUCTED)
    proc = run_cli("validate", "--in", str(f))
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["outputs"]["ok"] is False
    assert out["outputs"]["violations"][0]["slot"] == [0, 2]


def test_cli_schema_error_exit_code(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{")
    proc = run_cli("validate", "--in", str(f))
    assert proc.returncode == 2


def test_cli_twist_braid_hf_equiv(tmp_path):
    f = tmp_path / "q0.json"
    f.write_text(MINIMAL)
    twisted = run_cli("twist", "--in", str(f), "--letter", "s0")
    assert twisted.returncode == 0
    doc = json.loads(twisted.stdout)["outputs"]["complex"]
    assert doc["summands"] == [{"position": 3, "vertex": 0}]

    g = tmp_path / "t.json"
    g.write_text(json.dumps(doc))
    hf = run_cli("hf", "--a", str(f), "--b", str(g))
    assert json.loads(hf.stdout)["outputs"]["ranks"] == {"3": 1, "7": 1}

    equiv = run_cli("equiv", "--a", str(f), "--b", str(g))
    assert json.loads(equiv.stdout)["outputs"]["verdict"] == "no"

    braided = run_cli("braid", "--in", str(f), "--word", "s0 S0")
    assert braided.returncode == 0

    usage = run_cli("braid", "--in", str(f), "--word", "zz")
    assert usage.returncode == 2
    assert json.loads(usage.stdout)["outputs"]["error"] == "usage-error" or \
        json.loads(usage.stdout).get("error") == "usage-error"


def test_cli_normalize_and_exit_codes(tmp_path):
    f = tmp_path / "q0.json"
    f.write_text(MINIMAL)
    braided = run_cli("braid", "--in", str(f), "--word", "s0 s1")
    doc = json.loads(braided.stdout)["outputs"]["complex"]
    g = tmp_path / "image.json"
    g.write_text(json.dumps(doc))
    proc = run_cli("normalize", "--in", str(g))
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)["outputs"]["certificate"]
    assert cert["multiplicity"] == 1

    # inadmissible: two summands of the same core, shifted against each other
    bad = {
        "n": 4, "char": 0,
        "summands": [{"vertex": 0, "position": 0}, {"vertex": 0, "position": 1}],
        "differential": [],
    }
    h = tmp_path / "inadm.json"
    h.write_text(json.dumps(bad))
    proc = run_cli("normalize", "--in", str(h))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["outputs"]["error"] == "inadmissible"


def test_cli_normalize_refuses_contractible_input(tmp_path, capsys):
    q0 = single_core(make_params(3), 0)
    f = tmp_path / "contractible.json"
    f.write_text(serialize_complex(cone(Morphism(q0, q0, 0, {(0, 0): {"e0": 1}}))))
    assert main(["normalize", "--in", str(f)]) == 1
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "normalizer-dead-end"
    assert "quasi-isomorphic to zero" in out["detail"] and "no core's orbit" in out["detail"]


@pytest.mark.parametrize("characteristic", (2, 32003, 0))
def test_cli_normalize_certifies_six_copies(tmp_path, characteristic):
    image = apply_braid("s0 S1", single_core(make_params(3, characteristic), 0))
    six = image
    for _ in range(5):
        six = direct_sum(six, image)
    f = tmp_path / "six.json"
    f.write_text(serialize_complex(six))
    proc = run_cli("normalize", "--in", str(f))
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["outputs"]["certificate"]["multiplicity"] == 6


def test_cli_equiv_confirms_six_copies(tmp_path):
    six = single_core(make_params(3), 0)
    for _ in range(5):
        six = direct_sum(six, single_core(make_params(3), 0))
    f = tmp_path / "six.json"
    f.write_text(serialize_complex(six))
    proc = run_cli("equiv", "--a", str(f), "--b", str(f))
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["outputs"]["verdict"] == "yes"
    # The CLI decides c against itself by the identity; the search at its default seed confirms it too.
    assert _search_kernel(six, six, 0) == "yes"


def test_cli_out_writes_the_report_instead_of_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--n", "3", "feasibility", "--betti", "1,0,0,1"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["--n", "3", "feasibility", "--betti", "1,0,0,1"]) == 0
    written, printed = json.loads(out.read_text()), json.loads(capsys.readouterr().out)
    assert written["command"] == "feasibility"
    assert written["outputs"] == printed["outputs"] and "feasibility" in written["outputs"]


def test_cli_out_to_unwritable_path_is_usage_error(tmp_path, capsys):
    # A missing parent directory, not file permissions: root may write anywhere.
    out = tmp_path / "missing" / "report.json"
    assert main(["--out", str(out), "--n", "3", "feasibility", "--betti", "1,0,0,1"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "feasibility"
    assert report["outputs"]["error"] == "unwritable-output"
    assert str(out) in report["outputs"]["detail"]
    assert not out.parent.exists()


def test_cli_specialize_decompose_fibre(tmp_path):
    doc = {
        "n": 3, "char": 2,
        "summands": [
            {"vertex": 0, "position": 2}, {"vertex": 1, "position": 2}, {"vertex": 1, "position": 0},
        ],
        "differential": [
            {"from": 0, "to": 1, "basis": "p", "coeff": "1"},
            {"from": 1, "to": 2, "basis": "f1", "coeff": "1"},
        ],
    }
    f = tmp_path / "obstruction.json"
    f.write_text(json.dumps(doc))
    proc = run_cli("specialize", "--in", str(f), "--cover-vertex", "1", "--cover-index", "2")
    assert proc.returncode == 0
    specialized = json.loads(proc.stdout)["outputs"]["complex"]
    assert all(entry["basis"] != "f1" for entry in specialized["differential"])

    g = tmp_path / "specialized.json"
    g.write_text(json.dumps(specialized))
    pieces = json.loads(run_cli("decompose", "--in", str(g)).stdout)["outputs"]["pieces"]
    assert len(pieces) == 2

    fibre = json.loads(run_cli("fibre-rank", "--in", str(g), "--vertex", "0").stdout)["outputs"]
    assert fibre["total"] == 1

    mismatch = run_cli("specialize", "--in", str(f), "--cover-vertex", "1", "--cover-index", "3")
    assert mismatch.returncode == 1
    assert json.loads(mismatch.stdout)["outputs"]["error"] == "cover-mismatch"


def test_cli_feasibility_and_rank_table():
    proc = run_cli("--n", "4", "feasibility", "--betti", "1,0,2,0,1")
    out = json.loads(proc.stdout)["outputs"]["feasibility"]
    assert out["feasible"] is False and proc.returncode == 0

    proc = run_cli("--n", "3", "rank-table", "--k", "4")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "k,total_rank"
    assert len(lines) == 5


def test_cli_orbit_witness_deterministic():
    a = run_cli("--n", "3", "orbit-witness")
    b = run_cli("--n", "3", "orbit-witness")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["outputs"]["word"] == "s1 s0"


def test_cli_outputs_bit_identical(tmp_path):
    f = tmp_path / "q0.json"
    f.write_text(MINIMAL)
    a = run_cli("twist", "--in", str(f), "--letter", "s1")
    b = run_cli("twist", "--in", str(f), "--letter", "s1")
    assert a.stdout == b.stdout


def _inputs_digest(capsys, *argv):
    main(list(argv))
    return json.loads(capsys.readouterr().out)["inputs"]


def test_cli_inputs_digest_differs_for_different_documents_at_one_path(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(MINIMAL)
    first = _inputs_digest(capsys, "hf", "--a", str(f), "--b", str(f))
    f.write_text(MINIMAL.replace('"n": 4', '"n": 5'))
    assert _inputs_digest(capsys, "hf", "--a", str(f), "--b", str(f)) != first
    f.write_text("{")  # a schema error still reports which document was read
    broken = _inputs_digest(capsys, "validate", "--in", str(f))
    f.write_text("[")
    assert _inputs_digest(capsys, "validate", "--in", str(f)) != broken


def test_cli_inputs_digest_repeats_for_one_document(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(MINIMAL)
    first = _inputs_digest(capsys, "validate", "--in", str(f))
    assert _inputs_digest(capsys, "validate", "--in", str(f)) == first
    assert _inputs_digest(capsys, "fibre-rank", "--in", str(f), "--vertex", "0") != first


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_cli_hostile_document_is_schema_error(tmp_path, name):
    f = tmp_path / "hostile.json"
    f.write_text(HOSTILE[name])
    proc = run_cli("validate", "--in", str(f))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["error"] == "schema-error"


def test_cli_import_leaves_numpy_out():
    # -S skips site, so .pth files of the interpreter's installation cannot
    # load these modules first; dataclasses alone would bring in inspect.
    probe = ("import sys, plumbtwist.cli; "
             "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(ILL_TYPED))
def test_cli_ill_typed_names_are_rejected_not_crashed(tmp_path, capsys, name):
    f = tmp_path / "ill.json"
    f.write_text(ILL_TYPED[name])
    assert main(["validate", "--in", str(f)]) == 1
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["ok"] is False
    assert {v["kind"] for v in out["violations"]} == {"degree"}
    assert main(["hf", "--a", str(f), "--b", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["outputs"]["error"] == "validation-error"


ORBIT_MISSES = (
    # The word leaves Q0 where it was: one summand, but at the wrong vertex.
    lambda word, c: c,
    # The word doubles a Q1: the right vertex, but two summands.
    lambda word, c: direct_sum(single_core(c.params, 1), single_core(c.params, 1)),
)


@pytest.mark.parametrize("miss", range(len(ORBIT_MISSES)))
def test_cli_orbit_witness_search_exhausted(monkeypatch, capsys, miss):
    monkeypatch.setattr(twists, "apply_braid", ORBIT_MISSES[miss])
    assert main(["--n", "3", "orbit-witness"]) == 1
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "search-exhausted"
    assert out["detail"].startswith("s1 s0 does not carry Q0 to a shifted Q1 at n=3")


@pytest.mark.parametrize("argv", [["rank-table", "--k", "-3"], ["orbit-witness", "--max-length", "-2"]])
def test_cli_refuses_negative_counts(capsys, argv):
    assert main(["--n", "3", *argv]) == 2
    captured = capsys.readouterr()
    if argv[0] == "orbit-witness":
        # orbit-witness takes no length at all, so argparse refuses the option itself.
        assert captured.out == ""
        assert "unrecognized arguments: --max-length -2" in captured.err
        return
    out = json.loads(captured.out)["outputs"]
    assert out["error"] == "usage-error"
    assert f"{argv[1]} must be a non-negative integer, got {argv[2]}" == out["detail"]


def test_cli_rank_table_refuses_k_above_the_cap_before_any_twist(monkeypatch, capsys):
    calls = []
    real = twists.twist

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twists, "twist", counted)
    monkeypatch.setattr(cli, "MAX_RANK_TABLE_K", 2)
    assert main(["--n", "3", "rank-table", "--k", "2"]) == 0
    assert capsys.readouterr().out == "k,total_rank\n1,1\n2,1\n"
    assert len(calls) == 4
    calls.clear()
    assert main(["--n", "3", "rank-table", "--k", "3"]) == 2
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out == {"error": "budget-exceeded", "detail": "--k must be at most 2, got 3"}
    assert calls == []


def test_cli_refuses_absurd_n(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": MAX_N + 1, "char": 2, "summands": [], "differential": []}))
    assert main(["validate", "--in", str(f)]) == 2
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "schema-error" and f"at most {MAX_N}" in out["detail"]
    assert main(["--n", str(MAX_N + 1), "rank-table", "--k", "1"]) == 2
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "usage-error" and f"at most {MAX_N}" in out["detail"]


def test_cli_refuses_huge_characteristic(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division on it would run for hours, so it is refused first.
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 3, "char": MAX_CHARACTERISTIC, "summands": [], "differential": []}))
    assert main(["validate", "--in", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == {"ok": True, "violations": []}
    f.write_text(json.dumps({"n": 3, "char": 2**61 - 1, "summands": [], "differential": []}))
    assert main(["validate", "--in", str(f)]) == 2
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "schema-error" and f"at most {MAX_CHARACTERISTIC}" in out["detail"]
    assert main(["--char", str(MAX_CHARACTERISTIC), "rank-table", "--k", "1"]) == 0
    assert capsys.readouterr().out == "k,total_rank\n1,1\n"
    assert main(["--char", str(2**61 - 1), "rank-table", "--k", "1"]) == 2
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["error"] == "usage-error" and f"at most {MAX_CHARACTERISTIC}" in out["detail"]


# n = 4 Betti vectors whose interior entries total MAX_BETTI and one more.
AT_BETTI_BOUND = (1, 1, MAX_BETTI - 2, 1, 1)
OVER_BETTI_BOUND = (1, 1, MAX_BETTI - 1, 1, 1)


def _betti_run(tmp_path, capsys, betti0):
    """validate on a one-summand document with this betti0, then rank-table --k 0 with it as --betti0."""
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 4, "char": 32003, "betti0": list(betti0),
                             "summands": [{"vertex": 0, "position": 0}], "differential": []}))
    codes = [main(["validate", "--in", str(f)])]
    outs = [json.loads(capsys.readouterr().out)["outputs"]]
    codes.append(main(["--n", "4", "--betti0", ",".join(map(str, betti0)), "rank-table", "--k", "0"]))
    outs.append(capsys.readouterr().out)
    return codes, outs


def test_cli_accepts_betti_at_the_bound(tmp_path, capsys):
    codes, outs = _betti_run(tmp_path, capsys, AT_BETTI_BOUND)
    assert codes == [0, 0]
    assert outs == [{"ok": True, "violations": []}, "k,total_rank\n"]


def test_cli_refuses_betti_over_the_bound_before_any_category(tmp_path, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError("a Category was built")

    monkeypatch.setattr(category, "Category", refuse)
    codes, outs = _betti_run(tmp_path, capsys, OVER_BETTI_BOUND)
    assert codes == [2, 2]
    refused = [outs[0], json.loads(outs[1])["outputs"]]
    assert [out["error"] for out in refused] == ["schema-error", "usage-error"]
    assert all(f"total at most {MAX_BETTI} (got {MAX_BETTI + 1})" in out["detail"] for out in refused)


@pytest.mark.parametrize("betti", ["1,0,0,1", "2,0,0,1"])
def test_cli_timing_writes_one_stderr_line_and_leaves_the_report_alone(capsys, betti):
    argv = ["--n", "3", "feasibility", "--betti", betti]
    plain_code = main(argv)
    plain = capsys.readouterr()
    assert plain.err == ""
    # The inputs digest leaves --timing out, in every prefix argparse accepts, so every stdout byte is the same.
    for flag, at in (("--timing", 0), ("--tim", 2), ("--t", 0)):
        timed_code = main([*argv[:at], flag, *argv[at:]])
        timed = capsys.readouterr()
        assert timed_code == plain_code
        assert re.fullmatch(r"wall_time_ms=\d+\n", timed.err)
        assert timed.out == plain.out
