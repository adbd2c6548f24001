"""
The traced benchmark run (perfbench/run.py --trace 1) wraps plumbtwist
functions and methods by name from outside, in perfbench/spans.py. A rename
on the library side would silently zero its counters, so this installs the
recorder in-process and checks that the hooks still fire.
"""

import importlib.util
from pathlib import Path

import plumbtwist
from plumbtwist import complexes, normalizer, twists
from plumbtwist.category import make_params

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_hooks_fire():
    recorder = _load_spans().Recorder()
    recorder.install(plumbtwist)
    try:
        # Calls go through module attributes, which are what install patches.
        q0 = complexes.single_core(make_params(3), 0)
        x = twists.apply_braid("s0 S1 s0 S1", q0)
        assert len(x) == 5
        assert complexes.total_rank(complexes.hf_ranks(x, x)) > 0
        assert twists.check_braid_relation(q0) == complexes.YES
        assert normalizer.normalize(x).multiplicity == 1
    finally:
        recorder.uninstall()
    counts = recorder.counts
    assert counts["complexes.hom_builds"] > 0
    # matrix_build_cells and hom_nonzeros are read off the dense Matrix view.
    assert counts["linalg.matrix_build_cells"] > 0
    assert counts["complexes.hom_gens"] > 0
    assert counts["complexes.hom_nonzeros"] > 0
    assert counts["twists.twist_calls"] > 0
    assert counts["complexes.oracle_candidates"] > 0
    assert counts["complexes.oracle_cones"] > 0
    assert counts["category.compose_calls"] > 0
    assert counts["complexes.minimize_calls"] > 0
    assert counts["normalizer.steps"] > 0
