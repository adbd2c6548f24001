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
        # The diagonal stage decides the braid relation; this reordered sum minimizes
        # to different slots, so the oracle's candidate search confirms it.
        y = complexes.shift(q0, -2)
        assert complexes.equivalent(complexes.direct_sum(x, y), complexes.direct_sum(y, x)) == complexes.YES
    finally:
        recorder.uninstall()
    counts = recorder.counts
    assert counts["complexes.hom_builds"] > 0
    # matrix_build_cells and hom_nonzeros are read off the dense Matrix view.
    assert counts["linalg.matrix_build_cells"] > 0
    # Exact on this fixed input, so a change to the hom layout or the twist fails here too.
    # normalize(x) twists each of its word's 3 letters once, in the reduction itself,
    # hf_ranks(x, x) is below ORBIT_SELF_HOM_LEN, so it builds the direct hom, and the
    # reordered sum's first candidate is an isomorphism.
    assert counts["complexes.hom_gens"] == 93
    assert counts["complexes.hom_nonzeros"] == 53
    assert counts["twists.twist_calls"] == 13
    assert counts["complexes.minimize_cancelled"] == 30
    assert counts["complexes.oracle_candidates"] == 1
    assert counts["complexes.oracle_cones"] == 1
    # Validation, cones and minimize still compose; hom columns read the product memo instead.
    assert counts["category.compose_calls"] > 0
    assert counts["complexes.minimize_calls"] > 0
    assert counts["normalizer.steps"] > 0
