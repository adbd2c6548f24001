"""
The plumbtwist benchmark.

    python3 perfbench/run.py --workload pa-ladder --seed 1 --seconds 30 --trace 0

Sets up one workload from its seed, then runs whole passes of it within
--seconds (at least one pass), with one caller and no threads.
Every answer is checked against a known result (see oracle.py). The report
lists every metric by name and unit; the last line of stdout is one JSON
object with the end-to-end metrics (--trace 0) or, from a separate traced
run, the per-layer metrics (--trace 1).

Every pass makes the same calls on the same inputs, so each call is timed
at its median over the run's passes. On a shared machine the speed of the
host drifts for seconds to minutes at a time; the median of each call over
a whole run moves less with that than its fastest repeat, which depends on
whether a rare quiet moment happened to fall in the run. wall_s is one pass,
every call at its median; an operation time (braid_s, ...) is the part of it
spent in that operation.

The host's speed also drifts between runs, by up to 1.7 times within
minutes on a shared VM, and that no statistic inside a run removes. So
before each call the pass times a fixed probe of pure-Python work that
never touches plumbtwist (workloads.probe_seconds), and wall_ref_s is
wall_s rescaled to a host on which the probe's median takes REFERENCE_S:
wall_s * REFERENCE_S / (the probe's median over the run).

Exit codes: 0 when every answer is right, 1 on a wrong rank, verdict or
certificate (the JSON line still follows, with "correct": false), 2 when the
plumbtwist sources are missing from ../src.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import clicases
import workloads
from spans import Recorder
from workloads import Pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = clicases.OUT
SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
IMPORT_SAMPLES = 5
REFERENCE_S = 0.001  # the probe's time on the reference host; wall_ref_s is in seconds on that host
TIME_LIMIT_S = 170  # a run that would overrun stops with an error instead

WORKLOADS = {
    "pa-ladder": (workloads.setup_pa_ladder, workloads.pass_pa_ladder, None),
    "self-hom": (workloads.setup_self_hom, workloads.pass_self_hom, None),
    "rational-ladder": (workloads.setup_rational_ladder, workloads.pass_rational_ladder, None),
    "cli-roundtrip": (clicases.setup_cli_roundtrip, clicases.pass_cli_roundtrip, clicases.teardown_cli_roundtrip),
}


def listed_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class RunTimeout(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description="plumbtwist benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_plumbtwist():
    sys.path.insert(0, str(SRC))
    import plumbtwist

    if Path(plumbtwist.__file__).resolve().parent != SRC / "plumbtwist":
        raise ImportError(f"plumbtwist imported from {plumbtwist.__file__}, not from {SRC}")
    return plumbtwist


def setup_seconds(args) -> float:
    """Spawn-to-ready time of one fresh interpreter doing this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode} without getting ready")
    return elapsed


def import_seconds() -> float:
    """cli.import_s: a fresh `import plumbtwist.cli` minus a bare interpreter start (medians)."""
    env = clicases.child_env()
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import plumbtwist.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
            into.append(perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def run_passes(seconds: float, one_pass, min_passes: int = 1) -> list[Pass]:
    """
    Whole passes within `seconds` (at least min_passes): a pass starts only if
    it would end in time at the pace of the longest pass so far. Stops early at
    a fatal failure.
    """
    passes = []
    deadline = perf_counter() + seconds
    longest = 0.0
    while True:
        p = Pass()
        passes.append(p)
        t0 = perf_counter()
        try:
            one_pass(p)
        except RunTimeout:
            raise
        except Exception as exc:  # a crash is a failed operation: report it and stop
            p.failures.append(("uncaught exception", repr(exc), True))
        now = perf_counter()
        longest = max(longest, now - t0)
        if any(fatal for _, _, fatal in p.failures) or (now + longest > deadline and len(passes) >= min_passes):
            return passes


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it (nearest rank), and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def summarize(passes: list[Pass]) -> tuple[int, int, list[tuple[str, str, bool]]]:
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    return max(attempted, 1), len(failures), failures


def median_calls(passes: list[Pass]) -> list[tuple[str, float]]:
    """(operation, seconds) per call of a pass, each at its median over the run's passes."""
    count = min(len(p.calls) for p in passes)
    return [(passes[0].calls[i][0], statistics.median(p.calls[i][1] for p in passes)) for i in range(count)]


def op_seconds(calls: list[tuple[str, float]], kind: str) -> float:
    return sum(dt for k, dt in calls if k == kind)


def report_failures(failures, attempted: int) -> None:
    print(f"  fail_ratio         {len(failures) / attempted:.4f}   ({len(failures)} of {attempted} operations)")
    for case, reason, fatal in sorted(set(failures)):
        print(f"    {'FAILED' if fatal else 'failed (known defect, not fatal)'}: {case}: {reason}")


def measure(args, pt) -> tuple[dict, bool]:
    setup, run_pass, teardown = WORKLOADS[args.workload]
    st = setup(pt, args.seed)
    try:
        passes = run_passes(args.seconds, lambda p: run_pass(pt, st, p))
    finally:
        if teardown:
            teardown(st)
    # Read before the set-up interpreters start, so on cli-roundtrip only CLI processes count.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-roundtrip" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_times = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    attempted, failed, failures = summarize(passes)
    typical = median_calls(passes)
    probes = [x for p in passes for x in p.probes]
    probe = statistics.median(probes) if probes else REFERENCE_S  # none when the first call crashed
    wall = sum(dt for _, dt in typical)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ref_s": wall * REFERENCE_S / probe,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - failed / attempted,
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, {attempted} operations")
    print(f"  setup_s            {metrics['setup_s']:.4f} s    median of {len(setup_times)} fresh interpreters")
    print(f"  wall_s             {wall:.4f} s    one pass, each call at its median of {len(passes)}")
    print(f"  wall_ref_s         {metrics['wall_ref_s']:.4f} s    wall_s on a host where the probe takes "
          f"{REFERENCE_S * 1e3:g} ms; here its median was {probe * 1e3:.4f} ms")
    for kind, name in (("braid", "braid_s"), ("hf", "hf_s"), ("normalize", "normalize_s"), ("equiv", "equiv_s")):
        if any(k == kind for k, _ in typical):
            print(f"  {name:<18} {op_seconds(typical, kind):.4f} s    one pass's calls, each at its median")
        else:
            print(f"  {name:<18} n/a      no {kind} calls in this workload")
    verdicts = [v for p in passes for v in p.verdicts]
    if verdicts:
        decided = sum(v in ("yes", "no") for v in verdicts)
        print(f"  equiv_decided_ratio {decided / len(verdicts):.4f}   ({decided} of {len(verdicts)} calls)")
    if args.workload == "cli-roundtrip":
        times = [dt for p in passes for _, dt in p.calls]
        print(f"  cli_p50_s          {statistics.median(times):.4f} s    median of {len(times)} invocations")
        hit = tail(times)
        if hit:
            print(f"  cli_tail_s         {hit[1]:.4f} s    p{hit[0]} of {len(times)} invocations")
        else:
            print(f"  cli_tail_s         n/a      fewer than 11 invocations")
    print(f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB   "
          f"{'largest CLI process' if args.workload == 'cli-roundtrip' else 'this process'}")
    report_failures(failures, attempted)
    return emit(metrics, listed_metrics("end_to_end"), attempted, failed, failures)


def timed_pass(pt, st, run_pass, p: Pass) -> None:
    t0 = perf_counter()
    run_pass(pt, st, p)
    p.wall = perf_counter() - t0


def trace(args, pt) -> tuple[dict, bool]:
    setup, run_pass, teardown = WORKLOADS[args.workload]
    cli_import = import_seconds()
    st = setup(pt, args.seed)
    if "in_process" in st:
        st["in_process"] = True  # the traced run calls cli.main in this process, so spans see it
    rec = Recorder()
    layers: list[dict] = []
    untraced: list[float] = []
    traced: list[float] = []

    def one_pass(p):
        """Untraced and traced passes alternate, starting untraced."""
        if len(untraced) <= len(traced):
            timed_pass(pt, st, run_pass, p)
            untraced.append(p.wall)
            return
        rec.install(pt)
        try:
            wall, counts, first, end = rec.run_pass(run_pass, pt, st, p)
        finally:
            rec.uninstall()
        traced.append(wall)
        layers.append(rec.layer_metrics(first, end, counts))

    try:
        passes = run_passes(args.seconds, one_pass, min_passes=2)
    finally:
        if teardown:
            teardown(st)
    attempted, failed, failures = summarize(passes)
    if not layers:  # the first pass failed: report empty layers with the failure
        layers.append(rec.layer_metrics(0, 0, Counter()))
    metrics = {name: middle([layer[name] for layer in layers]) for name in layers[0]}
    metrics["cli.import_s"] = cli_import
    untraced_s = statistics.median(untraced) if untraced else 0.0
    metrics["trace.wall_s"] = statistics.median(traced) if traced else 0.0
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_s
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    rec.write(spans_file)
    print(f"workload {args.workload}, seed {args.seed}, traced: {len(traced)} traced and {len(untraced)} untraced "
          f"passes, {len(rec.names)} spans in {spans_file.relative_to(ROOT)}")
    print(f"  median pass: untraced {untraced_s:.4f} s, traced {metrics['trace.wall_s']:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:.4f} s")
    listed = listed_metrics("per_layer")
    for name, value in metrics.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {shown}{'' if name in listed else '   (report only)'}")
    report_failures(failures, attempted)
    return emit(metrics, listed, attempted, failed, failures)


def middle(values: list):
    """The median; for counts, which repeat exactly from pass to pass, a value that occurred."""
    return statistics.median_low(values) if all(isinstance(v, int) for v in values) else statistics.median(values)


def emit(metrics: dict, listed: dict, attempted: int, failed: int, failures) -> tuple[dict, bool]:
    correct = not any(fatal for _, _, fatal in failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed.items()},
    }
    return result, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plumbtwist" / "__init__.py").is_file():
        print(f"perfbench: no plumbtwist sources under {SRC}", file=sys.stderr)
        return 2

    def overrun(signum, frame):
        raise RunTimeout(f"run exceeded {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(TIME_LIMIT_S)
    try:
        if args.setup_only:
            pt = load_plumbtwist()
            setup, _, teardown = WORKLOADS[args.workload]
            st = setup(pt, args.seed)
            print("ready", flush=True)
            if teardown:
                teardown(st)
            return 0
        pt = load_plumbtwist()
        result, correct = (trace if args.trace else measure)(args, pt)
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
